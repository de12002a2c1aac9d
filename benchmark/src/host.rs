//! What the benchmark asks of the host: CPU clocks, peak RSS, a noise
//! sentinel and a descriptor for the baseline record.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads CPU clocks through 64-bit Linux's clock_gettime");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Seconds on a CPU-time clock. These clocks read the scheduler's
/// nanosecond run-time sums; `getrusage`, which the issue named, splits
/// the same sum into user and system by 4 ms tick samples, and per-round
/// differences of it came out quantised.
fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout the
    // cfg gate above pins, and `clock` is one of the two constants above,
    // both valid clock ids on Linux; the call writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// User + system CPU seconds of the whole process, all threads.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set of the process in MB, from `/proc/self/status`
/// (information only: it moved 10 % run to run on identical code, which is
/// why it is not gated). 0 if the kernel does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds one fixed integer spin loop takes: the same work on every
/// host and commit, so a reading above the baseline's means the host was
/// busy or throttled during the run, not that the program changed.
pub fn sentinel_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..2_000_000u32 {
        x = std::hint::black_box(
            x.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407),
        );
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// `rustc --version` of the toolchain on the path (`unknown` if absent).
pub fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let mut spun = 0.0;
        while spun < 30.0 {
            spun += sentinel_ms();
        }
        assert!(thread_cpu_s() > t0);
        assert!(process_cpu_s() > p0);
        assert!(peak_rss_mb() > 1.0);
        assert!(cores() >= 1);
    }
}
