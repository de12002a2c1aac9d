//! The measured loop: warm-up, a fixed number of identical rounds from one
//! closed-loop client, wall and CPU time per round, peak heap over the
//! whole timed section, and failures counted against attempts.
//!
//! Round counts are fixed so that every run of a workload does identical
//! work; `--seconds` cuts a run short on a host slower than the one the
//! rounds were sized on (see [`Plan::deadline`]).

use std::time::{Duration, Instant};

use cumulon_dfs::SpillStats;

use crate::spans::{self, Recorder, Span};
use crate::{alloc, host};

/// One workload's prepared state.
pub trait Fixture {
    /// One round: a fixed, seed-derived unit of user-visible work,
    /// identical every call. `Err` counts the round as failed.
    fn round(&self, ctx: &mut RoundCtx<'_>) -> Result<(), String>;

    /// Timed rounds of an untraced run: about 17 s of them on a quiet
    /// 2-core host, so that the 2nd percentile has a few samples below it.
    fn rounds(&self) -> u32;

    /// Digest of the reference outputs computed at set-up. Depends on the
    /// seed; rounds are checked against it.
    fn fingerprint(&self) -> String;

    /// Counters of the spill plane the rounds run against, if any.
    fn spill_stats(&self) -> Option<SpillStats> {
        None
    }

    /// Working-set bytes over the resident-tile budget (0 = no budget).
    fn ws_over_budget(&self) -> f64 {
        0.0
    }
}

/// What a round sees of the harness.
pub struct RoundCtx<'a> {
    /// Span recorder of the run (disabled in untraced runs).
    pub rec: &'a mut Recorder,
    /// Warm-up rounds may afford a fuller output check.
    pub warmup: bool,
    paused_wall: Duration,
    paused_cpu_s: f64,
}

impl RoundCtx<'_> {
    /// Runs the harness's own work — output checks, input refresh — off
    /// the round's clock: its wall time and its CPU are subtracted from
    /// the sample, and its heap excursion is forgotten. Recorded as a
    /// `bench.check` span so traced rounds still add up.
    pub fn pause<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let heap_peak = alloc::peak_bytes();
        let cpu0 = host::thread_cpu_s();
        let t0 = Instant::now();
        let out = self.rec.span("bench.check", |_| f());
        self.paused_wall += t0.elapsed();
        self.paused_cpu_s += host::thread_cpu_s() - cpu0;
        alloc::set_peak(heap_peak.max(alloc::live_bytes()));
        out
    }
}

/// How much to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Untimed rounds before the timed section.
    pub warmup: u32,
    /// Timed rounds.
    pub rounds: u32,
    /// Record spans.
    pub traced: bool,
    /// Stop sampling past this much timed wall once [`MIN_SAMPLES`] exist:
    /// what keeps a run on a busy host within `--seconds`.
    pub deadline: Duration,
}

/// Fewest samples a deadline-cut run keeps.
pub const MIN_SAMPLES: u32 = 30;

/// What one measured section produced.
pub struct Measured {
    /// Wall milliseconds of every timed round, pauses excluded.
    pub samples_ms: Vec<f64>,
    /// Process CPU milliseconds (all threads) spent while each timed round
    /// ran, pauses excluded.
    pub cpu_samples_ms: Vec<f64>,
    /// Peak live heap bytes during the timed section, pauses excluded.
    pub peak_heap_bytes: usize,
    /// Timed rounds started.
    pub attempted: u64,
    /// Timed rounds that returned `Err`.
    pub failed: u64,
    /// Warm-up rounds that returned `Err`: not samples, but their fuller
    /// output checks make the run incorrect all the same.
    pub warmup_failed: u64,
    /// Wall seconds of the warm-up rounds.
    pub warmup_s: f64,
    /// Wall seconds of the timed section, pauses included.
    pub wall_s: f64,
    /// Spans of the timed rounds (empty unless traced).
    pub spans: Vec<Span>,
}

impl Measured {
    /// Every output check passed, in warm-up too.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.warmup_failed == 0
    }
}

/// Runs `plan` against `fx` on the calling thread.
pub fn measure(fx: &dyn Fixture, plan: Plan) -> Measured {
    let (mut failed, mut warmup_failed) = (0, 0);
    let mut first_error = None;
    // One round: (wall ms, process CPU ms), pauses excluded.
    let mut run_round = |rec: &mut Recorder, warmup: bool| -> (f64, f64) {
        let mut ctx = RoundCtx {
            rec,
            warmup,
            paused_wall: Duration::ZERO,
            paused_cpu_s: 0.0,
        };
        let cpu0 = host::process_cpu_s();
        let t0 = Instant::now();
        let result = fx.round(&mut ctx);
        let wall = t0.elapsed().saturating_sub(ctx.paused_wall);
        let cpu_s = host::process_cpu_s() - cpu0 - ctx.paused_cpu_s;
        if let Err(e) = result {
            *(if warmup {
                &mut warmup_failed
            } else {
                &mut failed
            }) += 1;
            first_error.get_or_insert(e);
        }
        (wall.as_secs_f64() * 1e3, cpu_s * 1e3)
    };

    let mut idle = Recorder::new(false, Instant::now());
    let w0 = Instant::now();
    for _ in 0..plan.warmup {
        run_round(&mut idle, true);
    }
    let warmup_s = w0.elapsed().as_secs_f64();

    let mut rec = Recorder::new(plan.traced, Instant::now());
    let mut samples_ms = Vec::with_capacity(plan.rounds as usize);
    let mut cpu_samples_ms = Vec::with_capacity(plan.rounds as usize);
    alloc::set_peak(alloc::live_bytes());
    let t0 = Instant::now();
    for round in 0..plan.rounds {
        if round >= MIN_SAMPLES && t0.elapsed() > plan.deadline {
            break;
        }
        rec.set_round(round);
        let (wall_ms, cpu_ms) = rec.span(spans::ROUND, |rec| run_round(rec, false));
        samples_ms.push(wall_ms);
        cpu_samples_ms.push(cpu_ms);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_heap_bytes = alloc::peak_bytes();

    if let Some(e) = first_error {
        eprintln!("round failed: {e}");
    }
    Measured {
        attempted: samples_ms.len() as u64,
        failed,
        warmup_failed,
        samples_ms,
        cpu_samples_ms,
        peak_heap_bytes,
        warmup_s,
        wall_s,
        spans: rec.into_spans(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Every third round fails; each round pauses for longer than it works.
    #[derive(Default)]
    struct Toy {
        calls: Cell<u64>,
    }

    impl Fixture for Toy {
        fn round(&self, ctx: &mut RoundCtx<'_>) -> Result<(), String> {
            let n = ctx.rec.span("matrix.spin", |_| host::sentinel_ms());
            ctx.pause(|| std::thread::sleep(Duration::from_millis(20)));
            self.calls.set(self.calls.get() + 1);
            if self.calls.get().is_multiple_of(3) {
                return Err(format!("injected after {n} ms"));
            }
            Ok(())
        }

        fn rounds(&self) -> u32 {
            12
        }

        fn fingerprint(&self) -> String {
            "toy".into()
        }
    }

    #[test]
    fn counts_failures_excludes_pauses_and_traces_every_round() {
        let toy = Toy::default();
        let m = measure(
            &toy,
            Plan {
                warmup: 0,
                rounds: toy.rounds(),
                traced: true,
                deadline: Duration::from_secs(60),
            },
        );
        assert_eq!(m.attempted, 12);
        assert_eq!(m.failed, 4, "rounds 3, 6, 9 and 12 fail");
        assert_eq!(m.samples_ms.len(), 12);
        assert_eq!(m.cpu_samples_ms.len(), 12);
        // Each round sleeps 20 ms off the clock; samples hold the spin only.
        assert!(m.samples_ms.iter().all(|&s| s < 20.0), "{:?}", m.samples_ms);
        assert!(m.wall_s >= 0.24);
        let rounds = m.spans.iter().filter(|s| s.name == spans::ROUND).count();
        assert_eq!(rounds, 12);
        let layers = spans::layer_self_ms(&m.spans);
        assert!(layers["bench"] >= 12.0 * 20.0 * 0.9);
        assert!(layers["matrix"] > 0.0);
    }

    #[test]
    fn deadline_cuts_a_slow_run_but_keeps_the_minimum() {
        let m = measure(
            &Toy::default(),
            Plan {
                warmup: 3,
                rounds: 1000,
                traced: false,
                deadline: Duration::ZERO,
            },
        );
        assert_eq!(m.attempted, u64::from(MIN_SAMPLES));
        assert_eq!((m.failed, m.warmup_failed), (10, 1));
        assert!(m.spans.is_empty());
        assert!(m.warmup_s > 0.0);
    }
}
