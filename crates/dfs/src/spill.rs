//! The memory-budgeted spill plane: LRU residency tracking for
//! the DFS's tile files, backed by the on-disk
//! [`crate::blob::BlobStore`].
//!
//! The DFS keeps tile payloads resident as shared `Arc<Tile>` handles.
//! With a spill plane installed, the total decoded bytes those resident
//! handles pin is bounded by a configurable budget:
//! when a write or read-back admission pushes the plane over budget, the
//! **least-recently-used** resident files are *demoted* — encoded through
//! the ordinary [`cumulon_matrix::serialize::encode_tile`] wire codec,
//! optionally compressed, appended to a blob segment — and their in-RAM
//! payloads replaced by a `crate::datanode::BlockPayload::Spilled`
//! reference. The next read of a demoted file re-admits it through
//! [`crate::Dfs::read_tile_file`], transparently. Every non-phantom tile
//! file is tracked, a checkpoint's rewrite included.
//!
//! **A demotion pays only for bytes that have to move.** Re-admission
//! does not give the blob entry up: the file's `SpilledFile` moves from
//! the `spilled` map to the `backed` map and keeps its blob reference as
//! an on-disk *backing* for as long as the resident tile still has those
//! bytes. When a backed file goes cold again — a *clean* re-eviction —
//! the entry moves straight back and the replicas are swapped to
//! `Spilled` references: no encode, no compression, no write. A *dirty*
//! demotion writes the encoding under a key the plane mints for it
//! (`SpillPlane::mint_key`), so each entry is owned by exactly one file
//! and nothing is hashed.
//! The backing is released exactly where the bytes stop being the
//! file's: an overwrite (`SpillPlane::note_resident`), a delete — also
//! the one a checkpoint's rewrite makes — (`SpillPlane::forget`), a
//! demotion that finds the file gone or without a resident replica, and
//! the plane's own drop. Backed files are resident files, so the extra live disk bytes are
//! bounded by the budget. Which file is evicted when, and every logical
//! counter (`evictions`, `readmissions`, `spilled_bytes_total`), is the
//! same as if each demotion had written its bytes.
//!
//! **Nothing observable changes.** IO receipts are computed from namenode
//! block metadata (`BlockMeta.len`), placement RNG draws happen only at
//! write time, and datanode byte counters price payloads by their wire
//! length — which a `Spilled` reference preserves exactly. Where a tile
//! physically resides (RAM Arc vs disk segment) is invisible to results,
//! receipts, billing and fault handling; the equivalence tests and the
//! `spill-transparency` invariant of `cumulon check` pin this. The one
//! deliberate exception, documented in the tile-store tests: a tile that
//! round-trips through disk comes back as a *new* `Arc` with bitwise-equal
//! contents — pointer identity is only preserved while resident (same rule
//! the executor's replay validation already tolerates). Spill *statistics*
//! (like cache counters) may vary with worker-thread count, because
//! speculative execution can warm tiles ahead of canonical time.
//!
//! Phantom tiles are never tracked: they hold no materialised data, so
//! spilling them would save nothing.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::blob::{BlobKey, BlobStats, BlobStore};
use crate::error::Result;

/// Configuration of the out-of-core plane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpillConfig {
    /// Resident-tile budget in bytes; `0` disables spilling entirely
    /// (the seed behaviour — everything stays in RAM).
    pub budget_bytes: u64,
    /// Blob-segment directory. `None` picks a unique directory under the
    /// system temp dir, removed when the plane drops.
    pub dir: Option<PathBuf>,
    /// Compress spilled payloads ([`cumulon_matrix::compress`]); the
    /// uncompressed path is the cross-checked reference.
    pub compress: bool,
}

impl SpillConfig {
    /// A budgeted plane with defaults (temp-dir segments, compression on).
    pub fn budgeted(budget_bytes: u64) -> SpillConfig {
        SpillConfig {
            budget_bytes,
            dir: None,
            compress: true,
        }
    }
}

/// Counters of the spill plane. Monotonic totals plus current occupancy;
/// these are observability aids and may vary with worker-thread count
/// (speculative readers warm tiles early) — they are deliberately
/// excluded from run fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpillStats {
    /// Decoded bytes currently pinned by resident tracked files.
    pub resident_bytes: u64,
    /// Tracked files currently resident.
    pub resident_files: u64,
    /// Files currently demoted to the blob store.
    pub spilled_files: u64,
    /// Wire bytes of currently-demoted files (pre-compression).
    pub spilled_wire_bytes: u64,
    /// Demotions performed (monotonic).
    pub evictions: u64,
    /// Re-admissions performed (monotonic).
    pub readmissions: u64,
    /// Wire bytes pushed through the spill path (monotonic).
    pub spilled_bytes_total: u64,
    /// Wire bytes read back from disk (monotonic).
    pub readback_bytes_total: u64,
    /// Files re-admitted ahead of demand by scheduler prefetch
    /// (monotonic; a subset of `readmissions`).
    pub prefetched_files: u64,
    /// Wire bytes whose synchronous, in-task readback was avoided because
    /// a prefetched tile was still resident when the canonical read
    /// arrived (monotonic). `readback_bytes_total - readback_bytes_avoided`
    /// approximates the readback volume paid on the task critical path.
    pub readback_bytes_avoided: u64,
    /// Demotions of a file whose blob entry was still live from its last
    /// spill, which therefore moved no bytes (monotonic; a subset of
    /// `evictions`).
    pub clean_evictions: u64,
    /// Blob-store counters (segments, compression ratio, compactions).
    pub blob: BlobStats,
}

/// Where one file's encoded payload lives on disk — the file is either
/// demoted to it or resident and backed by it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpilledFile {
    /// Key of the blob entry, minted for this file when it was spilled
    /// ([`SpillPlane::mint_key`]).
    pub key: BlobKey,
    /// Wire length of the encoded tile (pre-compression) — equals the sum
    /// of the file's block lengths, which is what conservation checks.
    pub wire_len: u64,
}

static PLANE_SEQ: AtomicU64 = AtomicU64::new(0);

fn default_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "cumulon-spill-{}-{}",
        std::process::id(),
        PLANE_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn sorted_paths(files: &HashMap<String, SpilledFile>) -> Vec<String> {
    let mut v: Vec<String> = files.keys().cloned().collect();
    v.sort();
    v
}

/// The spill plane: residency LRU + blob store. Owned by the DFS state
/// and accessed under its lock, so the plane itself is single-threaded.
#[derive(Debug)]
pub struct SpillPlane {
    budget: u64,
    compress: bool,
    blob: BlobStore,
    /// path → (recency sequence, charged decoded bytes).
    resident: HashMap<String, (u64, u64)>,
    /// recency sequence → path; the smallest key is the coldest file.
    order: BTreeMap<u64, String>,
    resident_bytes: u64,
    seq: u64,
    spilled: HashMap<String, SpilledFile>,
    /// Resident paths whose bytes are also still on disk: re-admitted and
    /// not written since. Each entry holds one blob reference.
    backed: HashMap<String, SpilledFile>,
    /// Resident paths that were re-admitted by prefetch and have not yet
    /// been claimed by a canonical read: path → wire length at prefetch
    /// time. A marker is dropped without credit when the path is evicted
    /// or forgotten before any read arrives.
    prefetched: HashMap<String, u64>,
    /// The next blob key [`SpillPlane::mint_key`] hands out.
    next_key: u64,
    evictions: u64,
    readmissions: u64,
    spilled_bytes_total: u64,
    readback_bytes_total: u64,
    prefetched_files: u64,
    readback_bytes_avoided: u64,
    clean_evictions: u64,
}

impl SpillPlane {
    /// Builds a plane from a config with a nonzero budget.
    pub(crate) fn new(config: &SpillConfig) -> Result<SpillPlane> {
        debug_assert!(config.budget_bytes > 0, "budget 0 means no plane");
        let dir = config.dir.clone().unwrap_or_else(default_dir);
        Ok(SpillPlane {
            budget: config.budget_bytes,
            compress: config.compress,
            blob: BlobStore::open(dir)?,
            resident: HashMap::new(),
            order: BTreeMap::new(),
            resident_bytes: 0,
            seq: 0,
            spilled: HashMap::new(),
            backed: HashMap::new(),
            prefetched: HashMap::new(),
            next_key: 0,
            evictions: 0,
            readmissions: 0,
            spilled_bytes_total: 0,
            readback_bytes_total: 0,
            prefetched_files: 0,
            readback_bytes_avoided: 0,
            clean_evictions: 0,
        })
    }

    /// Whether payloads are compressed on the way to disk.
    pub(crate) fn compress(&self) -> bool {
        self.compress
    }

    /// The configured budget in bytes.
    pub(crate) fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// The blob store (conservation checks).
    pub fn blob(&self) -> &BlobStore {
        &self.blob
    }

    /// Mutable handle to the blob store (demotion/re-admission I/O).
    pub(crate) fn blob_mut(&mut self) -> &mut BlobStore {
        &mut self.blob
    }

    /// A blob key no entry of this plane's store has had: each dirty
    /// demotion writes its bytes under a key of its own, owned by the
    /// one file it spills. Keys count up from `[0, 0]` and are never
    /// reused, so finding a new entry costs a counter bump, not a pass
    /// over the bytes.
    pub(crate) fn mint_key(&mut self) -> BlobKey {
        let key = BlobKey([self.next_key, 0]);
        self.next_key += 1;
        key
    }

    /// Records `path` as resident under new contents, pinning `bytes` of
    /// decoded data, and marks it most-recently-used. Re-noting an
    /// already-resident path refreshes recency and updates the charge.
    ///
    /// A path must never be tracked as resident *and* spilled at once: a
    /// write landing on a currently-demoted path (overwrite without a
    /// preceding [`SpillPlane::forget`]) supersedes the demoted copy, and
    /// one landing on a backed path supersedes the backing. The displaced
    /// entry is returned so the caller can release its blob reference —
    /// dropping it silently would leak a segment ref and skew
    /// `spill_conserved()`.
    #[must_use = "a displaced entry holds a blob reference the caller must release"]
    pub(crate) fn note_resident(&mut self, path: &str, bytes: u64) -> Option<SpilledFile> {
        let displaced = self
            .spilled
            .remove(path)
            .or_else(|| self.backed.remove(path));
        self.admit(path, bytes);
        displaced
    }

    /// The LRU half of an admission: charge `bytes`, hottest position.
    fn admit(&mut self, path: &str, bytes: u64) {
        self.seq += 1;
        match self.resident.get_mut(path) {
            Some((seq, charged)) => {
                self.order.remove(seq);
                self.resident_bytes = self.resident_bytes - *charged + bytes;
                *charged = bytes;
                *seq = self.seq;
            }
            None => {
                self.resident.insert(path.to_string(), (self.seq, bytes));
                self.resident_bytes += bytes;
            }
        }
        self.order.insert(self.seq, path.to_string());
    }

    /// Refreshes recency of a resident path (reads). If the path carries
    /// an unclaimed prefetch marker, the read claims it: the wire bytes
    /// the reader would otherwise have read back synchronously are
    /// credited to `readback_bytes_avoided`.
    pub(crate) fn touch(&mut self, path: &str) {
        if let Some((seq, bytes)) = self.resident.get(path).copied() {
            self.seq += 1;
            self.order.remove(&seq);
            self.order.insert(self.seq, path.to_string());
            self.resident.insert(path.to_string(), (self.seq, bytes));
            if let Some(wire_len) = self.prefetched.remove(path) {
                self.readback_bytes_avoided += wire_len;
            }
        }
    }

    /// True when `path` is currently tracked as resident (its decoded
    /// payload is pinned in RAM). Test observability: the scheduler asks
    /// `Dfs::is_spilled` instead.
    #[cfg(test)]
    pub(crate) fn is_resident(&self, path: &str) -> bool {
        self.resident.contains_key(path)
    }

    /// True when `path` is currently demoted to the blob store. The
    /// scheduler's prefetch oracle: reading such a path pays a readback.
    pub(crate) fn is_spilled(&self, path: &str) -> bool {
        self.spilled.contains_key(path)
    }

    /// Marks a just-readmitted `path` as prefetched: re-admission ran
    /// ahead of demand (scheduler prefetch), not on a task's read path.
    /// The marker is claimed by the next read ([`SpillPlane::touch`]) and
    /// dropped without credit on eviction or forget.
    pub(crate) fn record_prefetched(&mut self, path: &str, wire_len: u64) {
        if self.resident.contains_key(path) {
            self.prefetched.insert(path.to_string(), wire_len);
            self.prefetched_files += 1;
        }
    }

    /// True when resident bytes exceed the budget.
    pub(crate) fn over_budget(&self) -> bool {
        self.resident_bytes > self.budget
    }

    /// Pops the coldest resident path if the plane is over budget,
    /// together with its on-disk backing if it has one. The caller
    /// performs the actual demotion and then books it — a backed file
    /// with [`SpillPlane::record_clean_eviction`], any other with
    /// [`SpillPlane::record_spilled`] — or, if the file turns out not to
    /// be demotable any more, releases the backing's blob reference.
    pub(crate) fn next_eviction(&mut self) -> Option<(String, Option<SpilledFile>)> {
        if !self.over_budget() {
            return None;
        }
        let (&seq, _) = self.order.iter().next()?;
        let path = self.order.remove(&seq)?;
        let (_, bytes) = self.resident.remove(&path).expect("ordered => resident");
        self.resident_bytes -= bytes;
        // A prefetched tile evicted before any read claimed it saved
        // nothing — drop the marker without credit.
        self.prefetched.remove(&path);
        let backing = self.backed.remove(&path);
        Some((path, backing))
    }

    /// Books a completed demotion of `path`. If the path is somehow still
    /// tracked as resident (a demotion not initiated through
    /// [`SpillPlane::next_eviction`]), its residency charge is released
    /// first so `resident_bytes` cannot drift; a previously-recorded
    /// spilled or backing entry for the same path is returned so the
    /// caller can release the superseded blob reference.
    #[must_use = "a displaced entry holds a blob reference the caller must release"]
    pub(crate) fn record_spilled(
        &mut self,
        path: &str,
        key: BlobKey,
        wire_len: u64,
    ) -> Option<SpilledFile> {
        if let Some((seq, bytes)) = self.resident.remove(path) {
            self.order.remove(&seq);
            self.resident_bytes -= bytes;
        }
        self.prefetched.remove(path);
        let displaced = self
            .spilled
            .insert(path.to_string(), SpilledFile { key, wire_len })
            .or_else(|| self.backed.remove(path));
        self.evictions += 1;
        self.spilled_bytes_total += wire_len;
        displaced
    }

    /// Books the demotion of a file popped by [`SpillPlane::next_eviction`]
    /// together with `backing`: the entry goes back to `spilled` with the
    /// blob reference it never gave up. Counts as an eviction of
    /// `wire_len` bytes like any other, and as a clean one.
    pub(crate) fn record_clean_eviction(&mut self, path: &str, backing: SpilledFile) {
        let displaced = self.record_spilled(path, backing.key, backing.wire_len);
        debug_assert!(displaced.is_none(), "a backed path has no other entry");
        self.clean_evictions += 1;
    }

    /// Looks up where a demoted file's payload lives.
    pub(crate) fn spilled(&self, path: &str) -> Option<SpilledFile> {
        self.spilled.get(path).copied()
    }

    /// Looks up the on-disk backing of a resident file.
    pub(crate) fn backing(&self, path: &str) -> Option<SpilledFile> {
        self.backed.get(path).copied()
    }

    /// Books a completed re-admission: the path stops being spilled and
    /// becomes resident, *backed* by the entry it was read from — the blob
    /// reference stays with the plane. Returns that entry (`None`, and
    /// nothing is booked, when the path was not spilled).
    pub(crate) fn record_readmitted(
        &mut self,
        path: &str,
        resident_bytes: u64,
    ) -> Option<SpilledFile> {
        let entry = self.spilled.remove(path)?;
        self.readmissions += 1;
        self.readback_bytes_total += entry.wire_len;
        self.backed.insert(path.to_string(), entry);
        self.admit(path, resident_bytes);
        Some(entry)
    }

    /// Forgets a path entirely (file deletion/overwrite). Returns the
    /// entry if the path was demoted or backed, so the caller can release
    /// the blob reference.
    #[must_use = "a forgotten entry holds a blob reference the caller must release"]
    pub(crate) fn forget(&mut self, path: &str) -> Option<SpilledFile> {
        if let Some((seq, bytes)) = self.resident.remove(path) {
            self.order.remove(&seq);
            self.resident_bytes -= bytes;
        }
        self.prefetched.remove(path);
        self.spilled
            .remove(path)
            .or_else(|| self.backed.remove(path))
    }

    /// Paths currently demoted (for conservation checks), in namespace
    /// order.
    pub(crate) fn spilled_paths(&self) -> Vec<String> {
        sorted_paths(&self.spilled)
    }

    /// Resident paths with an on-disk backing (for conservation checks),
    /// in namespace order.
    pub(crate) fn backed_paths(&self) -> Vec<String> {
        sorted_paths(&self.backed)
    }

    /// Resident paths from coldest to hottest (test observability).
    #[cfg(test)]
    pub(crate) fn lru_order(&self) -> Vec<String> {
        self.order.values().cloned().collect()
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> SpillStats {
        SpillStats {
            resident_bytes: self.resident_bytes,
            resident_files: self.resident.len() as u64,
            spilled_files: self.spilled.len() as u64,
            spilled_wire_bytes: self.spilled.values().map(|s| s.wire_len).sum(),
            evictions: self.evictions,
            readmissions: self.readmissions,
            spilled_bytes_total: self.spilled_bytes_total,
            readback_bytes_total: self.readback_bytes_total,
            prefetched_files: self.prefetched_files,
            readback_bytes_avoided: self.readback_bytes_avoided,
            clean_evictions: self.clean_evictions,
            blob: self.blob.stats(),
        }
    }

    /// Internal-consistency audit, used by the interleaving tests: no
    /// path may be tracked as resident and spilled at once, a path has at
    /// most one on-disk entry (spilled *or* backed), only resident paths
    /// are backed, the byte charge must equal the sum of per-path
    /// charges, the LRU order map must mirror the resident map exactly,
    /// and prefetch markers may only annotate resident paths.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) -> std::result::Result<(), String> {
        for path in self.resident.keys() {
            if self.spilled.contains_key(path) {
                return Err(format!("{path} is both resident and spilled"));
            }
        }
        for path in self.backed.keys() {
            if self.spilled.contains_key(path) {
                return Err(format!("{path} is both backed and spilled"));
            }
            if !self.resident.contains_key(path) {
                return Err(format!("{path} is backed but not resident"));
            }
        }
        let charged: u64 = self.resident.values().map(|&(_, b)| b).sum();
        if charged != self.resident_bytes {
            return Err(format!(
                "resident_bytes {} != sum of charges {}",
                self.resident_bytes, charged
            ));
        }
        if self.order.len() != self.resident.len() {
            return Err(format!(
                "order map has {} entries, resident map {}",
                self.order.len(),
                self.resident.len()
            ));
        }
        for (seq, path) in &self.order {
            match self.resident.get(path) {
                Some((s, _)) if s == seq => {}
                _ => return Err(format!("order entry {seq}->{path} not mirrored")),
            }
        }
        for path in self.prefetched.keys() {
            if !self.resident.contains_key(path) {
                return Err(format!("prefetch marker on non-resident {path}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn plane(budget: u64) -> SpillPlane {
        SpillPlane::new(&SpillConfig::budgeted(budget)).unwrap()
    }

    /// Admits a fresh path: no spilled entry may be displaced.
    fn admit(p: &mut SpillPlane, path: &str, bytes: u64) {
        assert!(p.note_resident(path, bytes).is_none(), "fresh admit");
    }

    /// Pops the coldest path, which must be dirty (never spilled, or
    /// written since): there is no backing to carry along.
    fn evict_dirty(p: &mut SpillPlane) -> Option<String> {
        let (path, backing) = p.next_eviction()?;
        assert!(backing.is_none(), "{path} was expected to be dirty");
        Some(path)
    }

    #[test]
    fn lru_evicts_coldest_first() {
        let mut p = plane(100);
        admit(&mut p, "/a", 40);
        admit(&mut p, "/b", 40);
        admit(&mut p, "/c", 40); // 120 > 100
        assert_eq!(p.lru_order(), ["/a", "/b", "/c"]);
        assert_eq!(evict_dirty(&mut p).as_deref(), Some("/a"));
        assert!(p.next_eviction().is_none(), "80 <= 100 after evicting /a");
        // Touch /b so /c becomes coldest, then push over budget again.
        p.touch("/b");
        admit(&mut p, "/d", 40);
        assert_eq!(evict_dirty(&mut p).as_deref(), Some("/c"));
        assert!(!p.over_budget());
    }

    #[test]
    fn budget_is_enforced_exhaustively() {
        let mut p = plane(64);
        for i in 0..10 {
            admit(&mut p, &format!("/t{i}"), 32);
        }
        let mut evicted = Vec::new();
        while let Some(path) = evict_dirty(&mut p) {
            evicted.push(path);
        }
        assert_eq!(evicted.len(), 8, "320 - 8*32 = 64 <= budget");
        assert_eq!(p.stats().resident_bytes, 64);
        assert!(p.stats().resident_bytes <= p.budget_bytes());
        // Coldest first: the first writes went first.
        assert_eq!(evicted[0], "/t0");
        assert_eq!(evicted[7], "/t7");
    }

    #[test]
    fn renoting_updates_charge_without_double_count() {
        let mut p = plane(1000);
        admit(&mut p, "/a", 100);
        admit(&mut p, "/a", 100);
        assert_eq!(p.stats().resident_bytes, 100);
        assert_eq!(p.stats().resident_files, 1);
        admit(&mut p, "/a", 60);
        assert_eq!(p.stats().resident_bytes, 60);
    }

    #[test]
    fn spill_readmit_forget_bookkeeping() {
        let mut p = plane(10);
        admit(&mut p, "/a", 50);
        let path = evict_dirty(&mut p).unwrap();
        assert_eq!(path, "/a");
        let key = BlobKey::digest(b"payload");
        assert!(p.record_spilled(&path, key, 48).is_none());
        let st = p.stats();
        assert_eq!(st.spilled_files, 1);
        assert_eq!(st.spilled_wire_bytes, 48);
        assert_eq!(st.evictions, 1);
        assert_eq!(p.spilled("/a").unwrap().key, key);
        assert_eq!(p.spilled_paths(), ["/a"]);
        assert!(p.is_spilled("/a") && !p.is_resident("/a"));

        // Readmission keeps the entry as the resident file's backing.
        let entry = p.record_readmitted("/a", 50).unwrap();
        assert_eq!(entry.key, key);
        let st = p.stats();
        assert_eq!(st.spilled_files, 0);
        assert_eq!(st.readmissions, 1);
        assert_eq!(st.readback_bytes_total, 48);
        assert_eq!(st.resident_bytes, 50);
        assert!(p.is_resident("/a") && !p.is_spilled("/a"));
        assert_eq!(p.backing("/a").unwrap().key, key);
        assert_eq!(p.backed_paths(), ["/a"]);
        assert!(p.record_readmitted("/a", 50).is_none(), "not spilled now");
        assert_eq!(p.stats().readmissions, 1, "nothing booked");
        p.check_invariants().unwrap();

        // Going cold again, the backing travels with the path and the
        // demotion is booked as clean — a full eviction in every counter.
        let (path, backing) = p.next_eviction().unwrap();
        let backing = backing.expect("readmitted and not written since");
        assert!(p.backing("/a").is_none(), "handed to the caller");
        p.record_clean_eviction(&path, backing);
        let st = p.stats();
        assert_eq!((st.evictions, st.clean_evictions), (2, 1));
        assert_eq!(st.spilled_bytes_total, 96);
        assert_eq!(p.spilled("/a").unwrap().key, key);
        p.check_invariants().unwrap();

        // Forgetting a backed path surfaces the reference exactly once.
        p.record_readmitted("/a", 50).unwrap();
        assert_eq!(p.forget("/a").unwrap().key, key);
        assert_eq!(p.stats().resident_bytes, 0);
        assert!(p.backing("/a").is_none());
        assert!(p.forget("/a").is_none(), "idempotent");
        p.check_invariants().unwrap();
    }

    #[test]
    fn overwrite_of_backed_path_displaces_the_backing() {
        let mut p = plane(10);
        admit(&mut p, "/a", 50);
        let path = evict_dirty(&mut p).unwrap();
        let key = BlobKey::digest(b"old");
        assert!(p.record_spilled(&path, key, 48).is_none());
        p.record_readmitted("/a", 50).unwrap();
        // New contents land on the resident, backed path: the bytes on
        // disk are no longer the file's.
        let displaced = p.note_resident("/a", 60).expect("backing surfaced");
        assert_eq!(displaced.key, key);
        assert!(p.backing("/a").is_none());
        assert_eq!(p.stats().resident_bytes, 60);
        assert_eq!(evict_dirty(&mut p).as_deref(), Some("/a"));
        p.check_invariants().unwrap();
    }

    #[test]
    fn touch_of_unknown_path_is_a_noop() {
        let mut p = plane(10);
        p.touch("/ghost");
        assert_eq!(p.stats().resident_files, 0);
    }

    #[test]
    fn prefetch_marker_is_claimed_exactly_once() {
        let mut p = plane(100);
        admit(&mut p, "/a", 120);
        let evicted = evict_dirty(&mut p).unwrap();
        assert!(p
            .record_spilled(&evicted, BlobKey::digest(b"a"), 96)
            .is_none());
        // Prefetch readmits the tile ahead of demand.
        assert!(p.record_readmitted("/a", 120).is_some());
        p.record_prefetched("/a", 96);
        assert_eq!(p.stats().prefetched_files, 1);
        assert_eq!(p.stats().readback_bytes_avoided, 0, "not yet claimed");
        // The canonical read claims the marker once.
        p.touch("/a");
        assert_eq!(p.stats().readback_bytes_avoided, 96);
        p.touch("/a");
        assert_eq!(p.stats().readback_bytes_avoided, 96, "claimed once");
        p.check_invariants().unwrap();
    }

    #[test]
    fn prefetch_marker_dropped_without_credit_on_churn() {
        let mut p = plane(100);
        admit(&mut p, "/a", 120);
        let evicted = evict_dirty(&mut p).unwrap();
        let key = BlobKey::digest(b"a");
        assert!(p.record_spilled(&evicted, key, 96).is_none());
        assert!(p.record_readmitted("/a", 120).is_some());
        p.record_prefetched("/a", 96);
        // Re-evicted before any read claimed the prefetch: no credit,
        // and — the tile was never written — no bytes to move either.
        let (evicted, backing) = p.next_eviction().unwrap();
        p.record_clean_eviction(&evicted, backing.expect("prefetched => backed"));
        assert_eq!(p.stats().readback_bytes_avoided, 0);
        assert_eq!(p.stats().clean_evictions, 1);
        // Readmit (canonically this time) and forget before reading: the
        // second prefetch marker also dies without credit, and the
        // forget hands back the one reference the path ever held.
        assert!(p.record_readmitted("/a", 120).is_some());
        p.record_prefetched("/a", 96);
        assert_eq!(p.forget("/a").unwrap().key, key);
        p.touch("/a");
        assert_eq!(p.stats().readback_bytes_avoided, 0);
        assert_eq!(p.stats().prefetched_files, 2);
        p.check_invariants().unwrap();
    }

    #[test]
    fn prefetch_marker_requires_residency() {
        let mut p = plane(100);
        p.record_prefetched("/ghost", 64);
        assert_eq!(p.stats().prefetched_files, 0);
        p.check_invariants().unwrap();
    }

    #[test]
    fn overwrite_of_spilled_path_displaces_the_stale_entry() {
        let mut p = plane(10);
        admit(&mut p, "/a", 50);
        let evicted = evict_dirty(&mut p).unwrap();
        let key = BlobKey::digest(b"old");
        assert!(p.record_spilled(&evicted, key, 48).is_none());
        // A write lands on the demoted path without a forget: the plane
        // must not track the path in both maps, and the stale blob
        // reference surfaces for release.
        let displaced = p.note_resident("/a", 50).expect("stale entry surfaced");
        assert_eq!(displaced.key, key);
        assert!(p.is_resident("/a") && !p.is_spilled("/a"));
        assert_eq!(p.stats().resident_bytes, 50);
        p.check_invariants().unwrap();
    }

    #[test]
    fn direct_respill_of_resident_path_releases_the_charge() {
        let mut p = plane(1000);
        admit(&mut p, "/a", 50);
        // A demotion not initiated through next_eviction (caller bug or
        // churn race) must still release the residency charge.
        assert!(p.record_spilled("/a", BlobKey::digest(b"a"), 48).is_none());
        assert_eq!(p.stats().resident_bytes, 0);
        assert!(!p.is_resident("/a") && p.is_spilled("/a"));
        p.check_invariants().unwrap();
    }

    /// Satellite audit: arbitrary interleavings of admit / touch / evict+
    /// spill / readmit / prefetch / forget keep the plane internally
    /// consistent — no path in both maps, no budget-charge drift, no
    /// readback-avoided credit without a prior unclaimed prefetch — and
    /// agree with a model of the blob references the plane's caller
    /// holds: one per path in `spilled ∪ backed`, taken by a dirty
    /// demotion and given back by whatever the plane hands out.
    #[derive(Debug, Clone)]
    enum Op {
        Note(u8, u64),
        Touch(u8),
        EvictAndSpill,
        /// Readmit a spilled path; `true` models a prefetch (readmit ahead
        /// of demand, then mark — the only contract-valid way to mark).
        Readmit(u8, bool),
        Forget(u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..6, 1u64..200).prop_map(|(p, b)| Op::Note(p, b)),
            (0u8..6).prop_map(Op::Touch),
            Just(Op::EvictAndSpill),
            (0u8..6, any::<bool>()).prop_map(|(p, pf)| Op::Readmit(p, pf)),
            (0u8..6).prop_map(Op::Forget),
        ]
    }

    /// The demotion the DFS performs on a popped path, against the model:
    /// a backed path re-spills under its own key and takes no reference,
    /// a dirty one takes a reference on a key of its current version.
    fn demote(
        p: &mut SpillPlane,
        refs: &mut HashMap<String, BlobKey>,
        versions: &HashMap<String, u32>,
        victim: String,
        backing: Option<SpilledFile>,
    ) -> std::result::Result<(), TestCaseError> {
        match backing {
            Some(b) => {
                prop_assert_eq!(
                    refs.get(&victim),
                    Some(&b.key),
                    "backing is the model's ref"
                );
                p.record_clean_eviction(&victim, b);
            }
            None => {
                prop_assert!(!refs.contains_key(&victim), "dirty path holds no ref");
                let version = versions.get(&victim).copied().unwrap_or(0);
                let key = BlobKey::digest(format!("{victim}#{version}").as_bytes());
                let displaced = p.record_spilled(&victim, key, 64);
                prop_assert!(
                    displaced.is_none(),
                    "evicted path cannot already be spilled"
                );
                refs.insert(victim, key);
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn interleavings_preserve_plane_invariants(
            ops in proptest::collection::vec(op_strategy(), 1..120),
            budget in 50u64..400,
        ) {
            let mut p = plane(budget);
            let path = |i: u8| format!("/t{i}");
            // Model: the blob reference each path holds, and how many
            // times each path has been written.
            let mut refs: HashMap<String, BlobKey> = HashMap::new();
            let mut versions: HashMap<String, u32> = HashMap::new();
            let mut clean = 0u64;
            for op in ops {
                match op {
                    Op::Note(i, b) => {
                        *versions.entry(path(i)).or_default() += 1;
                        let displaced = p.note_resident(&path(i), b);
                        prop_assert_eq!(displaced.map(|d| d.key), refs.remove(&path(i)));
                    }
                    Op::Touch(i) => p.touch(&path(i)),
                    Op::EvictAndSpill => {
                        if let Some((victim, backing)) = p.next_eviction() {
                            clean += u64::from(backing.is_some());
                            demote(&mut p, &mut refs, &versions, victim, backing)?;
                        }
                    }
                    Op::Readmit(i, as_prefetch) => {
                        if p.is_spilled(&path(i)) {
                            let entry = p.record_readmitted(&path(i), 64);
                            prop_assert_eq!(entry.map(|e| e.key), refs.get(&path(i)).copied());
                            if as_prefetch {
                                p.record_prefetched(&path(i), 64);
                            }
                        }
                    }
                    Op::Forget(i) => {
                        let stale = p.forget(&path(i));
                        prop_assert_eq!(stale.map(|d| d.key), refs.remove(&path(i)));
                    }
                }
                p.check_invariants().map_err(TestCaseError::fail)?;
                let st = p.stats();
                prop_assert!(st.readback_bytes_avoided <= st.readback_bytes_total);
                prop_assert_eq!(
                    st.spilled_wire_bytes,
                    st.spilled_files * 64,
                    "every live spilled entry carries its wire length"
                );
                prop_assert_eq!(st.clean_evictions, clean);
                // The plane holds exactly the model's references, each
                // path in one of the two maps and under the model's key.
                let mut on_disk = p.spilled_paths();
                on_disk.extend(p.backed_paths());
                on_disk.sort();
                let mut modelled: Vec<String> = refs.keys().cloned().collect();
                modelled.sort();
                prop_assert_eq!(&on_disk, &modelled);
                for path in &on_disk {
                    let entry = p.spilled(path).or_else(|| p.backing(path)).expect("listed");
                    prop_assert_eq!(entry.key, refs[path]);
                }
            }
            // Draining all evictions always lands the plane within budget.
            while let Some((victim, backing)) = p.next_eviction() {
                demote(&mut p, &mut refs, &versions, victim, backing)?;
            }
            prop_assert!(p.stats().resident_bytes <= p.budget_bytes());
            p.check_invariants().map_err(TestCaseError::fail)?;
        }
    }
}
