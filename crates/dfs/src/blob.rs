//! On-disk blob store: the third (disk) tier of the storage hierarchy.
//!
//! Spilled tile payloads land here as entries in **append-only segment
//! files** (`seg-NNNNNN.blob` under the store's directory), each under a
//! 128-bit [`BlobKey`] its caller picks. The DFS keys entries by
//! *owner*: every dirty demotion writes under a key the spill plane mints
//! for the one file it spills (`crate::spill::SpillPlane::mint_key`),
//! so no byte is hashed on the way to disk. [`BlobKey::digest`] remains
//! for callers that want content keys: `put` under a key that is already
//! live takes a reference instead of writing, so identical bytes stored
//! under their digest dedupe to one copy. Re-spilling a tile that
//! round-tripped through RAM unchanged costs no new disk bytes either:
//! the spill plane keeps a readmitted file's reference as its on-disk
//! *backing* ([`crate::spill`]), so the entry is still live when the file
//! goes cold again and the demotion never encodes or calls `put` at all.
//! Entries carry a reference count (one per DFS file spilled to or
//! backed by them); releasing the last reference marks the entry's
//! bytes dead in its segment, and a **compaction pass** rewrites the live
//! remainder of garbage-heavy segments into the current segment and
//! deletes the old file. Compaction triggers automatically once a
//! segment's dead bytes outweigh its live bytes (and the segment is
//! sealed), which is exactly the state `drop_matrix` / checkpoint
//! truncation leaves behind. Two **store-wide** triggers back the
//! per-segment rule up for long iterative runs, whose churn can strand an
//! unbounded tail of sealed segments each just under 50% dead: when total
//! dead bytes exceed `DEFAULT_DEAD_SWEEP_BYTES` or the sealed-segment
//! count exceeds `DEFAULT_MAX_SEALED_SEGMENTS`, every sealed
//! garbage-bearing segment is swept.
//!
//! Segment entry framing (little-endian):
//!
//! ```text
//! [key: 16 bytes] [codec: u8] [stored_len: u32] [raw_len: u32] [payload]
//! ```
//!
//! The store never reads an entry it did not index in memory, so the
//! framing exists for crash-inspection and compaction rewrites, not for
//! recovery — the whole store lives for one simulation process and its
//! directory is removed on drop.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::PathBuf;

use cumulon_matrix::compress::Codec;

use crate::error::{DfsError, Result};

/// A 128-bit entry key. The spill plane mints one per spilled file
/// (a counter in the first word); [`BlobKey::digest`] derives one from
/// content, for callers that want identical bytes to share an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobKey(pub [u64; 2]);

impl BlobKey {
    /// Content key of a byte buffer: two independent FNV-1a streams, one
    /// byte at a time. Not cryptographic — collision resistance
    /// here only has to beat the handful of distinct tiles one simulation
    /// produces, and determinism (same bytes → same key on every run and
    /// platform) is the property the equivalence tests lean on.
    pub fn digest(bytes: &[u8]) -> BlobKey {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h1 = OFFSET;
        // Second stream: different offset basis, byte-shifted input.
        let mut h2 = OFFSET ^ 0x5bd1_e995_9d1b_54a5;
        for &b in bytes {
            h1 = (h1 ^ b as u64).wrapping_mul(PRIME);
            h2 = (h2 ^ (b as u64).rotate_left(3)).wrapping_mul(PRIME);
        }
        // Fold the length in so prefixes don't collide.
        h2 = (h2 ^ bytes.len() as u64).wrapping_mul(PRIME);
        BlobKey([h1, h2])
    }

    fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.0[0].to_le_bytes());
        out[8..].copy_from_slice(&self.0[1].to_le_bytes());
        out
    }
}

/// Where one live entry resides.
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    segment: u64,
    /// Offset of the payload (past the frame header) within the segment.
    offset: u64,
    /// Stored (possibly compressed) payload length.
    stored_len: u32,
    /// Uncompressed length.
    raw_len: u32,
    codec: Codec,
    /// Live references (DFS files currently pointing at this entry).
    refs: u32,
}

#[derive(Debug, Default)]
struct Segment {
    live_bytes: u64,
    dead_bytes: u64,
}

/// Aggregate counters for observability and the spill invariants.
/// Counters are monotonic totals; `live_bytes`/`dead_bytes` are the
/// current segment occupancy split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlobStats {
    /// Distinct live entries.
    pub live_entries: u64,
    /// Stored bytes of live entries (compressed form).
    pub live_bytes: u64,
    /// Stored bytes of dead entries not yet compacted away.
    pub dead_bytes: u64,
    /// Segment files currently on disk.
    pub segments: u64,
    /// Total payload bytes ever appended (compressed form).
    pub bytes_written: u64,
    /// Total uncompressed bytes ever appended (the pre-codec size).
    pub raw_bytes_written: u64,
    /// Total payload bytes read back out.
    pub bytes_read: u64,
    /// Compaction passes executed.
    pub compactions: u64,
    /// `put` calls answered by an existing entry (content dedupe).
    pub dedup_hits: u64,
}

impl BlobStats {
    /// Compression ratio achieved on everything ever written:
    /// uncompressed over stored (1.0 when nothing was written).
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_written == 0 {
            1.0
        } else {
            self.raw_bytes_written as f64 / self.bytes_written as f64
        }
    }
}

/// Append-only segment store of keyed entries. Single-threaded by
/// construction — the owner (the spill plane) serializes access.
#[derive(Debug)]
pub struct BlobStore {
    dir: PathBuf,
    /// Segment id → occupancy. Current (open) segment is the max id.
    segments: HashMap<u64, Segment>,
    entries: HashMap<BlobKey, EntryMeta>,
    next_segment: u64,
    current: Option<(u64, File)>,
    current_len: u64,
    /// Roll to a new segment past this many payload+frame bytes.
    segment_roll_bytes: u64,
    /// Store-wide sweep trigger: total dead bytes across all segments.
    dead_sweep_bytes: u64,
    /// Store-wide sweep trigger: sealed-segment count.
    max_sealed_segments: u64,
    stats: BlobStats,
}

const FRAME_HEADER: u64 = 16 + 1 + 4 + 4;
/// Default segment roll size: small enough that drop-heavy workloads
/// produce several segments for compaction to reclaim, large enough that
/// a segment amortizes its file handle.
pub(crate) const DEFAULT_SEGMENT_BYTES: u64 = 16 << 20;
/// Default store-wide dead-byte budget before a sweep fires (see
/// [`BlobStore::set_compaction_thresholds`]): a few segments' worth of
/// garbage, sized so long iterative runs reclaim space well before the
/// per-segment 50% trigger would.
pub(crate) const DEFAULT_DEAD_SWEEP_BYTES: u64 = 4 * DEFAULT_SEGMENT_BYTES;
/// Default sealed-segment count before a sweep fires.
pub(crate) const DEFAULT_MAX_SEALED_SEGMENTS: u64 = 64;

impl BlobStore {
    /// Opens (creates) a blob store rooted at `dir`. The directory is
    /// created if missing and removed again when the store drops.
    pub fn open(dir: PathBuf) -> Result<BlobStore> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| DfsError::Spill(format!("create {}: {e}", dir.display())))?;
        Ok(BlobStore {
            dir,
            segments: HashMap::new(),
            entries: HashMap::new(),
            next_segment: 0,
            current: None,
            current_len: 0,
            segment_roll_bytes: DEFAULT_SEGMENT_BYTES,
            dead_sweep_bytes: DEFAULT_DEAD_SWEEP_BYTES,
            max_sealed_segments: DEFAULT_MAX_SEALED_SEGMENTS,
            stats: BlobStats::default(),
        })
    }

    /// Overrides the segment roll size (tests drive compaction with tiny
    /// segments).
    #[cfg(test)]
    pub(crate) fn set_segment_roll_bytes(&mut self, bytes: u64) {
        self.segment_roll_bytes = bytes.max(1);
    }

    /// Overrides the store-wide sweep triggers: a sweep of every sealed
    /// garbage-bearing segment fires when total dead bytes exceed
    /// `dead_sweep_bytes` **or** more than `max_sealed_segments` sealed
    /// segments exist (and any garbage exists to reclaim). The per-segment
    /// 50% trigger alone lets long iterative runs accumulate an unbounded
    /// tail of sealed segments that each stay just under the threshold;
    /// the store-wide triggers bound that tail.
    #[cfg(test)]
    pub(crate) fn set_compaction_thresholds(
        &mut self,
        dead_sweep_bytes: u64,
        max_sealed_segments: u64,
    ) {
        self.dead_sweep_bytes = dead_sweep_bytes;
        self.max_sealed_segments = max_sealed_segments;
    }

    /// The store's on-disk directory.
    #[cfg(test)]
    pub(crate) fn dir(&self) -> &PathBuf {
        &self.dir
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg-{id:06}.blob"))
    }

    fn open_segment(&mut self) -> Result<()> {
        if self.current.is_some() && self.current_len < self.segment_roll_bytes {
            return Ok(());
        }
        let id = self.next_segment;
        self.next_segment += 1;
        let path = self.segment_path(id);
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| DfsError::Spill(format!("open {}: {e}", path.display())))?;
        self.segments.insert(id, Segment::default());
        self.current = Some((id, file));
        self.current_len = 0;
        Ok(())
    }

    /// Stores `data` (already encoded under `codec`, `raw_len` bytes
    /// before the codec) and takes one reference on it. If an entry with
    /// the same `key` is live, its refcount is bumped and nothing is
    /// written: content dedupe, for callers that key by
    /// [`BlobKey::digest`].
    pub fn put(&mut self, key: BlobKey, codec: Codec, data: &[u8], raw_len: u32) -> Result<()> {
        if let Some(e) = self.entries.get_mut(&key) {
            e.refs += 1;
            self.stats.dedup_hits += 1;
            return Ok(());
        }
        self.open_segment()?;
        let (seg_id, file) = self.current.as_mut().expect("segment open");
        let mut header = [0u8; FRAME_HEADER as usize];
        header[..16].copy_from_slice(&key.to_bytes());
        header[16] = codec.tag();
        header[17..21].copy_from_slice(&(data.len() as u32).to_le_bytes());
        header[21..].copy_from_slice(&raw_len.to_le_bytes());
        // Two writes, not one assembled frame: a second copy of a
        // tile-sized payload costs more than a 25-byte syscall.
        file.write_all(&header)
            .and_then(|()| file.write_all(data))
            .map_err(|e| DfsError::Spill(format!("append segment {seg_id}: {e}")))?;
        let offset = self.current_len + FRAME_HEADER;
        let seg_id = *seg_id;
        self.current_len += FRAME_HEADER + data.len() as u64;
        self.entries.insert(
            key,
            EntryMeta {
                segment: seg_id,
                offset,
                stored_len: data.len() as u32,
                raw_len,
                codec,
                refs: 1,
            },
        );
        let seg = self.segments.get_mut(&seg_id).expect("segment indexed");
        seg.live_bytes += data.len() as u64;
        self.stats.live_entries += 1;
        self.stats.live_bytes += data.len() as u64;
        self.stats.bytes_written += data.len() as u64;
        self.stats.raw_bytes_written += raw_len as u64;
        Ok(())
    }

    /// Reads an entry's stored payload and its codec. The caller owns
    /// decompression (the blob layer is codec-agnostic beyond framing).
    pub fn get(&mut self, key: BlobKey) -> Result<(Codec, Vec<u8>, u32)> {
        let e = *self
            .entries
            .get(&key)
            .ok_or_else(|| DfsError::Spill(format!("blob entry {key:?} not found")))?;
        let mut buf = vec![0u8; e.stored_len as usize];
        // The entry may live in the currently-open segment; reuse that
        // handle (reads move the cursor, appends re-seek to the end).
        if let Some((cur_id, file)) = self.current.as_mut() {
            if *cur_id == e.segment {
                file.seek(SeekFrom::Start(e.offset))
                    .and_then(|_| file.read_exact(&mut buf))
                    .and_then(|_| file.seek(SeekFrom::End(0)))
                    .map_err(|err| DfsError::Spill(format!("read segment {cur_id}: {err}")))?;
                self.stats.bytes_read += buf.len() as u64;
                return Ok((e.codec, buf, e.raw_len));
            }
        }
        let path = self.segment_path(e.segment);
        let mut file = File::open(&path)
            .map_err(|err| DfsError::Spill(format!("{}: {err}", path.display())))?;
        file.seek(SeekFrom::Start(e.offset))
            .and_then(|_| file.read_exact(&mut buf))
            .map_err(|err| DfsError::Spill(format!("read {}: {err}", path.display())))?;
        self.stats.bytes_read += buf.len() as u64;
        Ok((e.codec, buf, e.raw_len))
    }

    /// True when `key` has a live entry.
    #[cfg(test)]
    pub(crate) fn contains(&self, key: BlobKey) -> bool {
        self.entries.contains_key(&key)
    }

    /// Live references on `key`; `None` when it has no entry.
    pub(crate) fn refs(&self, key: BlobKey) -> Option<u32> {
        self.entries.get(&key).map(|e| e.refs)
    }

    /// Drops one reference; the last release kills the entry and may
    /// trigger compaction of its segment.
    pub(crate) fn release(&mut self, key: BlobKey) -> Result<()> {
        let e = self
            .entries
            .get_mut(&key)
            .ok_or_else(|| DfsError::Spill(format!("release of dead blob {key:?}")))?;
        e.refs -= 1;
        if e.refs > 0 {
            return Ok(());
        }
        let e = self.entries.remove(&key).expect("entry present");
        let seg = self.segments.get_mut(&e.segment).expect("segment indexed");
        seg.live_bytes -= e.stored_len as u64;
        seg.dead_bytes += e.stored_len as u64;
        self.stats.live_entries -= 1;
        self.stats.live_bytes -= e.stored_len as u64;
        self.stats.dead_bytes += e.stored_len as u64;
        self.maybe_compact(e.segment)?;
        self.maybe_sweep()?;
        Ok(())
    }

    /// Compacts `segment` when it is sealed and mostly dead.
    fn maybe_compact(&mut self, segment: u64) -> Result<()> {
        let is_current = matches!(self.current, Some((id, _)) if id == segment);
        let seg = self.segments.get(&segment).expect("segment indexed");
        if is_current || seg.dead_bytes <= seg.live_bytes {
            return Ok(());
        }
        self.compact_segment(segment)
    }

    /// Store-wide compaction trigger: when total dead bytes or the
    /// sealed-segment count outgrow their budgets, sweep every sealed
    /// segment carrying garbage. Catches the long-run tail the per-segment
    /// rule misses — many segments each slightly under 50% dead.
    fn maybe_sweep(&mut self) -> Result<()> {
        if self.stats.dead_bytes == 0 {
            return Ok(());
        }
        let sealed = self.segments.len() as u64 - u64::from(self.current.is_some());
        if self.stats.dead_bytes <= self.dead_sweep_bytes && sealed <= self.max_sealed_segments {
            return Ok(());
        }
        let current = self.current.as_ref().map(|(id, _)| *id);
        let mut victims: Vec<u64> = self
            .segments
            .iter()
            .filter(|(id, s)| Some(**id) != current && s.dead_bytes > 0)
            .map(|(id, _)| *id)
            .collect();
        victims.sort_unstable(); // deterministic rewrite order
        for id in victims {
            self.compact_segment(id)?;
        }
        Ok(())
    }

    /// Rewrites a segment's live entries into the current segment, then
    /// deletes its file. Dead-only segments are simply deleted.
    fn compact_segment(&mut self, segment: u64) -> Result<()> {
        let live_keys: Vec<BlobKey> = self
            .entries
            .iter()
            .filter(|(_, e)| e.segment == segment)
            .map(|(k, _)| *k)
            .collect();
        for key in live_keys {
            let (codec, data, raw_len) = self.get(key)?;
            let refs = self.entries.remove(&key).expect("live entry").refs;
            // Live/dead accounting: the old copy leaves its segment…
            let seg = self.segments.get_mut(&segment).expect("segment indexed");
            seg.live_bytes -= data.len() as u64;
            self.stats.live_entries -= 1;
            self.stats.live_bytes -= data.len() as u64;
            // …and a fresh copy lands in the current segment with the
            // same refcount. `put` re-counts bytes_written: compaction
            // I/O is real I/O and the stats should show it.
            self.put(key, codec, &data, raw_len)?;
            self.entries.get_mut(&key).expect("recreated").refs = refs;
        }
        let seg = self.segments.remove(&segment).expect("segment indexed");
        debug_assert_eq!(seg.live_bytes, 0, "compaction moved all live bytes");
        self.stats.dead_bytes -= seg.dead_bytes;
        let path = self.segment_path(segment);
        std::fs::remove_file(&path)
            .map_err(|e| DfsError::Spill(format!("remove {}: {e}", path.display())))?;
        self.stats.compactions += 1;
        Ok(())
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> BlobStats {
        let mut s = self.stats;
        s.segments = self.segments.len() as u64;
        s
    }
}

impl Drop for BlobStore {
    fn drop(&mut self) {
        // Best-effort cleanup: segments, then the directory if now empty.
        self.current = None;
        for id in self.segments.keys() {
            let _ = std::fs::remove_file(self.segment_path(*id));
        }
        let _ = std::fs::remove_dir(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulon_matrix::compress::maybe_compress;

    fn tmp_store(tag: &str) -> BlobStore {
        let dir =
            std::env::temp_dir().join(format!("cumulon-blob-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        BlobStore::open(dir).unwrap()
    }

    #[test]
    fn put_get_roundtrip_with_codec() {
        let mut s = tmp_store("roundtrip");
        let raw: Vec<u8> = (0..10_000u32).map(|i| (i % 7) as u8).collect();
        let (codec, stored) = maybe_compress(&raw);
        let key = BlobKey::digest(&raw);
        s.put(key, codec, &stored, raw.len() as u32).unwrap();
        let (c2, data, raw_len) = s.get(key).unwrap();
        assert_eq!(c2, codec);
        assert_eq!(&data[..], &stored[..]);
        assert_eq!(raw_len as usize, raw.len());
        assert_eq!(
            &cumulon_matrix::compress::decompress(c2, &data).unwrap()[..],
            &raw[..]
        );
        let st = s.stats();
        assert_eq!(st.live_entries, 1);
        assert!(st.compression_ratio() > 2.0, "{:?}", st);
    }

    #[test]
    fn content_dedupe_and_refcounts() {
        let mut s = tmp_store("dedupe");
        let raw = vec![9u8; 4096];
        let key = BlobKey::digest(&raw);
        s.put(key, Codec::Raw, &raw, raw.len() as u32).unwrap();
        s.put(key, Codec::Raw, &raw, raw.len() as u32).unwrap();
        let st = s.stats();
        assert_eq!(st.dedup_hits, 1);
        assert_eq!(st.live_entries, 1);
        assert_eq!(st.bytes_written, 4096, "second put wrote nothing");
        s.release(key).unwrap();
        assert!(s.contains(key), "one ref still live");
        s.release(key).unwrap();
        assert!(!s.contains(key));
        assert!(s.release(key).is_err(), "double release is a logic error");
    }

    #[test]
    fn digest_is_deterministic_and_length_sensitive() {
        assert_eq!(BlobKey::digest(b"abc"), BlobKey::digest(b"abc"));
        assert_ne!(BlobKey::digest(b"abc"), BlobKey::digest(b"abd"));
        assert_ne!(BlobKey::digest(b""), BlobKey::digest(b"\0"));
        assert_ne!(BlobKey::digest(b"a"), BlobKey::digest(b"a\0"));
    }

    #[test]
    fn segments_roll_and_compaction_reclaims() {
        let mut s = tmp_store("compact");
        s.set_segment_roll_bytes(1024);
        let mut keys = Vec::new();
        for i in 0..20u32 {
            // Distinct, incompressible-ish content per entry.
            let raw: Vec<u8> = (0..400u32)
                .map(|j| (i.wrapping_mul(37).wrapping_add(j * 11) % 251) as u8)
                .collect();
            let key = BlobKey::digest(&raw);
            s.put(key, Codec::Raw, &raw, raw.len() as u32).unwrap();
            keys.push((key, raw));
        }
        let st = s.stats();
        assert!(st.segments > 3, "tiny roll must produce segments: {st:?}");
        // Kill every other entry: sealed segments go >50% dead and
        // auto-compact; survivors must still read back intact.
        for (i, (key, _)) in keys.iter().enumerate() {
            if i % 2 == 0 {
                s.release(*key).unwrap();
            }
        }
        let st_after = s.stats();
        assert!(st_after.compactions > 0, "{st_after:?}");
        assert!(st_after.segments < st.segments, "{st_after:?} vs {st:?}");
        for (i, (key, raw)) in keys.iter().enumerate() {
            if i % 2 == 1 {
                let (codec, data, _) = s.get(*key).unwrap();
                assert_eq!(codec, Codec::Raw);
                assert_eq!(&data, raw, "entry {i} survived compaction");
            }
        }
        for (i, (key, _)) in keys.iter().enumerate() {
            if i % 2 == 1 {
                s.release(*key).unwrap();
            }
        }
        assert_eq!(s.stats().live_entries, 0);
    }

    /// Long-run churn regression: refcount churn across >16 MiB of
    /// segments, patterned so every sealed segment stays *under* the
    /// per-segment 50% trigger. Without the store-wide triggers the dead
    /// bytes and sealed-segment count grow without bound; with them the
    /// garbage stays within the configured budget.
    #[test]
    fn store_wide_triggers_bound_long_run_garbage() {
        const ENTRY: usize = 32 << 10; // 32 KiB entries
        const ENTRIES: u32 = 600; // ~18.75 MiB total churned
        let fill = |i: u32| -> Vec<u8> {
            let mut raw: Vec<u8> = (0..ENTRY as u32)
                .map(|j| (i.wrapping_mul(131).wrapping_add(j.wrapping_mul(7)) % 253) as u8)
                .collect();
            // Distinct content per index — mod-251 patterns alone repeat.
            raw[..4].copy_from_slice(&i.to_le_bytes());
            raw
        };

        // Control: thresholds effectively disabled reproduce the old
        // behaviour — garbage accumulates past 16 MiB of segment churn.
        let mut old = tmp_store("churn-unbounded");
        old.set_segment_roll_bytes(256 << 10); // 8 entries per segment
        old.set_compaction_thresholds(u64::MAX, u64::MAX);
        let mut sweep = tmp_store("churn-bounded");
        sweep.set_segment_roll_bytes(256 << 10);
        sweep.set_compaction_thresholds(1 << 20, 16); // 1 MiB dead budget

        for s in [&mut old, &mut sweep] {
            for i in 0..ENTRIES {
                let raw = fill(i);
                let key = BlobKey::digest(&raw);
                s.put(key, Codec::Raw, &raw, raw.len() as u32).unwrap();
                // Kill 3 of every 8 entries (per segment: 3 dead vs 5
                // live — always under the per-segment 50% rule).
                if i % 8 < 3 {
                    s.release(key).unwrap();
                }
            }
        }

        let st_old = old.stats();
        assert!(
            st_old.bytes_written > 16 << 20,
            "churned enough: {st_old:?}"
        );
        assert_eq!(st_old.compactions, 0, "per-segment rule never fires");
        assert!(st_old.dead_bytes > 6 << 20, "garbage unbounded: {st_old:?}");
        assert!(st_old.segments > 70, "segment tail unbounded: {st_old:?}");

        let st = sweep.stats();
        assert!(st.compactions > 0, "store-wide trigger fired: {st:?}");
        // Dead bytes stay within one budget of the trigger (a sweep runs
        // as soon as the budget is crossed, so at most the budget plus the
        // open segment's garbage remains).
        assert!(st.dead_bytes <= (1 << 20) + (256 << 10), "{st:?}");
        // The segment count stays near the floor live data needs (old
        // behaviour strands every churned segment forever).
        let live_floor = st.live_bytes / (256 << 10) + 4;
        assert!(st.segments <= live_floor, "{st:?} (floor {live_floor})");
        assert!(st.segments < st_old.segments, "{st:?} vs {st_old:?}");

        // Every surviving entry still reads back intact.
        for i in 0..ENTRIES {
            if i % 8 >= 3 {
                let raw = fill(i);
                let (codec, data, _) = sweep.get(BlobKey::digest(&raw)).unwrap();
                assert_eq!(codec, Codec::Raw);
                assert_eq!(data, raw, "entry {i} survived sweeps");
            }
        }

        // The segment-count trigger alone also bounds the tail: many
        // sealed mostly-live segments plus a trickle of garbage.
        let mut counted = tmp_store("churn-segcount");
        counted.set_segment_roll_bytes(64 << 10);
        counted.set_compaction_thresholds(u64::MAX, 8);
        let mut keys = Vec::new();
        for i in 0..64u32 {
            let raw: Vec<u8> = (0..16 << 10u32).map(|j| ((i + j) % 251) as u8).collect();
            let key = BlobKey::digest(&raw);
            counted
                .put(key, Codec::Raw, &raw, raw.len() as u32)
                .unwrap();
            keys.push(key);
        }
        // One release per key: each segment goes 25% dead — under the
        // per-segment rule, but the sealed count is far over 8.
        for key in keys.iter().step_by(4) {
            counted.release(*key).unwrap();
        }
        let st = counted.stats();
        assert!(st.compactions > 0, "{st:?}");
        assert_eq!(
            st.dead_bytes, 0,
            "count trigger swept all sealed garbage: {st:?}"
        );
    }

    #[test]
    fn drop_removes_directory() {
        let s = tmp_store("drop");
        let dir = s.dir().clone();
        drop(s);
        assert!(!dir.exists(), "{} should be cleaned up", dir.display());
    }
}
