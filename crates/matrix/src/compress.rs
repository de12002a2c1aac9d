//! Byte-level compression for the tile spill path.
//!
//! A std-only LZSS variant sitting *behind* the
//! [`crate::serialize::encode_tile`] / [`crate::serialize::decode_tile`]
//! boundary: the spill plane compresses the encoded wire bytes of a tile
//! before appending them to a blob segment and decompresses on read-back,
//! so the codec never needs to know about tile structure and the wire
//! format stays the single source of truth.
//!
//! Format of a compressed stream (all little-endian):
//!
//! ```text
//! [raw_len: u32] [token stream]
//! token stream = (control byte; 8 flags LSB-first) × (8 tokens)
//!   flag 0 → literal: 1 byte, copied verbatim
//!   flag 1 → match:   dist u16 (1..=65535 back), len u8 (+MIN_MATCH)
//! ```
//!
//! Matching is greedy over a 4-byte rolling hash with single-probe hash
//! heads — O(n), deterministic, no allocation besides the output. On
//! incompressible input the flag bits cost up to 12.5% growth, so the
//! spill path stores whichever of `{raw, compressed}` is smaller (see
//! [`maybe_compress`]); the identity path doubles as the cross-checked
//! reference for the conformance tests.
//!
//! The matcher runs at a small fraction of disk speed, and on a dense
//! Gaussian tile it finds nothing. [`maybe_compress`] therefore samples
//! first: buffers of `PROBE_MIN_LEN` bytes or more have a few small
//! windows spread over their length compressed, and a sample that does
//! not shrink sends the whole buffer down the `Raw` path untouched. The
//! probe reads only the bytes it is given, so the same buffer always
//! takes the same path. Both `Raw` arms ([`maybe_compress`],
//! [`decompress`]) borrow their input rather than copy it.

use std::borrow::Cow;

use crate::error::{MatrixError, Result};

/// Shortest match worth encoding (a match token costs 3 bytes + 1 flag
/// bit; a 4-byte match is the break-even point).
const MIN_MATCH: usize = 4;
/// Longest match one token can carry (`MIN_MATCH + u8::MAX`).
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Match window: how far back a distance can reach (u16 range).
const WINDOW: usize = 65_535;
/// Hash-head table size (power of two).
const HASH_BITS: u32 = 15;
/// Buffers shorter than this skip the probe: the full matcher is cheap
/// on them, and a sample of a small buffer is most of the buffer.
pub(crate) const PROBE_MIN_LEN: usize = 32 << 10;
/// The probe compresses this many windows, spread evenly from the first
/// byte of the buffer to its last…
const PROBE_WINDOWS: usize = 4;
/// …of this many bytes each.
const PROBE_WINDOW_LEN: usize = 2 << 10;

/// How a spilled buffer is stored, recorded next to the payload so
/// read-back knows whether to decompress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Stored verbatim — the uncompressed reference path.
    Raw,
    /// LZSS-compressed ([`lz_compress`] / [`lz_decompress`]).
    Lz,
}

impl Codec {
    /// Stable on-disk tag for blob-segment framing.
    pub fn tag(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::Lz => 1,
        }
    }
}

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    // FNV-ish multiplicative hash of a 4-byte prefix, folded to HASH_BITS.
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input` with greedy LZSS. Always succeeds; the output may
/// be larger than the input on incompressible data (callers that care use
/// [`maybe_compress`]).
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    assert!(
        input.len() <= u32::MAX as usize,
        "spill buffers are tile-sized; {} bytes exceeds the u32 frame",
        input.len()
    );
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    // heads[h] = last position whose 4-byte prefix hashed to h (+1; 0 = none).
    let mut heads = vec![0u32; 1 << HASH_BITS];
    let mut pos = 0usize;
    // Control byte staging: up to 8 tokens buffered, then flushed.
    let mut flags = 0u8;
    let mut nflags = 0u8;
    let mut pending: Vec<u8> = Vec::with_capacity(8 * 3);
    let flush = |out: &mut Vec<u8>, flags: &mut u8, nflags: &mut u8, pending: &mut Vec<u8>| {
        if *nflags > 0 {
            out.push(*flags);
            out.extend_from_slice(pending);
            pending.clear();
            *flags = 0;
            *nflags = 0;
        }
    };
    while pos < input.len() {
        let mut emitted_match = false;
        if pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let cand = heads[h] as usize;
            heads[h] = (pos + 1) as u32;
            if cand > 0 {
                let cand = cand - 1;
                let dist = pos - cand;
                if (1..=WINDOW).contains(&dist) {
                    // Extend the match as far as it goes (bounded).
                    let limit = (input.len() - pos).min(MAX_MATCH);
                    let mut len = 0usize;
                    while len < limit && input[cand + len] == input[pos + len] {
                        len += 1;
                    }
                    if len >= MIN_MATCH {
                        flags |= 1 << nflags;
                        pending.extend_from_slice(&(dist as u16).to_le_bytes());
                        pending.push((len - MIN_MATCH) as u8);
                        nflags += 1;
                        // Re-seed the hash head at a mid-match position so
                        // runs keep finding themselves.
                        let mid = pos + len / 2;
                        if mid + MIN_MATCH <= input.len() {
                            heads[hash4(&input[mid..])] = (mid + 1) as u32;
                        }
                        pos += len;
                        emitted_match = true;
                    }
                }
            }
        }
        if !emitted_match {
            pending.push(input[pos]);
            nflags += 1;
            pos += 1;
        }
        if nflags == 8 {
            flush(&mut out, &mut flags, &mut nflags, &mut pending);
        }
    }
    flush(&mut out, &mut flags, &mut nflags, &mut pending);
    out
}

/// Decompresses a [`lz_compress`] stream. Errors on any framing
/// inconsistency (truncation, out-of-range distances, length drift), and
/// on a header claiming more bytes than the stream could carry — before
/// anything is allocated for them.
pub fn lz_decompress(input: &[u8]) -> Result<Vec<u8>> {
    if input.len() < 4 {
        return Err(MatrixError::Corrupt("lz stream shorter than header".into()));
    }
    let raw_len = u32::from_le_bytes([input[0], input[1], input[2], input[3]]) as usize;
    // No token yields more than MAX_MATCH bytes per stream byte it takes.
    if raw_len > (input.len() - 4).saturating_mul(MAX_MATCH) {
        return Err(MatrixError::Corrupt(format!(
            "lz header claims {raw_len} raw bytes, more than a {}-byte stream can encode",
            input.len()
        )));
    }
    let mut out = vec![0u8; raw_len];
    // Bytes of `out` decoded so far.
    let mut n = 0usize;
    let mut pos = 4usize;
    while n < raw_len {
        if pos >= input.len() {
            return Err(MatrixError::Corrupt("lz stream truncated at flags".into()));
        }
        let flags = input[pos];
        pos += 1;
        for bit in 0..8 {
            if n == raw_len {
                break;
            }
            if flags & (1 << bit) == 0 {
                out[n] = *input
                    .get(pos)
                    .ok_or_else(|| MatrixError::Corrupt("lz literal truncated".into()))?;
                n += 1;
                pos += 1;
            } else {
                if pos + 3 > input.len() {
                    return Err(MatrixError::Corrupt("lz match token truncated".into()));
                }
                let dist = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                let len = input[pos + 2] as usize + MIN_MATCH;
                pos += 3;
                if dist == 0 || dist > n {
                    return Err(MatrixError::Corrupt(format!(
                        "lz match distance {dist} exceeds {n} decoded bytes"
                    )));
                }
                if n + len > raw_len {
                    return Err(MatrixError::Corrupt("lz match overruns raw length".into()));
                }
                let start = n - dist;
                // An overlapping match (dist < len) repeats the last
                // `dist` bytes. Copy it in chunks that double: after
                // `copied` bytes, `start..n + copied` already holds the
                // pattern, and while `copied` is a multiple of `dist` the
                // next chunk can take up to `dist + copied` bytes of it
                // without reaching the bytes it writes. A match that does
                // not overlap is one chunk.
                let mut copied = 0;
                while copied < len {
                    let c = (len - copied).min(dist + copied);
                    out.copy_within(start..start + c, n + copied);
                    copied += c;
                }
                n += len;
            }
        }
    }
    Ok(out)
}

/// True when a sample of `input` — [`PROBE_WINDOWS`] windows of
/// [`PROBE_WINDOW_LEN`] bytes, the first at the head and the last at the
/// tail — comes out of [`lz_compress`] strictly smaller than it went in.
fn probe_shrinks(input: &[u8]) -> bool {
    let stride = (input.len() - PROBE_WINDOW_LEN) / (PROBE_WINDOWS - 1);
    let mut sample = Vec::with_capacity(PROBE_WINDOWS * PROBE_WINDOW_LEN);
    for w in 0..PROBE_WINDOWS {
        sample.extend_from_slice(&input[w * stride..w * stride + PROBE_WINDOW_LEN]);
    }
    lz_compress(&sample).len() < sample.len()
}

/// Compresses when it helps: returns `(Codec::Lz, compressed)` when the
/// compressed form is strictly smaller, `(Codec::Raw, input)` — borrowed,
/// not copied — otherwise, so a spilled buffer never grows past its raw
/// size. Buffers of `PROBE_MIN_LEN` bytes or more whose sample does not
/// shrink (see the module docs) are `Raw` without running the matcher
/// over the whole of them.
pub fn maybe_compress(input: &[u8]) -> (Codec, Cow<'_, [u8]>) {
    if input.len() >= PROBE_MIN_LEN && !probe_shrinks(input) {
        return (Codec::Raw, Cow::Borrowed(input));
    }
    let lz = lz_compress(input);
    if lz.len() < input.len() {
        (Codec::Lz, Cow::Owned(lz))
    } else {
        (Codec::Raw, Cow::Borrowed(input))
    }
}

/// Decodes a buffer stored under `codec` back to raw bytes; a `Raw`
/// buffer is its own decoding and comes back borrowed.
pub fn decompress(codec: Codec, data: &[u8]) -> Result<Cow<'_, [u8]>> {
    match codec {
        Codec::Raw => Ok(Cow::Borrowed(data)),
        Codec::Lz => lz_decompress(data).map(Cow::Owned),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{decode_tile, encode_tile};
    use crate::Tile;
    use proptest::prelude::*;

    fn roundtrip(input: &[u8]) {
        let lz = lz_compress(input);
        let back = lz_decompress(&lz).expect("decompress");
        assert_eq!(back, input, "lz roundtrip must be identity");
        let (codec, stored) = maybe_compress(input);
        assert_eq!(&decompress(codec, &stored).unwrap()[..], input);
        assert!(
            stored.len() <= input.len().max(4),
            "maybe_compress grew {} -> {}",
            input.len(),
            stored.len()
        );
    }

    /// `maybe_compress` before the probe existed: the whole-buffer matcher,
    /// then "strictly smaller or `Raw`".
    fn unprobed(input: &[u8]) -> (Codec, Vec<u8>) {
        let lz = lz_compress(input);
        if lz.len() < input.len() {
            (Codec::Lz, lz)
        } else {
            (Codec::Raw, input.to_vec())
        }
    }

    /// A `period`-cycle with one byte in `2^noise_bits` replaced by a
    /// random one (`noise_bits` 0: all of them).
    fn noisy_periodic(seed: u64, period: usize, noise_bits: u32, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let random = noise_bits == 0 || x >> (64 - noise_bits) == 0;
                if random {
                    (x >> 32) as u8
                } else {
                    (i % period) as u8
                }
            })
            .collect()
    }

    /// `len` bytes with no 4-byte repeats to speak of (a full-period LCG).
    fn noise(seed: u32, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect()
    }

    /// The byte-at-a-time decoder `lz_decompress` replaced, kept as the
    /// oracle for the chunked one. It has no header bound, so its
    /// reservation is capped here rather than trusted.
    fn reference_lz_decompress(input: &[u8]) -> Result<Vec<u8>> {
        if input.len() < 4 {
            return Err(MatrixError::Corrupt("lz stream shorter than header".into()));
        }
        let raw_len = u32::from_le_bytes([input[0], input[1], input[2], input[3]]) as usize;
        let mut out = Vec::with_capacity(raw_len.min(input.len() * MAX_MATCH));
        let mut pos = 4usize;
        while out.len() < raw_len {
            if pos >= input.len() {
                return Err(MatrixError::Corrupt("lz stream truncated at flags".into()));
            }
            let flags = input[pos];
            pos += 1;
            for bit in 0..8 {
                if out.len() == raw_len {
                    break;
                }
                if flags & (1 << bit) == 0 {
                    let b = *input
                        .get(pos)
                        .ok_or_else(|| MatrixError::Corrupt("lz literal truncated".into()))?;
                    out.push(b);
                    pos += 1;
                } else {
                    if pos + 3 > input.len() {
                        return Err(MatrixError::Corrupt("lz match token truncated".into()));
                    }
                    let dist = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                    let len = input[pos + 2] as usize + MIN_MATCH;
                    pos += 3;
                    if dist == 0 || dist > out.len() {
                        return Err(MatrixError::Corrupt(format!(
                            "lz match distance {dist} exceeds {} decoded bytes",
                            out.len()
                        )));
                    }
                    if out.len() + len > raw_len {
                        return Err(MatrixError::Corrupt("lz match overruns raw length".into()));
                    }
                    let start = out.len() - dist;
                    for i in 0..len {
                        let b = out[start + i];
                        out.push(b);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Both decoders on one stream: the same bytes, or both an error.
    fn decoders_agree(stream: &[u8]) -> std::result::Result<(), TestCaseError> {
        match (lz_decompress(stream), reference_lz_decompress(stream)) {
            (Ok(fast), Ok(slow)) => prop_assert_eq!(fast, slow),
            (fast, slow) => prop_assert_eq!(
                fast.is_err(),
                slow.is_err(),
                "chunked {:?} vs reference {:?}",
                fast,
                slow
            ),
        }
        Ok(())
    }

    /// The `(dist, len)` of every match token in a well-formed stream.
    fn match_tokens(stream: &[u8]) -> Vec<(usize, usize)> {
        let raw_len = u32::from_le_bytes([stream[0], stream[1], stream[2], stream[3]]) as usize;
        let (mut pos, mut n, mut tokens) = (4, 0, Vec::new());
        while n < raw_len {
            let flags = stream[pos];
            pos += 1;
            for bit in 0..8 {
                if n == raw_len {
                    break;
                }
                if flags & (1 << bit) == 0 {
                    n += 1;
                    pos += 1;
                } else {
                    let dist = u16::from_le_bytes([stream[pos], stream[pos + 1]]) as usize;
                    let len = stream[pos + 2] as usize + MIN_MATCH;
                    tokens.push((dist, len));
                    n += len;
                    pos += 3;
                }
            }
        }
        tokens
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(&[]);
        roundtrip(&[7]);
        roundtrip(&[1, 2, 3]);
        roundtrip(&[0; 4]);
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let input: Vec<u8> = (0..65_536u32).map(|i| (i % 16) as u8).collect();
        let lz = lz_compress(&input);
        assert!(
            lz.len() * 8 < input.len(),
            "16-byte cycle should compress >8x, got {} -> {}",
            input.len(),
            lz.len()
        );
        assert_eq!(lz_decompress(&lz).unwrap(), input);
    }

    #[test]
    fn zero_tile_encoding_compresses() {
        let t = Tile::zeros(64, 64);
        let wire = encode_tile(&t);
        let (codec, stored) = maybe_compress(&wire);
        assert_eq!(codec, Codec::Lz);
        assert!(
            stored.len() * 10 < wire.len(),
            "all-zero dense tile: {} -> {}",
            wire.len(),
            stored.len()
        );
        let back = decode_tile(decompress(codec, &stored).unwrap().into_owned().into()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn incompressible_input_stays_raw() {
        let input = noise(0x2545_F491, 4096);
        let (codec, stored) = maybe_compress(&input);
        assert_eq!(codec, Codec::Raw);
        assert_eq!(&stored[..], &input[..]);
    }

    #[test]
    fn probe_keeps_compressible_tiles_on_the_full_path() {
        let zeros = Tile::zeros(128, 128);
        let sparse =
            Tile::dense(crate::gen::sparse_uniform_tile(7, 0, 0, 128, 128, 0.05).to_dense());
        for t in [zeros, sparse] {
            let wire = encode_tile(&t);
            assert!(wire.len() >= PROBE_MIN_LEN, "tile must reach the probe");
            let (codec, stored) = maybe_compress(&wire);
            assert_eq!(codec, Codec::Lz);
            assert_eq!(
                &stored[..],
                &lz_compress(&wire)[..],
                "same bytes as unprobed"
            );
        }
    }

    #[test]
    fn probe_sends_gaussian_tiles_raw_without_copying() {
        let t = Tile::dense(crate::gen::dense_gaussian_tile(11, 0, 0, 128, 128));
        let wire = encode_tile(&t);
        assert!(wire.len() >= PROBE_MIN_LEN);
        let (codec, stored) = maybe_compress(&wire);
        assert_eq!(codec, Codec::Raw);
        assert!(matches!(stored, Cow::Borrowed(b) if std::ptr::eq(b, &wire[..])));
        let back = decompress(codec, &stored).unwrap();
        assert!(matches!(back, Cow::Borrowed(b) if std::ptr::eq(b, &wire[..])));
    }

    #[test]
    fn half_compressible_buffers_roundtrip_and_never_grow() {
        for half in [PROBE_MIN_LEN / 2, PROBE_MIN_LEN, 3 * PROBE_MIN_LEN] {
            let mut head_noisy = noise(3, half);
            head_noisy.resize(2 * half, 0);
            let mut tail_noisy = vec![0u8; half];
            tail_noisy.extend(noise(5, half));
            for input in [head_noisy, tail_noisy] {
                roundtrip(&input);
                // Half the sample is zeros, so the probe lets it through
                // and the stored form is the unprobed one.
                let (codec, stored) = maybe_compress(&input);
                assert_eq!((codec, stored.into_owned()), unprobed(&input));
            }
        }
        // A compressible stretch no window lands on is stored raw: the
        // saving is lost, the bytes are not.
        let mut input = noise(9, 4 * PROBE_MIN_LEN);
        input[3000..40_000].fill(0);
        roundtrip(&input);
        assert_eq!(maybe_compress(&input).0, Codec::Raw);
        assert_eq!(unprobed(&input).0, Codec::Lz);
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        assert!(lz_decompress(&[]).is_err());
        assert!(lz_decompress(&[9, 0, 0]).is_err());
        // Claims 100 raw bytes, provides nothing.
        assert!(lz_decompress(&[100, 0, 0, 0]).is_err());
        // Match referencing before the start of the output.
        let bad = [4u8, 0, 0, 0, 0b0000_0001, 9, 0, 0];
        assert!(lz_decompress(&bad).is_err());
        // Truncated match token.
        let bad = [8u8, 0, 0, 0, 0b0000_0010, b'a', 1, 0];
        assert!(lz_decompress(&bad).is_err());
    }

    #[test]
    fn a_header_that_outruns_the_stream_is_corrupt() {
        // Claims 4 GiB from two stream bytes: refused before allocating.
        let err = lz_decompress(&[0xff, 0xff, 0xff, 0xff, 0x00, 0x41]).unwrap_err();
        let MatrixError::Corrupt(message) = err else {
            panic!("{err:?}")
        };
        assert_eq!(
            message,
            "lz header claims 4294967295 raw bytes, more than a 6-byte stream can encode"
        );
        // The bound is MAX_MATCH bytes per stream byte, so the longest
        // run two stream bytes could ever claim still gets to the tokens.
        let at_bound = (2 * MAX_MATCH as u32).to_le_bytes();
        let err = lz_decompress(&[at_bound[0], at_bound[1], 0, 0, 0x00, 0x41]).unwrap_err();
        assert!(matches!(err, MatrixError::Corrupt(m) if m == "lz literal truncated"));
    }

    #[test]
    fn every_overlapping_match_shape_decodes() {
        // `dist` literals, then one match of every length that overlaps
        // them, then a literal: the match repeats the literals' pattern.
        for dist in 1..=40usize {
            for len in (dist + 1).max(MIN_MATCH)..=MAX_MATCH {
                let literals: Vec<u8> =
                    (0..dist as u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
                let raw_len = dist + len + 1;
                let mut stream = (raw_len as u32).to_le_bytes().to_vec();
                let mut tokens: Vec<Vec<u8>> = literals.iter().map(|&b| vec![b]).collect();
                let mut flags = vec![false; dist];
                let d = (dist as u16).to_le_bytes();
                tokens.push(vec![d[0], d[1], (len - MIN_MATCH) as u8]);
                flags.push(true);
                tokens.push(vec![0xee]);
                flags.push(false);
                for (group, fl) in tokens.chunks(8).zip(flags.chunks(8)) {
                    let control = fl
                        .iter()
                        .enumerate()
                        .fold(0u8, |c, (i, &m)| c | (u8::from(m) << i));
                    stream.push(control);
                    stream.extend(group.iter().flatten());
                }
                let mut expected = literals.clone();
                expected.extend((0..len).map(|i| literals[i % dist]));
                expected.push(0xee);
                let decoded = lz_decompress(&stream).unwrap();
                assert_eq!(decoded, expected, "dist {dist} len {len}");
                assert_eq!(reference_lz_decompress(&stream).unwrap(), expected);
            }
        }
    }

    #[test]
    fn overlapping_match_is_rle() {
        // 1 literal then a long self-overlapping match (dist 1).
        let input = vec![42u8; 300];
        let lz = lz_compress(&input);
        assert!(lz.len() < 20, "run of 300 should be a few tokens: {lz:?}");
        assert_eq!(lz_decompress(&lz).unwrap(), input);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary_bytes(input in proptest::collection::vec(any::<u8>(), 0..2048)) {
            roundtrip(&input);
        }

        #[test]
        fn prop_roundtrip_structured_bytes(
            seed in any::<u64>(),
            period in 1usize..64,
            len in 0usize..4096,
        ) {
            // Noisy periodic data — the spill path's realistic middle ground.
            roundtrip(&noisy_periodic(seed, period, 3, len));
        }

        #[test]
        fn prop_decoder_never_panics_and_agrees_with_reference(
            arbitrary in proptest::collection::vec(any::<u8>(), 0..64),
            claimed in 0u32..2048,
            body in proptest::collection::vec(any::<u8>(), 0..512),
            seed in any::<u64>(),
            flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        ) {
            // Any bytes at all; a plausible header over any token bytes;
            // a real stream with a few bytes overwritten.
            decoders_agree(&arbitrary)?;
            let mut framed = claimed.to_le_bytes().to_vec();
            framed.extend_from_slice(&body);
            decoders_agree(&framed)?;
            let mut mangled = lz_compress(&noisy_periodic(seed, 7, 4, 1024));
            for (at, byte) in flips {
                let at = at % mangled.len();
                mangled[at] = byte;
            }
            decoders_agree(&mangled)?;
        }

        #[test]
        fn prop_periodic_streams_decode_through_overlapping_matches(
            seed in any::<u64>(),
            period in 1usize..=16,
            noise_bits in 5u32..10,
            len in 0usize..=8192,
        ) {
            let input = noisy_periodic(seed, period, noise_bits, len);
            let stream = lz_compress(&input);
            prop_assert_eq!(&lz_decompress(&stream).unwrap(), &input);
            prop_assert_eq!(&reference_lz_decompress(&stream).unwrap(), &input);
            if len >= 1024 {
                prop_assert!(
                    match_tokens(&stream).iter().any(|&(dist, len)| dist < len),
                    "no overlapping match to exercise"
                );
            }
        }

        #[test]
        fn prop_tile_wire_roundtrip(rows in 1usize..24, cols in 1usize..24, seed in any::<u64>()) {
            let dense = crate::gen::dense_uniform_tile(seed, 0, 0, rows, cols, -1.0, 1.0);
            let t = Tile::dense(dense);
            let wire = encode_tile(&t);
            let (codec, stored) = maybe_compress(&wire);
            let raw = decompress(codec, &stored).unwrap();
            prop_assert_eq!(&raw[..], &wire[..]);
            let back = decode_tile(raw.into_owned().into()).unwrap();
            prop_assert_eq!(back, t);
        }

        #[test]
        fn prop_below_probe_threshold_is_unprobed(
            seed in any::<u64>(),
            period in 1usize..64,
            noise_bits in 0u32..5,
            len in 0usize..PROBE_MIN_LEN,
        ) {
            // From almost periodic to pure noise: both sides of
            // "strictly smaller".
            let input = noisy_periodic(seed, period, noise_bits, len);
            let (codec, stored) = maybe_compress(&input);
            prop_assert_eq!((codec, stored.into_owned()), unprobed(&input));
        }
    }
}
