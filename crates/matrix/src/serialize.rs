//! Tile (de)serialization for the DFS.
//!
//! Layout (little-endian):
//!
//! ```text
//! [u32 magic][u32 kind][u64 rows][u64 cols]          -- 24-byte header
//! kind 0 (dense):   rows*cols f64 values
//! kind 1 (sparse):  [u64 nnz][(rows+1) u32 row_ptr][nnz u32 col_idx][nnz f64 values]
//! kind 2 (phantom): [u64 nnz]
//! ```
//!
//! Phantom tiles serialize their metadata so simulated-mode runs can move
//! "data" through the DFS with realistic byte accounting coming from
//! [`crate::Tile::stored_bytes`], while the physical buffer stays tiny.
//!
//! The encoder and decoder move the numeric payloads with slice-level
//! copies (a little-endian in-memory `f64`/`u32` buffer *is* its wire form,
//! so the copy is one `memcpy`, not a per-element loop). Big-endian hosts
//! fall back to the element-wise path; both produce identical bytes. The
//! historical element-wise codec is kept, in test builds only, as
//! `encode_tile_elementwise` / `decode_tile_elementwise` so tests can
//! assert byte equality.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::dense::DenseTile;
use crate::error::{MatrixError, Result};
use crate::sparse::CsrTile;
use crate::tile::{Tile, TileData};

const MAGIC: u32 = 0x434d_544c; // "CMTL"
const HEADER: u64 = 24;

/// The exact number of bytes [`encode_tile`] produces for this tile,
/// computed without encoding. The DFS handle plane uses this to split
/// tile-handle files into blocks (and charge I/O) exactly as if the tile
/// had been serialized.
pub fn encoded_len(tile: &Tile) -> u64 {
    match tile.payload() {
        TileData::Dense(_) => HEADER + (tile.rows() as u64) * (tile.cols() as u64) * 8,
        TileData::Sparse(s) => {
            let nnz = s.raw_parts().2.len() as u64;
            HEADER + 8 + (tile.rows() as u64 + 1) * 4 + nnz * 4 + nnz * 8
        }
        TileData::Phantom { .. } => HEADER + 8,
    }
}

/// Appends `vals` in little-endian wire order with one slice copy.
fn put_f64s(buf: &mut BytesMut, vals: &[f64]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: an f64 slice is valid to view as initialized bytes; on a
        // little-endian host the in-memory layout equals the wire layout.
        let raw = unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 8) };
        buf.extend_from_slice(raw);
    }
    #[cfg(not(target_endian = "little"))]
    for v in vals {
        buf.put_f64_le(*v);
    }
}

/// Appends `vals` in little-endian wire order with one slice copy.
fn put_u32s(buf: &mut BytesMut, vals: &[u32]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: as in `put_f64s`.
        let raw = unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 4) };
        buf.extend_from_slice(raw);
    }
    #[cfg(not(target_endian = "little"))]
    for v in vals {
        buf.put_u32_le(*v);
    }
}

/// Reads `n` little-endian f64s with one copy into an aligned buffer.
/// Caller must have checked `bytes.remaining() >= n * 8`.
fn get_f64s(bytes: &mut Bytes, n: usize) -> Vec<f64> {
    #[cfg(target_endian = "little")]
    {
        let mut out = vec![0.0f64; n];
        // SAFETY: source has >= n*8 readable bytes (checked by caller);
        // destination is an owned, aligned Vec<f64> of exactly n elements.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, n * 8);
        }
        bytes.advance(n * 8);
        out
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(bytes.get_f64_le());
        }
        out
    }
}

/// Reads `n` little-endian u32s with one copy into an aligned buffer.
/// Caller must have checked `bytes.remaining() >= n * 4`.
fn get_u32s(bytes: &mut Bytes, n: usize) -> Vec<u32> {
    #[cfg(target_endian = "little")]
    {
        let mut out = vec![0u32; n];
        // SAFETY: as in `get_f64s`.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, n * 4);
        }
        bytes.advance(n * 4);
        out
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(bytes.get_u32_le());
        }
        out
    }
}

/// Serializes a tile to a byte buffer.
pub fn encode_tile(tile: &Tile) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(tile) as usize);
    buf.put_u32_le(MAGIC);
    match tile.payload() {
        TileData::Dense(d) => {
            buf.put_u32_le(0);
            buf.put_u64_le(tile.rows() as u64);
            buf.put_u64_le(tile.cols() as u64);
            put_f64s(&mut buf, d.data());
        }
        TileData::Sparse(s) => {
            buf.put_u32_le(1);
            buf.put_u64_le(tile.rows() as u64);
            buf.put_u64_le(tile.cols() as u64);
            let (row_ptr, col_idx, values) = s.raw_parts();
            buf.put_u64_le(values.len() as u64);
            put_u32s(&mut buf, row_ptr);
            put_u32s(&mut buf, col_idx);
            put_f64s(&mut buf, values);
        }
        TileData::Phantom { nnz } => {
            buf.put_u32_le(2);
            buf.put_u64_le(tile.rows() as u64);
            buf.put_u64_le(tile.cols() as u64);
            buf.put_u64_le(*nnz);
        }
    }
    buf.freeze()
}

/// Deserializes a tile from bytes produced by [`encode_tile`].
pub fn decode_tile(mut bytes: Bytes) -> Result<Tile> {
    if bytes.remaining() < 24 {
        return Err(MatrixError::Corrupt("buffer shorter than header".into()));
    }
    let magic = bytes.get_u32_le();
    if magic != MAGIC {
        return Err(MatrixError::Corrupt(format!("bad magic {magic:#x}")));
    }
    let kind = bytes.get_u32_le();
    let rows = bytes.get_u64_le() as usize;
    let cols = bytes.get_u64_le() as usize;
    match kind {
        0 => {
            let n = rows * cols;
            if bytes.remaining() < n * 8 {
                return Err(MatrixError::Corrupt("dense payload truncated".into()));
            }
            let data = get_f64s(&mut bytes, n);
            Ok(Tile::dense(DenseTile::from_vec(rows, cols, data)))
        }
        1 => {
            if bytes.remaining() < 8 {
                return Err(MatrixError::Corrupt("sparse header truncated".into()));
            }
            let nnz = bytes.get_u64_le() as usize;
            let need = (rows + 1) * 4 + nnz * 4 + nnz * 8;
            if bytes.remaining() < need {
                return Err(MatrixError::Corrupt("sparse payload truncated".into()));
            }
            let row_ptr = get_u32s(&mut bytes, rows + 1);
            let col_idx = get_u32s(&mut bytes, nnz);
            let values = get_f64s(&mut bytes, nnz);
            Ok(Tile::sparse(CsrTile::from_raw(
                rows, cols, row_ptr, col_idx, values,
            )?))
        }
        2 => {
            if bytes.remaining() < 8 {
                return Err(MatrixError::Corrupt("phantom payload truncated".into()));
            }
            let nnz = bytes.get_u64_le();
            Ok(Tile::phantom(rows, cols, nnz))
        }
        other => Err(MatrixError::Corrupt(format!("unknown tile kind {other}"))),
    }
}

/// The pre-bulk-copy encoder: one `put_*_le` per element. Kept as the
/// reference implementation the fast path is tested against.
#[cfg(test)]
pub(crate) fn encode_tile_elementwise(tile: &Tile) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u32_le(MAGIC);
    match tile.payload() {
        TileData::Dense(d) => {
            buf.put_u32_le(0);
            buf.put_u64_le(tile.rows() as u64);
            buf.put_u64_le(tile.cols() as u64);
            buf.reserve(d.data().len() * 8);
            for v in d.data() {
                buf.put_f64_le(*v);
            }
        }
        TileData::Sparse(s) => {
            buf.put_u32_le(1);
            buf.put_u64_le(tile.rows() as u64);
            buf.put_u64_le(tile.cols() as u64);
            let (row_ptr, col_idx, values) = s.raw_parts();
            buf.put_u64_le(values.len() as u64);
            buf.reserve(row_ptr.len() * 4 + col_idx.len() * 4 + values.len() * 8);
            for p in row_ptr {
                buf.put_u32_le(*p);
            }
            for c in col_idx {
                buf.put_u32_le(*c);
            }
            for v in values {
                buf.put_f64_le(*v);
            }
        }
        TileData::Phantom { nnz } => {
            buf.put_u32_le(2);
            buf.put_u64_le(tile.rows() as u64);
            buf.put_u64_le(tile.cols() as u64);
            buf.put_u64_le(*nnz);
        }
    }
    buf.freeze()
}

/// The pre-bulk-copy decoder: one `get_*_le` per element. Kept as the
/// reference implementation the fast path is tested against.
#[cfg(test)]
pub(crate) fn decode_tile_elementwise(mut bytes: Bytes) -> Result<Tile> {
    if bytes.remaining() < 24 {
        return Err(MatrixError::Corrupt("buffer shorter than header".into()));
    }
    let magic = bytes.get_u32_le();
    if magic != MAGIC {
        return Err(MatrixError::Corrupt(format!("bad magic {magic:#x}")));
    }
    let kind = bytes.get_u32_le();
    let rows = bytes.get_u64_le() as usize;
    let cols = bytes.get_u64_le() as usize;
    match kind {
        0 => {
            let n = rows * cols;
            if bytes.remaining() < n * 8 {
                return Err(MatrixError::Corrupt("dense payload truncated".into()));
            }
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                data.push(bytes.get_f64_le());
            }
            Ok(Tile::dense(DenseTile::from_vec(rows, cols, data)))
        }
        1 => {
            if bytes.remaining() < 8 {
                return Err(MatrixError::Corrupt("sparse header truncated".into()));
            }
            let nnz = bytes.get_u64_le() as usize;
            let need = (rows + 1) * 4 + nnz * 4 + nnz * 8;
            if bytes.remaining() < need {
                return Err(MatrixError::Corrupt("sparse payload truncated".into()));
            }
            let mut row_ptr = Vec::with_capacity(rows + 1);
            for _ in 0..=rows {
                row_ptr.push(bytes.get_u32_le());
            }
            let mut col_idx = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                col_idx.push(bytes.get_u32_le());
            }
            let mut values = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                values.push(bytes.get_f64_le());
            }
            Ok(Tile::sparse(CsrTile::from_raw(
                rows, cols, row_ptr, col_idx, values,
            )?))
        }
        2 => {
            if bytes.remaining() < 8 {
                return Err(MatrixError::Corrupt("phantom payload truncated".into()));
            }
            let nnz = bytes.get_u64_le();
            Ok(Tile::phantom(rows, cols, nnz))
        }
        other => Err(MatrixError::Corrupt(format!("unknown tile kind {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn dense_roundtrip() {
        let t = Tile::dense(gen::dense_uniform_tile(5, 0, 0, 13, 7, -2.0, 2.0));
        let bytes = encode_tile(&t);
        assert_eq!(decode_tile(bytes).unwrap(), t);
    }

    #[test]
    fn sparse_roundtrip() {
        let t = Tile::sparse(gen::sparse_uniform_tile(5, 1, 2, 40, 30, 0.1));
        let bytes = encode_tile(&t);
        assert_eq!(decode_tile(bytes).unwrap(), t);
    }

    #[test]
    fn phantom_roundtrip() {
        let t = Tile::phantom(1000, 2000, 12345);
        let bytes = encode_tile(&t);
        assert_eq!(bytes.len(), 32, "phantom tiles stay tiny on the wire");
        assert_eq!(decode_tile(bytes).unwrap(), t);
    }

    #[test]
    fn dense_encoding_matches_stored_bytes() {
        let t = Tile::zeros(10, 10);
        assert_eq!(encode_tile(&t).len() as u64, t.stored_bytes());
    }

    #[test]
    fn sparse_encoding_size_close_to_stored_bytes() {
        let t = Tile::sparse(gen::sparse_uniform_tile(5, 0, 0, 50, 50, 0.1));
        let enc = encode_tile(&t).len() as u64;
        // stored_bytes() is the model; the actual encoding carries one extra
        // u64 (the nnz header field).
        assert_eq!(enc, t.stored_bytes() + 8);
    }

    /// The bulk fast path must produce byte-for-byte what the element-wise
    /// codec produced, and both decoders must agree, for every tile kind —
    /// including non-finite and signed-zero payloads where a value-level
    /// round-trip would hide bit differences.
    #[test]
    fn bulk_codec_matches_elementwise_codec() {
        let weird = Tile::zeros(3, 4).map(|_| -0.0);
        let tiles = vec![
            Tile::dense(gen::dense_uniform_tile(9, 2, 3, 17, 5, -1e9, 1e9)),
            Tile::sparse(gen::sparse_uniform_tile(4, 0, 1, 33, 29, 0.07)),
            Tile::phantom(123, 456, 789),
            Tile::zeros(1, 1),
            weird,
            Tile::dense(gen::dense_uniform_tile(1, 0, 0, 1, 64, 0.0, 1.0)).map(|x| {
                if x > 0.5 {
                    f64::NAN
                } else {
                    f64::INFINITY
                }
            }),
        ];
        for t in &tiles {
            let fast = encode_tile(t);
            let slow = encode_tile_elementwise(t);
            assert_eq!(fast, slow, "encodings differ for {t:?}");
            let via_fast = decode_tile(fast.clone()).unwrap();
            let via_slow = decode_tile_elementwise(fast).unwrap();
            // Compare by encoded bytes so NaN payloads count as equal iff
            // bit-identical.
            assert_eq!(
                encode_tile_elementwise(&via_fast),
                encode_tile_elementwise(&via_slow)
            );
        }
    }

    #[test]
    fn encoded_len_is_exact() {
        let tiles = vec![
            Tile::dense(gen::dense_uniform_tile(5, 0, 0, 13, 7, -2.0, 2.0)),
            Tile::sparse(gen::sparse_uniform_tile(5, 1, 2, 40, 30, 0.1)),
            Tile::phantom(1000, 2000, 12345),
            Tile::zeros(1, 1),
        ];
        for t in &tiles {
            assert_eq!(encoded_len(t), encode_tile(t).len() as u64, "{t:?}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode_tile(Bytes::from_static(b"short")).is_err());
        let mut bad = BytesMut::new();
        bad.put_u32_le(0xdead_beef);
        bad.put_u32_le(0);
        bad.put_u64_le(1);
        bad.put_u64_le(1);
        bad.put_f64_le(1.0);
        assert!(decode_tile(bad.freeze()).is_err());
    }

    #[test]
    fn rejects_truncated_payload() {
        let t = Tile::zeros(4, 4);
        let full = encode_tile(&t);
        let truncated = full.slice(0..full.len() - 8);
        assert!(decode_tile(truncated).is_err());
        assert!(decode_tile_elementwise(full.slice(0..full.len() - 8)).is_err());
    }

    #[test]
    fn rejects_unknown_kind() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(super::MAGIC);
        buf.put_u32_le(9);
        buf.put_u64_le(1);
        buf.put_u64_le(1);
        assert!(decode_tile(buf.freeze()).is_err());
    }
}
