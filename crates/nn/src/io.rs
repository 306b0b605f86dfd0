//! Weight persistence: save and load a [`ParamStore`] (e.g. pretrained
//! autoencoder weights) in a small self-describing binary format, so
//! expensive pretraining can be reused across runs.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic   b"ADECPS01"
//! u32     parameter count
//! per parameter:
//!   u32       name length, then UTF-8 name bytes
//!   u32 u32   rows, cols
//!   f32 × n   row-major data
//! ```

use crate::store::{ParamId, ParamStore};
use adec_tensor::Matrix;
use std::io::{self, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"ADECPS01";

/// The store magic's version-free family prefix; the two trailing magic
/// bytes are the ASCII decimal store-format version (`ADECPS01` → 1).
pub const STORE_MAGIC_PREFIX: &[u8; 6] = b"ADECPS";

/// The store format version this build reads and writes — the number
/// baked into [`STORE_MAGIC_PREFIX`]'s two-digit suffix.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// If `blob` opens with the `ADECPS` family prefix, returns the decimal
/// version its magic announces (`ADECPS01` → 1, `ADECPS02` → 2, …).
/// `None` when the bytes are not an ADEC parameter-store blob at all or
/// the version suffix is not two ASCII digits.
pub fn store_blob_version(blob: &[u8]) -> Option<u32> {
    let suffix = blob.get(..8).filter(|head| &head[..6] == STORE_MAGIC_PREFIX)?;
    let hi = char::from(suffix[6]).to_digit(10)?;
    let lo = char::from(suffix[7]).to_digit(10)?;
    Some(hi * 10 + lo)
}

/// The `u32` a count or matrix side is stored as on disk. Callers pass
/// values bounded far below 2^32, so the cast keeps them; every length
/// prefix in the store and checkpoint formats goes through here.
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn u32_len(n: usize) -> u32 {
    n as u32
}

/// Serializes every parameter of the store to a writer.
pub fn write_store<W: Write>(store: &ParamStore, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    // The on-disk format stores counts/dims as u32; parameter stores are
    // bounded far below 2^32 entries, names below 2^32 bytes, and matrix
    // sides below 2^32.
    w.write_all(&u32_len(store.len()).to_le_bytes())?;
    for (_, name, value) in store.iter() {
        let name_bytes = name.as_bytes();
        w.write_all(&u32_len(name_bytes.len()).to_le_bytes())?;
        w.write_all(name_bytes)?;
        w.write_all(&u32_len(value.rows()).to_le_bytes())?;
        w.write_all(&u32_len(value.cols()).to_le_bytes())?;
        for &v in value.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Deserializes a store previously written with [`write_store`], from the
/// whole blob in memory.
///
/// Parameter ids are assigned in file order, so a store saved and reloaded
/// in the same program structure keeps its ids stable.
///
/// The parser is hardened against malformed input: truncated blobs, absurd
/// header values (each tensor is decoded from an exact-size slice taken
/// only after the bytes it needs are known to be present, so a forged
/// dimension header never allocates past the blob), and trailing bytes
/// after the last parameter all fail with [`io::ErrorKind::InvalidData`]
/// or [`io::ErrorKind::UnexpectedEof`] rather than panicking, aborting on
/// allocation, or silently succeeding.
pub fn read_store(bytes: &[u8]) -> io::Result<ParamStore> {
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut cur = Cursor::new(bytes);
    if cur.take(MAGIC.len())? != MAGIC {
        return Err(invalid("not an ADEC parameter store (bad magic)"));
    }
    let count = cur.u32()? as usize;
    if count > 1 << 20 {
        return Err(invalid("parameter count implausibly large"));
    }
    let mut store = ParamStore::new();
    for _ in 0..count {
        let name_len = cur.u32()? as usize;
        if name_len > 1 << 20 {
            return Err(invalid("name too long"));
        }
        let name = std::str::from_utf8(cur.take(name_len)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .to_owned();
        let rows = cur.u32()? as usize;
        let cols = cur.u32()? as usize;
        if rows.saturating_mul(cols) > 1 << 28 {
            return Err(invalid("tensor too large"));
        }
        store.register(name, Matrix::from_vec(rows, cols, cur.f32s(rows * cols)?));
    }
    if !cur.done() {
        return Err(invalid("trailing bytes after last parameter"));
    }
    Ok(store)
}

/// The input ended before a field it announced.
#[derive(Debug)]
pub(crate) struct Truncated;

impl From<Truncated> for io::Error {
    fn from(_: Truncated) -> io::Error {
        io::Error::new(io::ErrorKind::UnexpectedEof, "store blob truncated")
    }
}

/// Bounds-checked little-endian reader over an in-memory blob: the one
/// cursor behind both the store format here and the checkpoint payload.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// The next `n` bytes, or [`Truncated`] (consuming nothing) when fewer
    /// remain.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let end = self.pos.checked_add(n).ok_or(Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(Truncated)?;
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, Truncated> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, Truncated> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    pub(crate) fn f32(&mut self) -> Result<f32, Truncated> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// The next `n` little-endian `f32`s, decoded into one exact-size
    /// vector. The bytes are taken first, so a forged `n` fails without
    /// allocating.
    pub(crate) fn f32s(&mut self, n: usize) -> Result<Vec<f32>, Truncated> {
        let raw = self.take(n.checked_mul(4).ok_or(Truncated)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Saves a store to a file path.
pub fn save_store(store: &ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_store(store, io::BufWriter::new(file))
}

/// Loads a store from a file path: reads the whole file, then decodes it.
pub fn load_store(path: impl AsRef<Path>) -> io::Result<ParamStore> {
    read_store(&std::fs::read(path)?)
}

/// Copies values from `src` into `dst` for every id in `ids`, in order —
/// used to adopt loaded weights into a freshly-built model whose layers
/// registered the same parameters in the same order.
///
/// # Panics
/// Panics if an id is missing from either store or shapes mismatch.
pub fn adopt_weights(dst: &mut ParamStore, src: &ParamStore, ids: &[ParamId]) {
    for &id in ids {
        let value = src.get(id).clone();
        assert_eq!(
            dst.get(id).shape(),
            value.shape(),
            "adopt_weights: shape mismatch for {}",
            src.name(id)
        );
        dst.set(id, value);
    }
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;
    use adec_tensor::SeedRng;

    fn sample_store() -> ParamStore {
        let mut rng = SeedRng::new(1);
        let mut store = ParamStore::new();
        store.register("enc.w", Matrix::randn(4, 3, 0.0, 1.0, &mut rng));
        store.register("enc.b", Matrix::zeros(1, 3));
        store.register("dec.w", Matrix::randn(3, 4, 0.5, 2.0, &mut rng));
        store
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).unwrap();
        let loaded = read_store(&buf[..]).unwrap();
        assert_eq!(loaded.len(), store.len());
        for ((_, name_a, val_a), (_, name_b, val_b)) in store.iter().zip(loaded.iter()) {
            assert_eq!(name_a, name_b);
            assert_eq!(val_a, val_b);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_store(&b"NOTADECX"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).unwrap();
        buf.truncate(buf.len() - 7);
        assert!(read_store(&buf[..]).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).unwrap();
        buf.extend_from_slice(&[0xDE, 0xAD]);
        let err = read_store(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn allocation_bomb_header_is_rejected() {
        // Header claims a (2^32−1) × (2^32−1) tensor in an 8-byte body;
        // must fail on the dimension cap, never attempt the allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes()); // one parameter
        buf.extend_from_slice(&1u32.to_le_bytes()); // name "w"
        buf.push(b'w');
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // rows
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // cols
        let err = read_store(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("too large"));
    }

    #[test]
    fn plausible_header_with_missing_data_fails_without_big_alloc() {
        // Dimensions pass the cap (2^20 × 16 = 2^24 elements) but the
        // blob ends immediately; the exact-size slice is refused before
        // any of the 64 MiB is allocated.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(b'w');
        buf.extend_from_slice(&(1u32 << 20).to_le_bytes());
        buf.extend_from_slice(&16u32.to_le_bytes());
        let err = read_store(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn parameter_count_bomb_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_store(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn non_utf8_name_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8
        let err = read_store(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn file_roundtrip() {
        let store = sample_store();
        let path = std::env::temp_dir().join("adec_io_test.bin");
        save_store(&store, &path).unwrap();
        let loaded = load_store(&path).unwrap();
        assert_eq!(loaded.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn adopt_weights_copies_values() {
        let src = sample_store();
        let mut rng = SeedRng::new(2);
        let mut dst = ParamStore::new();
        let ids = vec![
            dst.register("enc.w", Matrix::randn(4, 3, 0.0, 1.0, &mut rng)),
            dst.register("enc.b", Matrix::randn(1, 3, 0.0, 1.0, &mut rng)),
            dst.register("dec.w", Matrix::randn(3, 4, 0.0, 1.0, &mut rng)),
        ];
        adopt_weights(&mut dst, &src, &ids);
        for (a, b) in dst.iter().zip(src.iter()) {
            assert_eq!(a.2, b.2);
        }
    }
}
