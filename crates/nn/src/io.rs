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
use std::io::{self, Read, Write};
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

/// Deserializes a store previously written with [`write_store`].
///
/// Parameter ids are assigned in file order, so a store saved and reloaded
/// in the same program structure keeps its ids stable.
///
/// The parser is hardened against malformed input: truncated streams,
/// absurd header values (a forged dimension header never allocates more
/// than the bytes actually present in the stream), and trailing bytes
/// after the last parameter all fail with [`io::ErrorKind::InvalidData`]
/// or [`io::ErrorKind::UnexpectedEof`] rather than panicking, aborting on
/// allocation, or silently succeeding.
pub fn read_store<R: Read>(mut r: R) -> io::Result<ParamStore> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an ADEC parameter store (bad magic)",
        ));
    }
    let count = read_u32(&mut r)? as usize;
    if count > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "parameter count implausibly large",
        ));
    }
    let mut store = ParamStore::new();
    for _ in 0..count {
        let name_len = read_u32(&mut r)? as usize;
        if name_len > 1 << 20 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "name too long"));
        }
        let mut name_bytes = vec![0u8; name_len];
        r.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let rows = read_u32(&mut r)? as usize;
        let cols = read_u32(&mut r)? as usize;
        if rows.saturating_mul(cols) > 1 << 28 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "tensor too large"));
        }
        // Decode through a bounded scratch buffer so the data vector only
        // grows as bytes actually arrive — a forged header claiming 2^28
        // elements costs nothing unless the stream really contains them.
        let mut data: Vec<f32> = Vec::new();
        let mut buf = [0u8; 4096];
        let mut remaining = rows * cols * 4;
        while remaining > 0 {
            let take = remaining.min(buf.len());
            r.read_exact(&mut buf[..take])?;
            for chunk in buf[..take].chunks_exact(4) {
                data.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
            }
            remaining -= take;
        }
        store.register(name, Matrix::from_vec(rows, cols, data));
    }
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trailing bytes after last parameter",
        ));
    }
    Ok(store)
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Saves a store to a file path.
pub fn save_store(store: &ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_store(store, io::BufWriter::new(file))
}

/// Loads a store from a file path.
pub fn load_store(path: impl AsRef<Path>) -> io::Result<ParamStore> {
    let file = std::fs::File::open(path)?;
    read_store(io::BufReader::new(file))
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
        // stream ends immediately; incremental decode hits EOF after one
        // scratch-buffer read instead of allocating 64 MiB upfront.
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
