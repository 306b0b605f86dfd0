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
//!
//! One store walker reads the format from any buffered stream, through
//! `Reader`, the bounds-checked reader the checkpoint payload walker
//! shares: [`read_store`] from a slice, [`load_store`] from a file through
//! a 64 KB window, and a checkpoint from the store blob inside its
//! payload. A tensor grows only as its bytes arrive, so what is resident
//! while a store loads is the window and the tensors decoded so far.

use crate::checkpoint::Crc32;
use crate::store::{ParamId, ParamStore};
use adec_tensor::Matrix;
use std::io::{self, BufRead, Write};
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
/// whole blob in memory. The slice is a stream like any other: this runs
/// the one store walker the checkpoint payload walker runs.
///
/// Parameter ids are assigned in file order, so a store saved and reloaded
/// in the same program structure keeps its ids stable.
///
/// The parser is hardened against malformed input: truncated blobs, absurd
/// header values (each tensor grows only as its bytes arrive, so a forged
/// dimension header never allocates past the bytes present), and trailing
/// bytes after the last parameter all fail with
/// [`io::ErrorKind::InvalidData`] or [`io::ErrorKind::UnexpectedEof`]
/// rather than panicking, aborting on allocation, or silently succeeding.
pub fn read_store(bytes: &[u8]) -> io::Result<ParamStore> {
    standalone_store(bytes)
}

/// Loads a store from a file path, through a 64 KB read window: the
/// file is never resident as a whole.
pub fn load_store(path: impl AsRef<Path>) -> io::Result<ParamStore> {
    let file = std::fs::File::open(path)?;
    standalone_store(io::BufReader::with_capacity(READ_WINDOW, file))
}

/// A store read to the end of its stream.
fn standalone_store(src: impl BufRead) -> io::Result<ParamStore> {
    walk_store(&mut Reader::new(src)).map_err(|e| match e {
        StoreError::Foreign(_) => invalid("not an ADEC parameter store (bad magic)"),
        StoreError::Invalid(e) => e,
    })
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Why [`walk_store`] refused a store.
#[derive(Debug)]
pub(crate) enum StoreError {
    /// The magic is of the `ADECPS` family but announces this other
    /// format version.
    Foreign(u32),
    /// Anything else, as [`read_store`] reports it.
    Invalid(io::Error),
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Invalid(e)
    }
}

impl From<Short> for StoreError {
    fn from(s: Short) -> StoreError {
        StoreError::Invalid(s.into())
    }
}

/// The one store walker: reads a store from `r` up to the end of its frame
/// (or of the stream, for an unbounded frame), which must end exactly
/// after the last parameter.
pub(crate) fn walk_store<R: BufRead>(r: &mut Reader<R>) -> Result<ParamStore, StoreError> {
    let magic: [u8; 8] = r.array()?;
    if &magic != MAGIC {
        return Err(match store_blob_version(&magic) {
            Some(found) => StoreError::Foreign(found),
            None => StoreError::Invalid(invalid("not an ADEC parameter store (bad magic)")),
        });
    }
    let count = r.u32()? as usize;
    if count > 1 << 20 {
        return Err(invalid("parameter count implausibly large").into());
    }
    let mut store = ParamStore::new();
    for _ in 0..count {
        let name_len = r.u32()? as usize;
        if name_len > 1 << 20 {
            return Err(invalid("name too long").into());
        }
        let name = String::from_utf8(r.bytes(name_len)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        if rows.saturating_mul(cols) > 1 << 28 {
            return Err(invalid("tensor too large").into());
        }
        store.register(name, Matrix::from_vec(rows, cols, r.f32s(rows * cols)?));
    }
    if !r.at_end()? {
        return Err(invalid("trailing bytes after last parameter").into());
    }
    Ok(store)
}

/// Bytes a file is read through: the window of every streamed store and
/// checkpoint load.
pub(crate) const READ_WINDOW: usize = 64 << 10;

/// Why [`Reader`] could not produce a field.
#[derive(Debug)]
pub(crate) enum Short {
    /// The field runs past the end of its frame: a length or shape the
    /// format itself cannot hold, whatever the stream carries.
    Frame,
    /// The stream ended first.
    Eof,
    /// The stream failed.
    Io(io::Error),
}

impl From<Short> for io::Error {
    fn from(s: Short) -> io::Error {
        match s {
            Short::Frame | Short::Eof => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "store blob truncated")
            }
            Short::Io(e) => e,
        }
    }
}

/// Bounds-checked little-endian reader over a buffered stream: the one
/// reader behind both the store format here and the checkpoint payload.
/// It never consumes past the end of its frame (the stream's end until a
/// caller narrows it with [`Reader::framed`]), folds every byte it
/// consumes into two running CRC32s (the whole stream's, and one a caller
/// may restart, as the checkpoint reader does after the header), and
/// grows a vector only as its bytes arrive, so a forged length costs at
/// most twice the bytes present.
pub(crate) struct Reader<R> {
    src: R,
    pos: u64,
    end: u64,
    pub(crate) crc: Crc32,
    pub(crate) file_crc: Crc32,
}

impl<R: BufRead> Reader<R> {
    /// A reader whose frame is the whole stream (`end` is `u64::MAX`).
    pub(crate) fn new(src: R) -> Self {
        Reader { src, pos: 0, end: u64::MAX, crc: Crc32::new(), file_crc: Crc32::new() }
    }

    /// Passes the next `n` bytes to `sink`, window by window, through the
    /// CRCs. Fails with [`Short::Frame`], consuming nothing, when they do
    /// not fit the frame.
    fn consume(&mut self, n: u64, mut sink: impl FnMut(&[u8])) -> Result<(), Short> {
        let stop = self.pos.checked_add(n).filter(|&s| s <= self.end).ok_or(Short::Frame)?;
        while self.pos < stop {
            let buf = match self.src.fill_buf() {
                Ok([]) => return Err(Short::Eof),
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Short::Io(e)),
            };
            let take = buf.len().min(usize::try_from(stop - self.pos).unwrap_or(usize::MAX));
            let chunk = &buf[..take];
            self.crc.update(chunk);
            self.file_crc.update(chunk);
            sink(chunk);
            self.src.consume(take);
            self.pos += take as u64;
        }
        Ok(())
    }

    /// Consumes `n` bytes without keeping them.
    pub(crate) fn skip(&mut self, n: u64) -> Result<(), Short> {
        self.consume(n, |_| {})
    }

    /// Consumes the rest of the frame.
    pub(crate) fn drain(&mut self) -> Result<(), Short> {
        self.skip(self.end - self.pos)
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], Short> {
        let mut out = [0u8; N];
        let mut at = 0;
        self.consume(N as u64, |chunk| {
            out[at..at + chunk.len()].copy_from_slice(chunk);
            at += chunk.len();
        })?;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, Short> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, Short> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, Short> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn f32(&mut self) -> Result<f32, Short> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// The next `n` bytes.
    pub(crate) fn bytes(&mut self, n: usize) -> Result<Vec<u8>, Short> {
        let mut out = Vec::new();
        self.consume(n as u64, |chunk| {
            grow(&mut out, chunk.len(), n);
            out.extend_from_slice(chunk);
        })?;
        Ok(out)
    }

    /// The next `n` little-endian `f32`s, in one vector of capacity `n`.
    pub(crate) fn f32s(&mut self, n: usize) -> Result<Vec<f32>, Short> {
        let len = n.checked_mul(4).ok_or(Short::Frame)?;
        let mut out = Vec::new();
        // A value split across two windows waits here for its last bytes.
        let mut part = [0u8; 4];
        let mut held = 0;
        self.consume(len as u64, |mut chunk| {
            grow(&mut out, (held + chunk.len()) / 4, n);
            if held > 0 {
                let k = (4 - held).min(chunk.len());
                part[held..held + k].copy_from_slice(&chunk[..k]);
                held += k;
                chunk = &chunk[k..];
                if held < 4 {
                    return;
                }
                out.push(f32::from_le_bytes(part));
                held = 0;
            }
            let words = chunk.chunks_exact(4);
            let tail = words.remainder();
            out.extend(words.map(|w| f32::from_le_bytes([w[0], w[1], w[2], w[3]])));
            part[..tail.len()].copy_from_slice(tail);
            held = tail.len();
        })?;
        Ok(out)
    }

    /// Runs `walk` over the next `len` bytes as a frame of their own.
    pub(crate) fn framed<T, E: From<Short>>(
        &mut self,
        len: u64,
        walk: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<T, E> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.end).ok_or(Short::Frame)?;
        let outer = std::mem::replace(&mut self.end, end);
        let out = walk(self);
        self.end = outer;
        out
    }

    /// Whether the frame is used up: the position reached its end, or, for
    /// an unbounded frame, the stream has no byte left.
    pub(crate) fn at_end(&mut self) -> Result<bool, Short> {
        if self.end == u64::MAX {
            Ok(!self.has_more()?)
        } else {
            Ok(self.pos == self.end)
        }
    }

    /// Whether the stream holds a byte past the frame's end.
    pub(crate) fn has_more(&mut self) -> Result<bool, Short> {
        loop {
            match self.src.fill_buf() {
                Ok(buf) => return Ok(!buf.is_empty()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Short::Io(e)),
            }
        }
    }
}

/// Makes room in `out` for `k` more of the `n` items it will hold: at
/// least doubling, never past `n`, so the vector ends at capacity `n` and
/// never holds more than twice the items already read.
fn grow<T>(out: &mut Vec<T>, k: usize, n: usize) {
    if out.capacity() - out.len() < k {
        out.reserve_exact(k.max(out.len()).min(n - out.len()));
    }
}

/// Saves a store to a file path.
pub fn save_store(store: &ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_store(store, io::BufWriter::new(file))
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
