//! Versioned, checksummed training checkpoints.
//!
//! A [`Checkpoint`] captures everything a training loop needs to continue
//! a run in a fresh process and reproduce the uninterrupted trajectory
//! **bitwise**: the full [`ParamStore`], every optimizer's mutable state
//! (momentum / Adam moments / timestep, plus the live learning rate a
//! guard may have backed off), the RNG state, the iteration counter, and
//! a small trainer-specific `extra` word vector (e.g. the previous hard
//! assignment a convergence check compares against).
//!
//! On-disk format (all integers little-endian):
//!
//! ```text
//! magic   b"ADECCKP1"
//! u32     format version (currently 1)
//! u64     payload length in bytes
//! u32     CRC32 (IEEE) over the payload
//! payload:
//!   u32         phase name length, then UTF-8 bytes ("pretrain", "dec", …)
//!   u64         iteration counter
//!   u64 × 4     RNG state words (xoshiro256++)
//!   u8 f32      Box–Muller cache flag and value
//!   u64         parameter-store blob length, then an ADECPS01 blob
//!               (the [`crate::io`] format, embedded verbatim)
//!   u32         optimizer count, then per optimizer a tagged record:
//!                 u8 = 0 (SGD):  f32 lr, slot table (velocity)
//!                 u8 = 1 (Adam): f32 lr, u64 t, slot table (m), slot table (v)
//!               slot table = u32 count, then per slot u8 present and, if
//!               present, u32 rows, u32 cols, f32 × n data
//!   u32         extra word count, then u64 × n trainer-specific words
//!   [optional]  reference-profile section (absent in pre-profile and
//!               pretraining checkpoints; decodes to `profile: None`):
//!                 b"PROF", u8 section version (1), u64 rows,
//!                 u32 d,  f32 × d latent mean, f32 × d latent variance,
//!                 f32 × 4 entropy mean/std, confidence mean/std,
//!                 u32 nq, f32 × nq nearest-centroid distance quantiles,
//!                 u32 k,  f32 × k cluster-occupancy fractions
//! ```
//!
//! The profile section is strictly append-only: a checkpoint whose
//! `profile` is `None` encodes byte-identically to the pre-profile
//! format, which keeps the bitwise resume/`cmp` contracts intact.
//!
//! Writes are atomic (temp file in the same directory, then rename), so a
//! crash mid-write leaves either the previous checkpoint or none — never
//! a torn file that parses. Loads verify magic, version, length, and
//! checksum before touching the payload and return a typed
//! [`CheckpointError`] instead of misreading.

use crate::io::{read_store, u32_len, write_store};
use crate::optim::{Adam, AdamState, Sgd, SgdState};
use crate::profile::{ReferenceProfile, DISTANCE_QUANTILES};
use crate::store::ParamStore;
use adec_tensor::{Matrix, RngState};
use std::io::{self, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"ADECCKP1";

/// Marker opening the optional trailing reference-profile section.
const PROFILE_MAGIC: &[u8; 4] = b"PROF";

/// Version byte of the profile section layout.
const PROFILE_SECTION_VERSION: u8 = 1;

/// Current checkpoint format version; bumped on any layout change.
pub const FORMAT_VERSION: u32 = 1;

/// Header size before the payload: magic + version + length + checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 4;

/// Hard ceiling on the declared payload length (bytes) — far above any
/// real checkpoint, low enough to refuse a forged-length header before
/// allocating.
const MAX_PAYLOAD: u64 = 1 << 32;

// ----------------------------------------------------------------------
// Errors
// ----------------------------------------------------------------------

/// Typed checkpoint failure, precise enough for a CLI to map to distinct
/// exit codes and for tests to assert the exact fault class.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The stream ends before the declared payload does.
    Truncated,
    /// The payload checksum does not match — bit rot or a torn write.
    BadChecksum {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the payload actually present.
        actual: u32,
    },
    /// Written by a different, incompatible format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The embedded parameter-store blob announces a store format
    /// version this build does not read — the envelope is intact (magic,
    /// header version, and checksum all pass), but the payload was
    /// written by a newer (or older) store serializer.
    StoreVersionMismatch {
        /// Version announced by the store blob's magic.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The payload passed the checksum but decodes to something
    /// structurally invalid (internal corruption or a logic error).
    Malformed(String),
    /// Underlying filesystem failure.
    Io(io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not an ADEC checkpoint (bad magic)"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadChecksum { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch (expected {expected:#010x}, got {actual:#010x})"
            ),
            CheckpointError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint format version {found} unsupported (this build reads {supported})"
            ),
            CheckpointError::StoreVersionMismatch { found, supported } => write!(
                f,
                "checkpoint parameter-store format version {found} unsupported \
                 (this build reads version {supported})"
            ),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

fn malformed(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(msg.into())
}

// ----------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — table-driven, built at compile time.
// ----------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        // Byte values 0..=255 fit u32 exactly.
        #[allow(clippy::cast_possible_truncation)]
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Recomputes the header CRC over the current payload bytes of a full
/// file image, in place. Returns `false` when `bytes` is too short to
/// hold a header. Chaos drills and format tests use this to author
/// deliberately damaged-but-resealed checkpoints (e.g. a payload whose
/// embedded store blob announces a foreign version) so the fault under
/// test is reached instead of the checksum gate.
pub fn reseal_checksum(bytes: &mut [u8]) -> bool {
    if bytes.len() < HEADER_LEN {
        return false;
    }
    let crc = crc32(&bytes[HEADER_LEN..]);
    bytes[20..24].copy_from_slice(&crc.to_le_bytes());
    true
}

/// CRC32 (IEEE) of a byte slice — the payload integrity check.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ----------------------------------------------------------------------
// Optimizer state
// ----------------------------------------------------------------------

/// One optimizer's mutable state inside a checkpoint. Static
/// hyperparameters (momentum, betas, epsilon, clipping) are not stored —
/// they are reconstructed from the training config on resume; only state
/// that evolves during the run (buffers, timestep, backed-off lr) is.
#[derive(Debug, Clone)]
pub enum OptState {
    /// SGD-with-momentum state.
    Sgd(SgdState),
    /// Adam state.
    Adam(AdamState),
}

impl OptState {
    /// Captures an SGD optimizer's state.
    pub fn capture_sgd(opt: &Sgd) -> OptState {
        OptState::Sgd(opt.export_state())
    }

    /// Captures an Adam optimizer's state.
    pub fn capture_adam(opt: &Adam) -> OptState {
        OptState::Adam(opt.export_state())
    }

    /// Restores into an SGD optimizer; errors if this state was captured
    /// from a different optimizer kind.
    pub fn apply_sgd(&self, opt: &mut Sgd) -> Result<(), CheckpointError> {
        match self {
            OptState::Sgd(s) => {
                opt.import_state(s.clone());
                Ok(())
            }
            OptState::Adam(_) => Err(malformed("optimizer state kind mismatch (want sgd, found adam)")),
        }
    }

    /// Restores into an Adam optimizer; errors if this state was captured
    /// from a different optimizer kind.
    pub fn apply_adam(&self, opt: &mut Adam) -> Result<(), CheckpointError> {
        match self {
            OptState::Adam(s) => {
                opt.import_state(s.clone());
                Ok(())
            }
            OptState::Sgd(_) => Err(malformed("optimizer state kind mismatch (want adam, found sgd)")),
        }
    }
}

// ----------------------------------------------------------------------
// Checkpoint
// ----------------------------------------------------------------------

/// A complete point-in-time image of a training run. See the module docs
/// for the binary layout.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Which loop wrote it ("pretrain", "dec", "idec", "dcn", "adec").
    pub phase: String,
    /// The loop iteration this state belongs to: resuming executes
    /// iterations `iter..max_iter`.
    pub iter: u64,
    /// RNG state at the top of iteration `iter`.
    pub rng: RngState,
    /// Every parameter, in registration order.
    pub store: ParamStore,
    /// Optimizer states, in the trainer's fixed order.
    pub opts: Vec<OptState>,
    /// Trainer-specific loop state (previous assignments, counts, …)
    /// encoded as words by the trainer that owns the phase.
    pub extra: Vec<u64>,
    /// Training-time statistical fingerprint for the serve-side drift
    /// sentinel. `None` for pretraining checkpoints, mid-run rolling
    /// checkpoints, and anything written before the section existed;
    /// such checkpoints encode byte-identically to the pre-profile
    /// format.
    pub profile: Option<ReferenceProfile>,
}

impl Checkpoint {
    /// Serializes the full file image (header + payload).
    pub fn encode(&self) -> Result<Vec<u8>, CheckpointError> {
        let payload = self.encode_payload()?;
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    fn encode_payload(&self) -> Result<Vec<u8>, CheckpointError> {
        let mut p = Vec::new();
        // Phase names are short static strings; the u32 cannot truncate.
        p.extend_from_slice(&u32_len(self.phase.len()).to_le_bytes());
        p.extend_from_slice(self.phase.as_bytes());
        p.extend_from_slice(&self.iter.to_le_bytes());
        for w in self.rng.words {
            p.extend_from_slice(&w.to_le_bytes());
        }
        match self.rng.gauss_cache {
            Some(v) => {
                p.push(1);
                p.extend_from_slice(&v.to_le_bytes());
            }
            None => {
                p.push(0);
                p.extend_from_slice(&0.0f32.to_le_bytes());
            }
        }
        let mut blob = Vec::new();
        write_store(&self.store, &mut blob).map_err(CheckpointError::Io)?;
        p.extend_from_slice(&(blob.len() as u64).to_le_bytes());
        p.extend_from_slice(&blob);
        // Optimizer and slot counts are bounded by the parameter count,
        // far below 2^32.
        p.extend_from_slice(&u32_len(self.opts.len()).to_le_bytes());
        for opt in &self.opts {
            match opt {
                OptState::Sgd(s) => {
                    p.push(0);
                    p.extend_from_slice(&s.lr.to_le_bytes());
                    write_slots(&mut p, &s.velocity);
                }
                OptState::Adam(s) => {
                    p.push(1);
                    p.extend_from_slice(&s.lr.to_le_bytes());
                    p.extend_from_slice(&s.t.to_le_bytes());
                    write_slots(&mut p, &s.m);
                    write_slots(&mut p, &s.v);
                }
            }
        }
        // A trainer's extra words number a handful.
        p.extend_from_slice(&u32_len(self.extra.len()).to_le_bytes());
        for w in &self.extra {
            p.extend_from_slice(&w.to_le_bytes());
        }
        if let Some(profile) = &self.profile {
            profile
                .validate()
                .map_err(|e| malformed(format!("refusing to encode invalid profile: {e}")))?;
            write_profile(&mut p, profile);
        }
        Ok(p)
    }

    /// Parses a full file image previously produced by
    /// [`Checkpoint::encode`], verifying magic, version, declared length,
    /// and checksum before decoding the payload.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < 8 {
            return Err(CheckpointError::Truncated);
        }
        if &bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(CheckpointError::Truncated);
        }
        let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if version != FORMAT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let mut len_buf = [0u8; 8];
        len_buf.copy_from_slice(&bytes[12..20]);
        let payload_len = u64::from_le_bytes(len_buf);
        if payload_len > MAX_PAYLOAD {
            return Err(malformed("declared payload length implausibly large"));
        }
        let expected = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
        let body = &bytes[HEADER_LEN..];
        let payload_len = usize::try_from(payload_len).map_err(|_| CheckpointError::Truncated)?;
        if body.len() < payload_len {
            return Err(CheckpointError::Truncated);
        }
        if body.len() > payload_len {
            return Err(malformed("trailing bytes after payload"));
        }
        let actual = crc32(body);
        if actual != expected {
            return Err(CheckpointError::BadChecksum { expected, actual });
        }
        Checkpoint::decode_payload(body)
    }

    fn decode_payload(payload: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut cur = Cursor::new(payload);
        let phase_len = cur.u32()? as usize;
        if phase_len > 256 {
            return Err(malformed("phase name too long"));
        }
        let phase = String::from_utf8(cur.take(phase_len)?.to_vec())
            .map_err(|_| malformed("phase name is not UTF-8"))?;
        let iter = cur.u64()?;
        let words = [cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?];
        let gauss_flag = cur.u8()?;
        let gauss_value = cur.f32()?;
        let gauss_cache = match gauss_flag {
            0 => None,
            1 => Some(gauss_value),
            other => return Err(malformed(format!("bad gauss-cache flag {other}"))),
        };
        let blob_len = usize::try_from(cur.u64()?).map_err(|_| CheckpointError::Truncated)?;
        let blob = cur.take(blob_len)?;
        // A store blob from a different serializer version is in the
        // `ADECPS` family but fails the exact-magic check inside
        // `read_store`; detect it here so the caller gets the precise
        // found/expected pair instead of a generic bad-magic parse error.
        if let Some(found) = crate::io::store_blob_version(blob) {
            if found != crate::io::STORE_FORMAT_VERSION {
                return Err(CheckpointError::StoreVersionMismatch {
                    found,
                    supported: crate::io::STORE_FORMAT_VERSION,
                });
            }
        }
        let store = read_store(blob).map_err(|e| malformed(format!("parameter store: {e}")))?;
        let n_opts = cur.u32()? as usize;
        if n_opts > 64 {
            return Err(malformed("optimizer count implausibly large"));
        }
        let mut opts = Vec::with_capacity(n_opts);
        for _ in 0..n_opts {
            let tag = cur.u8()?;
            match tag {
                0 => {
                    let lr = cur.f32()?;
                    let velocity = read_slots(&mut cur)?;
                    opts.push(OptState::Sgd(SgdState { lr, velocity }));
                }
                1 => {
                    let lr = cur.f32()?;
                    let t = cur.u64()?;
                    let m = read_slots(&mut cur)?;
                    let v = read_slots(&mut cur)?;
                    opts.push(OptState::Adam(AdamState { lr, m, v, t }));
                }
                other => return Err(malformed(format!("unknown optimizer tag {other}"))),
            }
        }
        let n_extra = cur.u32()? as usize;
        if n_extra > 1 << 24 {
            return Err(malformed("extra word count implausibly large"));
        }
        let mut extra = Vec::with_capacity(n_extra);
        for _ in 0..n_extra {
            extra.push(cur.u64()?);
        }
        // Optional trailing section: the cursor ending exactly here is the
        // pre-profile format; anything else must be a whole profile.
        let profile = if cur.done() { None } else { Some(read_profile(&mut cur)?) };
        if !cur.done() {
            return Err(malformed("trailing bytes inside payload"));
        }
        Ok(Checkpoint {
            phase,
            iter,
            rng: RngState { words, gauss_cache },
            store,
            opts,
            extra,
            profile,
        })
    }

    /// Writes the checkpoint atomically: the bytes go to a temp file in
    /// the target directory, are fsynced, and the temp file is renamed
    /// over `path`. A crash mid-write leaves the previous checkpoint (or
    /// nothing) — never a torn file.
    pub fn save_atomic(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let shown = path.display().to_string();
        adec_obs::emit(
            adec_obs::Event::new(adec_obs::Level::Info, "checkpoint.write")
                .field("event", "begin")
                .field("path", shown.as_str())
                .field("phase", self.phase.as_str())
                .field("iter", self.iter),
        );
        match self.save_atomic_inner(path) {
            Ok(bytes) => {
                adec_obs::emit(
                    adec_obs::Event::new(adec_obs::Level::Info, "checkpoint.write")
                        .field("event", "end")
                        .field("path", shown.as_str())
                        .field("phase", self.phase.as_str())
                        .field("iter", self.iter)
                        .field("bytes", bytes),
                );
                Ok(())
            }
            Err(err) => {
                adec_obs::emit(
                    adec_obs::Event::new(adec_obs::Level::Error, "checkpoint.write")
                        .field("event", "error")
                        .field("path", shown.as_str())
                        .field("err", err.to_string()),
                );
                Err(err)
            }
        }
    }

    fn save_atomic_inner(&self, path: &Path) -> Result<usize, CheckpointError> {
        let bytes = self.encode()?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp).map_err(CheckpointError::Io)?;
        file.write_all(&bytes).map_err(CheckpointError::Io)?;
        file.sync_all().map_err(CheckpointError::Io)?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(CheckpointError::Io)?;
        Ok(bytes.len())
    }

    /// Loads and verifies a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
        let path = path.as_ref();
        let result = std::fs::read(path)
            .map_err(CheckpointError::Io)
            .and_then(|bytes| Checkpoint::decode(&bytes));
        match &result {
            Ok(ckpt) => adec_obs::emit(
                adec_obs::Event::new(adec_obs::Level::Info, "checkpoint.load")
                    .field("event", "end")
                    .field("path", path.display().to_string())
                    .field("phase", ckpt.phase.as_str())
                    .field("iter", ckpt.iter),
            ),
            Err(err) => adec_obs::emit(
                adec_obs::Event::new(adec_obs::Level::Error, "checkpoint.load")
                    .field("event", "error")
                    .field("path", path.display().to_string())
                    .field("err", err.to_string()),
            ),
        }
        result
    }

    /// Errors unless the checkpoint was written by the named phase —
    /// resuming a DEC run from a pretraining checkpoint is a caller bug
    /// this catches early.
    pub fn ensure_phase(&self, phase: &str) -> Result<(), CheckpointError> {
        if self.phase == phase {
            Ok(())
        } else {
            Err(malformed(format!(
                "phase mismatch: checkpoint is '{}', expected '{phase}'",
                self.phase
            )))
        }
    }

    /// Copies checkpointed parameter values into a live store whose
    /// parameters were registered in the same order; every name and shape
    /// is verified positionally before anything is written.
    pub fn restore_store(&self, store: &mut ParamStore) -> Result<(), CheckpointError> {
        if store.len() != self.store.len() {
            return Err(malformed(format!(
                "store layout mismatch: live has {} parameters, checkpoint has {}",
                store.len(),
                self.store.len()
            )));
        }
        for ((id, live_name, live_val), (_, ck_name, ck_val)) in
            store.iter().zip(self.store.iter())
        {
            if live_name != ck_name {
                return Err(malformed(format!(
                    "parameter {} name mismatch: live '{live_name}', checkpoint '{ck_name}'",
                    id.index()
                )));
            }
            if live_val.shape() != ck_val.shape() {
                return Err(malformed(format!(
                    "parameter '{live_name}' shape mismatch: live {:?}, checkpoint {:?}",
                    live_val.shape(),
                    ck_val.shape()
                )));
            }
        }
        let updates: Vec<(crate::store::ParamId, Matrix)> = store
            .iter()
            .zip(self.store.iter())
            .map(|((id, _, _), (_, _, v))| (id, v.clone()))
            .collect();
        for (id, v) in updates {
            store.set(id, v);
        }
        Ok(())
    }

    /// The optimizer state at `idx`, or a [`CheckpointError::Malformed`]
    /// if the checkpoint holds fewer optimizers than the trainer expects.
    pub fn opt(&self, idx: usize) -> Result<&OptState, CheckpointError> {
        self.opts
            .get(idx)
            .ok_or_else(|| malformed(format!("missing optimizer state {idx}")))
    }
}

fn write_slots(out: &mut Vec<u8>, slots: &[Option<Matrix>]) {
    // Slot counts track parameter ids, far below 2^32.
    out.extend_from_slice(&u32_len(slots.len()).to_le_bytes());
    for slot in slots {
        match slot {
            Some(m) => {
                out.push(1);
                // Matrix sides are far below 2^32.
                out.extend_from_slice(&u32_len(m.rows()).to_le_bytes());
                out.extend_from_slice(&u32_len(m.cols()).to_le_bytes());
                for &v in m.as_slice() {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            None => out.push(0),
        }
    }
}

fn write_f32s(out: &mut Vec<u8>, values: &[f32]) {
    // Profile vectors are latent-dim / cluster-count sized, far below 2^32.
    out.extend_from_slice(&u32_len(values.len()).to_le_bytes());
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn read_f32s(cur: &mut Cursor<'_>, what: &str, max: usize) -> Result<Vec<f32>, CheckpointError> {
    let n = cur.u32()? as usize;
    if n > max {
        return Err(malformed(format!("profile {what} length implausibly large")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(cur.f32()?);
    }
    Ok(out)
}

fn write_profile(out: &mut Vec<u8>, profile: &ReferenceProfile) {
    out.extend_from_slice(PROFILE_MAGIC);
    out.push(PROFILE_SECTION_VERSION);
    out.extend_from_slice(&profile.rows.to_le_bytes());
    write_f32s(out, &profile.latent_mean);
    write_f32s(out, &profile.latent_var);
    for v in [
        profile.entropy_mean,
        profile.entropy_std,
        profile.confidence_mean,
        profile.confidence_std,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    write_f32s(out, &profile.distance_quantiles);
    write_f32s(out, &profile.occupancy);
}

fn read_profile(cur: &mut Cursor<'_>) -> Result<ReferenceProfile, CheckpointError> {
    let magic = cur.take(PROFILE_MAGIC.len())?;
    if magic != PROFILE_MAGIC {
        return Err(malformed("unrecognized trailing section (expected profile magic)"));
    }
    let version = cur.u8()?;
    if version != PROFILE_SECTION_VERSION {
        return Err(malformed(format!(
            "profile section version {version} unsupported \
             (this build reads {PROFILE_SECTION_VERSION})"
        )));
    }
    let rows = cur.u64()?;
    let latent_mean = read_f32s(cur, "latent mean", 1 << 20)?;
    let latent_var = read_f32s(cur, "latent variance", 1 << 20)?;
    let entropy_mean = cur.f32()?;
    let entropy_std = cur.f32()?;
    let confidence_mean = cur.f32()?;
    let confidence_std = cur.f32()?;
    let distance_quantiles = read_f32s(cur, "distance quantiles", DISTANCE_QUANTILES.len())?;
    let occupancy = read_f32s(cur, "occupancy", 1 << 20)?;
    let profile = ReferenceProfile {
        rows,
        latent_mean,
        latent_var,
        entropy_mean,
        entropy_std,
        confidence_mean,
        confidence_std,
        distance_quantiles,
        occupancy,
    };
    profile.validate().map_err(|e| malformed(format!("invalid profile section: {e}")))?;
    Ok(profile)
}

fn read_slots(cur: &mut Cursor<'_>) -> Result<Vec<Option<Matrix>>, CheckpointError> {
    let n = cur.u32()? as usize;
    if n > 1 << 20 {
        return Err(malformed("slot count implausibly large"));
    }
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        match cur.u8()? {
            0 => slots.push(None),
            1 => {
                let rows = cur.u32()? as usize;
                let cols = cur.u32()? as usize;
                if rows.saturating_mul(cols) > 1 << 28 {
                    return Err(malformed("slot tensor too large"));
                }
                // Bounds-check against the remaining buffer *before*
                // allocating, so a forged shape cannot balloon memory.
                let raw = cur.take(rows * cols * 4)?;
                let mut data = Vec::with_capacity(rows * cols);
                for chunk in raw.chunks_exact(4) {
                    data.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
                }
                slots.push(Some(Matrix::from_vec(rows, cols, data)));
            }
            other => return Err(malformed(format!("bad slot flag {other}"))),
        }
    }
    Ok(slots)
}

/// Bounds-checked little-endian reader over an in-memory payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::optim::Optimizer;
    use adec_tensor::SeedRng;

    fn sample_checkpoint() -> Checkpoint {
        let mut rng = SeedRng::new(11);
        let mut store = ParamStore::new();
        let w = store.register("enc.w", Matrix::randn(4, 3, 0.0, 1.0, &mut rng));
        store.register("mu", Matrix::randn(2, 3, 0.0, 1.0, &mut rng));
        // Give both optimizers real, non-trivial state.
        let mut sgd = Sgd::new(0.01, 0.9);
        let mut adam = Adam::new(1e-4);
        let grad = Matrix::randn(4, 3, 0.0, 0.1, &mut rng);
        sgd.step_grads(&mut store, &[(w, grad.clone())]);
        adam.step_grads(&mut store, &[(w, grad.clone())]);
        adam.step_grads(&mut store, &[(w, grad)]);
        // Prime the Box–Muller cache so RngState's hard case is exercised.
        rng.standard_normal();
        Checkpoint {
            phase: "dec".into(),
            iter: 140,
            rng: rng.export_state(),
            store,
            opts: vec![OptState::capture_sgd(&sgd), OptState::capture_adam(&adam)],
            extra: vec![7, u64::MAX, 0],
            profile: None,
        }
    }

    fn sample_profile() -> ReferenceProfile {
        let mut rng = SeedRng::new(21);
        let z = Matrix::randn(32, 3, 0.0, 1.0, &mut rng);
        let mu = Matrix::randn(2, 3, 0.0, 1.0, &mut rng);
        let q = crate::loss::soft_assignment(&z, &mu, 1.0);
        ReferenceProfile::compute(&z, &q, &mu)
    }

    fn assert_checkpoints_equal(a: &Checkpoint, b: &Checkpoint) {
        // Bitwise equality via re-encoding: covers store, optimizer
        // buffers (including Adam's t), RNG words + cache, and extras.
        assert_eq!(a.encode().unwrap(), b.encode().unwrap());
    }

    #[test]
    fn encode_decode_round_trip() {
        let ck = sample_checkpoint();
        let bytes = ck.encode().unwrap();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back.phase, "dec");
        assert_eq!(back.iter, 140);
        assert_eq!(back.rng, ck.rng);
        assert_eq!(back.extra, ck.extra);
        assert_checkpoints_equal(&ck, &back);
    }

    #[test]
    fn round_trip_restores_optimizers_and_rng_bitwise() {
        let ck = sample_checkpoint();
        let back = Checkpoint::decode(&ck.encode().unwrap()).unwrap();

        // Restored Adam must continue identically to the original.
        let mut adam_a = Adam::new(1e-4);
        ck.opt(1).unwrap().apply_adam(&mut adam_a).unwrap();
        let mut adam_b = Adam::new(1e-4);
        back.opt(1).unwrap().apply_adam(&mut adam_b).unwrap();
        let mut store_a = ck.store.clone();
        let mut store_b = back.store.clone();
        let w = store_a.iter().next().unwrap().0;
        let grad = Matrix::full(4, 3, 0.25);
        for _ in 0..5 {
            adam_a.step_grads(&mut store_a, &[(w, grad.clone())]);
            adam_b.step_grads(&mut store_b, &[(w, grad.clone())]);
        }
        assert_eq!(store_a.get(w), store_b.get(w));

        // Restored RNG must continue the exact bit-stream.
        let mut rng_a = SeedRng::from_state(&ck.rng);
        let mut rng_b = SeedRng::from_state(&back.rng);
        for _ in 0..64 {
            assert_eq!(rng_a.standard_normal(), rng_b.standard_normal());
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample_checkpoint().encode().unwrap();
        // Sweep a selection of cut points across header and payload.
        for keep in [0, 4, 7, 8, 11, 20, 23, 24, 60, bytes.len() / 2, bytes.len() - 1] {
            let cut = &bytes[..keep];
            match Checkpoint::decode(cut) {
                Err(CheckpointError::Truncated) => {}
                other => panic!("keep={keep}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let bytes = sample_checkpoint().encode().unwrap();
        // Flip one bit in every region of the payload.
        for pos in [HEADER_LEN, HEADER_LEN + 13, bytes.len() - 1, bytes.len() / 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            match Checkpoint::decode(&bad) {
                Err(CheckpointError::BadChecksum { .. }) => {}
                other => panic!("pos={pos}: expected BadChecksum, got {other:?}"),
            }
        }
    }

    #[test]
    fn version_mismatch_is_detected() {
        let mut bytes = sample_checkpoint().encode().unwrap();
        bytes[8] = 0xFE; // bump the version field
        match Checkpoint::decode(&bytes) {
            Err(CheckpointError::VersionMismatch { found, supported }) => {
                assert_eq!(found, 0xFE);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn store_version_mismatch_is_distinct_and_names_versions() {
        let mut bytes = sample_checkpoint().encode().unwrap();
        // Bump the embedded store magic's version suffix (ADECPS01 →
        // ADECPS02) and reseal the envelope, so magic, header version,
        // and checksum all pass and only the store version is foreign.
        let pos = bytes.windows(8).position(|w| w == b"ADECPS01").unwrap();
        bytes[pos + 7] = b'2';
        assert!(reseal_checksum(&mut bytes));
        match Checkpoint::decode(&bytes) {
            Err(CheckpointError::StoreVersionMismatch { found, supported }) => {
                assert_eq!(found, 2);
                assert_eq!(supported, crate::io::STORE_FORMAT_VERSION);
            }
            other => panic!("expected StoreVersionMismatch, got {other:?}"),
        }
        // The message names both versions — this line is what the
        // serve-side reload refusal surfaces to operators.
        let msg = Checkpoint::decode(&bytes).unwrap_err().to_string();
        assert!(msg.contains("version 2"), "{msg}");
        assert!(msg.contains("version 1"), "{msg}");

        // A blob outside the ADECPS family stays the generic parse error
        // — the distinct variant is only for recognizable store blobs.
        let mut alien = sample_checkpoint().encode().unwrap();
        alien[pos] = b'X';
        assert!(reseal_checksum(&mut alien));
        assert!(matches!(
            Checkpoint::decode(&alien),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = sample_checkpoint().encode().unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = sample_checkpoint().encode().unwrap();
        bytes.push(0);
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn atomic_save_load_round_trip() {
        let ck = sample_checkpoint();
        let dir = std::env::temp_dir().join(format!("adec_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dec.ckpt");
        ck.save_atomic(&path).unwrap();
        // The temp file must be gone after the rename.
        assert!(!dir.join("dec.ckpt.tmp").exists());
        let back = Checkpoint::load(&path).unwrap();
        assert_checkpoints_equal(&ck, &back);
        // Overwrite in place — the rolling-checkpoint pattern.
        let mut ck2 = ck.clone();
        ck2.iter = 280;
        ck2.save_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().iter, 280);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn phase_and_layout_guards() {
        let ck = sample_checkpoint();
        assert!(ck.ensure_phase("dec").is_ok());
        assert!(matches!(
            ck.ensure_phase("idec"),
            Err(CheckpointError::Malformed(_))
        ));

        // Same names, wrong shape.
        let mut live = ParamStore::new();
        live.register("enc.w", Matrix::zeros(4, 3));
        live.register("mu", Matrix::zeros(3, 3));
        assert!(matches!(
            ck.restore_store(&mut live),
            Err(CheckpointError::Malformed(_))
        ));

        // Matching layout restores bitwise.
        let mut live = ParamStore::new();
        live.register("enc.w", Matrix::zeros(4, 3));
        live.register("mu", Matrix::zeros(2, 3));
        ck.restore_store(&mut live).unwrap();
        for ((_, _, a), (_, _, b)) in live.iter().zip(ck.store.iter()) {
            assert_eq!(a, b);
        }

        // Wrong optimizer kind at an index.
        let mut adam = Adam::new(0.1);
        assert!(matches!(
            ck.opt(0).unwrap().apply_adam(&mut adam),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(ck.opt(9), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn profile_section_round_trips() {
        let mut ck = sample_checkpoint();
        ck.profile = Some(sample_profile());
        let bytes = ck.encode().unwrap();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back.profile, ck.profile);
        assert_checkpoints_equal(&ck, &back);
        // The section is a few hundred bytes, not a second store.
        let without = sample_checkpoint().encode().unwrap();
        let overhead = bytes.len() - without.len();
        assert!(overhead < 256, "profile section unexpectedly large: {overhead} bytes");
    }

    #[test]
    fn profileless_checkpoints_keep_the_pre_profile_byte_format() {
        // The bitwise-resume contract compares checkpoint files with
        // `cmp`; a `None` profile must add zero bytes.
        let ck = sample_checkpoint();
        let bytes = ck.encode().unwrap();
        let mut with = ck.clone();
        with.profile = Some(sample_profile());
        let with_bytes = with.encode().unwrap();
        assert!(with_bytes.len() > bytes.len());
        // The profile is strictly appended: the payloads share the whole
        // pre-profile prefix (only the header's length/CRC differ).
        assert_eq!(
            &with_bytes[HEADER_LEN..bytes.len()],
            &bytes[HEADER_LEN..],
            "profile section must not perturb earlier payload bytes"
        );
        // Decoding pre-profile bytes yields None and re-encodes
        // byte-identically (a pure load→save cycle is lossless).
        let back = Checkpoint::decode(&bytes).unwrap();
        assert!(back.profile.is_none());
        assert_eq!(back.encode().unwrap(), bytes);
    }

    #[test]
    fn corrupt_profile_sections_are_rejected() {
        let mut ck = sample_checkpoint();
        ck.profile = Some(sample_profile());
        let good = ck.encode().unwrap();

        // Unknown trailing-section magic.
        let pos = good.windows(4).rposition(|w| w == b"PROF").unwrap();
        let mut bad = good.clone();
        bad[pos] = b'X';
        assert!(reseal_checksum(&mut bad));
        match Checkpoint::decode(&bad) {
            Err(CheckpointError::Malformed(msg)) => {
                assert!(msg.contains("trailing section"), "{msg}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }

        // Foreign section version.
        let mut bad = good.clone();
        bad[pos + 4] = 9;
        assert!(reseal_checksum(&mut bad));
        match Checkpoint::decode(&bad) {
            Err(CheckpointError::Malformed(msg)) => {
                assert!(msg.contains("profile section version 9"), "{msg}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }

        // Truncated mid-section.
        let cut = &good[..good.len() - 3];
        assert!(matches!(Checkpoint::decode(cut), Err(CheckpointError::Truncated)));

        // Structurally invalid statistics (zero rows) fail validation.
        let mut zero_rows = good.clone();
        zero_rows[pos + 5..pos + 13].fill(0);
        assert!(reseal_checksum(&mut zero_rows));
        match Checkpoint::decode(&zero_rows) {
            Err(CheckpointError::Malformed(msg)) => {
                assert!(msg.contains("invalid profile section"), "{msg}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }

        // Encoding an invalid profile is refused up front.
        let mut broken = ck.clone();
        if let Some(p) = &mut broken.profile {
            p.entropy_mean = f32::NAN;
        }
        assert!(matches!(broken.encode(), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
