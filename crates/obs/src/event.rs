//! Structured events and the bounded JSONL sink.
//!
//! An [`Event`] is a level, a dot-separated `kind` (`train.interval`,
//! `guard.recover`, `checkpoint.write`, …) and a flat list of typed
//! fields. [`emit`] routes it:
//!
//! * `Warn` and `Error` events always mirror to stderr — operator-facing
//!   diagnostics must not depend on a log file being configured.
//! * If a JSONL sink is installed, the event is serialized and pushed
//!   onto a bounded queue drained by a background writer thread. A full
//!   queue **drops** the event and counts the drop (registry counter
//!   `adec_obs_events_dropped_total`); emission never blocks, so the
//!   hot path cannot be perturbed by a slow disk.
//!
//! Each JSONL line is a flat object:
//! `{"ts_ms":…,"seq":…,"level":"info","kind":"train.interval",…fields}`.
//! `seq` is assigned at enqueue time, so gaps in the sequence reveal
//! exactly how many events an overflow dropped and where.

use crate::json::escape;
use crate::registry;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume diagnostics.
    Debug,
    /// Normal progress events.
    Info,
    /// Something is off but the run continues (mirrored to stderr).
    Warn,
    /// A failure surfaced to the caller (mirrored to stderr).
    Error,
}

impl Level {
    /// The lowercase name used in the JSONL `level` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values are stringified, JSON has no literal).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::F64(f64::from(v))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_nan() => out.push_str("\"NaN\""),
            Value::F64(v) if *v > 0.0 => out.push_str("\"Infinity\""),
            Value::F64(_) => out.push_str("\"-Infinity\""),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
        }
    }
}

/// One structured telemetry event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Severity (Warn+ mirrors to stderr).
    pub level: Level,
    /// Dot-separated event kind, e.g. `train.interval`.
    pub kind: String,
    /// Flat typed fields, in insertion order.
    pub fields: Vec<(String, Value)>,
    /// Whether the sink's `--telemetry-interval` sampling applies.
    pub sampled: bool,
}

impl Event {
    /// A new event with no fields.
    pub fn new(level: Level, kind: impl Into<String>) -> Event {
        Event { level, kind: kind.into(), fields: Vec::new(), sampled: false }
    }

    /// Builder: appends a field.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Value>) -> Event {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Builder: appends a field only when the value is present.
    pub fn opt_field(mut self, key: impl Into<String>, value: Option<impl Into<Value>>) -> Event {
        if let Some(v) = value {
            self.fields.push((key.into(), v.into()));
        }
        self
    }

    /// Builder: marks the event as subject to interval sampling (used by
    /// per-interval training events, which the operator may thin out with
    /// `--telemetry-interval N`).
    pub fn sampled(mut self) -> Event {
        self.sampled = true;
        self
    }

    fn to_json_line(&self, ts_ms: u64, seq: u64) -> String {
        let mut out = String::with_capacity(96 + self.fields.len() * 24);
        let _ = write!(
            out,
            "{{\"ts_ms\":{ts_ms},\"seq\":{seq},\"level\":\"{}\",\"kind\":\"{}\"",
            self.level.as_str(),
            escape(&self.kind)
        );
        for (key, value) in &self.fields {
            let _ = write!(out, ",\"{}\":", escape(key));
            value.write_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// JSONL sink configuration.
#[derive(Debug, Clone)]
pub struct SinkOptions {
    /// Write every Nth `sampled` event (1 = all). Non-sampled events are
    /// always written.
    pub sample_every: u64,
    /// Queue capacity in events; beyond this, events are dropped and
    /// counted rather than blocking the emitter.
    pub capacity: usize,
}

impl Default for SinkOptions {
    fn default() -> SinkOptions {
        SinkOptions { sample_every: 1, capacity: 65_536 }
    }
}

struct SinkState {
    queue: VecDeque<String>,
    shutdown: bool,
    flush_requested: u64,
    flush_done: u64,
    seq: u64,
    dropped: u64,
    sample_every: u64,
    sample_counts: HashMap<String, u64>,
    capacity: usize,
}

struct Sink {
    state: Mutex<SinkState>,
    wake: Condvar,
}

impl Sink {
    fn lock(&self) -> MutexGuard<'_, SinkState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

struct SinkHandle {
    sink: std::sync::Arc<Sink>,
    writer: Option<std::thread::JoinHandle<()>>,
}

static SINK: OnceLock<Mutex<Option<SinkHandle>>> = OnceLock::new();

fn sink_slot() -> MutexGuard<'static, Option<SinkHandle>> {
    let slot = SINK.get_or_init(|| Mutex::new(None));
    match slot.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn unix_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
}

/// Installs (or replaces) the process-global JSONL sink writing to
/// `path`. The file is created or truncated. The previous sink, if any,
/// is flushed and shut down first.
pub fn install_jsonl_sink(path: impl AsRef<Path>, opts: SinkOptions) -> std::io::Result<()> {
    let file = File::create(path)?;
    let sink = std::sync::Arc::new(Sink {
        state: Mutex::new(SinkState {
            queue: VecDeque::new(),
            shutdown: false,
            flush_requested: 0,
            flush_done: 0,
            seq: 0,
            dropped: 0,
            sample_every: opts.sample_every.max(1),
            sample_counts: HashMap::new(),
            capacity: opts.capacity.max(1),
        }),
        wake: Condvar::new(),
    });
    let writer_sink = std::sync::Arc::clone(&sink);
    let writer = std::thread::Builder::new()
        .name("adec-obs-jsonl".to_string())
        .spawn(move || writer_loop(&writer_sink, file))?;
    let old = sink_slot().replace(SinkHandle { sink, writer: Some(writer) });
    if let Some(old) = old {
        stop_handle(old);
    }
    Ok(())
}

fn writer_loop(sink: &Sink, file: File) {
    let mut out = BufWriter::new(file);
    let mut batch: Vec<String> = Vec::new();
    loop {
        let (stop, flush_goal) = {
            let mut state = sink.lock();
            while state.queue.is_empty()
                && !state.shutdown
                && state.flush_done >= state.flush_requested
            {
                state = match sink.wake.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            batch.extend(state.queue.drain(..));
            (state.shutdown, state.flush_requested)
        };
        for line in batch.drain(..) {
            let _ = out.write_all(line.as_bytes());
            let _ = out.write_all(b"\n");
        }
        // The queue was drained up to `flush_goal`'s request; make the
        // bytes durable before acknowledging.
        let _ = out.flush();
        {
            let mut state = sink.lock();
            if state.flush_done < flush_goal {
                state.flush_done = flush_goal;
            }
            let done = state.queue.is_empty() && (stop || state.shutdown);
            sink.wake.notify_all();
            if done && state.shutdown {
                return;
            }
        }
    }
}

fn stop_handle(mut handle: SinkHandle) {
    {
        let mut state = handle.sink.lock();
        state.shutdown = true;
        handle.sink.wake.notify_all();
    }
    if let Some(writer) = handle.writer.take() {
        let _ = writer.join();
    }
}

/// Emits one event: mirrors `Warn`/`Error` to stderr, then hands the
/// event to the installed JSONL sink (if any) without blocking.
pub fn emit(event: Event) {
    if event.level >= Level::Warn {
        mirror_to_stderr(&event);
    }
    let slot = sink_slot();
    let Some(handle) = slot.as_ref() else { return };
    let mut state = handle.sink.lock();
    if event.sampled && state.sample_every > 1 {
        let every = state.sample_every;
        let n = state.sample_counts.entry(event.kind.clone()).or_insert(0);
        let keep = *n % every == 0;
        *n += 1;
        if !keep {
            return;
        }
    }
    if state.queue.len() >= state.capacity {
        state.dropped += 1;
        state.seq += 1; // the gap in seq records where the drop happened
        drop(state);
        registry::counter("adec_obs_events_dropped_total").inc();
        return;
    }
    let seq = state.seq;
    state.seq += 1;
    let line = event.to_json_line(unix_ms(), seq);
    state.queue.push_back(line);
    handle.sink.wake.notify_all();
}

// The one sanctioned stderr funnel: every lib-crate diagnostic routes
// through here.
#[allow(clippy::print_stderr)]
fn mirror_to_stderr(event: &Event) {
    let label = if event.level == Level::Error { "error" } else { "warning" };
    // A single-`msg` event prints as a plain operator warning; anything
    // richer gets `key=value` pairs after the kind.
    let only_msg = match event.fields.as_slice() {
        [(key, Value::Str(msg))] if key == "msg" => Some(msg.as_str()),
        _ => None,
    };
    if let Some(msg) = only_msg {
        eprintln!("adec: {label}: {msg}");
        return;
    }
    let mut rendered = String::new();
    for (key, value) in &event.fields {
        let _ = write!(rendered, " {key}=");
        match value {
            Value::Str(s) => {
                let _ = write!(rendered, "{s}");
            }
            other => other.write_json(&mut rendered),
        }
    }
    eprintln!("adec: {label}: {}:{rendered}", event.kind);
}

/// Blocks until every event enqueued before this call has been written
/// and flushed to the log file. No-op without a sink.
pub fn flush_sink() {
    let slot = sink_slot();
    let Some(handle) = slot.as_ref() else { return };
    let goal = {
        let mut state = handle.sink.lock();
        state.flush_requested += 1;
        handle.sink.wake.notify_all();
        state.flush_requested
    };
    let mut state = handle.sink.lock();
    while state.flush_done < goal && !state.shutdown {
        state = match handle.sink.wake.wait(state) {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
    }
}

/// Flushes and removes the installed sink (if any). Later events fall
/// back to stderr-mirroring only.
pub fn shutdown_sink() {
    let taken = sink_slot().take();
    if let Some(handle) = taken {
        stop_handle(handle);
    }
}

/// How many events the current sink has dropped on overflow (0 without a
/// sink). Also exported as `adec_obs_events_dropped_total`.
pub fn sink_dropped_events() -> u64 {
    sink_slot().as_ref().map_or(0, |handle| handle.sink.lock().dropped)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape_and_escaping() {
        let event = Event::new(Level::Info, "train.interval")
            .field("phase", "dec")
            .field("iter", 140usize)
            .field("kl_loss", 0.25f32)
            .field("note", "a\"b")
            .opt_field("acc", None::<f32>)
            .opt_field("nmi", Some(0.5f32));
        let line = event.to_json_line(1234, 7);
        let doc = crate::json::Json::parse(&line).unwrap();
        assert_eq!(doc.get("ts_ms").unwrap().as_u64(), Some(1234));
        assert_eq!(doc.get("seq").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("level").unwrap().as_str(), Some("info"));
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("train.interval"));
        assert_eq!(doc.get("phase").unwrap().as_str(), Some("dec"));
        assert_eq!(doc.get("iter").unwrap().as_u64(), Some(140));
        assert_eq!(doc.get("note").unwrap().as_str(), Some("a\"b"));
        assert!(doc.get("acc").is_none());
        assert!(doc.get("nmi").is_some());
    }

    #[test]
    fn non_finite_floats_serialize_as_strings() {
        let line = Event::new(Level::Info, "x")
            .field("a", f64::NAN)
            .field("b", f64::INFINITY)
            .field("c", f64::NEG_INFINITY)
            .to_json_line(0, 0);
        let doc = crate::json::Json::parse(&line).unwrap();
        assert_eq!(doc.get("a").unwrap().as_str(), Some("NaN"));
        assert_eq!(doc.get("b").unwrap().as_str(), Some("Infinity"));
        assert_eq!(doc.get("c").unwrap().as_str(), Some("-Infinity"));
    }

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
    }
}
