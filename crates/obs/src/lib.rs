//! Unified telemetry for the ADEC workspace.
//!
//! One process-global [`Registry`] holds atomic **counters** and
//! fixed-bucket **histograms**; RAII [`Span`]s time scopes into
//! histograms on drop; structured [`Event`]s flow to a pluggable sink —
//! a bounded JSONL writer that never blocks the caller — and the whole
//! registry renders to the Prometheus text exposition format.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Telemetry must never perturb a training
//!    trajectory. Nothing here feeds numbers back into the computation:
//!    counters and histograms are write-mostly atomics, events carry
//!    copies, and the JSONL sink drops on overflow rather than applying
//!    backpressure. Timestamps and sequence numbers exist only in the
//!    log output.
//! 2. **Hot-path cost.** Recording a counter is one relaxed atomic add;
//!    a histogram observation is one bucket add plus a CAS loop on the
//!    sum bits. Event emission with no sink installed and a level below
//!    `Warn` returns before any formatting. Kernel-level recording in
//!    `adec-tensor` is always on and stays off the per-element path: one
//!    counter add per dispatch or pack, two clock reads per parallel
//!    chunk.
//! 3. **No dependencies.** Std only, like the rest of the workspace, so
//!    the crate can sit underneath `adec-tensor`.
//!
//! `Warn`/`Error` events always mirror to stderr, sink or no sink — a
//! misconfiguration warning must reach the operator even when nobody
//! asked for a log file.

pub mod event;
pub mod json;
pub mod prom;
pub mod registry;
pub mod span;
pub mod trace;

pub use event::{
    emit, flush_sink, install_jsonl_sink, shutdown_sink, sink_dropped_events, Event, Level,
    SinkOptions, Value,
};
pub use registry::{
    counter, global, histogram, Counter, Histogram, HistogramSnapshot, Registry, Snapshot,
};
pub use span::{Span, DURATION_BUCKETS};
pub use trace::{TraceContext, TraceRing, TraceTree};
