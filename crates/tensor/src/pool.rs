//! Opt-in worker pool for the compute kernels.
//!
//! Parallelism is **row-chunked and deterministic**: a parallel region
//! splits the *output* rows into `T` contiguous chunks and each worker
//! computes its chunk with exactly the same per-element arithmetic (and the
//! same ascending-`k` accumulation order) as the single-threaded kernel, so
//! results are bit-identical at any thread count. There is no cross-thread
//! reduction anywhere in the kernel layer — every output element is owned
//! by exactly one worker.
//!
//! The thread count comes from, in priority order:
//!
//! 1. [`set_thread_override`] (used by tests to vary the count in-process),
//! 2. the `ADEC_THREADS` environment variable (read once, then cached),
//! 3. the default of `1` (fully serial — the pool is opt-in).
//!
//! Workers are `std::thread` scoped threads spawned per parallel region.
//! The workspace denies `unsafe` (its one exception is the AVX2 gemm
//! dispatch in [`crate::kernels`]), which rules out a persistent
//! channel-based pool (sharing non-`'static` kernel operands across a
//! long-lived worker requires either `Arc`-cloning every operand or raw
//! pointers); `std::thread::scope` gives borrow-checked access to the
//! operands and disjoint `&mut` output chunks at a per-region spawn cost
//! of a few microseconds, which the [`PARALLEL_MIN_WORK`] gate keeps out
//! of small-kernel paths entirely.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hard ceiling on the worker count (keeps a typo like
/// `ADEC_THREADS=1000000` from exhausting the process).
pub const MAX_THREADS: usize = 64;

/// Minimum number of output elements (times inner-loop length for gemm)
/// below which parallel regions run inline on the calling thread.
pub const PARALLEL_MIN_WORK: usize = 1 << 16;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static ENV_THREADS: OnceLock<usize> = OnceLock::new();
static SCHEDULE_ROTATION: AtomicUsize = AtomicUsize::new(0);

// --- kernel telemetry -------------------------------------------------
// Dispatch counts and per-chunk wall time flow to the global adec-obs
// registry. A dispatch costs one relaxed atomic add and each parallel
// chunk adds two monotonic clock reads — nothing touches the per-element
// path or the numerics, so trajectories are unchanged.
mod pool_obs {
    use std::sync::{Arc, OnceLock};

    /// Inline (single-chunk) kernel dispatches.
    pub fn serial_dispatches() -> &'static adec_obs::Counter {
        static C: OnceLock<Arc<adec_obs::Counter>> = OnceLock::new();
        C.get_or_init(|| adec_obs::counter("adec_pool_dispatch_serial_total")).as_ref()
    }

    /// Multi-chunk (scoped-thread) kernel dispatches.
    pub fn parallel_dispatches() -> &'static adec_obs::Counter {
        static C: OnceLock<Arc<adec_obs::Counter>> = OnceLock::new();
        C.get_or_init(|| adec_obs::counter("adec_pool_dispatch_parallel_total")).as_ref()
    }

    /// Wall seconds per parallel chunk.
    pub fn chunk_seconds() -> &'static adec_obs::Histogram {
        static H: OnceLock<Arc<adec_obs::Histogram>> = OnceLock::new();
        H.get_or_init(|| adec_obs::histogram("adec_pool_chunk_seconds", adec_obs::DURATION_BUCKETS))
            .as_ref()
    }
}

/// The configured worker count: the in-process override if set, else
/// `ADEC_THREADS` (cached on first read), else 1.
///
/// A malformed or out-of-range `ADEC_THREADS` falls back to a safe value
/// but is *not* silent: a warning goes to stderr once, on first read —
/// a typo'd env var quietly serializing a 64-core run is the kind of
/// misconfiguration that otherwise survives for months.
pub fn configured_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced.min(MAX_THREADS);
    }
    *ENV_THREADS.get_or_init(|| {
        let raw = std::env::var("ADEC_THREADS").ok();
        let (threads, warning) = parse_thread_env(raw.as_deref());
        if let Some(msg) = warning {
            // A Warn-level event always mirrors to stderr, so the operator
            // sees `adec: warning: …` whether or not a log sink exists.
            adec_obs::emit(
                adec_obs::Event::new(adec_obs::Level::Warn, "pool.threads").field("msg", msg),
            );
        }
        threads
    })
}

/// Interprets a raw `ADEC_THREADS` value: the worker count to use, plus a
/// warning message when the value was malformed or clamped. Pure, so every
/// fallback path is unit-testable without touching the process
/// environment or the `OnceLock` cache.
pub fn parse_thread_env(raw: Option<&str>) -> (usize, Option<String>) {
    let raw = match raw {
        Some(r) => r.trim(),
        None => return (1, None), // unset: serial by design, not a mistake
    };
    match raw.parse::<usize>() {
        Ok(0) => (
            1,
            Some("ADEC_THREADS=0 is not a thread count; running serial (1)".to_string()),
        ),
        Ok(n) if n > MAX_THREADS => (
            MAX_THREADS,
            Some(format!(
                "ADEC_THREADS={n} exceeds the ceiling of {MAX_THREADS}; clamping to {MAX_THREADS}"
            )),
        ),
        Ok(n) => (n, None),
        Err(_) => (
            1,
            Some(format!(
                "ADEC_THREADS='{raw}' is not a positive integer; running serial (1)"
            )),
        ),
    }
}

/// Overrides the worker count in-process (0 clears the override and falls
/// back to `ADEC_THREADS`). Intended for tests and benchmarks that sweep
/// thread counts; results are identical at any setting by construction.
pub fn set_thread_override(n: usize) {
    OVERRIDE.store(n.min(MAX_THREADS), Ordering::Relaxed);
}

/// Rotates the order in which parallel chunks are *launched* (and which
/// chunk lands on the calling thread) without changing which rows each
/// chunk owns. Because every output element is owned by exactly one
/// worker, any rotation must produce bit-identical results — the
/// determinism auditor sweeps this knob adversarially to prove it.
/// `0` restores the natural ascending order.
pub fn set_schedule_rotation(r: usize) {
    SCHEDULE_ROTATION.store(r, Ordering::Relaxed);
}

/// Splits `rows` into `chunks` contiguous, nearly-equal spans. Returns
/// `(start, len)` pairs covering `0..rows` in order; never returns empty
/// spans, so fewer than `chunks` pairs come back when `rows < chunks`.
pub fn row_chunks(rows: usize, chunks: usize) -> Vec<(usize, usize)> {
    assert!(chunks >= 1, "row_chunks: need at least one chunk");
    let chunks = chunks.min(rows.max(1));
    let base = rows / chunks;
    let extra = rows % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push((start, len));
        start += len;
    }
    out
}

/// Runs `f(row_start, rows_in_chunk, out_chunk)` over disjoint row chunks
/// of the `rows × cols` row-major buffer `out`, using up to
/// [`configured_threads`] scoped workers.
///
/// `work` is an estimate of total scalar operations; below
/// [`PARALLEL_MIN_WORK`] (or with one worker) the region runs inline.
/// Chunking is by output rows only, so every element is written by exactly
/// one worker and results cannot depend on the thread count.
pub fn parallel_rows<F>(out: &mut [f32], rows: usize, cols: usize, work: usize, f: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    assert_eq!(out.len(), rows * cols, "parallel_rows: output length mismatch");
    let threads = configured_threads();
    if threads <= 1 || rows < 2 || work < PARALLEL_MIN_WORK {
        pool_obs::serial_dispatches().inc();
        f(0, rows, out);
        return;
    }
    pool_obs::parallel_dispatches().inc();
    // Per-chunk timing wraps the whole chunk, not the element loop.
    let run = |start: usize, len: usize, chunk: &mut [f32]| {
        let t0 = std::time::Instant::now();
        f(start, len, chunk);
        pool_obs::chunk_seconds().observe(t0.elapsed().as_secs_f64());
    };
    let spans = row_chunks(rows, threads);
    // Slice the output into per-chunk views first so the launch order can
    // be permuted (see `set_schedule_rotation`) without changing which
    // rows each chunk owns — ownership, not schedule, carries the
    // determinism invariant.
    let mut tasks = Vec::with_capacity(spans.len());
    let mut rest = out;
    for &(start, len) in &spans {
        let (chunk, tail) = rest.split_at_mut(len * cols);
        rest = tail;
        tasks.push((start, len, chunk));
    }
    let rotation = SCHEDULE_ROTATION.load(Ordering::Relaxed) % tasks.len().max(1);
    tasks.rotate_left(rotation);
    std::thread::scope(|scope| {
        let mut iter = tasks.into_iter().peekable();
        while let Some((start, len, chunk)) = iter.next() {
            if iter.peek().is_none() {
                // Run the final chunk on the calling thread.
                run(start, len, chunk);
                break;
            }
            let run = &run;
            scope.spawn(move || run(start, len, chunk));
        }
    });
}

#[cfg(test)]
// Test code: exact float comparisons, unwraps and casts of small counts
// are the assertions themselves here.
#[allow(
    clippy::float_cmp,
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
mod tests {
    use super::*;

    #[test]
    fn row_chunks_cover_range_exactly() {
        for rows in [0usize, 1, 2, 3, 7, 64, 65] {
            for chunks in [1usize, 2, 3, 4, 8] {
                let spans = row_chunks(rows, chunks);
                let mut next = 0;
                for &(start, len) in &spans {
                    assert_eq!(start, next);
                    assert!(len > 0);
                    next += len;
                }
                assert_eq!(next, rows);
                // Balanced within one row.
                if let (Some(max), Some(min)) =
                    (spans.iter().map(|&(_, l)| l).max(), spans.iter().map(|&(_, l)| l).min())
                {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn parallel_rows_writes_every_row_once() {
        let (rows, cols) = (67, 5);
        for threads in [1usize, 2, 4] {
            set_thread_override(threads);
            let mut out = vec![0.0f32; rows * cols];
            // Force the parallel path with a large claimed work size.
            parallel_rows(&mut out, rows, cols, usize::MAX, |r0, n, chunk| {
                for r in 0..n {
                    for c in 0..cols {
                        chunk[r * cols + c] += (r0 + r) as f32;
                    }
                }
            });
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(out[r * cols + c], r as f32, "threads={threads} r={r} c={c}");
                }
            }
        }
        set_thread_override(0);
    }

    #[test]
    fn rotated_schedules_write_identical_output() {
        let (rows, cols) = (53, 7);
        let mut reference = vec![0.0f32; rows * cols];
        let fill = |r0: usize, n: usize, chunk: &mut [f32]| {
            for r in 0..n {
                for c in 0..cols {
                    chunk[r * cols + c] = ((r0 + r) * cols + c) as f32 * 0.5;
                }
            }
        };
        set_thread_override(1);
        parallel_rows(&mut reference, rows, cols, usize::MAX, fill);
        for threads in [2usize, 4] {
            for rotation in [0usize, 1, 2, 3] {
                set_thread_override(threads);
                set_schedule_rotation(rotation);
                let mut out = vec![0.0f32; rows * cols];
                parallel_rows(&mut out, rows, cols, usize::MAX, fill);
                assert_eq!(out, reference, "threads={threads} rotation={rotation}");
            }
        }
        set_schedule_rotation(0);
        set_thread_override(0);
    }

    #[test]
    fn small_work_stays_inline() {
        set_thread_override(4);
        let mut out = vec![0.0f32; 8];
        let mut calls = 0;
        // A FnMut would not be Sync; route the count through the buffer.
        parallel_rows(&mut out, 4, 2, 1, |_, n, chunk| {
            chunk[0] += n as f32; // only called once, with all 4 rows
        });
        calls += out[0] as usize;
        assert_eq!(calls, 4);
        set_thread_override(0);
    }

    #[test]
    fn serial_dispatch_raises_the_global_serial_counter() {
        let serial = adec_obs::counter("adec_pool_dispatch_serial_total");
        let before = serial.get();
        // Work below PARALLEL_MIN_WORK runs inline at any thread count, so
        // tests changing the override in parallel cannot reroute it.
        let mut out = vec![0.0f32; 4];
        parallel_rows(&mut out, 2, 2, 1, |_, _, chunk| chunk.fill(1.0));
        assert!(serial.get() > before, "serial dispatch left the counter at {before}");
    }

    #[test]
    fn env_default_is_one_worker() {
        // With no override, the count is >= 1 whatever the environment says.
        set_thread_override(0);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn thread_env_parsing_covers_every_fallback() {
        // Unset: serial, and intentionally so — no warning.
        assert_eq!(parse_thread_env(None), (1, None));
        // Well-formed values pass through unwarned.
        assert_eq!(parse_thread_env(Some("1")), (1, None));
        assert_eq!(parse_thread_env(Some("8")), (8, None));
        assert_eq!(parse_thread_env(Some(" 4 ")), (4, None));
        assert_eq!(parse_thread_env(Some("64")), (64, None));
        // Garbage: serial with a warning naming the value.
        for bad in ["abc", "", "3.5", "-2", "1e3", "four"] {
            let (n, warning) = parse_thread_env(Some(bad));
            assert_eq!(n, 1, "ADEC_THREADS={bad:?}");
            let msg = warning.unwrap();
            assert!(msg.contains("not a positive integer"), "{msg}");
        }
        // Zero: "disable threading" is spelled 1, not 0.
        let (n, warning) = parse_thread_env(Some("0"));
        assert_eq!(n, 1);
        assert!(warning.unwrap().contains("ADEC_THREADS=0"));
        // Over the ceiling: clamp and say so.
        let (n, warning) = parse_thread_env(Some("1000000"));
        assert_eq!(n, MAX_THREADS);
        assert!(warning.unwrap().contains("clamping"));
    }
}
