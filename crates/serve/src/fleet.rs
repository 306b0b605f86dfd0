//! Replica fleet plumbing: per-replica state, seeded respawn backoff, and
//! the supervisor's liveness/wedge bookkeeping.
//!
//! A replica is a slot for one worker thread; every worker pops the
//! server's one connection queue. The supervisor (one thread per server)
//! ticks a few dozen times a second and, per replica:
//!
//! * **death** — the worker thread finished (panic already converted to a
//!   clean exit by the worker's catch-unwind, or a chaos kill): schedule a
//!   respawn after a seeded exponential backoff.
//! * **wedge** — the worker has been busy on one unit of work longer than
//!   the wedge budget: *supersede* it. Std threads cannot be killed, so
//!   the supervisor bumps the replica's epoch (the stale thread exits at
//!   its next epoch check), parks the old handle in a graveyard, and
//!   spawns a replacement immediately.
//!
//! Every transition emits a `serve.replica.*` lifecycle event so the JSONL
//! sink shows the full spawn → death → respawn story in `seq` order.

use adec_obs::{emit, Event, Level};
use adec_tensor::SeedRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Backoff base delay (attempt 0) in milliseconds.
const BACKOFF_BASE_MS: u64 = 10;
/// Backoff doubling cap: delays stop growing after this many attempts.
const BACKOFF_MAX_SHIFT: u32 = 5;
/// Jitter span in milliseconds added on top of the exponential delay.
const BACKOFF_JITTER_MS: u64 = 16;

/// Shared state of one replica slot. The slot outlives any individual
/// worker thread occupying it.
#[derive(Debug)]
pub(crate) struct Replica {
    /// Slot index, stable across respawns (the `replica` metrics label).
    pub id: usize,
    /// Incremented when the supervisor supersedes a wedged worker; a
    /// worker observing a newer epoch than its own exits immediately.
    pub epoch: AtomicU64,
    /// Chaos: when set, the worker exits cleanly at its next loop top.
    pub kill: AtomicBool,
    /// Chaos: injected busy-sleep in ms, consumed once at loop top.
    pub wedge_ms: AtomicU64,
    /// Busy watermark: 1 + ms-since-server-start when the worker began
    /// its current unit of work, 0 when idle.
    pub busy_since_ms: AtomicU64,
    /// Epoch the busy watermark belongs to, so a superseded thread's
    /// stale watermark can never re-trigger wedge detection.
    pub busy_epoch: AtomicU64,
    /// Requests answered by workers of this slot (across respawns).
    pub served: AtomicU64,
    /// Times the supervisor replaced this slot's worker.
    pub respawned: AtomicU64,
}

impl Replica {
    pub fn new(id: usize) -> Replica {
        Replica {
            id,
            epoch: AtomicU64::new(0),
            kill: AtomicBool::new(false),
            wedge_ms: AtomicU64::new(0),
            busy_since_ms: AtomicU64::new(0),
            busy_epoch: AtomicU64::new(0),
            served: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
        }
    }

    /// Marks the worker busy as of `now_ms` (ms since server start).
    pub fn mark_busy(&self, now_ms: u64) {
        self.busy_epoch
            .store(self.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        self.busy_since_ms.store(now_ms + 1, Ordering::SeqCst);
    }

    /// Marks the worker idle.
    pub fn mark_idle(&self) {
        self.busy_since_ms.store(0, Ordering::SeqCst);
    }

    /// Milliseconds the current-epoch worker has been busy on one unit of
    /// work as of `now_ms`, or `None` when idle (or when the watermark
    /// belongs to an already-superseded thread).
    pub fn busy_for_ms(&self, now_ms: u64) -> Option<u64> {
        let since = self.busy_since_ms.load(Ordering::SeqCst);
        if since == 0 || self.busy_epoch.load(Ordering::SeqCst) != self.epoch.load(Ordering::SeqCst)
        {
            return None;
        }
        Some((now_ms + 1).saturating_sub(since))
    }
}

/// Seeded exponential respawn backoff with jitter: deterministic for a
/// given (seed, replica, attempt), growing `10ms · 2^attempt` up to the
/// shift cap, plus 0–15 ms of seeded jitter.
pub(crate) fn backoff_ms(seed: u64, replica: usize, attempt: u64) -> u64 {
    let shift = u32::try_from(attempt).unwrap_or(BACKOFF_MAX_SHIFT).min(BACKOFF_MAX_SHIFT);
    let base = BACKOFF_BASE_MS << shift;
    let mut rng = SeedRng::new(
        seed ^ (replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ attempt.wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    let jitter = u64::try_from(rng.below(usize::try_from(BACKOFF_JITTER_MS).unwrap_or(16)))
        .unwrap_or(0);
    base + jitter
}

/// Emits one `serve.replica.*` lifecycle event.
pub(crate) fn replica_event(kind: &str, id: usize, epoch: u64, detail: &str) {
    let level = if kind == "serve.replica.death" { Level::Warn } else { Level::Info };
    emit(
        Event::new(level, kind)
            .field("replica", id as u64)
            .field("epoch", epoch)
            .field("detail", detail),
    );
}

#[cfg(test)]
// Test code: exact comparisons are the assertions themselves here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_grows_to_a_cap() {
        for replica in 0..3 {
            for attempt in 0..8 {
                assert_eq!(
                    backoff_ms(7, replica, attempt),
                    backoff_ms(7, replica, attempt),
                    "same inputs must give the same delay"
                );
            }
        }
        // The exponential part dominates the jitter span.
        let early = backoff_ms(7, 0, 0);
        let late = backoff_ms(7, 0, 5);
        assert!(early < 10 + BACKOFF_JITTER_MS);
        assert!(late >= 10 << 5);
        // Capped: attempt 20 is no larger than the cap's ceiling.
        assert!(backoff_ms(7, 0, 20) < (10 << 5) + BACKOFF_JITTER_MS);
    }

    #[test]
    fn busy_watermark_tracks_epoch() {
        let r = Replica::new(0);
        assert_eq!(r.busy_for_ms(100), None);
        r.mark_busy(50);
        assert_eq!(r.busy_for_ms(80), Some(30));
        // A supersession invalidates the stale watermark.
        r.epoch.fetch_add(1, Ordering::SeqCst);
        assert_eq!(r.busy_for_ms(80), None);
        r.mark_idle();
        assert_eq!(r.busy_for_ms(80), None);
    }
}
