//! RAII timing spans.
//!
//! A [`Span`] samples a monotonic clock on creation and records the
//! elapsed seconds into a histogram when dropped, so a scope is timed by
//! a single `let _span = Span::on(Arc::clone(&hist));` at its top, with
//! `hist` registered once (for example with [`DURATION_BUCKETS`]) and
//! cached by the caller: starting a span never touches a registry.

use crate::registry::Histogram;
use std::sync::Arc;
use std::time::Instant;

/// Default latency buckets (seconds): 1µs … 30s, roughly log-spaced.
pub const DURATION_BUCKETS: &[f64] =
    &[1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0];

/// An in-flight timing span; records on drop.
#[derive(Debug)]
pub struct Span {
    hist: Arc<Histogram>,
    start: Instant,
}

impl Span {
    /// Starts a span recording into a pre-registered histogram.
    pub fn on(hist: Arc<Histogram>) -> Span {
        Span { hist, start: Instant::now() }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn span_records_one_observation_on_drop() {
        let reg = Registry::new();
        let hist = reg.histogram("scope_seconds", DURATION_BUCKETS);
        {
            let _span = Span::on(Arc::clone(&hist));
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 1);
        assert!(snap.sum >= 0.001, "slept 1ms, recorded {}", snap.sum);
    }
}
