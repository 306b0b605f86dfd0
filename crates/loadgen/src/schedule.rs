//! The deterministic request schedule: *what* to send and *when*.
//!
//! Open-loop means the arrival times are fixed before the first byte goes
//! on the wire: the offered load is a function of the seed and the target
//! rate alone, never of how fast the server answers. A closed-loop client
//! (send, wait, send again) silently backs off when the server slows down
//! and so under-reports tail latency — the coordinated-omission trap. Here
//! every request has a scheduled instant; latency is measured *from that
//! instant*, so queueing delay caused by a slow server counts against it.
//!
//! Everything is derived from [`adec_tensor::SeedRng`] (xoshiro256++), so
//! two schedules built from the same [`ScheduleConfig`] are byte-identical
//! — asserted via the FNV-1a [`Schedule::fnv_hash`].

use adec_tensor::SeedRng;
use std::time::Duration;

/// Inter-arrival process of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Exponential inter-arrival gaps (a Poisson process) — bursty, the
    /// standard model of independent user traffic.
    Poisson,
    /// A fixed `1/rps` gap — a metronome, useful for closed-form checks.
    Uniform,
}

impl Arrival {
    /// Stable name used in reports and CLI flags.
    pub fn as_str(&self) -> &'static str {
        match self {
            Arrival::Poisson => "poisson",
            Arrival::Uniform => "uniform",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Arrival> {
        match name {
            "poisson" => Some(Arrival::Poisson),
            "uniform" => Some(Arrival::Uniform),
            _ => None,
        }
    }
}

/// What one scheduled request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// One valid CSV row in the model's input width.
    ValidSingle,
    /// A valid CSV batch of `batch_rows` rows.
    ValidBatch,
    /// A syntactically broken body the server must answer 400.
    Malformed,
    /// A body larger than the server's byte budget (413), declared
    /// honestly so the budget check fires before the upload finishes.
    Oversized,
    /// A slow-loris writer: the head dripped slower than the read
    /// deadline; the server must cut it off (408 or close).
    Slowloris,
}

impl PayloadKind {
    /// Stable name used in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            PayloadKind::ValidSingle => "valid_single",
            PayloadKind::ValidBatch => "valid_batch",
            PayloadKind::Malformed => "malformed",
            PayloadKind::Oversized => "oversized",
            PayloadKind::Slowloris => "slowloris",
        }
    }

    /// All kinds, in mix-weight order.
    pub const ALL: [PayloadKind; 5] = [
        PayloadKind::ValidSingle,
        PayloadKind::ValidBatch,
        PayloadKind::Malformed,
        PayloadKind::Oversized,
        PayloadKind::Slowloris,
    ];
}

/// Relative weights of each [`PayloadKind`] in the request stream.
/// Weights are integers (deterministic sampling needs no float compare);
/// a zero weight removes the kind entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadMix {
    /// Weight of single-row valid requests.
    pub valid_single: u32,
    /// Weight of batch valid requests.
    pub valid_batch: u32,
    /// Weight of malformed bodies.
    pub malformed: u32,
    /// Weight of oversized bodies.
    pub oversized: u32,
    /// Weight of slow-loris writers.
    pub slowloris: u32,
}

impl Default for PayloadMix {
    fn default() -> Self {
        // Mostly well-behaved traffic with a hostile trickle — the serve
        // path must absorb abuse without letting it move the tail for
        // everyone else.
        PayloadMix {
            valid_single: 80,
            valid_batch: 10,
            malformed: 5,
            oversized: 3,
            slowloris: 2,
        }
    }
}

impl PayloadMix {
    /// A mix of only valid traffic (used by the closed-form selftests).
    pub fn all_valid() -> PayloadMix {
        PayloadMix { valid_single: 1, valid_batch: 0, malformed: 0, oversized: 0, slowloris: 0 }
    }

    fn weights(&self) -> [u32; 5] {
        [self.valid_single, self.valid_batch, self.malformed, self.oversized, self.slowloris]
    }

    /// Total weight; a schedule needs at least one non-zero weight.
    pub fn total(&self) -> u32 {
        self.weights().iter().sum()
    }

    /// Deterministically samples a kind by weight.
    fn sample(&self, rng: &mut SeedRng) -> PayloadKind {
        let total = self.total().max(1) as usize;
        let mut roll = rng.below(total) as u32;
        for (kind, w) in PayloadKind::ALL.iter().zip(self.weights()) {
            if roll < w {
                return *kind;
            }
            roll -= w;
        }
        PayloadKind::ValidSingle
    }

    /// Parses a `kind=weight,kind=weight,…` spec (unlisted kinds keep
    /// their default weight; `valid=`/`batch=` accepted as shorthand).
    pub fn parse(spec: &str) -> Result<PayloadMix, String> {
        let mut mix = PayloadMix::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("mix entry '{part}' is not kind=weight"))?;
            let weight: u32 = val
                .trim()
                .parse()
                .map_err(|_| format!("mix weight '{val}' is not a non-negative integer"))?;
            match key.trim() {
                "valid" | "valid_single" | "single" => mix.valid_single = weight,
                "batch" | "valid_batch" => mix.valid_batch = weight,
                "malformed" => mix.malformed = weight,
                "oversized" => mix.oversized = weight,
                "slowloris" => mix.slowloris = weight,
                other => return Err(format!("unknown mix kind '{other}'")),
            }
        }
        if mix.total() == 0 {
            return Err("mix has zero total weight".to_string());
        }
        Ok(mix)
    }
}

/// Everything that determines a schedule, bit for bit.
#[derive(Debug, Clone)]
pub struct ScheduleConfig {
    /// RNG seed; same seed + same config = byte-identical schedule.
    pub seed: u64,
    /// Offered load in requests per second (> 0).
    pub rps: f64,
    /// Length of the run; the schedule holds `floor(rps * duration)`
    /// requests (at least 1).
    pub duration: Duration,
    /// Inter-arrival process.
    pub arrival: Arrival,
    /// Payload kind weights.
    pub mix: PayloadMix,
    /// Features per row of valid payloads (the model's input width).
    pub input_dim: usize,
    /// Rows in a `ValidBatch` payload.
    pub batch_rows: usize,
    /// Bytes in an `Oversized` body (must exceed the server's budget).
    pub oversized_bytes: usize,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            seed: 7,
            rps: 100.0,
            duration: Duration::from_secs(1),
            arrival: Arrival::Poisson,
            mix: PayloadMix::default(),
            input_dim: 1,
            batch_rows: 16,
            // The serve default body budget is 1 MiB; overshoot it.
            oversized_bytes: 1_200_000,
        }
    }
}

/// One scheduled request: when (offset from the run start), what kind,
/// and the exact body bytes to send.
#[derive(Debug, Clone)]
pub struct PlannedRequest {
    /// Time offset from the start of the run.
    pub at: Duration,
    /// What this request is.
    pub kind: PayloadKind,
    /// The request body (empty for `Slowloris`, whose bytes are the
    /// dripped head itself).
    pub body: Vec<u8>,
}

/// A fully materialized open-loop schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Requests in send order; `at` offsets are nondecreasing.
    pub requests: Vec<PlannedRequest>,
    /// The config the schedule was built from.
    pub config: ScheduleConfig,
}

/// FNV-1a 64-bit, the workspace's no-dependency stable hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl Schedule {
    /// Builds the deterministic schedule for `config`.
    pub fn build(config: &ScheduleConfig) -> Schedule {
        assert!(config.rps > 0.0 && config.rps.is_finite(), "schedule: rps must be positive");
        assert!(config.input_dim > 0, "schedule: input_dim must be >= 1");
        assert!(config.mix.total() > 0, "schedule: mix has zero total weight");
        let n = ((config.rps * config.duration.as_secs_f64()).floor() as usize).max(1);
        // Independent streams so adding a payload kind never shifts the
        // arrival process (and vice versa).
        let mut root = SeedRng::new(config.seed);
        let mut arrivals = root.fork(1);
        let mut kinds = root.fork(2);
        let mut bodies = root.fork(3);

        let mut t = 0.0_f64;
        let gap = 1.0 / config.rps;
        let mut requests = Vec::with_capacity(n);
        for _ in 0..n {
            t += match config.arrival {
                Arrival::Uniform => gap,
                Arrival::Poisson => {
                    // u in [0,1) so 1-u in (0,1]; -ln(1-u)/λ is the
                    // exponential inter-arrival gap.
                    let u = f64::from(arrivals.unit());
                    -(1.0 - u).ln() * gap
                }
            };
            let kind = config.mix.sample(&mut kinds);
            let body = render_body(kind, config, &mut bodies);
            requests.push(PlannedRequest { at: Duration::from_secs_f64(t), kind, body });
        }
        Schedule { requests, config: config.clone() }
    }

    /// FNV-1a 64 over every request's offset (µs, little-endian), kind
    /// tag, and body bytes. Two runs with the same seed must agree on
    /// this before any timing comparison is meaningful.
    pub fn fnv_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for req in &self.requests {
            h = fnv1a(h, &(req.at.as_micros() as u64).to_le_bytes());
            h = fnv1a(h, req.kind.as_str().as_bytes());
            h = fnv1a(h, &req.body);
        }
        h
    }

    /// Per-kind request counts, in [`PayloadKind::ALL`] order.
    pub fn kind_counts(&self) -> [usize; 5] {
        let mut counts = [0usize; 5];
        for req in &self.requests {
            if let Some(slot) =
                PayloadKind::ALL.iter().position(|k| *k == req.kind).and_then(|i| counts.get_mut(i))
            {
                *slot += 1;
            }
        }
        counts
    }
}

/// Renders the body for one scheduled request. Valid rows come from
/// [`csv_rows`] (values in `[-2, 2)`, well inside the magnitude bound) so
/// a valid payload can never trip the 400 validators.
fn render_body(kind: PayloadKind, config: &ScheduleConfig, rng: &mut SeedRng) -> Vec<u8> {
    match kind {
        PayloadKind::ValidSingle => csv_rows(config.input_dim, 1, rng),
        PayloadKind::ValidBatch => csv_rows(config.input_dim, config.batch_rows.max(1), rng),
        PayloadKind::Malformed => {
            // Unparseable on purpose, but deterministic: rotate through a
            // few distinct failure shapes.
            let variant = rng.below(4);
            match variant {
                0 => b"definitely,not,numbers\n".to_vec(),
                1 => b"{\"json\":\"not csv\"}".to_vec(),
                2 => {
                    // Wrong width: one column too many.
                    csv_rows(config.input_dim + 1, 1, rng)
                }
                _ => b"1,2,NaN\n".to_vec(),
            }
        }
        PayloadKind::Oversized => {
            // Content never uploads — the server rejects on the declared
            // length — but keep the bytes deterministic anyway.
            vec![b'9'; config.oversized_bytes]
        }
        PayloadKind::Slowloris => Vec::new(),
    }
}

/// `rows` deterministic rows of `cols` features in `[-2, 2)`, drawn
/// row-major from `rng` and rendered by [`csv_body`].
pub fn csv_rows(cols: usize, rows: usize, rng: &mut SeedRng) -> Vec<u8> {
    let values: Vec<f32> = (0..rows * cols)
        .map(|_| rng.below(4000) as f32 / 1000.0 - 2.0)
        .collect();
    csv_body(values.chunks(cols.max(1)))
}

/// Renders feature rows as an `/assign` CSV body: comma-separated
/// shortest-roundtrip floats, one row per line.
pub fn csv_body<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> Vec<u8> {
    let mut out = String::new();
    for row in rows {
        for (c, v) in row.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push('\n');
    }
    out.into_bytes()
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn cfg(rps: f64, ms: u64) -> ScheduleConfig {
        ScheduleConfig {
            rps,
            duration: Duration::from_millis(ms),
            input_dim: 4,
            ..ScheduleConfig::default()
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = Schedule::build(&cfg(500.0, 400));
        let b = Schedule::build(&cfg(500.0, 400));
        assert_eq!(a.requests.len(), 200);
        assert_eq!(a.fnv_hash(), b.fnv_hash());
        for (x, y) in a.requests.iter().zip(b.requests.iter()) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.body, y.body);
        }
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = Schedule::build(&cfg(500.0, 400));
        let mut other = cfg(500.0, 400);
        other.seed = 8;
        let b = Schedule::build(&other);
        assert_ne!(a.fnv_hash(), b.fnv_hash());
    }

    #[test]
    fn arrivals_are_nondecreasing_and_open_loop() {
        for arrival in [Arrival::Poisson, Arrival::Uniform] {
            let mut config = cfg(1000.0, 500);
            config.arrival = arrival;
            let s = Schedule::build(&config);
            assert_eq!(s.requests.len(), 500);
            for w in s.requests.windows(2) {
                assert!(w[0].at <= w[1].at, "{arrival:?} offsets must not go backwards");
            }
            // Mean inter-arrival must track 1/rps for both processes.
            let span = s.requests.last().unwrap().at.as_secs_f64();
            let mean_gap = span / s.requests.len() as f64;
            assert!(
                (mean_gap - 0.001).abs() < 0.0005,
                "{arrival:?}: mean gap {mean_gap} vs expected 0.001"
            );
        }
    }

    #[test]
    fn uniform_arrivals_are_a_metronome() {
        let mut config = cfg(100.0, 100);
        config.arrival = Arrival::Uniform;
        let s = Schedule::build(&config);
        for (i, req) in s.requests.iter().enumerate() {
            let want = Duration::from_secs_f64((i + 1) as f64 * 0.01);
            let got = req.at;
            let diff = got.abs_diff(want);
            assert!(diff < Duration::from_micros(50), "req {i}: {got:?} vs {want:?}");
        }
    }

    #[test]
    fn mix_weights_shape_the_stream() {
        let mut config = cfg(2000.0, 1000);
        config.mix = PayloadMix { valid_single: 1, valid_batch: 0, malformed: 1, oversized: 0, slowloris: 0 };
        let s = Schedule::build(&config);
        let counts = s.kind_counts();
        assert_eq!(counts[1] + counts[3] + counts[4], 0, "zero-weight kinds must not appear");
        let (valid, malformed) = (counts[0] as f64, counts[2] as f64);
        let ratio = valid / (valid + malformed);
        assert!((ratio - 0.5).abs() < 0.1, "1:1 weights drifted to {ratio}");
    }

    #[test]
    fn valid_bodies_stay_in_range() {
        let s = Schedule::build(&cfg(300.0, 200));
        for req in &s.requests {
            if matches!(req.kind, PayloadKind::ValidSingle | PayloadKind::ValidBatch) {
                let text = std::str::from_utf8(&req.body).unwrap();
                for line in text.lines() {
                    assert_eq!(line.split(',').count(), 4);
                    for field in line.split(',') {
                        let v: f32 = field.parse().unwrap();
                        assert!(v.is_finite() && v.abs() <= 2.0);
                    }
                }
            }
        }
    }

    #[test]
    fn mix_spec_parses_and_rejects() {
        let mix = PayloadMix::parse("valid=3,malformed=1,slowloris=0").unwrap();
        assert_eq!(mix.valid_single, 3);
        assert_eq!(mix.malformed, 1);
        assert_eq!(mix.slowloris, 0);
        // Unlisted kinds keep defaults.
        assert_eq!(mix.valid_batch, PayloadMix::default().valid_batch);
        assert!(PayloadMix::parse("nope=1").unwrap_err().contains("unknown mix kind"));
        assert!(PayloadMix::parse("valid").unwrap_err().contains("not kind=weight"));
        assert!(PayloadMix::parse("valid=x").unwrap_err().contains("not a non-negative"));
        assert!(
            PayloadMix::parse("valid=0,batch=0,malformed=0,oversized=0,slowloris=0")
                .unwrap_err()
                .contains("zero total weight")
        );
    }

    #[test]
    fn csv_bodies_are_deterministic_and_render_rows() {
        let a = csv_rows(4, 3, &mut SeedRng::new(9));
        assert_eq!(a, csv_rows(4, 3, &mut SeedRng::new(9)));
        let text = String::from_utf8(a).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            assert_eq!(line.split(',').count(), 4);
        }
        let rows: [&[f32]; 2] = [&[1.0, -0.5, 0.25], &[2.0, 0.0, -1.5]];
        assert_eq!(csv_body(rows), b"1,-0.5,0.25\n2,0,-1.5\n");
    }

    #[test]
    fn kind_names_are_stable() {
        let names: Vec<&str> = PayloadKind::ALL.iter().map(PayloadKind::as_str).collect();
        assert_eq!(names, vec!["valid_single", "valid_batch", "malformed", "oversized", "slowloris"]);
        assert_eq!(Arrival::parse("poisson"), Some(Arrival::Poisson));
        assert_eq!(Arrival::parse("uniform"), Some(Arrival::Uniform));
        assert_eq!(Arrival::parse("x"), None);
    }
}
