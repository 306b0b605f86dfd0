//! Tape-op profiler: per-`IrOp` wall time and nominal FLOP counts,
//! accumulated per training phase.
//!
//! The tape's eager forward methods and its backward loop call
//! [`record_op`] (gated on [`enabled`], one relaxed atomic load when
//! off), attributing time to the innermost phase on this thread's
//! *phase stack* — trainers push their phase ([`phase`]) around whole
//! runs ("dec") and around individual tape builds with the
//! `core::phases` manifest names ("dec.kl", "adec.encoder.adv", …).
//! Coarser [`section`] guards ("init", "refresh", "step", "finalize")
//! tile each trainer's run so the report can prove the op table plus
//! sections account for (nearly) all of the measured phase wall time.
//!
//! Determinism: the profiler is observational only — nothing recorded
//! here is ever read back by training code, so enabling it cannot
//! perturb a trajectory; the non-perturbation drill in the CLI tests
//! asserts bitwise-identical checkpoints with it on and off.
//!
//! FLOP counts use a **nominal cost model** (documented per op in the
//! tape): a matmul is `2·m·k·n`, elementwise ops are one FLOP per
//! element, transcendental ops eight — good enough to rank ops against
//! the `BENCH_kernels.json` roofline, not a hardware counter.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whole nanoseconds in `d`, saturating at `u64::MAX` (584 years).
pub(crate) fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Whether op recording is on (one relaxed load; the off path costs a
/// branch).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns op recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns op recording off (accumulated data is kept until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

#[derive(Debug, Default, Clone)]
struct Acc {
    calls: u64,
    wall_ns: u64,
    flops: u64,
}

#[derive(Debug, Default)]
struct Store {
    /// (phase, op) → accumulated op cost.
    ops: BTreeMap<(String, String), Acc>,
    /// (phase, section) → accumulated section wall.
    sections: BTreeMap<(String, String), Acc>,
    /// phase → accumulated phase wall.
    phases: BTreeMap<String, Acc>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: Mutex<Store> = Mutex::new(Store {
        ops: BTreeMap::new(),
        sections: BTreeMap::new(),
        phases: BTreeMap::new(),
    });
    &STORE
}

thread_local! {
    static PHASE_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn current_phase() -> String {
    PHASE_STACK.with(|s| {
        s.borrow()
            .last()
            .cloned()
            .unwrap_or_else(|| "unphased".to_string())
    })
}

/// Records one tape op occurrence into the innermost phase on this
/// thread. Callers gate on [`enabled`]; calling while disabled is a
/// silent no-op so a disable racing a step can't panic.
pub fn record_op(op: &str, wall_ns: u64, flops: u64) {
    if !enabled() {
        return;
    }
    let phase = current_phase();
    if let Ok(mut s) = store().lock() {
        let acc = s.ops.entry((phase, op.to_string())).or_default();
        acc.calls += 1;
        acc.wall_ns += wall_ns;
        acc.flops += flops;
    }
}

/// RAII guard for a named phase; records wall time on drop and keeps
/// the thread's phase stack consistent.
#[derive(Debug)]
pub struct PhaseGuard {
    name: Option<String>,
    start: Instant,
}

/// Pushes `name` onto this thread's phase stack. Ops and sections
/// recorded while it is the innermost phase are attributed to it.
/// Inert when the profiler is disabled.
pub fn phase(name: &str) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard {
            name: None,
            start: Instant::now(),
        };
    }
    PHASE_STACK.with(|s| s.borrow_mut().push(name.to_string()));
    PhaseGuard {
        name: Some(name.to_string()),
        start: Instant::now(),
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some(name) = self.name.take() else { return };
        let wall = ns(self.start.elapsed());
        PHASE_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards are strictly nested; pop by value in case an
            // unwinding path dropped out of order.
            if stack.last() == Some(&name) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|n| n == &name) {
                stack.remove(pos);
            }
        });
        if let Ok(mut s) = store().lock() {
            let acc = s.phases.entry(name).or_default();
            acc.calls += 1;
            acc.wall_ns += wall;
        }
    }
}

/// RAII guard for a coverage section inside the current phase.
#[derive(Debug)]
pub struct SectionGuard {
    key: Option<(String, String)>,
    start: Instant,
}

/// Opens a coverage section attributed to the innermost phase at call
/// time. Sections are meant to tile a phase ("init" / "refresh" /
/// "step" / "finalize") so their wall-time sum approximates the phase
/// wall. Inert when the profiler is disabled.
pub fn section(name: &str) -> SectionGuard {
    if !enabled() {
        return SectionGuard {
            key: None,
            start: Instant::now(),
        };
    }
    SectionGuard {
        key: Some((current_phase(), name.to_string())),
        start: Instant::now(),
    }
}

impl Drop for SectionGuard {
    fn drop(&mut self) {
        let Some(key) = self.key.take() else { return };
        let wall = ns(self.start.elapsed());
        if let Ok(mut s) = store().lock() {
            let acc = s.sections.entry(key).or_default();
            acc.calls += 1;
            acc.wall_ns += wall;
        }
    }
}

/// Per-op profile row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// `IrOp::name()` of the op.
    pub name: String,
    /// Forward + backward occurrences.
    pub calls: u64,
    /// Accumulated wall nanoseconds.
    pub wall_ns: u64,
    /// Accumulated nominal FLOPs.
    pub flops: u64,
}

impl OpProfile {
    /// Achieved throughput in GFLOP/s (0 when no time was measured).
    pub fn gflops(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.flops as f64 / self.wall_ns as f64
    }
}

/// Per-section profile row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionProfile {
    /// Section label.
    pub name: String,
    /// Times the section was entered.
    pub calls: u64,
    /// Accumulated wall nanoseconds.
    pub wall_ns: u64,
}

/// One phase of the accumulated profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Phase name ("dec", "adec.encoder.kl", …).
    pub name: String,
    /// Times the phase guard closed.
    pub calls: u64,
    /// Accumulated wall nanoseconds (0 for op-only phases whose guard
    /// never closed under this name).
    pub wall_ns: u64,
    /// Coverage sections, by name.
    pub sections: Vec<SectionProfile>,
    /// Op rows, by name.
    pub ops: Vec<OpProfile>,
}

impl PhaseProfile {
    /// Fraction of the phase wall covered by its sections (1.0 when the
    /// phase recorded no wall of its own).
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        let covered: u64 = self.sections.iter().map(|s| s.wall_ns).sum();
        covered as f64 / self.wall_ns as f64
    }

    /// The named op row, if recorded.
    pub fn op(&self, name: &str) -> Option<&OpProfile> {
        self.ops.iter().find(|o| o.name == name)
    }
}

/// A snapshot of everything accumulated since the last [`reset`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Phases sorted by name.
    pub phases: Vec<PhaseProfile>,
}

impl Profile {
    /// The named phase, if present.
    pub fn phase(&self, name: &str) -> Option<&PhaseProfile> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// Copies out the accumulated profile (phases sorted by name).
pub fn snapshot() -> Profile {
    let Ok(s) = store().lock() else {
        return Profile::default();
    };
    let mut names: Vec<String> = s.phases.keys().cloned().collect();
    for (phase, _) in s.ops.keys() {
        if !names.contains(phase) {
            names.push(phase.clone());
        }
    }
    for (phase, _) in s.sections.keys() {
        if !names.contains(phase) {
            names.push(phase.clone());
        }
    }
    names.sort();
    let phases = names
        .into_iter()
        .map(|name| {
            let wall = s.phases.get(&name).cloned().unwrap_or_default();
            let sections = s
                .sections
                .iter()
                .filter(|((p, _), _)| *p == name)
                .map(|((_, sec), acc)| SectionProfile {
                    name: sec.clone(),
                    calls: acc.calls,
                    wall_ns: acc.wall_ns,
                })
                .collect();
            let ops = s
                .ops
                .iter()
                .filter(|((p, _), _)| *p == name)
                .map(|((_, op), acc)| OpProfile {
                    name: op.clone(),
                    calls: acc.calls,
                    wall_ns: acc.wall_ns,
                    flops: acc.flops,
                })
                .collect();
            PhaseProfile {
                name,
                calls: wall.calls,
                wall_ns: wall.wall_ns,
                sections,
                ops,
            }
        })
        .collect();
    Profile { phases }
}

/// Clears all accumulated data (the enable flag is left as-is).
pub fn reset() {
    if let Ok(mut s) = store().lock() {
        s.ops.clear();
        s.sections.clear();
        s.phases.clear();
    }
}

// ---------------------------------------------------------------------
// Profile JSON (schema `adec-prof/v1`)
// ---------------------------------------------------------------------

/// Schema tag written into profile JSON documents.
pub const PROFILE_SCHEMA: &str = "adec-prof/v1";

/// Renders a profile as deterministic JSON (`adec-prof/v1`).
pub fn profile_to_json(profile: &Profile) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!("{{\"schema\":\"{PROFILE_SCHEMA}\",\"phases\":["));
    for (i, p) in profile.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"calls\":{},\"wall_ns\":{},\"sections\":[",
            adec_obs::json::escape(&p.name),
            p.calls,
            p.wall_ns
        ));
        for (j, s) in p.sections.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"calls\":{},\"wall_ns\":{}}}",
                adec_obs::json::escape(&s.name),
                s.calls,
                s.wall_ns
            ));
        }
        out.push_str("],\"ops\":[");
        for (j, o) in p.ops.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"calls\":{},\"wall_ns\":{},\"flops\":{}}}",
                adec_obs::json::escape(&o.name),
                o.calls,
                o.wall_ns,
                o.flops
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Strictly parses an `adec-prof/v1` document back into a [`Profile`].
pub fn profile_from_json(body: &str) -> Result<Profile, String> {
    use adec_obs::json::Json;
    let doc = Json::parse(body).map_err(|e| format!("profile: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("profile: missing schema")?;
    if schema != PROFILE_SCHEMA {
        return Err(format!(
            "profile: schema {schema:?}, expected {PROFILE_SCHEMA:?}"
        ));
    }
    let phases_json = doc
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("profile: missing phases array")?;
    let field_u64 = |j: &Json, ctx: &str, key: &str| -> Result<u64, String> {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("profile: {ctx} missing integer {key}"))
    };
    let field_str = |j: &Json, ctx: &str, key: &str| -> Result<String, String> {
        j.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("profile: {ctx} missing string {key}"))
    };
    let mut phases = Vec::with_capacity(phases_json.len());
    for pj in phases_json {
        let name = field_str(pj, "phase", "name")?;
        let calls = field_u64(pj, &name, "calls")?;
        let wall_ns = field_u64(pj, &name, "wall_ns")?;
        let mut sections = Vec::new();
        for sj in pj
            .get("sections")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("profile: {name} missing sections"))?
        {
            sections.push(SectionProfile {
                name: field_str(sj, "section", "name")?,
                calls: field_u64(sj, "section", "calls")?,
                wall_ns: field_u64(sj, "section", "wall_ns")?,
            });
        }
        let mut ops = Vec::new();
        for oj in pj
            .get("ops")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("profile: {name} missing ops"))?
        {
            ops.push(OpProfile {
                name: field_str(oj, "op", "name")?,
                calls: field_u64(oj, "op", "calls")?,
                wall_ns: field_u64(oj, "op", "wall_ns")?,
                flops: field_u64(oj, "op", "flops")?,
            });
        }
        phases.push(PhaseProfile {
            name,
            calls,
            wall_ns,
            sections,
            ops,
        });
    }
    Ok(Profile { phases })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        disable();
        record_op("matmul", 100, 100);
        let _p = phase("selftest_disabled");
        drop(_p);
        assert!(snapshot().phase("selftest_disabled").is_none());
    }

    #[test]
    fn phase_sections_and_ops_accumulate() {
        enable();
        {
            let _p = phase("selftest_phase");
            {
                let _s = section("step");
                record_op("matmul", 1_000, 2_000);
                record_op("matmul", 1_000, 2_000);
                record_op("tanh", 500, 64);
            }
        }
        disable();
        let snap = snapshot();
        let p = snap.phase("selftest_phase").unwrap();
        assert_eq!(p.calls, 1);
        assert!(p.wall_ns > 0);
        let mm = p.op("matmul").unwrap();
        assert_eq!(mm.calls, 2);
        assert_eq!(mm.wall_ns, 2_000);
        assert_eq!(mm.flops, 4_000);
        assert_eq!(p.sections.len(), 1);
        assert!(p.coverage() > 0.5, "one section tiles the phase");
    }

    #[test]
    fn nested_phase_attributes_ops_to_innermost() {
        enable();
        {
            let _outer = phase("selftest_outer");
            let _inner = phase("selftest_outer.inner");
            record_op("dec_kl", 10, 20);
        }
        disable();
        let snap = snapshot();
        assert!(snap.phase("selftest_outer.inner").unwrap().op("dec_kl").is_some());
        assert!(snap.phase("selftest_outer").unwrap().op("dec_kl").is_none());
    }

    #[test]
    fn profile_json_round_trips() {
        let profile = Profile {
            phases: vec![PhaseProfile {
                name: "dec".into(),
                calls: 1,
                wall_ns: 5_000,
                sections: vec![SectionProfile {
                    name: "step".into(),
                    calls: 40,
                    wall_ns: 4_900,
                }],
                ops: vec![OpProfile {
                    name: "matmul".into(),
                    calls: 80,
                    wall_ns: 3_000,
                    flops: 1_000_000,
                }],
            }],
        };
        let body = profile_to_json(&profile);
        let back = profile_from_json(&body).unwrap();
        assert_eq!(back, profile);
        assert!(profile_from_json("{\"schema\":\"nope\",\"phases\":[]}").is_err());
    }
}
