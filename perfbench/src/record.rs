//! The per-run output: a full record written beside the run, and the
//! one-line result the benchmark prints last.

use adec_obs::json::{escape, Json};

/// Schema tag of the per-run record file.
pub const RECORD_SCHEMA: &str = "adec-perfbench-run/v1";

/// A named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, all digits kept.
    pub value: f64,
    /// Unit string, such as `ms` or `count`.
    pub unit: String,
}

/// One output check and its outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// Short check name.
    pub name: String,
    /// Whether it passed.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// The `--seconds` the run was given.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations attempted in the timed part.
    pub attempted: u64,
    /// Operations that succeeded.
    pub succeeded: u64,
    /// Operations that failed or were never answered.
    pub failed: u64,
    /// Samples behind the run's percentiles.
    pub samples: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Host-noise readings and other context. Never used to scale a metric.
    pub diagnostics: Vec<Metric>,
    /// Output checks; the run is correct only when every one passed.
    pub checks: Vec<Check>,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(items: &[Metric]) -> String {
    let rows: Vec<String> = items
        .iter()
        .map(|m| {
            format!(
                r#"{{"name":"{}","value":{},"unit":"{}"}}"#,
                escape(&m.name),
                number(m.value),
                escape(&m.unit)
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

fn metrics_from(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("missing array '{key}'"))?;
    items
        .iter()
        .map(|m| {
            Ok(Metric {
                name: field_str(m, "name")?,
                value: m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                unit: field_str(m, "unit")?,
            })
        })
        .collect()
}

fn field_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("missing string '{key}'"))
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or(format!("missing integer '{key}'"))
}

fn field_bool(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing boolean '{key}'")),
    }
}

impl RunRecord {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Adds a diagnostic reading.
    pub fn diagnostic(&mut self, name: &str, value: f64, unit: &str) {
        self.diagnostics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Records a check outcome.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// True when there is at least one check and every check passed, and
    /// every metric is a finite number.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty()
            && self.checks.iter().all(|c| c.ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The full record as JSON.
    pub fn to_json(&self) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    r#"{{"name":"{}","ok":{},"detail":"{}"}}"#,
                    escape(&c.name),
                    c.ok,
                    escape(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"{RECORD_SCHEMA}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\
             \"trace\":{},\"correct\":{},\"attempted\":{},\"succeeded\":{},\"failed\":{},\
             \"samples\":{},\"metrics\":{},\"diagnostics\":{},\"checks\":[{}]}}\n",
            escape(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.correct(),
            self.attempted,
            self.succeeded,
            self.failed,
            self.samples,
            metrics_json(&self.metrics),
            metrics_json(&self.diagnostics),
            checks.join(","),
        )
    }

    /// Parses a record written by [`RunRecord::to_json`].
    pub fn from_json(text: &str) -> Result<RunRecord, String> {
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(RECORD_SCHEMA) {
            return Err(format!("not an {RECORD_SCHEMA} record"));
        }
        let checks = doc
            .get("checks")
            .and_then(Json::as_arr)
            .ok_or("missing array 'checks'")?
            .iter()
            .map(|c| {
                Ok(Check {
                    name: field_str(c, "name")?,
                    ok: field_bool(c, "ok")?,
                    detail: field_str(c, "detail")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunRecord {
            workload: field_str(&doc, "workload")?,
            seed: field_u64(&doc, "seed")?,
            seconds: field_u64(&doc, "seconds")?,
            trace: field_bool(&doc, "trace")?,
            attempted: field_u64(&doc, "attempted")?,
            succeeded: field_u64(&doc, "succeeded")?,
            failed: field_u64(&doc, "failed")?,
            samples: field_u64(&doc, "samples")?,
            metrics: metrics_from(&doc, "metrics")?,
            diagnostics: metrics_from(&doc, "diagnostics")?,
            checks,
        })
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// keyed by name.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    escape(&m.name),
                    number(m.value),
                    escape(&m.unit)
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        let mut r = RunRecord {
            workload: "serve-single".to_string(),
            seed: 3,
            seconds: 20,
            trace: false,
            attempted: 6000,
            succeeded: 5999,
            failed: 1,
            samples: 6000,
            ..RunRecord::default()
        };
        r.metric("p50_ms", 0.512_345_678_901_234_5, "ms");
        r.metric("setup_s", 0.1, "s");
        r.diagnostic("host.loadavg_start", 1.25, "load");
        r.check("labels_match", true, "300 bodies, \"quoted\" detail");
        r
    }

    #[test]
    fn record_round_trips_exactly() {
        let r = sample();
        let back = RunRecord::from_json(&r.to_json()).expect("record parses");
        assert_eq!(back, r);
        assert!(back.correct());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let r = sample();
        let doc = Json::parse(&r.result_line()).expect("result line parses");
        let keys: Vec<&str> = match &doc {
            Json::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = doc
            .get("metrics")
            .and_then(|m| m.get("p50_ms"))
            .expect("p50 present");
        assert_eq!(
            p50.get("value").and_then(Json::as_f64),
            Some(0.512_345_678_901_234_5)
        );
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn a_failed_check_or_a_non_finite_metric_makes_the_run_incorrect() {
        let mut r = sample();
        r.check("drained", false, "exit code 1");
        assert!(!r.correct());
        assert!(r.result_line().starts_with(r#"{"correct":false"#));
        let mut r = sample();
        r.metric("p99_ms", f64::INFINITY, "ms");
        assert!(!r.correct());
        assert!(Json::parse(&r.result_line()).is_ok());
        assert!(!RunRecord::default().correct());
    }
}
