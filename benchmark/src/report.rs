//! What a run reports: named metrics with units, printed for a reader and
//! then as the one JSON object the driver parses; and the declarations in
//! `BENCHMARK.json` they must match.

use serde::Value;
use std::path::PathBuf;

use crate::Res;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Calls attempted in the measured rounds.
    pub attempted: u64,
    /// Calls that failed or were refused; excluded from `calls_per_s`.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Every correctness check that did not hold; empty means correct.
    pub faults: Vec<String>,
    /// Context a reader needs beside the numbers.
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.faults.is_empty() && self.failed == 0
    }

    /// The driver's result line.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Map(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
    }

    /// Notes, metrics and faults for a reader, then the result line last.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for note in &self.notes {
            println!("  # {note}");
        }
        for m in &self.metrics {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!("  attempted {}  failed {}", self.attempted, self.failed);
        for fault in &self.faults {
            println!("  INCORRECT: {fault}");
        }
        println!("{}", self.to_json());
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the median by which the metric may worsen; end-to-end only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug)]
pub struct Declarations {
    pub run_seconds: u64,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

pub fn declarations() -> Res<Declarations> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path)?;
    let root: Value = serde_json::from_str(&text)?;
    let list = |key: &str| -> Res<&[Value]> {
        root.get(key)
            .as_seq()
            .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list").into())
    };
    let text_of = |v: &Value, key: &str| -> Res<String> {
        v.get(key)
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: a metric lacks `{key}`").into())
    };
    let declared = |key: &str| -> Res<Vec<Declared>> {
        list(key)?
            .iter()
            .map(|v| {
                Ok(Declared {
                    name: text_of(v, "name")?,
                    unit: text_of(v, "unit")?,
                    higher_is_better: text_of(v, "better")? == "higher",
                    bound: match v.get("bound") {
                        Value::F64(b) => Some(*b),
                        _ => None,
                    },
                })
            })
            .collect()
    };
    let run_seconds = match root.get("run_seconds") {
        Value::I64(s) => u64::try_from(*s)?,
        Value::U64(s) => *s,
        _ => return Err("BENCHMARK.json: `run_seconds` is not a whole number".into()),
    };
    Ok(Declarations {
        run_seconds,
        end_to_end: declared("end_to_end")?,
        per_layer: declared("per_layer")?,
    })
}
