//! The benchmark's outputs: the one-line result the last stdout line
//! carries, and the metrics file with every sample and its summary.

use crate::json::Value;
use crate::stats::Summary;

/// One metric's samples within a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Every sample taken (one per pass, or a single deterministic value).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric from its samples.
    pub fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            samples,
        }
    }

    /// The reported value: the median of the samples (NaN if none).
    pub fn value(&self) -> f64 {
        Summary::of(&self.samples).map_or(f64::NAN, |s| s.median)
    }
}

/// The result object: `{correct, attempted, failed, metrics: {name:
/// {value, unit}}}`, each value the median of its samples.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Value {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let v = Value::obj([
                            ("value", Value::from(m.value())),
                            ("unit", Value::from(m.unit)),
                        ]);
                        (m.name.clone(), v)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A metric's full record for the metrics file: unit, median, quartiles,
/// sample count, tail percentile (when at least eleven samples exist) and
/// the raw samples.
pub fn metric_record(m: &Metric) -> Value {
    let summary = Summary::of(&m.samples);
    let field = |f: fn(&Summary) -> f64| summary.as_ref().map_or(Value::Null, |s| f(s).into());
    let tail = match summary.as_ref().and_then(|s| s.tail) {
        Some((p, v)) => Value::obj([("percentile", Value::from(p as u64)), ("value", v.into())]),
        None => Value::Null,
    };
    Value::obj([
        ("unit", Value::from(m.unit)),
        ("median", field(|s| s.median)),
        ("q1", field(|s| s.q1)),
        ("q3", field(|s| s.q3)),
        ("n", Value::from(m.samples.len() as u64)),
        ("tail", tail),
        (
            "samples",
            Value::Arr(m.samples.iter().map(|&x| x.into()).collect()),
        ),
    ])
}

/// The metrics file: run metadata plus [`metric_record`] per metric.
pub fn metrics_file(meta: Value, metrics: &[Metric]) -> Value {
    Value::obj([
        ("meta", meta),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), metric_record(m)))
                    .collect(),
            ),
        ),
    ])
}
