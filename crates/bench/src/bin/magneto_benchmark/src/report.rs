//! The result line printed last on stdout, and the run record written
//! with `--out`.

use crate::workload::{Outcome, Run};
use serde::Value;

fn kv(k: &str, v: Value) -> (String, Value) {
    (k.to_string(), v)
}

/// The metrics this run reports: every end-to-end metric untraced,
/// every per-layer metric traced. A metric the workload did not produce
/// or produced as a non-finite number fails the run and reads 0.
pub fn metrics(run: &Run, out: &mut Outcome) -> Value {
    let list = crate::spec::get().metrics(run.trace);
    let mut entries = Vec::with_capacity(list.len());
    for m in list {
        let value = match out.values.get(&m.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                out.fail(format!("metric {} is {v}", m.name));
                0.0
            }
            None => {
                out.fail(format!("metric {} was not produced", m.name));
                0.0
            }
        };
        entries.push(kv(
            &m.name,
            Value::Map(vec![
                kv("value", Value::Float(value)),
                kv("unit", Value::Str(m.unit.clone())),
            ]),
        ));
    }
    Value::Map(entries)
}

fn correct(out: &Outcome) -> bool {
    out.failed == 0
}

/// `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(out: &Outcome, metrics: &Value) -> String {
    let v = Value::Map(vec![
        kv("correct", Value::Bool(correct(out))),
        kv("attempted", Value::Int(i128::from(out.attempted))),
        kv("failed", Value::Int(i128::from(out.failed))),
        kv("metrics", metrics.clone()),
    ]);
    serde_json::to_string(&v).expect("JSON of a value tree")
}

/// The full run record: parameters, provenance, outcome, the reported
/// metrics, and every other number the run produced.
pub fn record(run: &Run, out: &Outcome, metrics: &Value, provenance: Value) -> Value {
    let finite = |v: f64| {
        if v.is_finite() {
            Value::Float(v)
        } else {
            Value::Null
        }
    };
    Value::Map(vec![
        kv("workload", Value::Str(run.workload.name().into())),
        kv("seed", Value::Int(i128::from(run.seed))),
        kv("seconds", Value::Float(run.seconds)),
        kv("trace", Value::Bool(run.trace)),
        kv("smoke", Value::Bool(run.smoke)),
        kv("provenance", provenance),
        kv("correct", Value::Bool(correct(out))),
        kv("attempted", Value::Int(i128::from(out.attempted))),
        kv("failed", Value::Int(i128::from(out.failed))),
        kv(
            "failures",
            Value::Seq(out.failures.iter().map(|f| Value::Str(f.clone())).collect()),
        ),
        kv("metrics", metrics.clone()),
        kv(
            "values",
            Value::Map(out.values.iter().map(|(k, v)| kv(k, finite(*v))).collect()),
        ),
    ])
}
