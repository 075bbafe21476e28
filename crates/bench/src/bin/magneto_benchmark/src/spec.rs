//! The workloads and metrics `BENCHMARK.json` declares, read from the
//! file itself (embedded at build time), so the metric names, units and
//! bounds live in one place.

use serde::Value;
use std::sync::OnceLock;

/// One declared metric.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_better: bool,
    /// The end-to-end bound, a share of the reference median; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    /// Printed by every untraced run (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Printed by every traced run (`--trace 1`).
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The metrics a run reports.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

pub fn get() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}")))
}

fn field<'a>(map: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("no `{key}`"))
}

fn string(map: &[(String, Value)], key: &str) -> Result<String, String> {
    field(map, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn list<'a>(map: &'a [(String, Value)], key: &str) -> Result<Vec<&'a [(String, Value)]>, String> {
    field(map, key)?
        .as_seq()
        .ok_or_else(|| format!("`{key}` is not a list"))?
        .iter()
        .map(|v| v.as_map().ok_or_else(|| format!("an entry of `{key}` is not an object")))
        .collect()
}

fn metrics(map: &[(String, Value)], key: &str) -> Result<Vec<Metric>, String> {
    list(map, key)?
        .into_iter()
        .map(|m| {
            Ok(Metric {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                higher_better: string(m, "better")? == "higher",
                bound: match field(m, "bound") {
                    Ok(Value::Float(b)) => Some(*b),
                    Ok(Value::Int(b)) => Some(*b as f64),
                    Ok(_) => return Err("`bound` is not a number".into()),
                    Err(_) => None,
                },
            })
        })
        .collect()
}

fn parse(text: &str) -> Result<Spec, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let map = value.as_map().ok_or("not an object")?;
    Ok(Spec {
        workloads: list(map, "workloads")?
            .into_iter()
            .map(|w| string(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics(map, "end_to_end")?,
        per_layer: metrics(map, "per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use crate::workload::Workload;

    #[test]
    fn declared_workloads_are_the_ones_implemented() {
        let spec = super::get();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, ours);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
