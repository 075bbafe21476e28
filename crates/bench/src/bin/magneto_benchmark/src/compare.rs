//! `magneto_benchmark compare <parent-runs/> <change-runs/>`: compare two
//! sets of run records (written with `--out`) metric by metric against
//! the bounds in `BENCHMARK.json`.

use crate::stats::{median, quartiles, spread};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// A side's run-to-run spread is wider than the bound, and the
    /// change does not beat the parent on every run.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Runs each side needs before a change can be called better.
pub const MIN_RUNS: usize = 10;

/// Judge `change` against `parent` (values of one metric on one
/// workload). `pairs` are the runs made with the same seed on both
/// sides.
///
/// * Worse: the change's median is worse than the parent's by more than
///   `bound` (a share of the parent's median).
/// * Better: each side has at least [`MIN_RUNS`] runs, the change wins
///   at least nine tenths of the pairs (all cross pairs when no seeds
///   match) and its median is better by more than the parent's own
///   interquartile spread.
/// * Unresolved: either side's spread exceeds `bound`, unless every
///   change run beats every parent run over [`MIN_RUNS`] runs a side
///   (then better).
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    bound: f64,
    higher_better: bool,
) -> Verdict {
    let better = |c: f64, p: f64| if higher_better { c > p } else { c < p };
    let (pm, cm) = (median(parent), median(change));
    let scale = pm.abs().max(f64::MIN_POSITIVE);
    let worse_by = if higher_better {
        (pm - cm) / scale
    } else {
        (cm - pm) / scale
    };
    let enough = parent.len().min(change.len()) >= MIN_RUNS;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread(parent) > bound || spread(change) > bound {
        return if enough && all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    let cross: Vec<(f64, f64)>;
    let pairs = if pairs.is_empty() {
        cross = parent
            .iter()
            .flat_map(|&p| change.iter().map(move |&c| (p, c)))
            .collect();
        &cross
    } else {
        pairs
    };
    let wins = pairs.iter().filter(|&&(p, c)| better(c, p)).count();
    let win_share = wins as f64 / pairs.len().max(1) as f64;
    if enough && win_share >= 0.9 && -worse_by > spread(parent) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One run record.
struct RunRecord {
    file: String,
    workload: String,
    seed: i128,
    metrics: BTreeMap<String, f64>,
    host: String,
}

fn get<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn load_runs(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Vec::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(map) = value.as_map() else { continue };
        // Traced runs carry per-layer metrics only.
        if get(map, "trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let (Some(workload), Some(metrics)) = (
            get(map, "workload").and_then(Value::as_str),
            get(map, "metrics").and_then(Value::as_map),
        ) else {
            continue;
        };
        let metrics = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), num(get(v.as_map()?, "value")?)?)))
            .collect();
        let host = get(map, "provenance")
            .and_then(Value::as_map)
            .map(|p| {
                ["kernel_plan", "isa", "nproc"]
                    .iter()
                    .map(|k| match get(p, k) {
                        Some(Value::Str(s)) => s.clone(),
                        Some(Value::Int(i)) => i.to_string(),
                        _ => "?".to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join(" | ")
            })
            .unwrap_or_default();
        runs.push(RunRecord {
            file: path.display().to_string(),
            workload: workload.to_string(),
            seed: match get(map, "seed") {
                Some(Value::Int(s)) => *s,
                _ => -1,
            },
            metrics,
            host,
        });
    }
    Ok(runs)
}

pub fn main(args: &[String]) -> i32 {
    let [parent, change] = args else {
        eprintln!("usage: magneto_benchmark compare <parent-runs/> <change-runs/>");
        return 2;
    };
    match compare(Path::new(parent), Path::new(change)) {
        Ok(worse) => i32::from(worse),
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

/// Print the comparison against the bounds in `BENCHMARK.json`;
/// `Ok(true)` when any metric is worse.
fn compare(parent_dir: &Path, change_dir: &Path) -> Result<bool, String> {
    let parent = load_runs(parent_dir)?;
    let change = load_runs(change_dir)?;
    if parent.is_empty() || change.is_empty() {
        return Err("need untraced run records (written with --out) on both sides".into());
    }
    let mut hosts: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for r in parent.iter().chain(&change) {
        hosts.entry(&r.host).or_default().push(&r.file);
    }
    if hosts.len() > 1 {
        println!("WARNING: runs differ in provenance (kernel plan | ISA | nproc):");
        for (host, files) in &hosts {
            println!("  {host}: {} runs, e.g. {}", files.len(), files[0]);
        }
    }
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    println!(
        "{:<15} {:<17} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3] n",
        "change median [q1, q3] n",
        "delta",
        "bound"
    );
    let mut any_worse = false;
    for w in workloads {
        for m in &crate::spec::get().end_to_end {
            let (metric, bound) = (&m.name, m.bound.unwrap_or(0.0));
            let side = |runs: &[RunRecord]| -> Vec<(i128, f64)> {
                runs.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| r.metrics.get(metric).map(|&v| (r.seed, v)))
                    .collect()
            };
            let (p, c) = (side(&parent), side(&change));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let pv: Vec<f64> = p.iter().map(|x| x.1).collect();
            let cv: Vec<f64> = c.iter().map(|x| x.1).collect();
            let pairs: Vec<(f64, f64)> = p
                .iter()
                .filter_map(|&(seed, pv)| {
                    c.iter()
                        .find(|x| x.0 == seed && seed >= 0)
                        .map(|x| (pv, x.1))
                })
                .collect();
            let v = verdict(&pv, &cv, &pairs, bound, m.higher_better);
            any_worse |= v == Verdict::Worse;
            let show = |vals: &[f64]| {
                let (q1, q3) = quartiles(vals);
                format!("{:.6} [{:.6}, {:.6}] {}", median(vals), q1, q3, vals.len())
            };
            let delta = (median(&cv) - median(&pv)) / median(&pv).abs().max(f64::MIN_POSITIVE);
            println!(
                "{:<15} {:<17} {:>34} {:>34} {:>+7.2}% {:>5.1}%  {}",
                w,
                metric,
                show(&pv),
                show(&cv),
                delta * 100.0,
                bound * 100.0,
                v.label()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (f64::from(i) - 4.5) / 4.5)
            .collect()
    }

    fn paired(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn same_distribution_is_within_bound() {
        let p = runs(100.0, 2.0);
        let c = runs(100.5, 2.0);
        assert_eq!(
            verdict(&p, &c, &paired(&p, &c), 0.1, false),
            Verdict::WithinBound
        );
    }

    #[test]
    fn worse_beyond_the_bound_in_either_direction() {
        // Lower is better: latency up 20%.
        let p = runs(100.0, 2.0);
        let c = runs(120.0, 2.0);
        assert_eq!(verdict(&p, &c, &paired(&p, &c), 0.1, false), Verdict::Worse);
        // Higher is better: throughput down 20%.
        assert_eq!(verdict(&c, &p, &paired(&c, &p), 0.1, true), Verdict::Worse);
        // A 5% slip inside a 10% bound is not a regression.
        let c = runs(105.0, 2.0);
        assert_eq!(
            verdict(&p, &c, &paired(&p, &c), 0.1, false),
            Verdict::WithinBound
        );
    }

    #[test]
    fn better_needs_nine_tenths_of_pairs_and_more_than_the_spread() {
        let p = runs(100.0, 2.0);
        let c = runs(90.0, 2.0);
        assert_eq!(
            verdict(&p, &c, &paired(&p, &c), 0.1, false),
            Verdict::Better
        );
        assert_eq!(verdict(&c, &p, &paired(&c, &p), 0.1, true), Verdict::Better);
        // Without matching seeds, cross pairs decide.
        assert_eq!(verdict(&p, &c, &[], 0.1, false), Verdict::Better);
        // Medians 1% apart with a 2% parent spread: not a gain.
        let c = runs(99.0, 2.0);
        assert_eq!(
            verdict(&p, &c, &paired(&p, &c), 0.1, false),
            Verdict::WithinBound
        );
        // A clear median gain that loses too many pairs is not a gain.
        let p = [
            100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0,
        ];
        let c = [90.0, 90.0, 90.0, 90.0, 90.0, 90.0, 90.0, 90.0, 101.0, 101.0];
        assert_eq!(
            verdict(&p, &c, &paired(&p, &c), 0.2, false),
            Verdict::WithinBound
        );
        // Three runs a side are too few to call a gain, however clear.
        let (p, c) = ([100.0, 101.0, 99.0], [80.0, 81.0, 79.0]);
        assert_eq!(
            verdict(&p, &c, &paired(&p, &c), 0.3, false),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&p, &c, &paired(&p, &c), 0.001, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let p = runs(100.0, 40.0);
        let c = runs(110.0, 40.0);
        assert_eq!(
            verdict(&p, &c, &paired(&p, &c), 0.1, false),
            Verdict::Unresolved
        );
        let c = runs(10.0, 4.0);
        assert_eq!(
            verdict(&p, &c, &paired(&p, &c), 0.1, false),
            Verdict::Better
        );
    }
}
