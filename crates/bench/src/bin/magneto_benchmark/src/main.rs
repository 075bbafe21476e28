//! `magneto_benchmark`: the MAGNETO benchmark. Five workloads, from one
//! device streaming windows to a 20,000-session fleet; see README.md.
//!
//! ```text
//! magneto_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                   [--out run.json] [--spans spans.jsonl] [--smoke]
//! magneto_benchmark compare <parent-runs/> <change-runs/>
//! ```
//!
//! The last line of stdout is `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`.

mod compare;
mod device;
mod fleet;
mod loadgen;
mod provenance;
mod replay;
mod report;
mod spec;
mod stats;
mod trace;
mod workload;

use serde::Value;
use std::path::PathBuf;
use workload::{rss_mb, Outcome, Run, Workload};

fn usage() -> String {
    format!(
        "usage: magneto_benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
[--out run.json] [--spans spans.jsonl] [--smoke]
       magneto_benchmark compare <parent-runs/> <change-runs/>",
        spec::get().workloads.join("|")
    )
}

struct Options {
    run: Run,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut out = None;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad("a number of seconds in (0, 120]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        run: Run {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
        },
        out,
        spans,
    })
}

/// Install the kernel plan every run uses: the host defaults with the
/// detected SIMD backend for both GEMM families. No autotuning: its
/// choice of int8 backend differed between identical runs.
fn install_plan() {
    let plan =
        magneto_tensor::KernelPlan::host_default().with_backend(magneto_tensor::Backend::detect());
    magneto_tensor::install_global(magneto_tensor::Exec::from_plan(plan));
}

/// Run one workload. An error that stops the workload is counted as a
/// failure; the outcome is still reported.
fn execute(run: &Run) -> Outcome {
    install_plan();
    let mut out = Outcome::new(run.trace);
    let result = match run.workload {
        Workload::DeviceStream => device::device_stream(run, &mut out),
        Workload::DeviceLearn => device::device_learn(run, &mut out),
        Workload::FleetSteady => fleet::fleet_steady(run, &mut out),
        Workload::FleetOverload => fleet::fleet_overload(run, &mut out),
        Workload::FleetCold => fleet::fleet_cold(run, &mut out),
    };
    if let Err(e) = result {
        out.check(false, || format!("{} stopped: {e}", run.workload.name()));
    }
    out.set("rss_peak_mb", rss_mb("VmHWM"));
    out.set(
        "error_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out
}

fn bench(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return 2;
        }
    };
    let run = opts.run;
    let mut out = execute(&run);
    let metrics = report::metrics(&run, &mut out);
    let mut facts = vec![
        (
            "workload".to_string(),
            Value::Str(run.workload.name().into()),
        ),
        ("seed".to_string(), Value::Int(i128::from(run.seed))),
    ];
    facts.append(&mut out.facts);
    let provenance = provenance::collect(facts);

    println!(
        "magneto_benchmark {} seed={} seconds={} trace={}{}",
        run.workload.name(),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        if run.smoke { " smoke" } else { "" }
    );
    println!(
        "provenance {}",
        serde_json::to_string(&provenance).expect("JSON of a value tree")
    );
    for m in spec::get().metrics(run.trace) {
        println!(
            "  {:<32} {} {}",
            m.name,
            out.values.get(&m.name).copied().unwrap_or(0.0),
            m.unit
        );
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    if let Some(path) = &opts.out {
        let record = report::record(&run, &out, &metrics, provenance);
        let text = serde_json::to_string_pretty(&record).expect("JSON of a value tree");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
    }
    if let Some(path) = &opts.spans {
        if let Err(e) = out.tracer.save(path) {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
    }
    println!("{}", report::result_line(&out, &metrics));
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        bench(&args)
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse(&strs(&[
            "--workload",
            "fleet-cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.run.workload, Workload::FleetCold);
        assert_eq!(
            (o.run.seed, o.run.seconds, o.run.trace, o.run.smoke),
            (7, 10.0, true, false)
        );
        assert!(parse(&strs(&["--seed", "7"])).is_err());
        assert!(parse(&strs(&["--workload", "nope"])).is_err());
        assert!(parse(&strs(&["--workload", "device-stream", "--trace", "2"])).is_err());
        assert!(parse(&strs(&["--workload", "device-stream", "--seconds", "0"])).is_err());
        assert!(parse(&strs(&["--workload", "device-stream", "--bogus", "1"])).is_err());
    }

    /// Every workload, untraced and traced, for about a second at
    /// smoke sizes: every metric is produced, every check holds.
    #[test]
    fn smoke_every_workload_emits_every_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let run = Run {
                    workload,
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                };
                let mut out = execute(&run);
                let metrics = report::metrics(&run, &mut out);
                assert_eq!(
                    out.failed,
                    0,
                    "{} trace={trace}: {:?}",
                    workload.name(),
                    out.failures
                );
                assert!(out.attempted > 0);
                let names: Vec<&str> = metrics
                    .as_map()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let declared: Vec<&str> = spec::get()
                    .metrics(trace)
                    .iter()
                    .map(|m| m.name.as_str())
                    .collect();
                assert_eq!(names, declared);
                if trace && workload == Workload::FleetSteady {
                    // Sampled in the open loop only: 4,000 windows/s
                    // against a fleet that serves several times that,
                    // far from the closed loop's windows in flight.
                    let max = out.values["fleet.inflight_max"];
                    assert!(
                        max < (fleet::CLOSED_IN_FLIGHT / 4) as f64,
                        "fleet.inflight_max {max}"
                    );
                }
                let line = report::result_line(&out, &metrics);
                let parsed: Value = serde_json::from_str(&line).unwrap();
                let keys: Vec<&str> = parsed
                    .as_map()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
    }
}
