//! What every workload shares: its name, the run parameters, set-up,
//! the pretrained bundle, and the outcome it fills in.

use crate::stats::Dist;
use crate::trace::Tracer;
use magneto_core::{CloudConfig, CloudInitializer, EdgeBundle};
use magneto_sensors::{GeneratorConfig, SensorDataset};
use serde::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DeviceStream,
    DeviceLearn,
    FleetSteady,
    FleetOverload,
    FleetCold,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::DeviceStream,
        Workload::DeviceLearn,
        Workload::FleetSteady,
        Workload::FleetOverload,
        Workload::FleetCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DeviceStream => "device-stream",
            Workload::DeviceLearn => "device-learn",
            Workload::FleetSteady => "fleet-steady",
            Workload::FleetOverload => "fleet-overload",
            Workload::FleetCold => "fleet-cold",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrink every size so a run takes about a second (tests).
    pub smoke: bool,
}

impl Run {
    pub fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Times set-up is repeated; `setup_s` is the median. A traced run
    /// sets up once, since it reports no set-up time.
    pub fn setup_reps(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            5
        }
    }

    /// Divide a population size under `--smoke`.
    pub fn scaled(&self, n: usize, smoke_n: usize) -> usize {
        if self.smoke {
            smoke_n
        } else {
            n
        }
    }
}

/// Seed of the cloud pretraining corpus. The pretrained model is
/// set-up, not input: every run serves the same model, and `--seed`
/// varies only the users, windows and arrivals the model sees.
const CLOUD_SEED: u64 = 0x00C1_0D5E;

/// The cloud corpus (generated outside set-up timing: it stands in for
/// the collection campaign, not for work the platform does).
pub fn cloud_corpus(run: &Run) -> SensorDataset {
    SensorDataset::generate(&GeneratorConfig::base_five(run.scaled(120, 12)), CLOUD_SEED)
}

/// Pretrain a bundle through `CloudInitializer`. The paper backbone
/// `[80,1024,512,128,64,128]` trains for 6 × 1024 pairs: about a second
/// on a 2-core Xeon, with the held-out accuracy of the 20 × 2048 default
/// (0.895 on a cross-user test set) at a seventh of its time. The small
/// backbone uses `CloudConfig::fast_demo()` unchanged.
pub fn pretrain(
    run: &Run,
    corpus: &SensorDataset,
    paper_backbone: bool,
) -> Result<EdgeBundle, String> {
    let mut config = if paper_backbone {
        let mut c = CloudConfig::default();
        c.trainer.epochs = 6;
        c.trainer.pairs_per_epoch = 1024;
        c
    } else {
        CloudConfig::fast_demo()
    };
    if run.smoke {
        config.trainer.epochs = 1;
        config.trainer.pairs_per_epoch = 64;
    }
    CloudInitializer::new(config)
        .pretrain(corpus)
        .map(|(bundle, _)| bundle)
        .map_err(|e| format!("pretrain: {e}"))
}

/// Run `setup` `reps` times, keeping the last result (earlier ones are
/// dropped before the next starts), and return it with the median time.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    let value = last.expect("at least one set-up ran");
    Ok((value, Dist::new(times).median()))
}

/// What a run measured and checked.
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that failed and checks that did not hold.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Every number the run produced, by name: the reported metrics and
    /// the detail written to `--out`.
    pub values: BTreeMap<String, f64>,
    /// Run facts for the provenance block (arrival rate, spool).
    pub facts: Vec<(String, Value)>,
    pub tracer: Tracer,
}

const MAX_FAILURE_MESSAGES: usize = 20;

impl Outcome {
    pub fn new(trace: bool) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
            facts: Vec::new(),
            tracer: Tracer::new(trace),
        }
    }

    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one failure of an already-attempted operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(what.into());
        }
    }

    /// One attempted check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(what());
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn fact(&mut self, name: &str, value: Value) {
        self.facts.push((name.to_string(), value));
    }
}

/// Resident-set figures from `/proc/self/status`, in MB (`0.0` where
/// the file is unavailable).
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
