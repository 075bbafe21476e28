//! `magneto` — command-line front end for the MAGNETO platform.
//!
//! A terminal stand-in for the paper's Android app: pre-train a bundle,
//! inspect it, run live inference sessions, teach new activities, and
//! calibrate — with the (personalised) bundle persisted to disk between
//! invocations, exactly like an app surviving restarts.
//!
//! ```sh
//! magneto pretrain --out device.mag
//! magneto inspect device.mag
//! magneto infer device.mag --activity walk --seconds 6
//! magneto learn device.mag --label gesture_hi --activity gesture_hi --seconds 25
//! magneto calibrate device.mag --label walk --seconds 20 --atypical
//! magneto demo
//! ```

use magneto::core::storage::{load_bundle, save_bundle};
use magneto::core::timeline::TimelineBuilder;
use magneto::core::Lineage;
use magneto::prelude::*;
use magneto::sensors::stream::StreamConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                let value = raw
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            } else {
                positional.push(raw[i].clone());
            }
            i += 1;
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flag(name).and_then(|v| v.parse().ok()).unwrap_or(default)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  magneto pretrain  --out PATH [--windows-per-class N] [--epochs N] [--seed N] [--model-version N] [--fast] [--quantized]
  magneto inspect   BUNDLE
  magneto infer     BUNDLE --activity NAME [--seconds N] [--seed N] [--atypical] [--precision f32|int8]
  magneto learn     BUNDLE --label NAME --activity NAME [--seconds N] [--seed N] [--out PATH] [--precision f32|int8]
  magneto calibrate BUNDLE --label NAME [--seconds N] [--seed N] [--atypical] [--out PATH] [--precision f32|int8]
  magneto demo      [--fast] [--precision f32|int8]

--precision picks the resident execution precision: int8 keeps the quantised
  weights and support set resident (~4x smaller, int8 kernels end-to-end)

activities: drive e_scooter run still walk gesture_hi gesture_circle jump stairs_up"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().cloned() else {
        return usage();
    };
    let args = Args::parse(&raw[1..]);
    let result = match command.as_str() {
        "pretrain" => cmd_pretrain(&args),
        "inspect" => cmd_inspect(&args),
        "infer" => cmd_infer(&args),
        "learn" => cmd_learn(&args),
        "calibrate" => cmd_calibrate(&args),
        "demo" => cmd_demo(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn person_for(args: &Args) -> PersonProfile {
    if args.has("atypical") {
        let mut rng = SeededRng::new(args.num("seed", 0u64) ^ 0xA7);
        PersonProfile::sample_atypical(&mut rng)
    } else {
        PersonProfile::nominal()
    }
}

fn bundle_path(args: &Args) -> Result<PathBuf, String> {
    args.positional
        .first()
        .map(PathBuf::from)
        .ok_or_else(|| "missing bundle path".into())
}

fn precision_for(args: &Args) -> Result<Precision, String> {
    match args.flag("precision") {
        None => Ok(Precision::F32),
        Some(name) => Precision::parse(name).map_err(|e| e.to_string()),
    }
}

/// Install the process-wide execution context for this device: the host
/// defaults (every available core) with the detected SIMD backend — the
/// plan the benchmark serves.
fn install_compute_plan() {
    use magneto::tensor::{Backend, Exec, KernelPlan};
    let plan = KernelPlan::host_default().with_backend(Backend::detect());
    magneto::tensor::install_global(Exec::from_plan(plan));
    println!(
        "[compute] {} | host {}",
        plan.describe(),
        Backend::isa_summary()
    );
}

fn cmd_pretrain(args: &Args) -> Result<(), String> {
    let out = PathBuf::from(args.flag("out").ok_or("--out PATH is required")?);
    let windows = args.num("windows-per-class", 120usize);
    let epochs = args.num("epochs", 15usize);
    let seed = args.num("seed", 0u64);
    let mut config = if args.has("fast") {
        CloudConfig::fast_demo()
    } else {
        CloudConfig::default()
    };
    config.trainer.epochs = epochs;
    config.seed = seed;
    install_compute_plan();

    println!("[cloud] generating corpus: {windows} windows x 5 activities (seed {seed})…");
    let corpus = SensorDataset::generate(&GeneratorConfig::base_five(windows), seed);
    println!("[cloud] pre-training ({epochs} epochs)…");
    let (bundle, report) = CloudInitializer::new(config)
        .pretrain(&corpus)
        .map_err(|e| e.to_string())?;
    println!(
        "[cloud] loss {:.4} -> {:.4} over {} epochs",
        report.training.epoch_losses.first().unwrap_or(&f32::NAN),
        report.training.final_loss().unwrap_or(f32::NAN),
        report.training.epochs_run
    );
    let version = args.num("model-version", 1u32);
    let bundle = bundle.with_lineage(Lineage::root(version));
    let quantized = args.has("quantized");
    save_bundle(&bundle, &out, quantized).map_err(|e| e.to_string())?;
    let sizes = bundle.size_report(quantized);
    println!(
        "[cloud] wrote {} ({}, {:.2} MiB, quantized: {quantized}, < 5 MB: {})",
        out.display(),
        bundle.version(),
        sizes.total_mib(),
        sizes.within_5mb()
    );
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let path = bundle_path(args)?;
    let bundle = load_bundle(&path).map_err(|e| e.to_string())?;
    let sizes = bundle.size_report(false);
    println!("bundle {}", path.display());
    let version = match bundle.lineage.parent {
        None => format!("{} (root)", bundle.version()),
        Some(hash) => format!("{} (parent {hash:016x})", bundle.version()),
    };
    println!("  version        : {version}");
    println!("  classes        : {:?}", bundle.registry.labels());
    println!("  backbone       : {:?}", bundle.model.dims());
    println!(
        "  precision      : {} ({} KiB resident)",
        bundle.model.precision(),
        bundle.model.resident_bytes() / 1024
    );
    println!(
        "  parameters     : {} ({} KiB at stored precision)",
        bundle.model.backbone().param_count(),
        bundle.model.resident_bytes() / 1024
    );
    println!(
        "  support set    : {} exemplars across {} classes ({} KiB)",
        bundle.support_set.total_samples(),
        bundle.support_set.num_classes(),
        bundle.support_set.bytes() / 1024
    );
    println!(
        "  serialized     : {:.2} MiB f32 / {:.2} MiB int8 (< 5 MB: {})",
        sizes.total_mib(),
        bundle.size_report(true).total_mib(),
        sizes.within_5mb()
    );
    Ok(())
}

fn load_device(path: &Path, precision: Precision) -> Result<EdgeDevice, String> {
    let bundle = load_bundle(path).map_err(|e| e.to_string())?;
    let config = EdgeConfig {
        precision,
        ..EdgeConfig::default()
    };
    let device = EdgeDevice::deploy(bundle, config).map_err(|e| e.to_string())?;
    println!(
        "[edge] precision {} — model+support resident ≈ {} KiB",
        device.precision(),
        device.resident_bytes() / 1024
    );
    Ok(device)
}

fn cmd_infer(args: &Args) -> Result<(), String> {
    let path = bundle_path(args)?;
    let activity = args.flag("activity").ok_or("--activity NAME is required")?;
    let kind = ActivityKind::from_label(activity)
        .ok_or_else(|| format!("unknown activity `{activity}`"))?;
    let seconds = args.num("seconds", 5usize);
    let seed = args.num("seed", 1u64);

    install_compute_plan();
    let mut device = load_device(&path, precision_for(args)?)?;
    println!(
        "[edge] session: {seconds}s of `{activity}` (device knows {:?})",
        device.classes()
    );
    let mut stream = SensorStream::new(
        kind.profile(),
        person_for(args),
        StreamConfig::default(),
        SeededRng::new(seed),
    );
    let mut timeline = TimelineBuilder::new(1.0, 1);
    for second in 0..seconds {
        let mut last = None;
        for _ in 0..120 {
            if let Some(frame) = stream.poll() {
                if let Some(p) = device.push_frame(&frame).map_err(|e| e.to_string())? {
                    last = Some(p);
                }
            }
        }
        if let Some(p) = last {
            timeline.push(second as f64, &p.smoothed_label);
            println!(
                "  t={second:>3}s  ▷ {:<14} ({:>5.1}% conf, {:.1} ms)",
                p.smoothed_label,
                p.raw.confidence * 100.0,
                p.raw.latency.as_secs_f64() * 1e3
            );
        }
    }
    println!("\n{}", timeline.to_report());
    let stats = device.latency_stats();
    println!(
        "latency: mean {:.2} ms, p99 {:.2} ms over {} windows; uplink 0 B",
        stats.mean_us / 1e3,
        stats.p99_us / 1e3,
        stats.count
    );
    device
        .privacy_ledger()
        .check_no_uplink()
        .map_err(|e| e.to_string())?;
    Ok(())
}

fn cmd_learn(args: &Args) -> Result<(), String> {
    let path = bundle_path(args)?;
    let label = args.flag("label").ok_or("--label NAME is required")?;
    let activity = args.flag("activity").ok_or("--activity NAME is required")?;
    let kind = ActivityKind::from_label(activity)
        .ok_or_else(|| format!("unknown activity `{activity}`"))?;
    let seconds = args.num("seconds", 25.0f64);
    let seed = args.num("seed", 2u64);
    let out = args.flag("out").map(PathBuf::from).unwrap_or_else(|| path.clone());

    install_compute_plan();
    let mut device = load_device(&path, precision_for(args)?)?;
    println!("[edge] recording {seconds:.0}s of `{label}`…");
    let recording =
        SensorDataset::record_session(label, kind, person_for(args), seconds, seed);
    println!("[edge] updating the model on-device…");
    let report = device
        .learn_new_activity(label, &recording)
        .and_then(|outcome| outcome.committed())
        .map_err(|e| e.to_string())?;
    println!(
        "[edge] {} epochs, final loss {:.4}; classes now {:?}",
        report.training.epochs_run,
        report.training.final_loss().unwrap_or(f32::NAN),
        report.classes_after
    );
    save_bundle(
        &device.as_bundle(),
        &out,
        device.precision() == Precision::Int8,
    )
    .map_err(|e| e.to_string())?;
    println!("[edge] saved updated bundle to {}", out.display());
    device
        .privacy_ledger()
        .check_no_uplink()
        .map_err(|e| e.to_string())?;
    Ok(())
}

fn cmd_calibrate(args: &Args) -> Result<(), String> {
    let path = bundle_path(args)?;
    let label = args.flag("label").ok_or("--label NAME is required")?;
    let kind = ActivityKind::from_label(label)
        .ok_or_else(|| format!("`{label}` is not a simulatable activity"))?;
    let seconds = args.num("seconds", 20.0f64);
    let seed = args.num("seed", 3u64);
    let out = args.flag("out").map(PathBuf::from).unwrap_or_else(|| path.clone());

    install_compute_plan();
    let mut device = load_device(&path, precision_for(args)?)?;
    let person = person_for(args);
    println!(
        "[edge] recording {seconds:.0}s of the user's own `{label}` (atypicality {:.2})…",
        person.atypicality()
    );
    let recording = SensorDataset::record_session(label, kind, person, seconds, seed);
    let report = device
        .calibrate_activity(label, &recording)
        .and_then(|outcome| outcome.committed())
        .map_err(|e| e.to_string())?;
    println!(
        "[edge] calibrated `{label}` in {} epochs (final loss {:.4})",
        report.training.epochs_run,
        report.training.final_loss().unwrap_or(f32::NAN)
    );
    save_bundle(
        &device.as_bundle(),
        &out,
        device.precision() == Precision::Int8,
    )
    .map_err(|e| e.to_string())?;
    println!("[edge] saved updated bundle to {}", out.display());
    Ok(())
}

fn cmd_demo(args: &Args) -> Result<(), String> {
    // The Figure-3 script end-to-end, through real storage.
    let dir = std::env::temp_dir().join(format!("magneto_demo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let bundle_file = dir.join("device.mag");

    println!("=== MAGNETO demo (storage-backed) ===\n");
    let pretrain_args = if args.has("fast") {
        vec![
            "--out".to_string(),
            bundle_file.display().to_string(),
            "--fast".to_string(),
            "--windows-per-class".to_string(),
            "40".to_string(),
            "--epochs".to_string(),
            "10".to_string(),
        ]
    } else {
        vec![
            "--out".to_string(),
            bundle_file.display().to_string(),
            "--windows-per-class".to_string(),
            "60".to_string(),
        ]
    };
    cmd_pretrain(&Args::parse(&pretrain_args))?;

    let precision = precision_for(args)?;
    let infer = |activity: &str| {
        cmd_infer(&Args::parse(&[
            bundle_file.display().to_string(),
            "--activity".to_string(),
            activity.to_string(),
            "--seconds".to_string(),
            "3".to_string(),
            "--precision".to_string(),
            precision.name().to_string(),
        ]))
    };
    println!("\n(a) still:");
    infer("still")?;
    println!("\n(b) walk:");
    infer("walk")?;
    println!("\n(c+d) record & learn gesture_hi:");
    cmd_learn(&Args::parse(&[
        bundle_file.display().to_string(),
        "--label".to_string(),
        "gesture_hi".to_string(),
        "--activity".to_string(),
        "gesture_hi".to_string(),
        "--precision".to_string(),
        precision.name().to_string(),
    ]))?;
    println!("\n(e) gesture_hi after learning (reloaded from storage):");
    infer("gesture_hi")?;

    std::fs::remove_dir_all(&dir).ok();
    println!("\ndemo complete; nothing ever left the device.");
    Ok(())
}
