//! The device workloads: one `EdgeDevice` serving a window stream
//! (`device-stream`), then learning on the device (`device-learn`).

use crate::replay::{self, Scratch};
use crate::stats::{mean_rate, median, median_excess, Dist, Tail};
use crate::workload::{cloud_corpus, pretrain, rss_mb, timed_setup, us, Outcome, Run};
use magneto_core::{EdgeBundle, EdgeConfig, EdgeDevice, SelfHealingConfig, UpdateOutcome};
use magneto_sensors::stream::StreamConfig;
use magneto_sensors::{
    ActivityKind, LabeledWindow, PersonProfile, SensorDataset, SensorFrame, SensorStream,
};
use magneto_tensor::SeededRng;
use std::time::Instant;

/// Held-out and stream accuracy must stay at or above this; a run below
/// it fails a check.
pub const ACCURACY_FLOOR: f64 = 0.6;

/// Window length the device segments its stream into (1 s at 120 Hz).
const WINDOW: usize = 120;

/// Self-healing on: the drift monitor observes every streamed window
/// and every nominal window is featurised again as calibration
/// evidence. Two knobs differ from the defaults, both to keep the
/// per-window work the same from seed to seed:
/// * harvesting ignores confidence, so the median window does not flip
///   between "harvested" and "not harvested" with the users' mix;
/// * the recalibration trigger never fires (no run of drifted windows is
///   that long): a recalibration is an on-device update, which
///   `device-learn` measures, and on a stream that switches users and
///   activities it would fire a seed-dependent number of ~1 s updates.
fn device_config() -> EdgeConfig {
    EdgeConfig {
        healing: Some(SelfHealingConfig {
            hysteresis: u32::MAX,
            min_confidence: 0.0,
            ..SelfHealingConfig::default()
        }),
        ..EdgeConfig::default()
    }
}

/// Deploy with the support exemplars indexed (~600 rows, so NCM takes
/// the two-stage int8 path).
fn deploy(bundle: EdgeBundle) -> Result<EdgeDevice, String> {
    let mut device =
        EdgeDevice::deploy(bundle, device_config()).map_err(|e| format!("deploy: {e}"))?;
    device
        .attach_support_exemplars()
        .map_err(|e| format!("attach exemplars: {e}"))?;
    Ok(device)
}

/// Windows of sensor frames with their true activity.
struct Stream {
    frames: Vec<Vec<SensorFrame>>,
    channels: Vec<Vec<Vec<f32>>>,
    truth: Vec<&'static str>,
    /// Index of the simulated user each window came from.
    user: Vec<usize>,
}

/// `per_segment` consecutive windows of each activity for each person,
/// person by person.
fn stream(
    persons: &[PersonProfile],
    activities: &[ActivityKind],
    per_segment: usize,
    rng: &mut SeededRng,
) -> Stream {
    let mut s = Stream {
        frames: Vec::new(),
        channels: Vec::new(),
        truth: Vec::new(),
        user: Vec::new(),
    };
    for (u, person) in persons.iter().enumerate() {
        for &activity in activities {
            let mut sensor = SensorStream::new(
                activity.profile(),
                *person,
                StreamConfig::default(),
                rng.split("segment"),
            );
            for _ in 0..per_segment {
                let frames: Vec<SensorFrame> = sensor.by_ref().take(WINDOW).collect();
                s.channels
                    .push(LabeledWindow::from_frames(activity.label(), &frames).channels);
                s.frames.push(frames);
                s.truth.push(activity.label());
                s.user.push(u);
            }
        }
    }
    s
}

/// Per-window serving results of a streaming pass.
struct Served {
    origin: Instant,
    scratch: Scratch,
    latency_us: Vec<f64>,
    /// Whether the window before this one was replayed (traced runs).
    after_replay: Vec<bool>,
    /// (correct, total) per simulated user.
    per_user: Vec<(u64, u64)>,
    ok: u64,
}

impl Served {
    fn new() -> Self {
        Served {
            origin: Instant::now(),
            scratch: Scratch::default(),
            latency_us: Vec::new(),
            after_replay: Vec::new(),
            per_user: Vec::new(),
            ok: 0,
        }
    }
}

/// Push window `i` of `s` as one `push_frames` call. In a traced run,
/// every other window is then replayed through the stages as children
/// of its `core.push_frames` span.
fn push_window(
    device: &mut EdgeDevice,
    s: &Stream,
    i: usize,
    req: u64,
    served: &mut Served,
    out: &mut Outcome,
) {
    let replay = out.tracer.on() && req.is_multiple_of(2);
    out.attempt(1);
    let start = Instant::now();
    let result = device.push_frames(&s.frames[i]);
    let end = Instant::now();
    let after_replay = out.tracer.on() && !req.is_multiple_of(2);
    served.latency_us.push(us(end - start));
    served.after_replay.push(after_replay);
    let pred = match result {
        Ok(mut preds) if preds.len() == 1 => preds.pop().expect("one prediction"),
        Ok(preds) => {
            return out.fail(format!(
                "window {req}: {} predictions for one window",
                preds.len()
            ))
        }
        Err(e) => return out.fail(format!("window {req}: {e}")),
    };
    served.ok += 1;
    let user = s.user[i];
    if served.per_user.len() <= user {
        served.per_user.resize(user + 1, (0, 0));
    }
    served.per_user[user].1 += 1;
    if pred.raw.label == s.truth[i] {
        served.per_user[user].0 += 1;
    }
    if !replay {
        return;
    }
    let parent = out.tracer.record("core.push_frames", req, None, start, end);
    let view = device.inference_view();
    if let Err(e) = replay::stages(
        &view,
        &s.channels[i],
        &mut out.tracer,
        req,
        parent,
        &mut served.scratch,
    ) {
        return out.fail(format!("replay: {e}"));
    }
    // The heal step featurises nominal windows a second time as
    // calibration evidence.
    if !pred.raw.quality.is_degraded() {
        let mut row = vec![0.0f32; view.pipeline.output_dim()];
        if let Err(e) = out.tracer.time("core.heal", req, parent, || {
            view.pipeline.process_into(&s.channels[i], &mut row)
        }) {
            out.fail(format!("heal replay: {e}"));
        }
    }
}

/// Serving-layer metrics of a streaming pass: the `push_frames` span,
/// its self time (the span minus its replayed stages), tail, and the
/// tracing overhead.
fn serve_metrics(served: &Served, out: &mut Outcome) {
    let tr = &out.tracer;
    let push = tr.by_req("core.push_frames");
    let stages = replay::stage_sums(tr, &["core.heal"]);
    let self_us: Vec<f64> = push
        .iter()
        .filter_map(|(req, p)| stages.get(req).map(|s| p - s))
        .collect();
    let dist = Dist::new(served.latency_us.clone());
    out.set(
        "serve.service_us",
        Dist::new(push.values().copied().collect()).median(),
    );
    out.set("serve.self_us", median(&self_us));
    set_tail(out, "serve", &dist);
    out.set(
        "trace.overhead_frac",
        median_excess(&served.latency_us, &served.after_replay),
    );
}

/// `serve.tail_us` / `serve.tail_pct`: the highest percentile up to p99
/// with at least ten samples beyond it.
pub fn set_tail(out: &mut Outcome, prefix: &str, dist: &Dist) {
    let (pct, value) = match dist.tail() {
        Tail::At { pct, value } => (pct, value),
        Tail::TooSmall { .. } => (100.0, dist.max()),
    };
    out.set(&format!("{prefix}.tail_us"), value);
    out.set(&format!("{prefix}.tail_pct"), pct);
}

/// Counters of the layers a device workload never touches.
fn no_fleet(out: &mut Outcome, served: u64, seconds: f64, device: &EdgeDevice) {
    for name in [
        "fleet.mean_batch",
        "fleet.max_batch",
        "fleet.accepted",
        "fleet.rejected",
        "fleet.inflight_max",
        "fleet.backlog_slope",
        "store.rehydrations",
        "store.paged_sessions",
    ] {
        out.set(name, 0.0);
    }
    // One user, fully resident: every window is a hot hit.
    out.set("store.hot_hit_rate", 1.0);
    out.set(
        "store.resident_bytes_per_user",
        device.resident_bytes() as f64,
    );
    out.set("loadgen.offered_per_s", served as f64 / seconds.max(1e-9));
    let heal = device.healing_stats().unwrap_or_default();
    out.set("core.heal_alerts", heal.drift_alerts as f64);
    out.set("core.heal_recals", heal.auto_recals as f64);
    out.set("core.ncm_rows", device.state().ncm.num_rows() as f64);
}

fn privacy_check(device: &EdgeDevice, out: &mut Outcome) {
    let uplink = device.privacy_ledger().check_no_uplink();
    out.check(uplink.is_ok(), || format!("uplink recorded: {uplink:?}"));
}

/// Smoke runs pretrain for one tiny epoch, so only full runs hold the
/// accuracy floor.
fn accuracy_check(run: &Run, accuracy: f64, out: &mut Outcome) {
    let floor = if run.smoke { 0.0 } else { ACCURACY_FLOOR };
    out.check(accuracy >= floor, || {
        format!("accuracy {accuracy:.3} below floor {floor}")
    });
}

/// Users whose windows make up the device stream. One device serves
/// them all, so accuracy averages over users instead of resting on one
/// seeded user's style.
const STREAM_USERS: usize = 240;
const SEGMENT_WINDOWS: usize = 2;

/// `device-stream`: closed loop of `push_frames` calls, one window each.
pub fn device_stream(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let corpus = cloud_corpus(run);
    let mut rng = SeededRng::new(run.seed ^ 0xD5_7EA4);
    let persons: Vec<PersonProfile> = (0..run.scaled(STREAM_USERS, 2))
        .map(|_| PersonProfile::sample(&mut rng))
        .collect();
    let s = stream(
        &persons,
        &ActivityKind::BASE_FIVE,
        SEGMENT_WINDOWS,
        &mut rng,
    );
    let (mut device, setup_s) =
        timed_setup(run.setup_reps(), || deploy(pretrain(run, &corpus, true)?))?;
    out.set("setup_s", setup_s);

    let rss_start = rss_mb("VmRSS");
    let mut served = Served::new();
    let deadline = served.origin + run.measure();
    let mut req = 0u64;
    while Instant::now() < deadline {
        let i = req as usize % s.frames.len();
        push_window(&mut device, &s, i, req, &mut served, out);
        req += 1;
    }
    let elapsed = served.origin.elapsed().as_secs_f64();
    out.set("mem.rss_growth_mb", rss_mb("VmRSS") - rss_start);

    let dist = Dist::new(served.latency_us.clone());
    let accuracy = mean_rate(&served.per_user);
    out.set("latency_ms", dist.median() / 1e3);
    out.set("throughput_per_s", served.ok as f64 / elapsed);
    out.set("accuracy", accuracy);
    out.set("served_frac", served.ok as f64 / req.max(1) as f64);
    out.set("window_p50_us", dist.median());
    out.set("window_p99_us", dist.pct(99.0));
    out.set("window_p99_beyond", dist.beyond(99.0) as f64);
    out.set("windows", dist.len() as f64);
    privacy_check(&device, out);
    accuracy_check(run, accuracy, out);

    no_fleet(out, req, elapsed, &device);
    out.set("core.update_epochs", 0.0);
    out.set("core.update_rollbacks", 0.0);
    if out.tracer.on() {
        serve_metrics(&served, out);
        out.set("core.stream_overhead_us", out.values["serve.self_us"]);
        layer_replays(&device, &s.channels, out)?;
    }
    Ok(())
}

/// Stage metrics from the per-window replays, and the batched-embed
/// replay on the device's features.
fn layer_replays(
    device: &EdgeDevice,
    windows: &[Vec<Vec<f32>>],
    out: &mut Outcome,
) -> Result<(), String> {
    let view = device.inference_view();
    replay::stage_metrics(view.model, out);
    replay::embed_batches(&view, windows, out)
}

/// Recording length of each on-device update (the paper records 20–30 s).
const RECORDING_S: f64 = 25.0;
const HELDOUT_WINDOWS: usize = 40;

/// `device-learn`: learn `gesture_hi`, then calibrate the base
/// activities in rotation, one calibration per second of run time
/// (each takes about that long), then stream a held-out recording of
/// all six activities. The count is fixed by `--seconds`, not by a
/// deadline: each update costs less as calibrations shrink the support
/// set, so a deadline would let host speed pick which updates the
/// median covers.
pub fn device_learn(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let corpus = cloud_corpus(run);
    let mut rng = SeededRng::new(run.seed ^ 0x1EA4);
    let person = PersonProfile::sample(&mut rng);
    let mut record = |label: &str, kind: ActivityKind| {
        SensorDataset::record_session(label, kind, person, RECORDING_S, rng.next_u64())
    };
    let gesture = record("gesture_hi", ActivityKind::GestureHi);
    let count = run.scaled((run.seconds.round() as usize).clamp(3, 60), 2);
    let calibrations: Vec<(&str, SensorDataset)> = (0..count)
        .map(|k| {
            let kind = ActivityKind::BASE_FIVE[k % 5];
            (kind.label(), record(kind.label(), kind))
        })
        .collect();
    let mut activities = ActivityKind::BASE_FIVE.to_vec();
    activities.push(ActivityKind::GestureHi);
    let heldout = stream(
        &[person],
        &activities,
        run.scaled(HELDOUT_WINDOWS, 4),
        &mut rng,
    );
    let (mut device, setup_s) =
        timed_setup(run.setup_reps(), || deploy(pretrain(run, &corpus, true)?))?;
    out.set("setup_s", setup_s);

    let rss_start = rss_mb("VmRSS");
    let start = Instant::now();
    let (learn, _) = update(&mut device, "gesture_hi", &gesture, 0, out, |d, l, r| {
        d.learn_new_activity(l, r)
    });
    let learned = device.classes().iter().any(|c| c == "gesture_hi");
    out.check(learned, || format!("gesture_hi not learned: {learn:?}"));
    let mut times = Vec::new();
    let mut committed = u64::from(matches!(learn, Some(Some(_))));
    let mut epochs = Vec::new();
    let mut rollbacks = 0;
    for (k, (label, recording)) in calibrations.iter().enumerate() {
        let (outcome, seconds) = update(
            &mut device,
            label,
            recording,
            k as u64 + 1,
            out,
            |d, l, r| d.calibrate_activity(l, r),
        );
        match outcome {
            Some(Some(ep)) => {
                committed += 1;
                epochs.push(ep as f64);
            }
            Some(None) => rollbacks += 1,
            None => {}
        }
        times.push(seconds);
    }
    let updates = times.len();
    // Updates rebuild the prototypes; index the refreshed support set
    // again before serving.
    device
        .attach_support_exemplars()
        .map_err(|e| format!("attach exemplars: {e}"))?;

    let mut served = Served::new();
    for i in 0..heldout.frames.len() {
        push_window(&mut device, &heldout, i, i as u64, &mut served, out);
    }
    out.set("mem.rss_growth_mb", rss_mb("VmRSS") - rss_start);

    let accuracy = mean_rate(&served.per_user);
    out.set("latency_ms", median(&times) * 1e3);
    out.set(
        "throughput_per_s",
        updates as f64 / times.iter().sum::<f64>(),
    );
    out.set("accuracy", accuracy);
    let ops = 1 + updates as u64 + heldout.frames.len() as u64;
    out.set("served_frac", (committed + served.ok) as f64 / ops as f64);
    out.set("update_p50_s", median(&times));
    out.set("updates", updates as f64);
    privacy_check(&device, out);
    accuracy_check(run, accuracy, out);

    no_fleet(out, ops, start.elapsed().as_secs_f64(), &device);
    out.set("core.update_epochs", median(&epochs));
    out.set("core.update_rollbacks", f64::from(rollbacks));
    if out.tracer.on() {
        let featurize = out.tracer.durations("core.update_featurize");
        let total = out.tracer.durations("core.update");
        out.set("core.update_featurize_s", median(&featurize) / 1e6);
        let train: Vec<f64> = total
            .iter()
            .zip(&featurize)
            .map(|(t, f)| (t - f) / 1e6)
            .collect();
        out.set("core.update_train_s", median(&train));
        serve_metrics(&served, out);
        layer_replays(&device, &heldout.channels, out)?;
    }
    Ok(())
}

type UpdateFn = fn(&mut EdgeDevice, &str, &SensorDataset) -> magneto_core::Result<UpdateOutcome>;

/// One on-device update and its time in seconds. The outcome is `None`
/// when it errored (a failure), else `Some(epochs)` when committed or
/// `Some(None)` when rolled back. A traced run then replays the
/// recording's featurisation as a child span.
fn update(
    device: &mut EdgeDevice,
    label: &str,
    recording: &SensorDataset,
    req: u64,
    out: &mut Outcome,
    f: UpdateFn,
) -> (Option<Option<usize>>, f64) {
    out.attempt(1);
    let start = Instant::now();
    let result = f(device, label, recording);
    let end = Instant::now();
    let id = out.tracer.record("core.update", req, None, start, end);
    if out.tracer.on() {
        let pipeline = device.inference_view().pipeline;
        let mut row = vec![0.0f32; pipeline.output_dim()];
        out.tracer.time("core.update_featurize", req, id, || {
            for w in &recording.windows {
                std::hint::black_box(pipeline.process_into(&w.channels, &mut row).is_ok());
            }
        });
    }
    let outcome = match result {
        Ok(UpdateOutcome::Committed(report)) => Some(Some(report.training.epochs_run)),
        Ok(UpdateOutcome::RolledBack { .. }) => Some(None),
        Err(e) => {
            out.fail(format!("update {label}: {e}"));
            None
        }
    };
    (outcome, (end - start).as_secs_f64())
}
