//! The fleet workloads: base+delta sessions behind one
//! `magneto_fleet::Fleet`, driven by a seeded open-loop generator. One
//! thread generates the load and collects the replies.

use crate::device::set_tail;
use crate::loadgen::{poisson_schedule, uniform01, Zipf};
use crate::provenance::nproc;
use crate::replay::{self, Scratch};
use crate::stats::{mean_rate, median, median_excess, slope, Dist};
use crate::workload::{cloud_corpus, pretrain, rss_mb, timed_setup, us, Outcome, Run};
use magneto_core::{EdgeBundle, EdgeConfig, EdgeDevice, Precision, SelfHealingConfig};
use magneto_fleet::{Fleet, FleetConfig, FleetReply, SessionId, ShardStats};
use magneto_sensors::stream::StreamConfig;
use magneto_sensors::{ActivityKind, LabeledWindow, PersonProfile, SensorFrame, SensorStream};
use magneto_tensor::SeededRng;
use serde::Value;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// One fleet workload.
struct Spec {
    sessions: usize,
    precision: Precision,
    /// Paper backbone `[80,1024,512,128,64,128]`, else the fast-demo one.
    paper_backbone: bool,
    healing: bool,
    /// Hot deltas per shard before the LRU pages out (0: untiered).
    hot_per_shard: usize,
    /// Admission sized so a host stall queues instead of refusing; the
    /// default limits are what `fleet-overload` exercises.
    roomy_admission: bool,
    /// Open-loop arrival rate, windows per second.
    rate_wps: f64,
    zipf_s: f64,
    /// Share of arrivals that are `calibrate_session` writes.
    write_frac: f64,
    /// Every n-th session is calibrated at set-up (0: none).
    calibrate_every: usize,
    /// Share of the run spent in the open loop; the rest is the
    /// closed-loop capacity phase.
    open_share: f64,
}

/// 2,000 sessions on one f32 paper-backbone base with self-healing.
const STEADY: Spec = Spec {
    sessions: 2000,
    precision: Precision::F32,
    paper_backbone: true,
    healing: true,
    hot_per_shard: 0,
    roomy_admission: true,
    rate_wps: 4000.0,
    zipf_s: 1.1,
    write_frac: 0.0,
    calibrate_every: 0,
    open_share: 0.6,
};

/// The same sessions on an int8 base at about twice its capacity.
const OVERLOAD: Spec = Spec {
    sessions: 2000,
    precision: Precision::Int8,
    paper_backbone: true,
    healing: false,
    hot_per_shard: 0,
    roomy_admission: false,
    rate_wps: 20_000.0,
    zipf_s: 1.1,
    write_frac: 0.0,
    calibrate_every: 0,
    open_share: 1.0,
};

/// 20,000 sessions, 2% calibrated, 256 hot per shard: most arrivals
/// rehydrate a paged delta.
const COLD: Spec = Spec {
    sessions: 20_000,
    precision: Precision::F32,
    paper_backbone: false,
    healing: false,
    hot_per_shard: 256,
    roomy_admission: true,
    rate_wps: 4000.0,
    zipf_s: 0.9,
    write_frac: 0.01,
    calibrate_every: 50,
    open_share: 0.6,
};

/// Windows in flight during the capacity phase. With 64, identical
/// `fleet-cold` runs measured 19–30k windows/s: the batch size, and with
/// it the cost per window, drifted with how the generator thread (a
/// third thread on a two-core host) was scheduled. 1024 keeps the
/// shard queues full; identical runs then agree within ±5%.
pub const CLOSED_IN_FLIGHT: usize = 1024;
/// Served windows re-served through a reference `EdgeDevice`: a seeded
/// 1% sample, capped.
const REFERENCE_SHARE: u64 = 100;
const MAX_REFERENCE: usize = 300;
/// How long to wait for outstanding replies before counting them lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
const INFLIGHT_SAMPLE: Duration = Duration::from_millis(100);
/// Longest the collector blocks on the oldest request's reply before
/// sweeping the other sessions: the bound on how late a reply to a
/// younger request can be observed.
const SWEEP_EVERY: Duration = Duration::from_micros(100);
const FULL_SWEEP_EVERY: Duration = Duration::from_millis(5);

/// Simulated people behind the sessions. With 400 people and five
/// activities, each of `fleet-steady`'s 2,000 sessions has a persona of
/// its own, and accuracy (a mean over personas) varies little with the
/// seed.
const PERSONS: usize = 400;

/// Simulated users: each person performs each base activity. Session
/// `u` is fed the windows of persona `u % count`, in order.
struct Personas {
    windows: Vec<Vec<Vec<f32>>>,
    label: Vec<&'static str>,
    per: usize,
}

impl Personas {
    fn new(seed: u64, persons: usize, per: usize) -> Self {
        let mut rng = SeededRng::new(seed ^ 0xF1EE7);
        let mut p = Personas {
            windows: Vec::new(),
            label: Vec::new(),
            per,
        };
        for _ in 0..persons {
            let person = PersonProfile::sample(&mut rng);
            for activity in ActivityKind::BASE_FIVE {
                let mut stream = SensorStream::new(
                    activity.profile(),
                    person,
                    StreamConfig::default(),
                    rng.split("persona"),
                );
                for _ in 0..per {
                    let frames: Vec<SensorFrame> = stream.by_ref().take(120).collect();
                    p.windows
                        .push(LabeledWindow::from_frames(activity.label(), &frames).channels);
                }
                p.label.push(activity.label());
            }
        }
        p
    }

    fn of(&self, session: usize) -> usize {
        session % self.label.len()
    }

    fn windows(&self, persona: usize) -> &[Vec<Vec<f32>>] {
        &self.windows[persona * self.per..(persona + 1) * self.per]
    }

    fn window(&self, persona: usize, k: usize) -> &Vec<Vec<f32>> {
        &self.windows(persona)[k % self.per]
    }
}

struct Arrival {
    at_s: f64,
    session: usize,
    write: bool,
}

fn arrivals(spec: &Spec, sessions: usize, seconds: f64, seed: u64) -> Vec<Arrival> {
    let mut rng = SeededRng::new(seed ^ 0xA441_7A15);
    let times = poisson_schedule(spec.rate_wps, seconds, &mut rng);
    let zipf = Zipf::new(sessions, spec.zipf_s);
    times
        .into_iter()
        .map(|at_s| Arrival {
            at_s,
            session: zipf.sample(&mut rng),
            write: spec.write_frac > 0.0 && uniform01(&mut rng) < spec.write_frac,
        })
        .collect()
}

struct Built {
    fleet: Fleet,
    ids: Vec<SessionId>,
    rx: Vec<Receiver<FleetReply>>,
    calibrated: Vec<bool>,
    register_us: Vec<f64>,
}

fn build(
    spec: &Spec,
    sessions: usize,
    bundle: &EdgeBundle,
    personas: &Personas,
) -> Result<Built, String> {
    let cores = nproc();
    let defaults = FleetConfig::default();
    let config = FleetConfig {
        workers: cores,
        shards: cores,
        hot_delta_capacity: spec.hot_per_shard,
        healing: spec.healing.then(SelfHealingConfig::default),
        queue_capacity: if spec.roomy_admission {
            4096
        } else {
            defaults.queue_capacity
        },
        max_inflight_per_session: if spec.roomy_admission {
            1024
        } else {
            defaults.max_inflight_per_session
        },
        max_inflight_global: if spec.roomy_admission {
            8192
        } else {
            defaults.max_inflight_global
        },
        ..defaults
    };
    let fleet = Fleet::new(config).map_err(|e| format!("fleet: {e}"))?;
    let key = fleet
        .register_base(bundle, spec.precision)
        .map_err(|e| format!("register base: {e}"))?;
    let mut built = Built {
        fleet,
        ids: Vec::with_capacity(sessions),
        rx: Vec::with_capacity(sessions),
        calibrated: vec![false; sessions],
        register_us: Vec::with_capacity(sessions),
    };
    for _ in 0..sessions {
        let start = Instant::now();
        let (id, rx) = built
            .fleet
            .register_from_base(key, spec.precision)
            .map_err(|e| format!("register session: {e}"))?;
        built.register_us.push(us(start.elapsed()));
        built.ids.push(id);
        built.rx.push(rx);
    }
    if spec.calibrate_every > 0 {
        for u in (0..sessions).step_by(spec.calibrate_every) {
            let persona = personas.of(u);
            built
                .fleet
                .calibrate_session(
                    built.ids[u],
                    personas.label[persona],
                    &personas.windows(persona)[..2],
                )
                .map_err(|e| format!("calibrate session {u}: {e}"))?;
            built.calibrated[u] = true;
        }
    }
    Ok(built)
}

struct Pending {
    seq: u64,
    due: Instant,
    arrival: u64,
    window: usize,
    span: Option<u32>,
    traced: bool,
}

/// A served window kept for the reference check.
struct Sample {
    session: usize,
    window: usize,
    label: String,
    confidence: u32,
}

/// The load generator and reply collector. Replies are matched to
/// requests per session (the fleet replies in submission order per
/// session) and timed from the request's due time, so time the
/// generator ran late counts against latency.
struct LoadGen<'a> {
    fleet: &'a Fleet,
    ids: &'a [SessionId],
    rx: &'a [Receiver<FleetReply>],
    personas: &'a Personas,
    seed: u64,
    /// Refusals are the expected answer to overload, not failures.
    allow_refusals: bool,
    pending: Vec<VecDeque<Pending>>,
    /// Outstanding requests per shard as `(submission index, session,
    /// seq)`, in submission order. A shard answers its queue in order,
    /// so each shard's oldest request is the next it answers.
    order: Vec<VecDeque<(u64, usize, u64)>>,
    submitted: u64,
    /// Sessions with outstanding requests, for the occasional full sweep.
    active: Vec<usize>,
    is_active: Vec<bool>,
    last_full_sweep: Instant,
    cursor: Vec<usize>,
    calibrated: Vec<bool>,
    in_flight: usize,
    /// Latency, generator lateness and `Fleet::in_flight()` samples are
    /// recorded in the open-loop phase only.
    open_loop: bool,
    /// Latency in µs of each served window.
    latency: Vec<f64>,
    latency_traced: Vec<bool>,
    /// Reply times of served windows, seconds into the current phase.
    completions: Vec<f64>,
    late_us: Vec<f64>,
    calibrate_us: Vec<f64>,
    per_persona: Vec<(u64, u64)>,
    offered: u64,
    served: u64,
    refused: u64,
    samples: Vec<Sample>,
    origin: Instant,
    next_sample: Instant,
    inflight: Vec<(f64, f64)>,
}

fn sampled(seed: u64, arrival: u64) -> bool {
    let h = (arrival ^ seed.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 40).is_multiple_of(REFERENCE_SHARE)
}

impl<'a> LoadGen<'a> {
    fn new(built: &'a Built, personas: &'a Personas, seed: u64, allow_refusals: bool) -> Self {
        let n = built.ids.len();
        let now = Instant::now();
        LoadGen {
            fleet: &built.fleet,
            ids: &built.ids,
            rx: &built.rx,
            personas,
            seed,
            allow_refusals,
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            order: (0..built.fleet.config().shards)
                .map(|_| VecDeque::new())
                .collect(),
            submitted: 0,
            active: Vec::new(),
            is_active: vec![false; n],
            last_full_sweep: now,
            cursor: vec![0; n],
            calibrated: built.calibrated.clone(),
            in_flight: 0,
            open_loop: true,
            latency: Vec::new(),
            latency_traced: Vec::new(),
            completions: Vec::new(),
            late_us: Vec::new(),
            calibrate_us: Vec::new(),
            per_persona: vec![(0, 0); personas.label.len()],
            offered: 0,
            served: 0,
            refused: 0,
            samples: Vec::new(),
            origin: now,
            next_sample: now,
            inflight: Vec::new(),
        }
    }

    /// Submit the session's next window once `due`.
    fn submit(&mut self, u: usize, due: Instant, arrival: u64, traced: bool, out: &mut Outcome) {
        let k = self.cursor[u];
        self.cursor[u] += 1;
        // Copy the window before waiting, so the copy does not delay the send.
        let window = self.personas.window(self.personas.of(u), k).clone();
        self.wait_until(due, out);
        let span = if traced {
            out.tracer.record("fleet.request", arrival, None, due, due)
        } else {
            None
        };
        let send = Instant::now();
        let result = self.fleet.submit(self.ids[u], window);
        let sent = Instant::now();
        if traced {
            out.tracer.record("fleet.submit", arrival, span, send, sent);
        }
        if self.open_loop {
            self.late_us.push(us(send.saturating_duration_since(due)));
        }
        self.offered += 1;
        out.attempt(1);
        match result {
            Ok(seq) => {
                self.pending[u].push_back(Pending {
                    seq,
                    due,
                    arrival,
                    window: k,
                    span,
                    traced,
                });
                let shard = self.ids[u].0 as usize % self.order.len();
                self.order[shard].push_back((self.submitted, u, seq));
                self.submitted += 1;
                if !self.is_active[u] {
                    self.is_active[u] = true;
                    self.active.push(u);
                }
                self.in_flight += 1;
            }
            Err(e) => {
                out.tracer.finish(span, sent);
                if e.retry_after().is_some() {
                    self.refused += 1;
                    if !self.allow_refusals {
                        out.fail(format!("refused: {e}"));
                    }
                } else {
                    out.fail(format!("submit: {e}"));
                }
            }
        }
    }

    /// A `calibrate_session` write, issued once `due`.
    fn calibrate(&mut self, u: usize, due: Instant, arrival: u64, out: &mut Outcome) {
        self.wait_until(due, out);
        let persona = self.personas.of(u);
        let start = Instant::now();
        let result = self.fleet.calibrate_session(
            self.ids[u],
            self.personas.label[persona],
            &self.personas.windows(persona)[..2],
        );
        let end = Instant::now();
        out.tracer
            .record("fleet.calibrate_session", arrival, None, start, end);
        self.calibrate_us.push(us(end - start));
        self.late_us.push(us(start.saturating_duration_since(due)));
        self.calibrated[u] = true;
        out.attempt(1);
        if let Err(e) = result {
            out.fail(format!("calibrate session {u}: {e}"));
        }
    }

    fn since(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    fn handle(&mut self, u: usize, reply: FleetReply, seen: Instant, out: &mut Outcome) {
        let Some(p) = self.pending[u].pop_front() else {
            return out.fail(format!("unexpected reply for session {u}"));
        };
        self.in_flight -= 1;
        if reply.seq != p.seq {
            out.fail(format!(
                "session {u}: reply {} arrived for request {}",
                reply.seq, p.seq
            ));
        }
        out.tracer.finish(p.span, seen);
        match reply.outcome {
            Ok(pred) => {
                self.served += 1;
                self.completions.push(self.since(seen));
                if self.open_loop {
                    self.latency.push(us(seen - p.due));
                    self.latency_traced.push(p.traced);
                }
                let persona = self.personas.of(u);
                let tally = &mut self.per_persona[persona];
                tally.1 += 1;
                if pred.label == self.personas.label[persona] {
                    tally.0 += 1;
                }
                if sampled(self.seed, p.arrival) && self.samples.len() < MAX_REFERENCE {
                    self.samples.push(Sample {
                        session: u,
                        window: p.window,
                        label: pred.label,
                        confidence: pred.confidence.to_bits(),
                    });
                }
            }
            Err(msg) => out.fail(format!("serving error for session {u}: {msg}")),
        }
    }

    /// Collect the replies that have arrived: each shard's oldest
    /// requests in order, and every few milliseconds every waiting
    /// session, in case a reply overtook an older one.
    fn sweep(&mut self, out: &mut Outcome) {
        for s in 0..self.order.len() {
            while let Some((_, u)) = self.front(s) {
                match self.rx[u].try_recv() {
                    Ok(reply) => self.handle(u, reply, Instant::now(), out),
                    Err(_) => break,
                }
            }
        }
        let now = Instant::now();
        if now.duration_since(self.last_full_sweep) < FULL_SWEEP_EVERY {
            return;
        }
        self.last_full_sweep = now;
        let mut i = 0;
        while i < self.active.len() {
            let u = self.active[i];
            while !self.pending[u].is_empty() {
                match self.rx[u].try_recv() {
                    Ok(reply) => self.handle(u, reply, Instant::now(), out),
                    Err(_) => break,
                }
            }
            if self.pending[u].is_empty() {
                self.is_active[u] = false;
                self.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Shard `s`'s oldest outstanding request, as `(submission index,
    /// session)`; answered requests are dropped from the front.
    fn front(&mut self, s: usize) -> Option<(u64, usize)> {
        while let Some(&(idx, u, seq)) = self.order[s].front() {
            if self.pending[u].front().is_some_and(|p| p.seq == seq) {
                return Some((idx, u));
            }
            self.order[s].pop_front();
        }
        None
    }

    /// The session holding the oldest outstanding request.
    fn oldest(&mut self) -> Option<usize> {
        let shards = self.order.len();
        (0..shards)
            .filter_map(|s| self.front(s))
            .min_by_key(|&(idx, _)| idx)
            .map(|(_, u)| u)
    }

    /// Block on the oldest request's reply until it arrives or `until`
    /// passes, then sweep the other sessions. Returns `false` once
    /// nothing is outstanding. While latency is recorded the block lasts
    /// at most `SWEEP_EVERY`; in the closed loop it does not, so the
    /// generator thread wakes only when there is work for it.
    fn collect(&mut self, until: Instant, out: &mut Outcome) -> bool {
        let Some(u) = self.oldest() else {
            return false;
        };
        let mut wait = until.saturating_duration_since(Instant::now());
        if self.open_loop {
            wait = wait.min(SWEEP_EVERY);
        }
        match self.rx[u].recv_timeout(wait) {
            Ok(reply) => {
                self.handle(u, reply, Instant::now(), out);
                self.sweep(out);
            }
            Err(RecvTimeoutError::Timeout) => self.sweep(out),
            Err(RecvTimeoutError::Disconnected) => self.lose(u, "reply channel closed", out),
        }
        true
    }

    /// Collect replies until `until`.
    fn wait_until(&mut self, until: Instant, out: &mut Outcome) {
        loop {
            let now = Instant::now();
            if self.open_loop && now >= self.next_sample {
                self.inflight.push((
                    (now - self.origin).as_secs_f64(),
                    self.fleet.in_flight() as f64,
                ));
                self.next_sample = now + INFLIGHT_SAMPLE;
            }
            if now >= until {
                return;
            }
            if !self.collect(until, out) {
                std::thread::sleep(until - now);
            }
        }
    }

    /// Wait up to `DRAIN_TIMEOUT` for every outstanding reply; the rest
    /// are lost.
    fn drain(&mut self, out: &mut Outcome) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.in_flight > 0 && Instant::now() < deadline {
            if !self.collect(deadline, out) {
                break;
            }
        }
        for u in 0..self.pending.len() {
            self.lose(u, "reply lost", out);
        }
        self.order.iter_mut().for_each(VecDeque::clear);
        self.active.clear();
        self.is_active.iter_mut().for_each(|a| *a = false);
    }

    fn lose(&mut self, u: usize, why: &str, out: &mut Outcome) {
        while let Some(p) = self.pending[u].pop_front() {
            self.in_flight -= 1;
            out.fail(format!("{why}: session {u} request {}", p.seq));
        }
    }
}

/// Shard counters summed over shards.
#[derive(Default)]
struct Totals {
    accepted: u64,
    rejected: u64,
    windows: u64,
    batches: u64,
    max_batch: u64,
    drift_alerts: u64,
    auto_recals: u64,
    rehydrations: u64,
    paged: usize,
    resident_bytes: usize,
    /// Window-weighted mean of the shards' median service time.
    service_p50_us: f64,
}

fn totals(stats: &[ShardStats]) -> Totals {
    let mut t = Totals::default();
    let mut weighted = 0.0;
    for s in stats {
        t.accepted += s.accepted;
        t.rejected += s.rejected;
        t.windows += s.windows;
        t.batches += s.batches;
        t.max_batch = t.max_batch.max(s.max_batch);
        t.drift_alerts += s.drift_alerts;
        t.auto_recals += s.auto_recals;
        t.rehydrations += s.rehydrations;
        t.paged += s.paged_sessions;
        t.resident_bytes += s.resident_bytes;
        weighted += s.latency.p50_us * s.windows as f64;
    }
    t.service_p50_us = if t.windows > 0 {
        weighted / t.windows as f64
    } else {
        0.0
    };
    t
}

pub fn fleet_steady(run: &Run, out: &mut Outcome) -> Result<(), String> {
    fleet_workload(&STEADY, run, out)
}

pub fn fleet_overload(run: &Run, out: &mut Outcome) -> Result<(), String> {
    fleet_workload(&OVERLOAD, run, out)
}

pub fn fleet_cold(run: &Run, out: &mut Outcome) -> Result<(), String> {
    fleet_workload(&COLD, run, out)
}

fn fleet_workload(spec: &Spec, run: &Run, out: &mut Outcome) -> Result<(), String> {
    let sessions = run.scaled(spec.sessions, spec.sessions / 20);
    let open_s = run.seconds * spec.open_share;
    let corpus = cloud_corpus(run);
    let personas = Personas::new(run.seed, run.scaled(PERSONS, 2), 2);
    let schedule = arrivals(spec, sessions, open_s, run.seed);
    out.fact("rate_wps", Value::Float(spec.rate_wps));
    // Cold deltas spill to memory: no spool directory is set, so disk
    // behaviour is not measured.
    out.fact("spool", Value::Str("memory".into()));
    let ((bundle, built), setup_s) = timed_setup(run.setup_reps(), || {
        let bundle = pretrain(run, &corpus, spec.paper_backbone)?;
        let built = build(spec, sessions, &bundle, &personas)?;
        Ok((bundle, built))
    })?;
    out.set("setup_s", setup_s);
    out.set("store.register_us", median(&built.register_us));

    let rss_start = rss_mb("VmRSS");
    let mut d = LoadGen::new(&built, &personas, run.seed, !spec.roomy_admission);
    let start = Instant::now();
    d.origin = start;
    d.next_sample = start;
    for (i, a) in schedule.iter().enumerate() {
        let due = start + Duration::from_secs_f64(a.at_s);
        if a.write {
            d.calibrate(a.session, due, i as u64, out);
        } else {
            d.submit(a.session, due, i as u64, out.tracer.on() && i % 2 == 0, out);
        }
    }
    d.drain(out);
    let open = totals(&built.fleet.shard_stats());
    let (offered, served, refused) = (d.offered, d.served, d.refused);
    let dist = Dist::new(d.latency.clone());
    let late = Dist::new(d.late_us.clone());

    // Goodput under overload; otherwise the closed-loop capacity.
    let throughput = if spec.open_share < 1.0 {
        let wps = capacity_phase(&mut d, run, sessions, spec, schedule.len() as u64, out);
        out.set("capacity_wps", wps);
        let all = totals(&built.fleet.shard_stats());
        let windows = all.windows - open.windows;
        out.set(
            "capacity.mean_batch",
            windows as f64 / (all.batches - open.batches).max(1) as f64,
        );
        out.set(
            "capacity.hot_hit_rate",
            1.0 - (all.rehydrations - open.rehydrations) as f64 / windows.max(1) as f64,
        );
        wps
    } else {
        let wps = rate(&d.completions, open_s);
        out.set("goodput_wps", wps);
        wps
    };
    out.set("mem.rss_growth_mb", rss_mb("VmRSS") - rss_start);

    let lat_p50 = dist.median();
    out.set("latency_ms", lat_p50 / 1e3);
    out.set("throughput_per_s", throughput);
    // Personas weigh equally: Zipf popularity would otherwise let a few
    // users' styles decide it.
    out.set("accuracy", mean_rate(&d.per_persona));
    out.set("served_frac", served as f64 / offered.max(1) as f64);
    out.set("lat_p50_us", lat_p50);
    for (name, pct) in [("lat_p99", 99.0), ("lat_p999", 99.9)] {
        out.set(&format!("{name}_us"), dist.pct(pct));
        out.set(&format!("{name}_beyond"), dist.beyond(pct) as f64);
    }
    out.set("shed_frac", refused as f64 / offered.max(1) as f64);
    out.set("loadgen.late_p50_us", late.median());
    out.set("loadgen.late_p99_us", late.pct(99.0));
    out.set("loadgen.offered_per_s", schedule.len() as f64 / open_s);
    out.set("offered", offered as f64);
    out.set("served", served as f64);
    out.set("refused", refused as f64);
    out.set("store.calibrate_us", median(&d.calibrate_us));

    // Per-layer counters of the open-loop phase.
    out.set("core.update_epochs", 0.0);
    out.set("core.update_rollbacks", 0.0);
    out.set("core.heal_alerts", open.drift_alerts as f64);
    out.set("core.heal_recals", open.auto_recals as f64);
    out.set("serve.service_us", open.service_p50_us);
    out.set("serve.self_us", lat_p50 - open.service_p50_us);
    set_tail(out, "serve", &dist);
    out.set(
        "fleet.mean_batch",
        open.windows as f64 / open.batches.max(1) as f64,
    );
    out.set("fleet.max_batch", open.max_batch as f64);
    out.set("fleet.accepted", open.accepted as f64);
    out.set("fleet.rejected", open.rejected as f64);
    out.set(
        "fleet.inflight_max",
        d.inflight.iter().map(|p| p.1).fold(0.0, f64::max),
    );
    out.set("fleet.backlog_slope", slope(&d.inflight));
    out.set("store.rehydrations", open.rehydrations as f64);
    out.set(
        "store.hot_hit_rate",
        1.0 - open.rehydrations as f64 / open.windows.max(1) as f64,
    );
    out.set("store.paged_sessions", open.paged as f64);
    out.set(
        "store.resident_bytes_per_user",
        (open.resident_bytes + built.fleet.bases_resident_bytes()) as f64 / sessions as f64,
    );
    out.set(
        "trace.overhead_frac",
        median_excess(&d.latency, &d.latency_traced),
    );
    if out.tracer.on() {
        out.set(
            "fleet.submit_us",
            Dist::new(out.tracer.durations("fleet.submit")).median(),
        );
    }

    let mut reference = EdgeDevice::deploy(
        bundle.clone(),
        EdgeConfig {
            precision: spec.precision,
            ..EdgeConfig::default()
        },
    )
    .map_err(|e| format!("reference deploy: {e}"))?;
    reference_check(&d, &mut reference, out);
    if spec.calibrate_every > 0 {
        page_out_probe(&d, out);
    }
    out.set("core.ncm_rows", reference.state().ncm.num_rows() as f64);
    if out.tracer.on() {
        layer_replays(&reference, &personas, out)?;
    }
    Ok(())
}

/// Closed loop with `CLOSED_IN_FLIGHT` windows outstanding: windows
/// served per second.
fn capacity_phase(
    d: &mut LoadGen,
    run: &Run,
    sessions: usize,
    spec: &Spec,
    first_arrival: u64,
    out: &mut Outcome,
) -> f64 {
    d.open_loop = false;
    let zipf = Zipf::new(sessions, spec.zipf_s);
    let mut rng = SeededRng::new(run.seed ^ 0xC10_5ED);
    let duration = run.measure().mul_f64(1.0 - spec.open_share);
    let start = Instant::now();
    let end = start + duration;
    d.origin = start;
    d.completions.clear();
    let mut arrival = first_arrival;
    while Instant::now() < end {
        while d.in_flight < CLOSED_IN_FLIGHT && Instant::now() < end {
            d.submit(zipf.sample(&mut rng), Instant::now(), arrival, false, out);
            arrival += 1;
        }
        d.collect(end, out);
    }
    d.drain(out);
    rate(&d.completions, duration.as_secs_f64())
}

/// Replies per second within the first `span` seconds of a phase, from
/// their times into it.
fn rate(completions: &[f64], span: f64) -> f64 {
    completions.iter().filter(|&&t| t < span).count() as f64 / span
}

/// Re-serve the sampled windows of never-calibrated sessions through an
/// `EdgeDevice` deployed from the same bundle at the same precision:
/// label and confidence must be bit-identical.
fn reference_check(d: &LoadGen, reference: &mut EdgeDevice, out: &mut Outcome) {
    let mut healed: HashMap<usize, bool> = HashMap::new();
    let mut checked = 0;
    for s in &d.samples {
        if d.calibrated[s.session] {
            continue;
        }
        // A self-healing recalibration personalises the session: it no
        // longer serves the base classifier.
        let recalibrated = *healed.entry(s.session).or_insert_with(|| {
            d.fleet
                .session_healing_stats(d.ids[s.session])
                .ok()
                .flatten()
                .is_some_and(|h| h.auto_recals > 0)
        });
        if recalibrated {
            continue;
        }
        let window = d.personas.window(d.personas.of(s.session), s.window);
        checked += 1;
        match reference.infer_window(window) {
            Ok(p) => out.check(
                p.label == s.label && p.confidence.to_bits() == s.confidence,
                || {
                    format!(
                        "session {} window {}: fleet served {} ({:#x}), reference {} ({:#x})",
                        s.session,
                        s.window,
                        s.label,
                        s.confidence,
                        p.label,
                        p.confidence.to_bits()
                    )
                },
            ),
            Err(e) => out.check(false, || format!("reference inference: {e}")),
        }
    }
    out.set("reference_checks", f64::from(checked));
}

/// Page out a personalised session and serve the same window again:
/// the rehydrated session must give bit-identical distances.
fn page_out_probe(d: &LoadGen, out: &mut Outcome) {
    let Some(u) = d.calibrated.iter().position(|&c| c) else {
        return out.check(false, || "no calibrated session to probe".into());
    };
    let window = d.personas.window(d.personas.of(u), 0);
    let serve = || -> Result<magneto_core::Prediction, String> {
        d.fleet
            .submit(d.ids[u], window.clone())
            .map_err(|e| e.to_string())?;
        d.rx[u]
            .recv_timeout(DRAIN_TIMEOUT)
            .map_err(|e| e.to_string())?
            .outcome
    };
    let probe = || -> Result<(), String> {
        let before = serve()?;
        if !d.fleet.page_out(d.ids[u]).map_err(|e| e.to_string())? {
            return Err("session was not hot before page-out".to_string());
        }
        let after = serve()?;
        let bits = |p: &magneto_core::Prediction| -> Vec<u32> {
            p.distances.iter().map(|x| x.to_bits()).collect()
        };
        if before.label != after.label || bits(&before) != bits(&after) {
            return Err(format!(
                "rehydrated session served {} {:?}, before {} {:?}",
                after.label, after.distances, before.label, before.distances
            ));
        }
        Ok(())
    };
    let result = probe();
    out.check(result.is_ok(), || {
        format!("page-out probe on session {u}: {}", result.unwrap_err())
    });
}

/// Stage and batched-embed replays on the workload's windows through
/// the reference device (same bundle, same precision as the fleet).
fn layer_replays(
    reference: &EdgeDevice,
    personas: &Personas,
    out: &mut Outcome,
) -> Result<(), String> {
    let view = reference.inference_view();
    let mut scratch = Scratch::default();
    let windows = &personas.windows;
    for pass in 0..4u64 {
        for (i, w) in windows.iter().enumerate().take(64) {
            replay::stages(
                &view,
                w,
                &mut out.tracer,
                pass << 32 | i as u64,
                None,
                &mut scratch,
            )?;
        }
    }
    replay::stage_metrics(view.model, out);
    replay::embed_batches(&view, windows, out)
}
