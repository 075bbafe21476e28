//! Tiered-store scale smoke (wired into `make check`): drive thousands
//! of base+delta sessions — default 10k, `--sessions 100000` for the
//! full bench — through one shared base with Zipf-distributed user
//! popularity, and gate on the tiering contract:
//!
//! 1. resident bytes per user ≤ 0.5× the naive full-resident
//!    per-session footprint (one `EdgeDevice` per user);
//! 2. a paged-out → rehydrated session serves bit-identical
//!    predictions;
//! 3. personalized sessions keep the shared model key (they stay
//!    batchable with base peers);
//! 4. no window lost, nonzero throughput.
//!
//! Emits machine-readable `BENCH_fleet_scale.json` with throughput, p99
//! latency, hot-tier hit rate, and resident-bytes-per-user.

use magneto_core::{CloudConfig, CloudInitializer, EdgeConfig, EdgeDevice, Precision};
use magneto_fleet::{Fleet, FleetConfig, SessionId};
use magneto_sensors::pool::StreamPool;
use magneto_sensors::stream::StreamConfig;
use magneto_sensors::{ActivityKind, GeneratorConfig, SensorDataset};
use magneto_tensor::SeededRng;
use serde::Serialize;
use std::time::{Duration, Instant};

const ZIPF_S: f64 = 1.1;
const CALIBRATE_EVERY: usize = 50; // ~2% of users personalize
const HOT_CAPACITY_PER_SHARD: usize = 512;

#[derive(Serialize)]
struct Report {
    sessions: usize,
    arrivals: usize,
    served: u64,
    throughput_wps: f64,
    p99_latency_us: f64,
    hot_hit_rate: f64,
    rehydrations: u64,
    hot_sessions: usize,
    paged_sessions: usize,
    session_resident_bytes: usize,
    bases_resident_bytes: usize,
    resident_bytes_per_user: f64,
    naive_bytes_per_user: usize,
    resident_vs_naive: f64,
}

fn arg(name: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{name} takes an integer")))
}

/// Inverse-CDF sampler over ranks weighted `1/rank^s` — the classic
/// Zipf popularity curve: a few users produce most of the traffic, the
/// long tail sleeps (and pages out).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SeededRng) -> usize {
        let u = f64::from(rng.uniform(0.0, 1.0));
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn submit_retrying(fleet: &Fleet, id: SessionId, window: &[Vec<f32>]) {
    loop {
        match fleet.submit(id, window.to_vec()) {
            Ok(_) => return,
            Err(e) => {
                let retry = e
                    .retry_after()
                    .unwrap_or_else(|| panic!("fleet_scale_smoke: submit failed: {e}"));
                std::thread::sleep(retry);
            }
        }
    }
}

fn main() {
    let sessions = arg("--sessions").unwrap_or(10_000) as usize;
    let arrivals = arg("--arrivals").unwrap_or(20_000) as usize;
    let seed = arg("--seed").unwrap_or(42);

    let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 5);
    let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
        .pretrain(&corpus)
        .unwrap();
    // The baseline the tier must beat: every user fully resident.
    let naive_per_user = EdgeDevice::deploy(bundle.clone(), EdgeConfig::default())
        .unwrap()
        .resident_bytes();

    let fleet = Fleet::new(FleetConfig {
        workers: 4,
        shards: 4,
        hot_delta_capacity: HOT_CAPACITY_PER_SHARD,
        ..FleetConfig::default()
    })
    .unwrap();
    let spool = std::env::temp_dir().join(format!("magneto_fleet_spool_{}", std::process::id()));
    fleet.set_spool_dir(&spool).unwrap();

    let key = fleet.register_base(&bundle, Precision::F32).unwrap();

    let setup_start = Instant::now();
    let mut ids = Vec::with_capacity(sessions);
    let mut receivers = Vec::with_capacity(sessions);
    for _ in 0..sessions {
        let (id, rx) = fleet.register_from_base(key, Precision::F32).unwrap();
        ids.push(id);
        receivers.push(rx);
    }

    // A small pool of distinct sensor windows reused across arrivals —
    // arrival *pattern* is what this smoke stresses, not signal variety.
    let mut pool = StreamPool::new(8, &ActivityKind::BASE_FIVE, 120, StreamConfig::ideal(), seed);
    let window_pool: Vec<Vec<Vec<f32>>> = pool.next_round();
    let calib_windows: Vec<Vec<Vec<f32>>> = pool.next_round();

    // ~2% of users personalize. Their sessions must keep the shared key
    // — personalization overlays the classifier, never the backbone.
    let mut calibrated = 0usize;
    for i in (0..sessions).step_by(CALIBRATE_EVERY) {
        fleet
            .calibrate_session(ids[i], "user_move", &calib_windows[..2])
            .unwrap();
        let k = fleet.session_key(ids[i]).unwrap();
        assert_eq!(k, key, "calibration forked the shared key");
        calibrated += 1;
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    // Zipf-distributed synthetic arrival trace.
    let zipf = Zipf::new(sessions, ZIPF_S);
    let mut rng = SeededRng::new(seed);
    let start = Instant::now();
    for a in 0..arrivals {
        let user = zipf.sample(&mut rng);
        let window = &window_pool[a % window_pool.len()];
        submit_retrying(&fleet, ids[user], window);
    }
    assert!(
        fleet.wait_idle(Duration::from_secs(300)),
        "fleet_scale_smoke: queues did not drain"
    );
    let elapsed = start.elapsed();

    let mut served = 0u64;
    for rx in &receivers {
        for reply in rx.try_iter() {
            reply.outcome.expect("serving error in scale smoke");
            served += 1;
        }
    }
    assert_eq!(served as usize, arrivals, "lost windows");
    let throughput = served as f64 / elapsed.as_secs_f64();
    assert!(throughput > 0.0);

    // Gate: evict → rehydrate is bit-identical, on a *personalized*
    // session (the delta and its overlay must survive the round trip).
    let probe_id = ids[0];
    let probe = &window_pool[0];
    for _ in receivers[0].try_iter() {}
    submit_retrying(&fleet, probe_id, probe);
    assert!(fleet.wait_idle(Duration::from_secs(60)));
    let before = receivers[0]
        .recv_timeout(Duration::from_secs(30))
        .unwrap()
        .outcome
        .unwrap();
    fleet.page_out(probe_id).unwrap();
    submit_retrying(&fleet, probe_id, probe);
    assert!(fleet.wait_idle(Duration::from_secs(60)));
    let after = receivers[0]
        .recv_timeout(Duration::from_secs(30))
        .unwrap()
        .outcome
        .unwrap();
    assert_eq!(before.label, after.label);
    assert_eq!(
        before.confidence.to_bits(),
        after.confidence.to_bits(),
        "rehydrated session not bit-identical"
    );
    assert_eq!(before.distances.len(), after.distances.len());
    for (x, y) in before.distances.iter().zip(&after.distances) {
        assert_eq!(x.to_bits(), y.to_bits(), "rehydrated distances differ");
    }

    let stats = fleet.shard_stats();
    let session_bytes: usize = stats.iter().map(|s| s.resident_bytes).sum();
    let hot: usize = stats.iter().map(|s| s.hot_sessions).sum();
    let paged: usize = stats.iter().map(|s| s.paged_sessions).sum();
    let rehydrations: u64 = stats.iter().map(|s| s.rehydrations).sum();
    let p99 = stats
        .iter()
        .map(|s| s.latency.p99_us)
        .fold(0.0_f64, f64::max);
    let bases_bytes = fleet.bases_resident_bytes();
    let per_user = (session_bytes + bases_bytes) as f64 / sessions as f64;
    let ratio = per_user / naive_per_user as f64;
    // A submit to a hot session is a hit; each rehydration marks one
    // cold arrival.
    let hit_rate = 1.0 - rehydrations as f64 / served as f64;

    // Gate: the tier's whole point. Shared base + compact deltas must
    // undercut half of the naive per-session footprint.
    assert!(
        ratio <= 0.5,
        "resident bytes/user {per_user:.0} is {ratio:.2}x naive ({naive_per_user}); gate is 0.5x"
    );

    let report = Report {
        sessions,
        arrivals,
        served,
        throughput_wps: throughput,
        p99_latency_us: p99,
        hot_hit_rate: hit_rate,
        rehydrations,
        hot_sessions: hot,
        paged_sessions: paged,
        session_resident_bytes: session_bytes,
        bases_resident_bytes: bases_bytes,
        resident_bytes_per_user: per_user,
        naive_bytes_per_user: naive_per_user,
        resident_vs_naive: ratio,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_fleet_scale.json", json).expect("write report");

    println!(
        "fleet_scale_smoke OK: {sessions} sessions ({calibrated} personalized, setup {setup_s:.1}s), \
         {served} windows / {:.2}s = {throughput:.0} w/s, p99 {p99:.0}us, \
         hit rate {:.3}, {hot} hot / {paged} paged, \
         {per_user:.0} B/user vs naive {naive_per_user} B ({:.4}x) -> BENCH_fleet_scale.json",
        elapsed.as_secs_f64(),
        hit_rate,
        ratio
    );
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}
