//! Fleet serving: 64 simulated users, each with their own personalised
//! edge session, streaming sensor windows into a shared micro-batching
//! runtime — the ROADMAP's "production-scale system" sketched on one
//! machine.
//!
//! One Cloud bundle is registered once as a shared base and 64 sessions
//! are deployed from it; a quarter of the users then calibrate their
//! session on a short personal recording through the fleet's own
//! calibration path. The user's prototype lands in their personal delta
//! (nothing uploaded) and the backbone stays shared, so calibrated
//! sessions keep their key and keep batching with the stock ones.
//! Producer threads submit traffic
//! concurrently with retry-on-backpressure; worker threads coalesce
//! pending windows across sessions into single backbone forwards. The
//! run ends with the per-shard serving table and the fleet energy
//! ledger.
//!
//! ```sh
//! cargo run --release --example fleet_serving
//! ```

use magneto::prelude::*;
use magneto::sensors::pool::StreamPool;
use magneto::sensors::stream::StreamConfig;
use std::time::{Duration, Instant};

const USERS: usize = 64;
const ROUNDS: usize = 12;
const CALIBRATED_EVERY: usize = 4; // users 0, 4, 8, … calibrate

fn submit_retrying(fleet: &Fleet, id: SessionId, window: &[Vec<f32>]) {
    loop {
        match fleet.submit(id, window.to_vec()) {
            Ok(_) => return,
            Err(e) => match e.retry_after() {
                Some(wait) => std::thread::sleep(wait),
                None => panic!("submit failed: {e}"),
            },
        }
    }
}

fn main() {
    println!("== MAGNETO fleet serving: {USERS} users, one runtime ==\n");

    println!("[cloud] pre-training the shared bundle…");
    let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 42);
    let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
        .pretrain(&corpus)
        .unwrap();
    let bundle_bytes = bundle.to_bytes(false).len();
    let backbone_dims = bundle.model.dims();
    let classes = bundle.registry.labels().len();

    // The population: distinct sampled person styles, base activities
    // cycled across users, deterministic traffic given the seed.
    let mut pool = StreamPool::new(USERS, &ActivityKind::BASE_FIVE, 120, StreamConfig::ideal(), 7);

    let fleet = Fleet::new(FleetConfig {
        shards: 8,
        workers: 4,
        ..FleetConfig::default()
    })
    .unwrap();
    println!(
        "[fleet] compute (shared across workers): {}",
        fleet.compute_plan().describe()
    );
    let key = fleet.register_base(&bundle, Precision::F32).unwrap();

    println!("[edge] deploying {USERS} sessions ({bundle_bytes} bytes each)…");
    let mut accounting =
        FleetAccounting::new(EnergyModel::lte_phone(), &backbone_dims, classes, 22, 120);
    let sessions: Vec<_> = (0..USERS)
        .map(|_| {
            accounting.record_deploy(bundle_bytes);
            fleet.register_from_base(key, Precision::F32).unwrap()
        })
        .collect();

    println!("[edge] calibrating every {CALIBRATED_EVERY}th user on a personal recording…");
    let calib_start = Instant::now();
    let mut calibrated = 0;
    for u in (0..USERS).step_by(CALIBRATED_EVERY) {
        let recording = SensorDataset::record_session(
            pool.activity(u).label(),
            pool.activity(u),
            *pool.person(u),
            10.0,
            1000 + u as u64,
        );
        let windows: Vec<Vec<Vec<f32>>> =
            recording.windows.into_iter().map(|w| w.channels).collect();
        fleet
            .calibrate_session(sessions[u].0, pool.activity(u).label(), &windows)
            .unwrap();
        assert_eq!(fleet.session_key(sessions[u].0).unwrap(), key);
        calibrated += 1;
    }
    println!(
        "        {calibrated} sessions calibrated in {:.1}s, still on the shared key\n",
        calib_start.elapsed().as_secs_f64()
    );

    // Pre-render the traffic so producer threads only submit.
    let mut traffic: Vec<Vec<Vec<Vec<f32>>>> = (0..USERS).map(|_| Vec::new()).collect();
    for _ in 0..ROUNDS {
        for (u, w) in pool.next_round().into_iter().enumerate() {
            traffic[u].push(w);
        }
    }

    println!("[serve] {} windows from 4 producer threads…", USERS * ROUNDS);
    let ids: Vec<SessionId> = sessions.iter().map(|(id, _)| *id).collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for chunk in 0..4 {
            let fleet = &fleet;
            let ids = &ids;
            let traffic = &traffic;
            s.spawn(move || {
                let users = (chunk * USERS / 4)..((chunk + 1) * USERS / 4);
                for r in 0..ROUNDS {
                    for (&id, rounds) in ids[users.clone()].iter().zip(&traffic[users.clone()]) {
                        submit_retrying(fleet, id, &rounds[r]);
                    }
                }
            });
        }
    });
    assert!(fleet.wait_idle(Duration::from_secs(120)), "fleet stalled");
    let elapsed = start.elapsed();

    let mut served = 0usize;
    for (_, rx) in &sessions {
        served += rx.try_iter().filter(|r| r.outcome.is_ok()).count();
    }
    println!(
        "        {served} windows served in {:.2}s → {:.0} windows/s\n",
        elapsed.as_secs_f64(),
        served as f64 / elapsed.as_secs_f64()
    );

    println!("shard  sessions  accepted  rejected  batches  mean  max   p50µs   p99µs");
    let mut total_rejected = 0;
    for stat in fleet.shard_stats() {
        total_rejected += stat.rejected;
        accounting.record_served(stat.windows, stat.batches);
        println!(
            "{:>5}  {:>8}  {:>8}  {:>8}  {:>7}  {:>4.1}  {:>3}  {:>6.0}  {:>6.0}",
            stat.shard,
            stat.sessions,
            stat.accepted,
            stat.rejected,
            stat.batches,
            stat.mean_batch(),
            stat.max_batch,
            stat.latency.p50_us,
            stat.latency.p99_us,
        );
    }
    println!("\n        {total_rejected} submissions rejected by backpressure (and retried)");

    let report = accounting.report();
    println!("\n[energy] fleet ledger over LTE ({USERS} deploys + {served} served windows):");
    println!("         total            {:>10.3} J", report.total_joules);
    println!("         per window       {:>10.6} J", report.joules_per_window);
    println!("         mean batch size  {:>10.2} windows", report.mean_batch_size);
    println!(
        "         cloud equivalent {:>10.3} J (every raw window radioed up)",
        report.cloud_equivalent_joules
    );

    fleet.shutdown();
    println!("\nEvery byte of user data stayed on its own session. Fin.");
}
