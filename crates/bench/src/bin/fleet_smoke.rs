//! Fleet serving smoke test (wired into `make check`): a 4-worker fleet
//! serves 16 concurrent sessions on one shared base. One user's device
//! learns a private activity on-device and re-enters the fleet on a
//! private base built from its own snapshot, replacing its old session.
//! Asserts (1) nonzero end-to-end throughput and
//! (2) zero cross-session label leaks — no session other than the learner
//! ever sees the private class in a reply, and every reply's prototype
//! count matches its own session's class list.

use magneto_core::{CloudConfig, CloudInitializer, EdgeConfig, EdgeDevice, Precision};
use magneto_fleet::{Fleet, FleetConfig};
use magneto_sensors::pool::StreamPool;
use magneto_sensors::stream::StreamConfig;
use magneto_sensors::{ActivityKind, GeneratorConfig, PersonProfile, SensorDataset};
use std::time::{Duration, Instant};

const USERS: usize = 16;
const ROUNDS: usize = 8;
const PRIVATE_LABEL: &str = "user3_private_gesture";
const LEARNER: usize = 3;

fn main() {
    let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 5);
    let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
        .pretrain(&corpus)
        .unwrap();
    let base_classes = bundle.registry.labels().len();

    let fleet = Fleet::new(FleetConfig {
        workers: 4,
        shards: 4,
        ..FleetConfig::default()
    })
    .unwrap();
    let key = fleet.register_base(&bundle, Precision::F32).unwrap();
    let mut sessions: Vec<_> = (0..USERS)
        .map(|_| fleet.register_from_base(key, Precision::F32).unwrap())
        .collect();

    // One user personalises: their device learns a private gesture
    // on-device, re-enters the fleet on a private base built from its own
    // snapshot, and the old session is deregistered. The snapshot's
    // content key differs from the shared one, so it never batches with
    // the stock sessions.
    let recording = SensorDataset::record_session(
        PRIVATE_LABEL,
        ActivityKind::GestureHi,
        PersonProfile::nominal(),
        25.0,
        17,
    );
    let mut device = EdgeDevice::deploy(bundle.clone(), EdgeConfig::default()).unwrap();
    device
        .learn_new_activity(PRIVATE_LABEL, &recording)
        .unwrap()
        .committed()
        .unwrap();
    let learner = fleet.register(&device.as_bundle(), Precision::F32).unwrap();
    let (old, _) = std::mem::replace(&mut sessions[LEARNER], learner);
    fleet.deregister(old).unwrap();
    assert_ne!(fleet.session_key(sessions[LEARNER].0).unwrap(), key);
    assert_eq!(fleet.num_bases(), 1, "a private base entered the shared map");

    let mut pool = StreamPool::new(USERS, &ActivityKind::BASE_FIVE, 120, StreamConfig::ideal(), 2);
    let start = Instant::now();
    let mut submitted = 0u64;
    for _ in 0..ROUNDS {
        for (u, window) in pool.next_round().into_iter().enumerate() {
            loop {
                match fleet.submit(sessions[u].0, window.clone()) {
                    Ok(_) => break,
                    Err(e) => {
                        let retry = e.retry_after().unwrap_or_else(|| {
                            panic!("fleet_smoke: non-backpressure submit error: {e}")
                        });
                        std::thread::sleep(retry);
                    }
                }
            }
            submitted += 1;
        }
    }
    assert!(
        fleet.wait_idle(Duration::from_secs(60)),
        "fleet_smoke: queues did not drain"
    );
    let elapsed = start.elapsed();

    let mut served = 0u64;
    let mut leaks = 0u64;
    for (u, (_, rx)) in sessions.iter().enumerate() {
        let expected_protos = if u == LEARNER {
            base_classes + 1
        } else {
            base_classes
        };
        let mut last_seq = None;
        for reply in rx.try_iter() {
            let pred = reply.outcome.expect("inference failed in smoke run");
            served += 1;
            if u != LEARNER && (pred.label == PRIVATE_LABEL || pred.distances.len() != expected_protos)
            {
                leaks += 1;
            }
            if u == LEARNER {
                assert_eq!(pred.distances.len(), expected_protos);
            }
            // Replies arrive in per-session FIFO order.
            assert!(last_seq.is_none_or(|s| reply.seq > s), "seq order violated");
            last_seq = Some(reply.seq);
        }
    }

    assert_eq!(served, submitted, "lost {} windows", submitted - served);
    assert_eq!(leaks, 0, "cross-session label leaks detected");
    let throughput = served as f64 / elapsed.as_secs_f64();
    assert!(throughput > 0.0, "zero throughput");

    let stats = fleet.shard_stats();
    let rejected: u64 = stats.iter().map(|s| s.rejected).sum();
    let batches: u64 = stats.iter().map(|s| s.batches).sum();
    println!(
        "fleet_smoke OK: {served} windows / {:.2}s = {throughput:.0} windows/s, \
         {batches} micro-batches, {rejected} rejections, 0 label leaks across {USERS} sessions",
        elapsed.as_secs_f64()
    );
    fleet.shutdown();
}
