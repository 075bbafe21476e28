//! Fleet serving throughput (ISSUE 2 acceptance): windows/sec of the
//! micro-batching fleet runtime versus driving the same N devices
//! sequentially on one thread through the per-window API. The fleet's
//! edge is cross-session batch coalescing — every drain feeds one
//! `(batch, 80)` matmul chain instead of N per-sample forwards — so the
//! paper-scale backbone is used to reflect the deployed model.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use magneto_core::{CloudConfig, CloudInitializer, EdgeBundle, EdgeConfig, EdgeDevice, Precision};
use magneto_fleet::{Fleet, FleetConfig, SessionId};
use magneto_sensors::pool::StreamPool;
use magneto_sensors::stream::StreamConfig;
use magneto_sensors::{ActivityKind, GeneratorConfig, SensorDataset};
use std::sync::mpsc::Receiver;
use std::time::Duration;

const USERS: usize = 16;
const ROUNDS: usize = 4;

fn pretrained_bundle() -> EdgeBundle {
    let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 1);
    let mut cfg = CloudConfig::fast_demo();
    // Deployed-scale backbone; convergence is irrelevant to throughput,
    // so a single cheap epoch keeps bench start-up fast.
    cfg.backbone_dims = magneto_nn::PAPER_BACKBONE.to_vec();
    cfg.trainer.epochs = 1;
    cfg.trainer.pairs_per_epoch = 64;
    let (bundle, _) = CloudInitializer::new(cfg).pretrain(&corpus).unwrap();
    bundle
}

/// `ROUNDS` windows per user, user-major: `windows[u][r]`.
fn streamed_windows() -> Vec<Vec<Vec<Vec<f32>>>> {
    let mut pool = StreamPool::new(USERS, &ActivityKind::BASE_FIVE, 120, StreamConfig::ideal(), 3);
    let mut per_user: Vec<Vec<Vec<Vec<f32>>>> = (0..USERS).map(|_| Vec::new()).collect();
    for _ in 0..ROUNDS {
        for (u, w) in pool.next_round().into_iter().enumerate() {
            per_user[u].push(w);
        }
    }
    per_user
}

fn register_fleet(
    fleet: &Fleet,
    bundle: &EdgeBundle,
) -> Vec<(SessionId, Receiver<magneto_fleet::FleetReply>)> {
    (0..USERS)
        .map(|_| fleet.register(bundle, Precision::F32).unwrap())
        .collect()
}

fn drive_fleet(
    fleet: &Fleet,
    sessions: &[(SessionId, Receiver<magneto_fleet::FleetReply>)],
    windows: &[Vec<Vec<Vec<f32>>>],
) -> usize {
    for r in 0..ROUNDS {
        for ((id, _), rounds) in sessions.iter().zip(windows) {
            fleet.submit(*id, rounds[r].clone()).unwrap();
        }
    }
    let mut served = 0;
    assert!(fleet.wait_idle(Duration::from_secs(30)), "fleet stalled");
    for (_, rx) in sessions {
        served += rx.try_iter().filter(|r| r.outcome.is_ok()).count();
    }
    served
}

fn bench_fleet_vs_sequential(c: &mut Criterion) {
    let bundle = pretrained_bundle();
    let windows = streamed_windows();
    let mut group = c.benchmark_group("fleet_throughput_64_windows");

    // Baseline: one thread drives each device through the per-window API.
    let mut devices: Vec<EdgeDevice> = (0..USERS)
        .map(|_| EdgeDevice::deploy(bundle.clone(), EdgeConfig::default()).unwrap())
        .collect();
    group.bench_function("sequential_16_devices", |b| {
        b.iter(|| {
            let mut served = 0;
            for r in 0..ROUNDS {
                for (dev, rounds) in devices.iter_mut().zip(&windows) {
                    black_box(dev.infer_window(&rounds[r]).unwrap());
                    served += 1;
                }
            }
            served
        })
    });

    // Deterministic caller-driven fleet: one shard, drained inline, so
    // every pump coalesces all 64 pending windows into one batch.
    let mut pump_fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
    let pump_sessions = register_fleet(&pump_fleet, &bundle);
    group.bench_function("fleet_pump_1_shard", |b| {
        b.iter(|| {
            for r in 0..ROUNDS {
                for ((id, _), rounds) in pump_sessions.iter().zip(&windows) {
                    pump_fleet.submit(*id, rounds[r].clone()).unwrap();
                }
            }
            black_box(pump_fleet.pump());
            let mut served = 0;
            for (_, rx) in &pump_sessions {
                served += rx.try_iter().filter(|r| r.outcome.is_ok()).count();
            }
            assert_eq!(served, USERS * ROUNDS);
            served
        })
    });

    // Threaded fleet: 4 worker threads over 4 shards (16 windows per
    // shard per burst), replies collected after the queues drain.
    let threaded_fleet = Fleet::new(FleetConfig {
        shards: 4,
        workers: 4,
        ..FleetConfig::default()
    })
    .unwrap();
    let threaded_sessions = register_fleet(&threaded_fleet, &bundle);
    group.bench_function("fleet_4_workers_4_shards", |b| {
        b.iter(|| {
            let served = drive_fleet(&threaded_fleet, &threaded_sessions, &windows);
            assert_eq!(served, USERS * ROUNDS);
            black_box(served)
        })
    });

    group.finish();
    threaded_fleet.shutdown();
}

criterion_group!(benches, bench_fleet_vs_sequential);
criterion_main!(benches);
