//! Golden digests of the model at both precisions.
//!
//! Three things are pinned by FNV-1a digests, so a change to how a
//! network holds or runs its weights cannot move a bit unnoticed:
//!
//! * the seeded paper backbone's f32 and int8 embeddings of a fixed
//!   64-row input, on every backend the host can run
//!   (`Backend::candidates`) at pool sizes 0/1/2/8;
//! * the `MGNN` wire bytes of that backbone;
//! * the int8 wire bytes of a fast-demo int8 device after one on-device
//!   update, which runs the dequantise → train → requantise path.
//!
//! The digests were taken before `Dense` held either precision, when
//! int8 was a separate family of network types; folding the two into
//! one type moves no bit.
//!
//! The f32 digests are of an FMA build: without FMA the scalar `fma`
//! helper rounds twice and the f32 bits differ. The int8 embeddings
//! hold on every build.

use magneto_core::{CloudConfig, CloudInitializer, EdgeConfig, EdgeDevice, Precision};
use magneto_nn::serialize::encode_mlp;
use magneto_nn::Mlp;
use magneto_sensors::{ActivityKind, GeneratorConfig, PersonProfile, SensorDataset};
use magneto_tensor::{Backend, Exec, KernelPlan, Matrix, SeededRng, Workspace};

const POOL_WORKERS: [usize; 4] = [0, 1, 2, 8];

/// FNV-1a 64-bit over a byte stream.
fn fnv1a64<'a>(bytes: impl IntoIterator<Item = &'a u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn matrix_digest(m: &Matrix) -> u64 {
    let bytes: Vec<u8> = m.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

fn backbone() -> Mlp {
    Mlp::paper_backbone(&mut SeededRng::new(27)).unwrap()
}

fn input() -> Matrix {
    let mut rng = SeededRng::new(28);
    let data = (0..64 * 80).map(|_| rng.uniform(-2.0, 2.0)).collect();
    Matrix::from_vec(64, 80, data).unwrap()
}

fn workspace(backend: Backend, workers: usize) -> Workspace {
    let exec = Exec::from_plan(KernelPlan {
        threads: workers + 1,
        par_min_rows: 1,
        ..KernelPlan::inline().with_backend(backend)
    });
    assert_eq!(exec.backend(), backend, "candidates are available");
    Workspace::with_exec(exec)
}

/// Digests of the backbone's `(f32, int8)` embeddings of [`input`] on
/// one backend and pool size.
fn embedding_digests(backend: Backend, workers: usize) -> (u64, u64) {
    let net = backbone();
    let x = input();
    let mut ws = workspace(backend, workers);
    let mut out = Matrix::default();
    net.forward_into(&x, &mut out, &mut ws).unwrap();
    let f32_digest = matrix_digest(&out);
    let q = net.into_precision(Precision::Int8).unwrap();
    q.forward_into(&x, &mut out, &mut ws).unwrap();
    (f32_digest, matrix_digest(&out))
}

#[test]
fn embeddings_match_their_digests_on_every_backend_and_pool_size() {
    for backend in Backend::candidates() {
        for workers in POOL_WORKERS {
            let (f32_digest, int8_digest) = embedding_digests(backend, workers);
            let what = format!("{backend}, {workers} workers");
            assert_eq!(int8_digest, 0x01b6_e08e_4305_723c, "int8: {what}");
            if cfg!(target_feature = "fma") {
                assert_eq!(f32_digest, 0xe54e_c805_ade8_4525, "f32: {what}");
            }
        }
    }
}

#[test]
fn f32_wire_bytes_match_their_digest() {
    let bytes = encode_mlp(&backbone());
    assert_eq!(bytes.len(), 2_760_013);
    assert_eq!(fnv1a64(&bytes), 0x5a50_dcaa_02ef_fc53);
}

#[test]
fn int8_device_bundle_after_an_update_matches_its_digest() {
    if !cfg!(target_feature = "fma") {
        eprintln!("skipping: the digest is of an FMA build");
        return;
    }
    let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 29);
    let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
        .pretrain(&corpus)
        .unwrap();
    let config = EdgeConfig {
        precision: Precision::Int8,
        ..EdgeConfig::default()
    };
    let mut device = EdgeDevice::deploy(bundle, config).unwrap();
    let recording = SensorDataset::record_session(
        "gesture_hi",
        ActivityKind::GestureHi,
        PersonProfile::nominal(),
        25.0,
        30,
    );
    device
        .learn_new_activity("gesture_hi", &recording)
        .unwrap()
        .committed()
        .unwrap();
    assert_eq!(device.precision(), Precision::Int8);
    let bytes = device.as_bundle().to_bytes(true);
    assert_eq!(bytes.len(), 136_537);
    assert_eq!(fnv1a64(&bytes), 0xc7dd_6c27_6db1_3a62);
}
