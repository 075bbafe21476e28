//! The two HAR deployment protocols of Figure 1.
//!
//! *Cloud-based* (left of the figure): the Edge device captures a window
//! and ships the raw samples to a Cloud classifier; a label comes back.
//! Constant Edge↔Cloud traffic, latency dominated by the link, and every
//! window of user data leaves the device.
//!
//! *Edge-based* (right, MAGNETO): the only transfer ever is the initial
//! Cloud→Edge bundle; inference and learning run locally.
//!
//! Both protocols use the *same* trained model so the comparison isolates
//! deployment: latency, uplink bytes (privacy) and energy.

use crate::device::DeviceModel;
use crate::energy::EnergyModel;
use crate::flops;
use crate::network::NetworkLink;
use magneto_core::ncm::NcmClassifier;
use magneto_core::privacy::PrivacyLedger;
use magneto_core::{CoreError, Result};
use magneto_dsp::PreprocessingPipeline;
use magneto_nn::SiameseNetwork;
use magneto_tensor::SeededRng;
use std::time::Duration;

/// Size of the classification response message (label id + confidence +
/// framing).
const RESPONSE_BYTES: usize = 64;

/// Outcome of one protocol inference.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolOutcome {
    /// Predicted activity label.
    pub label: String,
    /// Classifier confidence.
    pub confidence: f32,
    /// End-to-end latency as experienced by the user.
    pub latency: Duration,
    /// Bytes of user data that left the device for this inference.
    pub uplink_bytes: usize,
    /// Device-side energy consumed (compute + radio), joules.
    pub energy_joules: f64,
}

/// A HAR deployment protocol.
pub trait HarProtocol {
    /// Protocol name for reports.
    fn name(&self) -> &'static str;

    /// Classify one raw channel-major window.
    ///
    /// # Errors
    /// Propagates classification failures.
    fn infer_window(&mut self, channels: &[Vec<f32>]) -> Result<ProtocolOutcome>;

    /// The privacy ledger accumulated so far.
    fn ledger(&self) -> &PrivacyLedger;
}

/// Shared classification core (identical across protocols by design).
/// Works at whatever precision the model is resident at.
struct Classifier {
    pipeline: PreprocessingPipeline,
    model: SiameseNetwork,
    ncm: NcmClassifier,
}

impl Classifier {
    fn classify(&self, channels: &[Vec<f32>]) -> Result<(String, f32)> {
        let features = self.pipeline.process(channels)?;
        let embedding = self.model.embed_one(&features)?;
        let decision = self.ncm.classify(&embedding)?;
        Ok((decision.label, decision.confidence))
    }

    fn inference_flops(&self, channels: usize, window_len: usize) -> u64 {
        flops::inference_flops(
            &self.model.dims(),
            self.ncm.num_classes(),
            channels,
            window_len,
        )
    }
}

/// MAGNETO's Edge-based protocol: everything local.
pub struct EdgeProtocol {
    classifier: Classifier,
    device: DeviceModel,
    energy: EnergyModel,
    ledger: PrivacyLedger,
}

impl EdgeProtocol {
    /// Build from trained components and a device class. Records the
    /// one-time bundle download in the ledger.
    pub fn new(
        pipeline: PreprocessingPipeline,
        model: SiameseNetwork,
        ncm: NcmClassifier,
        device: DeviceModel,
        energy: EnergyModel,
        bundle_bytes: usize,
    ) -> Self {
        let mut ledger = PrivacyLedger::edge_only();
        ledger.record_download(bundle_bytes, "initial edge bundle");
        EdgeProtocol {
            classifier: Classifier {
                pipeline,
                model,
                ncm,
            },
            device,
            energy,
            ledger,
        }
    }
}

impl HarProtocol for EdgeProtocol {
    fn name(&self) -> &'static str {
        "edge"
    }

    fn infer_window(&mut self, channels: &[Vec<f32>]) -> Result<ProtocolOutcome> {
        let window_len = channels.first().map_or(0, Vec::len);
        let (label, confidence) = self.classifier.classify(channels)?;
        let flops = self.classifier.inference_flops(channels.len(), window_len);
        let latency = self.device.compute_time(flops);
        let energy_joules = self.energy.compute_joules(flops);
        Ok(ProtocolOutcome {
            label,
            confidence,
            latency,
            uplink_bytes: 0,
            energy_joules,
        })
    }

    fn ledger(&self) -> &PrivacyLedger {
        &self.ledger
    }
}

/// The conventional Cloud-based protocol: raw windows go up, labels come
/// back.
pub struct CloudProtocol {
    classifier: Classifier,
    link: NetworkLink,
    server: DeviceModel,
    energy: EnergyModel,
    ledger: PrivacyLedger,
    rng: SeededRng,
}

impl CloudProtocol {
    /// Build from trained components (hosted on the Cloud side), a link
    /// and the device's energy model.
    pub fn new(
        pipeline: PreprocessingPipeline,
        model: SiameseNetwork,
        ncm: NcmClassifier,
        link: NetworkLink,
        energy: EnergyModel,
        rng: SeededRng,
    ) -> Self {
        CloudProtocol {
            classifier: Classifier {
                pipeline,
                model,
                ncm,
            },
            link,
            server: DeviceModel::cloud_server(),
            energy,
            ledger: PrivacyLedger::allow_uplink(),
            rng,
        }
    }
}

impl HarProtocol for CloudProtocol {
    fn name(&self) -> &'static str {
        "cloud"
    }

    fn infer_window(&mut self, channels: &[Vec<f32>]) -> Result<ProtocolOutcome> {
        let window_len = channels.first().map_or(0, Vec::len);
        let upload_bytes: usize = channels.iter().map(|c| c.len() * 4).sum();
        // The user's raw window leaves the device — count it.
        self.ledger.try_upload(upload_bytes, "raw sensor window")?;
        let (label, confidence) = self.classifier.classify(channels)?;
        let server_flops = self.classifier.inference_flops(channels.len(), window_len);
        let (link_time, _retries) =
            self.link
                .round_trip(upload_bytes, RESPONSE_BYTES, &mut self.rng);
        let latency = link_time + self.server.compute_time(server_flops);
        // Device-side energy: radio only (compute happens on the server).
        let energy_joules = self.energy.radio_joules(upload_bytes + RESPONSE_BYTES);
        Ok(ProtocolOutcome {
            label,
            confidence,
            latency,
            uplink_bytes: upload_bytes,
            energy_joules,
        })
    }

    fn ledger(&self) -> &PrivacyLedger {
        &self.ledger
    }
}

/// Convenience: run `windows` through a protocol, returning outcomes.
///
/// # Errors
/// Propagates the first inference failure.
pub fn run_protocol(
    protocol: &mut dyn HarProtocol,
    windows: &[Vec<Vec<f32>>],
) -> Result<Vec<ProtocolOutcome>> {
    windows.iter().map(|w| protocol.infer_window(w)).collect()
}

/// Guard that the error type stays convertible (compile-time assertion
/// used by downstream code).
#[allow(dead_code)]
fn _assert_error_compat(e: CoreError) -> CoreError {
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use magneto_core::cloud::{CloudConfig, CloudInitializer};
    use magneto_core::incremental::ModelState;
    use magneto_sensors::{GeneratorConfig, SensorDataset};
    use magneto_tensor::vector::DistanceMetric;

    fn trained_parts() -> (PreprocessingPipeline, SiameseNetwork, NcmClassifier, usize) {
        let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 1);
        let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
            .pretrain(&corpus)
            .unwrap();
        let bytes = bundle.total_bytes();
        let state = ModelState::assemble(
            bundle.model,
            bundle.support_set,
            bundle.registry,
            DistanceMetric::Euclidean,
        )
        .unwrap();
        (bundle.pipeline, state.model, state.ncm, bytes)
    }

    fn test_windows(n: usize) -> Vec<Vec<Vec<f32>>> {
        let ds = SensorDataset::generate(
            &GeneratorConfig {
                windows_per_class: n,
                ..GeneratorConfig::tiny()
            },
            7,
        );
        ds.windows.into_iter().map(|w| w.channels).collect()
    }

    #[test]
    fn both_protocols_agree_on_labels() {
        let (pipeline, model, ncm, bytes) = trained_parts();
        let mut edge = EdgeProtocol::new(
            pipeline.clone(),
            model.clone(),
            ncm.clone(),
            DeviceModel::budget_phone(),
            EnergyModel::lte_phone(),
            bytes,
        );
        let mut cloud = CloudProtocol::new(
            pipeline,
            model,
            ncm,
            NetworkLink::lte(),
            EnergyModel::lte_phone(),
            SeededRng::new(2),
        );
        for w in test_windows(2) {
            let e = edge.infer_window(&w).unwrap();
            let c = cloud.infer_window(&w).unwrap();
            assert_eq!(e.label, c.label, "same model must agree");
            assert_eq!(e.confidence, c.confidence);
        }
    }

    #[test]
    fn edge_has_zero_uplink_cloud_leaks_everything() {
        let (pipeline, model, ncm, bytes) = trained_parts();
        let mut edge = EdgeProtocol::new(
            pipeline.clone(),
            model.clone(),
            ncm.clone(),
            DeviceModel::budget_phone(),
            EnergyModel::lte_phone(),
            bytes,
        );
        let mut cloud = CloudProtocol::new(
            pipeline,
            model,
            ncm,
            NetworkLink::wifi(),
            EnergyModel::wifi_phone(),
            SeededRng::new(3),
        );
        let windows = test_windows(2);
        for w in &windows {
            assert_eq!(edge.infer_window(w).unwrap().uplink_bytes, 0);
            let c = cloud.infer_window(w).unwrap();
            assert_eq!(c.uplink_bytes, 22 * 120 * 4);
        }
        edge.ledger().assert_no_uplink();
        assert_eq!(
            cloud.ledger().uplink_bytes(),
            windows.len() * 22 * 120 * 4
        );
    }

    #[test]
    fn edge_latency_beats_cloud_on_realistic_links() {
        let (pipeline, model, ncm, bytes) = trained_parts();
        let mut edge = EdgeProtocol::new(
            pipeline.clone(),
            model.clone(),
            ncm.clone(),
            DeviceModel::budget_phone(),
            EnergyModel::lte_phone(),
            bytes,
        );
        for link in [NetworkLink::wifi(), NetworkLink::lte(), NetworkLink::cellular_3g()] {
            let mut cloud = CloudProtocol::new(
                pipeline.clone(),
                model.clone(),
                ncm.clone(),
                link,
                EnergyModel::lte_phone(),
                SeededRng::new(4),
            );
            let windows = test_windows(1);
            let edge_lat: f64 = windows
                .iter()
                .map(|w| edge.infer_window(w).unwrap().latency.as_secs_f64())
                .sum();
            let cloud_lat: f64 = windows
                .iter()
                .map(|w| cloud.infer_window(w).unwrap().latency.as_secs_f64())
                .sum();
            assert!(
                edge_lat < cloud_lat,
                "link {:?}: edge {edge_lat}s vs cloud {cloud_lat}s",
                link.base_rtt_ms
            );
        }
    }

    #[test]
    fn cloud_wins_latency_only_on_ideal_link_with_slow_device() {
        // Sanity check that the comparison is not rigged: with a
        // zero-latency link and a very slow wearable, offloading can win.
        let (pipeline, model, ncm, bytes) = trained_parts();
        let glacial = DeviceModel {
            gflops: 0.001,
            ..DeviceModel::wearable()
        };
        let mut edge = EdgeProtocol::new(
            pipeline.clone(),
            model.clone(),
            ncm.clone(),
            glacial,
            EnergyModel::wifi_phone(),
            bytes,
        );
        let mut cloud = CloudProtocol::new(
            pipeline,
            model,
            ncm,
            NetworkLink::ideal(),
            EnergyModel::wifi_phone(),
            SeededRng::new(5),
        );
        let w = &test_windows(1)[0];
        let e = edge.infer_window(w).unwrap();
        let c = cloud.infer_window(w).unwrap();
        assert!(c.latency < e.latency, "crossover exists: {c:?} vs {e:?}");
    }

    #[test]
    fn edge_energy_beats_cloud_on_lte() {
        let (pipeline, model, ncm, bytes) = trained_parts();
        let mut edge = EdgeProtocol::new(
            pipeline.clone(),
            model.clone(),
            ncm.clone(),
            DeviceModel::budget_phone(),
            EnergyModel::lte_phone(),
            bytes,
        );
        let mut cloud = CloudProtocol::new(
            pipeline,
            model,
            ncm,
            NetworkLink::lte(),
            EnergyModel::lte_phone(),
            SeededRng::new(6),
        );
        let w = &test_windows(1)[0];
        let e = edge.infer_window(w).unwrap();
        let c = cloud.infer_window(w).unwrap();
        assert!(
            c.energy_joules > e.energy_joules * 10.0,
            "cloud {} J vs edge {} J",
            c.energy_joules,
            e.energy_joules
        );
    }

    #[test]
    fn run_protocol_helper() {
        let (pipeline, model, ncm, bytes) = trained_parts();
        let mut edge = EdgeProtocol::new(
            pipeline,
            model,
            ncm,
            DeviceModel::flagship_phone(),
            EnergyModel::wifi_phone(),
            bytes,
        );
        let windows = test_windows(1);
        let outcomes = run_protocol(&mut edge, &windows).unwrap();
        assert_eq!(outcomes.len(), windows.len());
        assert_eq!(edge.name(), "edge");
    }
}
