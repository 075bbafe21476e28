//! Real-time Edge inference.
//!
//! §3.3: "the Edge device is capable of performing the inference on the
//! fly by reading its sensors and passing the captured measurements
//! sequentially from the pre-processing function to the pre-trained
//! model"; §4.2.1 claims "imperceptible prediction latency, which is only
//! a few milliseconds". This module provides the per-window inference
//! path with latency instrumentation, plus a streaming session that
//! segments a live sensor stream and majority-vote-smooths the label
//! sequence for the UI.
//!
//! Every streamed window runs the batched path, as a batch of one when
//! it arrives alone, so its normalised feature row stays staged in the
//! session's [`BatchEmbedder`] after inference. The self-healing harvest
//! reads that row ([`StreamingSession::staged_features`]) rather than
//! featurising the window again: each window is featurised once.

use crate::drift::DriftStatus;
use crate::embed::BatchEmbedder;
use crate::ncm::NcmClassifier;
use crate::precision::ResidentModel;
use crate::Result;
use magneto_dsp::{
    segment::Segmenter, FrameGuard, GuardConfig, PreprocessingPipeline, SignalQuality,
};
use magneto_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One inference outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Winning activity label.
    pub label: String,
    /// Confidence in `[0, 1]`.
    pub confidence: f32,
    /// Distance to each class prototype (classifier label order).
    pub distances: Vec<f32>,
    /// Wall-clock time of the full pre-process → embed → classify path.
    pub latency: Duration,
    /// Whether the window's signal was clean or repaired at pipeline
    /// entry ([`SignalQuality::Degraded`] output should not be trusted
    /// the way nominal output is).
    pub quality: SignalQuality,
    /// Concept-drift status at this window, when the serving path runs a
    /// [`crate::drift::DriftMonitor`] (`None` on paths without one —
    /// plain batch inference, or a device without self-healing enabled).
    pub drift: Option<DriftStatus>,
}

/// Cumulative sensor-health picture for one device's streaming session:
/// what the entry guard repaired and how many emitted windows were
/// affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SensorHealth {
    /// Frames that passed through the guard.
    pub frames: u64,
    /// Channel-samples repaired (non-finite or out-of-range).
    pub repaired_samples: u64,
    /// `(channel index, repair count)` of the least healthy channel, if
    /// any repairs happened.
    pub worst_channel: Option<(usize, u64)>,
    /// Windows emitted with [`SignalQuality::Degraded`].
    pub degraded_windows: u64,
}

/// Aggregated latency statistics (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LatencyStats {
    /// Number of measurements.
    pub count: usize,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Median (µs).
    pub p50_us: f64,
    /// 95th percentile (µs).
    pub p95_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// Maximum (µs).
    pub max_us: f64,
}

/// Sub-buckets per power of two: a bucket spans at most 1/32 of the
/// values in it (≈3 % relative width).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Latencies are bucketed in whole nanoseconds below 2⁴⁰ ns (≈18 min);
/// longer ones share the last bucket.
const TOP_BITS: u32 = 40;
const BUCKETS: usize = (TOP_BITS - SUB_BITS + 1) as usize * SUB;

/// Bucket of a latency of `ns` nanoseconds: exact below 64 ns, then
/// [`SUB`] buckets per power of two.
fn bucket_of(ns: u64) -> usize {
    let ns = ns.min((1 << TOP_BITS) - 1);
    if ns < SUB as u64 {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    (shift as usize + 1) * SUB + (ns >> shift) as usize - SUB
}

/// Midpoint (µs) of bucket `b`.
fn bucket_mid_us(b: usize) -> f64 {
    let (lower, width) = match b / SUB {
        0 => (b as u64, 1u64),
        block => {
            let shift = block - 1;
            (((b % SUB + SUB) as u64) << shift, 1u64 << shift)
        }
    };
    (lower as f64 + width as f64 / 2.0) / 1e3
}

/// Records latencies into a fixed-size log-bucketed histogram and
/// summarises them. Memory is constant however many samples arrive.
/// Count, mean, min and max are exact; a percentile is its bucket's
/// midpoint, or the exact min or max when it falls in the lowest or
/// highest occupied bucket, so it is within one bucket of an exact sort.
#[derive(Clone)]
pub struct LatencyRecorder {
    counts: Box<[u64]>,
    count: u64,
    sum_us: f64,
    min_us: f64,
    max_us: f64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
            sum_us: 0.0,
            min_us: f64::INFINITY,
            max_us: 0.0,
        }
    }
}

impl std::fmt::Debug for LatencyRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyRecorder")
            .field("stats", &self.stats())
            .finish()
    }
}

impl LatencyRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one measurement.
    pub fn record(&mut self, d: Duration) {
        self.record_n(d, 1);
    }

    /// Record `n` measurements of the same latency as one weighted entry.
    pub fn record_n(&mut self, d: Duration, n: usize) {
        if n == 0 {
            return;
        }
        let us = d.as_secs_f64() * 1e6;
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_of(ns)] += n as u64;
        self.count += n as u64;
        self.sum_us += us * n as f64;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bytes the recorder holds, heap included; the same from the first
    /// sample to the last.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(&*self.counts)
    }

    /// Summarise. An empty recorder reports all-zero stats; a single
    /// measurement *is* every percentile. Percentile `p` reads the
    /// sample at rank `round(p/100 · (count − 1))`, as a sort would.
    pub fn stats(&self) -> LatencyStats {
        if self.count == 0 {
            return LatencyStats::default();
        }
        let occupied = || self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        let lowest = occupied().next().map_or(0, |(b, _)| b);
        let highest = occupied().next_back().map_or(0, |(b, _)| b);
        let pct = |p: f64| {
            let rank = (p / 100.0 * (self.count - 1) as f64).round() as u64;
            let mut seen = 0u64;
            let bucket = occupied()
                .find(|(_, &c)| {
                    seen += c;
                    seen > rank
                })
                .map_or(highest, |(b, _)| b);
            if bucket == highest {
                self.max_us
            } else if bucket == lowest {
                self.min_us
            } else {
                bucket_mid_us(bucket).clamp(self.min_us, self.max_us)
            }
        };
        LatencyStats {
            count: self.count as usize,
            mean_us: self.sum_us / self.count as f64,
            p50_us: pct(50.0),
            p95_us: pct(95.0),
            p99_us: pct(99.0),
            max_us: self.max_us,
        }
    }
}

/// The per-window inference path: pipeline → embedding → NCM.
pub(crate) fn infer_window(
    pipeline: &PreprocessingPipeline,
    model: &ResidentModel,
    ncm: &NcmClassifier,
    channels: &[Vec<f32>],
) -> Result<Prediction> {
    let start = Instant::now();
    let (features, quality) = pipeline.process_checked(channels)?;
    let embedding = model.embed_one(&features)?;
    let decision = ncm.classify(&embedding)?;
    Ok(Prediction {
        label: decision.label,
        confidence: decision.confidence,
        distances: decision.distances,
        latency: start.elapsed(),
        quality,
        drift: None,
    })
}

/// A read-only borrow of everything one session needs to classify a
/// window: its pre-processing pipeline, its backbone, and its NCM
/// prototypes. The fleet scheduler holds many of these at once —
/// inference never needs `&mut` device state, so a serving runtime can
/// batch across sessions while each session keeps exclusive ownership of
/// its mutable state (support set, ledger, RNG).
#[derive(Debug, Clone, Copy)]
pub struct InferenceView<'a> {
    /// The session's fitted pre-processing function.
    pub pipeline: &'a PreprocessingPipeline,
    /// The session's backbone at its resident precision.
    pub model: &'a ResidentModel,
    /// The session's prototype classifier.
    pub ncm: &'a NcmClassifier,
}

/// One pending window in a cross-session micro-batch. The backbone is
/// shared by the whole batch (the caller guarantees every job's session
/// runs the same model weights); pre-processing and classification stay
/// per-job because those may differ per session even under one model.
#[derive(Debug)]
pub struct BatchJob<'a> {
    /// The owning session's pre-processing function.
    pub pipeline: &'a PreprocessingPipeline,
    /// The owning session's NCM prototypes.
    pub ncm: &'a NcmClassifier,
    /// Channel-major raw window to classify.
    pub window: &'a [Vec<f32>],
}

/// Cross-session micro-batched inference: featurise every job's window
/// with *its own* pipeline straight into the shared staging matrix, run
/// the whole batch through `model` as **one** forward pass, then classify
/// each embedding row with that job's own NCM. Outputs are bit-identical
/// to calling [`infer_window`] per job (the batched and per-sample kernel
/// paths are property-tested equal), so a scheduler may group jobs from
/// many sessions freely as long as they share model weights. Reported
/// per-window latency is the amortised batch cost.
///
/// # Errors
/// Propagates pre-processing/classification errors; shape errors on
/// pipelines with mismatched output dimensions.
pub fn infer_batch(
    model: &ResidentModel,
    jobs: &[BatchJob<'_>],
    embedder: &mut BatchEmbedder,
) -> Result<Vec<Prediction>> {
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    let start = Instant::now();
    let staging = embedder.staging();
    staging.resize(jobs.len(), jobs[0].pipeline.output_dim());
    let mut qualities = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        qualities.push(
            job.pipeline
                .process_checked_into(job.window, staging.row_mut(i))?,
        );
    }
    let mut embeddings = Matrix::default();
    embedder.embed_staged(model, &mut embeddings)?;
    // Classify through the embedder's resident scratch (§9 `_into`
    // convention): the quantised-query/coarse-score/softmax buffers are
    // reused across every job of every batch this embedder serves.
    let (scratch, decision) = embedder.classify_parts();
    let mut predictions = Vec::with_capacity(jobs.len());
    for ((r, job), quality) in jobs.iter().enumerate().zip(qualities) {
        job.ncm.classify_into(embeddings.row(r), scratch, decision)?;
        predictions.push(Prediction {
            label: decision.label.clone(),
            confidence: decision.confidence,
            distances: decision.distances.clone(),
            latency: Duration::ZERO,
            quality,
            drift: None,
        });
    }
    let per_window = start.elapsed() / jobs.len() as u32;
    for p in &mut predictions {
        p.latency = per_window;
    }
    Ok(predictions)
}

/// Batched inference over a backlog of windows: every window is
/// featurised straight into one row of the embedder's staging matrix
/// (`process_into`), the whole batch goes through the backbone as a
/// single forward pass, and each embedding row is classified. Reported
/// per-window latency is the batch wall-clock divided by the batch size
/// — the amortised cost, which is the honest number for a batched path.
pub(crate) fn infer_windows(
    pipeline: &PreprocessingPipeline,
    model: &ResidentModel,
    ncm: &NcmClassifier,
    windows: &[Vec<Vec<f32>>],
    embedder: &mut BatchEmbedder,
) -> Result<Vec<Prediction>> {
    let jobs: Vec<BatchJob<'_>> = windows
        .iter()
        .map(|w| BatchJob {
            pipeline,
            ncm,
            window: w,
        })
        .collect();
    infer_batch(model, &jobs, embedder)
}

/// A live streaming session: feeds raw 22-channel samples into a
/// segmenter and smooths window predictions with a majority vote over the
/// last `k` windows (the GUI's stable label, Figure 3a–b).
#[derive(Debug)]
pub struct StreamingSession {
    segmenter: Segmenter,
    history: VecDeque<String>,
    smoothing_window: usize,
    embedder: BatchEmbedder,
    guard: FrameGuard,
    /// Scratch copy of the incoming sample so the guard can repair it
    /// without mutating the caller's buffer.
    scrub_buf: Vec<f32>,
    /// Samples repaired since the current window started filling.
    faults_in_window: usize,
    degraded_windows: u64,
}

/// A smoothed streaming prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoothedPrediction {
    /// The raw per-window prediction that triggered this output.
    pub raw: Prediction,
    /// Majority label over the smoothing window.
    pub smoothed_label: String,
    /// Fraction of recent windows agreeing with the smoothed label.
    pub agreement: f32,
}

impl StreamingSession {
    /// Create a session for `channels`-channel input with `window_len`
    /// samples per window and a vote over `smoothing_window` windows.
    /// The entry guard uses the default [`GuardConfig`]; see
    /// [`with_guard`](Self::with_guard) to match a pipeline's config.
    pub fn new(channels: usize, window_len: usize, smoothing_window: usize) -> Self {
        Self::with_guard(channels, window_len, smoothing_window, GuardConfig::default())
    }

    /// [`new`](Self::new) with an explicit entry-guard configuration
    /// (deployment wires the pipeline's own guard config here so the
    /// streaming path and the batch path repair identically).
    pub fn with_guard(
        channels: usize,
        window_len: usize,
        smoothing_window: usize,
        guard: GuardConfig,
    ) -> Self {
        StreamingSession {
            segmenter: Segmenter::new(channels, window_len, window_len),
            history: VecDeque::with_capacity(smoothing_window.max(1)),
            smoothing_window: smoothing_window.max(1),
            embedder: BatchEmbedder::new(),
            guard: FrameGuard::new(channels, guard),
            scrub_buf: Vec::with_capacity(channels),
            faults_in_window: 0,
            degraded_windows: 0,
        }
    }

    /// The feature rows of the last push that completed a window: row
    /// `r` is the normalised features of that push's `r`-th prediction.
    pub(crate) fn staged_features(&self) -> &Matrix {
        self.embedder.staged()
    }

    /// Scrub one incoming sample through the guard (copy-on-write into
    /// the scratch buffer) and feed it to the segmenter. Returns the
    /// completed window, if any, and its entry quality.
    fn push_scrubbed(&mut self, sample: &[f32]) -> Option<(Vec<Vec<f32>>, SignalQuality)> {
        self.scrub_buf.clear();
        self.scrub_buf.extend_from_slice(sample);
        self.faults_in_window += self.guard.scrub(&mut self.scrub_buf);
        let window = self.segmenter.push(&self.scrub_buf)?;
        let quality = if self.faults_in_window > 0 {
            self.degraded_windows += 1;
            SignalQuality::Degraded
        } else {
            SignalQuality::Nominal
        };
        self.faults_in_window = 0;
        Some((window, quality))
    }

    /// Push one raw sample. When a window completes, runs inference and
    /// returns the smoothed prediction. Non-finite or out-of-range
    /// values are repaired at entry (last-good-value hold per channel);
    /// a window containing any repaired sample is flagged
    /// [`SignalQuality::Degraded`] on its prediction. A completed
    /// window runs the batched path as a batch of one
    /// ([`push_samples`](Self::push_samples)).
    ///
    /// # Errors
    /// Propagates inference errors on completed windows.
    pub fn push_sample(
        &mut self,
        sample: &[f32],
        pipeline: &PreprocessingPipeline,
        model: &ResidentModel,
        ncm: &NcmClassifier,
    ) -> Result<Option<SmoothedPrediction>> {
        Ok(self
            .push_samples(std::slice::from_ref(&sample), pipeline, model, ncm)?
            .pop())
    }

    /// Push a backlog of raw samples at once — e.g. sensor data buffered
    /// while the app was suspended. Completed windows are featurised and
    /// embedded as **one batch** (a single forward pass through the
    /// backbone) instead of window-by-window, then smoothed in stream
    /// order exactly as [`push_sample`](Self::push_sample) would have.
    ///
    /// # Errors
    /// Propagates inference errors on completed windows.
    pub fn push_samples<S: AsRef<[f32]>>(
        &mut self,
        samples: &[S],
        pipeline: &PreprocessingPipeline,
        model: &ResidentModel,
        ncm: &NcmClassifier,
    ) -> Result<Vec<SmoothedPrediction>> {
        let mut windows = Vec::new();
        let mut qualities = Vec::new();
        for sample in samples {
            if let Some((window, quality)) = self.push_scrubbed(sample.as_ref()) {
                windows.push(window);
                qualities.push(quality);
            }
        }
        let raws = infer_windows(pipeline, model, ncm, &windows, &mut self.embedder)?;
        Ok(raws
            .into_iter()
            .zip(qualities)
            .map(|(mut raw, quality)| {
                raw.quality = raw.quality.merge(quality);
                self.smooth(raw)
            })
            .collect())
    }

    /// Fold one raw prediction into the majority-vote history.
    fn smooth(&mut self, raw: Prediction) -> SmoothedPrediction {
        if self.history.len() == self.smoothing_window {
            self.history.pop_front();
        }
        self.history.push_back(raw.label.clone());
        let mut best_label = raw.label.clone();
        let mut best_count = 0usize;
        for l in &self.history {
            let c = self.history.iter().filter(|x| *x == l).count();
            if c > best_count {
                best_count = c;
                best_label = l.clone();
            }
        }
        let agreement = best_count as f32 / self.history.len() as f32;
        SmoothedPrediction {
            raw,
            smoothed_label: best_label,
            agreement,
        }
    }

    /// Windows inferred so far.
    pub fn windows_seen(&self) -> u64 {
        self.segmenter.emitted()
    }

    /// Cumulative sensor-health picture (guard repairs + degraded
    /// window count) since the session was created.
    pub fn sensor_health(&self) -> SensorHealth {
        SensorHealth {
            frames: self.guard.frames(),
            repaired_samples: self.guard.repaired_total(),
            worst_channel: self.guard.worst_channel(),
            degraded_windows: self.degraded_windows,
        }
    }

    /// Clear segmentation and vote history (activity change). The
    /// guard's last-good hold is dropped too — values from the previous
    /// activity must not patch holes in the next one — but its health
    /// counters persist for the life of the session.
    pub fn reset(&mut self) {
        self.segmenter.reset();
        self.history.clear();
        self.guard.reset_hold();
        self.faults_in_window = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ncm::NcmClassifier;
    use crate::precision::Precision;
    use magneto_dsp::PipelineConfig;
    use magneto_nn::{Mlp, SiameseNetwork};
    use magneto_tensor::vector::DistanceMetric;
    use magneto_tensor::SeededRng;

    fn fixture() -> (PreprocessingPipeline, ResidentModel, NcmClassifier) {
        let pipeline = PreprocessingPipeline::new(PipelineConfig::default());
        let mut rng = SeededRng::new(1);
        let model =
            ResidentModel::from(SiameseNetwork::new(Mlp::new(&[80, 16, 4], &mut rng).unwrap(), 1.0));
        // Prototypes straddling the embedding of a zero-ish window.
        let ncm = NcmClassifier::new(
            DistanceMetric::Euclidean,
            vec![
                ("still".into(), vec![0.0; 4]),
                ("walk".into(), vec![100.0; 4]),
            ],
        )
        .unwrap();
        (pipeline, model, ncm)
    }

    fn window(value: f32) -> Vec<Vec<f32>> {
        vec![vec![value; 120]; 22]
    }

    #[test]
    fn cross_session_batch_matches_per_window_inference() {
        // Two "sessions" with the same backbone but different prototype
        // sets, micro-batched through one forward pass, must produce
        // bit-identical outputs to per-window inference on each session.
        let (pipeline, model, ncm_a) = fixture();
        let ncm_b = NcmClassifier::new(
            DistanceMetric::Euclidean,
            vec![
                ("still".into(), vec![1.0; 4]),
                ("walk".into(), vec![50.0; 4]),
                ("run".into(), vec![-20.0; 4]),
            ],
        )
        .unwrap();
        let windows: Vec<Vec<Vec<f32>>> = (0..6).map(|i| window(i as f32 * 0.03)).collect();
        let jobs: Vec<BatchJob<'_>> = windows
            .iter()
            .enumerate()
            .map(|(i, w)| BatchJob {
                pipeline: &pipeline,
                ncm: if i % 2 == 0 { &ncm_a } else { &ncm_b },
                window: w,
            })
            .collect();
        let mut embedder = BatchEmbedder::new();
        let batched = infer_batch(&model, &jobs, &mut embedder).unwrap();
        assert_eq!(batched.len(), 6);
        for (i, (w, b)) in windows.iter().zip(&batched).enumerate() {
            let ncm = if i % 2 == 0 { &ncm_a } else { &ncm_b };
            let single = infer_window(&pipeline, &model, ncm, w).unwrap();
            assert_eq!(single.label, b.label, "job {i}");
            assert_eq!(single.confidence, b.confidence, "job {i}");
            assert_eq!(single.distances, b.distances, "job {i}");
        }
        // Distances follow each job's own class count.
        assert_eq!(batched[0].distances.len(), 2);
        assert_eq!(batched[1].distances.len(), 3);
        // Empty batch is a no-op.
        assert!(infer_batch(&model, &[], &mut embedder).unwrap().is_empty());
    }

    #[test]
    fn int8_batch_matches_int8_per_window_inference() {
        let (pipeline, model, ncm) = fixture();
        let model = model.into_precision(Precision::Int8).unwrap();
        let windows: Vec<Vec<Vec<f32>>> = (0..5).map(|i| window(i as f32 * 0.04)).collect();
        let jobs: Vec<BatchJob<'_>> = windows
            .iter()
            .map(|w| BatchJob {
                pipeline: &pipeline,
                ncm: &ncm,
                window: w,
            })
            .collect();
        let mut embedder = BatchEmbedder::new();
        let batched = infer_batch(&model, &jobs, &mut embedder).unwrap();
        for (i, (w, b)) in windows.iter().zip(&batched).enumerate() {
            let single = infer_window(&pipeline, &model, &ncm, w).unwrap();
            assert_eq!(single.label, b.label, "window {i}");
            assert_eq!(single.confidence, b.confidence, "window {i}");
            assert_eq!(single.distances, b.distances, "window {i}");
        }
    }

    #[test]
    fn infer_window_produces_prediction() {
        let (pipeline, model, ncm) = fixture();
        let pred = infer_window(&pipeline, &model, &ncm, &window(0.1)).unwrap();
        assert!(["still", "walk"].contains(&pred.label.as_str()));
        assert!(pred.confidence > 0.0 && pred.confidence <= 1.0);
        assert_eq!(pred.distances.len(), 2);
        assert!(pred.latency > Duration::ZERO);
    }

    #[test]
    fn latency_recorder_percentiles() {
        let mut rec = LatencyRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.stats(), LatencyStats::default());
        for ms in 1..=100u64 {
            rec.record(Duration::from_millis(ms));
        }
        let stats = rec.stats();
        assert_eq!(stats.count, 100);
        assert_eq!(rec.len(), 100);
        assert!((stats.mean_us - 50_500.0).abs() < 1.0);
        assert!((stats.p50_us - 50_000.0).abs() < 2000.0);
        assert!(stats.p95_us >= 94_000.0 && stats.p95_us <= 96_000.0);
        assert!(stats.p99_us >= 98_000.0);
        assert_eq!(stats.max_us, 100_000.0);
    }

    #[test]
    fn latency_recorder_boundary_counts() {
        // Empty: all-zero stats, explicitly.
        assert_eq!(LatencyRecorder::new().stats(), LatencyStats::default());
        // One sample: that sample is the mean, the max, and every
        // percentile.
        let mut rec = LatencyRecorder::new();
        rec.record(Duration::from_micros(1234));
        let stats = rec.stats();
        assert_eq!(stats.count, 1);
        assert_eq!(stats.mean_us, 1234.0);
        assert_eq!(stats.p50_us, 1234.0);
        assert_eq!(stats.p95_us, 1234.0);
        assert_eq!(stats.p99_us, 1234.0);
        assert_eq!(stats.max_us, 1234.0);
        // Two samples: percentiles still come from the sorted ranks.
        rec.record(Duration::from_micros(10));
        let stats = rec.stats();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.p50_us, 1234.0);
        assert_eq!(stats.max_us, 1234.0);
    }

    #[test]
    fn latency_recorder_weighted_entry_matches_repeats() {
        let mut weighted = LatencyRecorder::new();
        let mut repeated = LatencyRecorder::new();
        for (us, n) in [(120u64, 6usize), (900, 3), (45, 0), (7, 1)] {
            weighted.record_n(Duration::from_micros(us), n);
            for _ in 0..n {
                repeated.record(Duration::from_micros(us));
            }
        }
        assert_eq!(weighted.len(), 10);
        assert_eq!(weighted.stats(), repeated.stats());
    }

    #[test]
    fn latency_recorder_memory_is_constant() {
        let mut rec = LatencyRecorder::new();
        let bytes = rec.resident_bytes();
        let mut rng = SeededRng::new(3);
        for i in 0..1_000_000u64 {
            // Nanoseconds to minutes, so every bucket region is touched.
            let ns = (rng.uniform(0.0, 37.0) as f64).exp2() as u64 + i % 7;
            rec.record(Duration::from_nanos(ns));
            if i % 100_000 == 0 {
                assert_eq!(rec.resident_bytes(), bytes);
            }
        }
        assert_eq!(rec.len(), 1_000_000);
        assert_eq!(rec.resident_bytes(), bytes);
        assert!(bytes < 16 * 1024, "{bytes} bytes");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Every percentile lands within one bucket of the sample an
        /// exact sort puts at its rank; count, mean, min and max stay
        /// exact.
        #[test]
        fn latency_percentiles_within_one_bucket_of_exact_sort(
            samples in proptest::collection::vec(0u64..50_000_000, 1..400),
            scale in proptest::sample::select(vec![1u64, 1_000, 60_000]),
        ) {
            let mut rec = LatencyRecorder::new();
            let mut exact: Vec<f64> = Vec::new();
            for &ns in &samples {
                let d = Duration::from_nanos(ns.saturating_mul(scale) / 1_000);
                rec.record(d);
                exact.push(d.as_secs_f64() * 1e6);
            }
            exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let stats = rec.stats();
            let bucket = |us: f64| bucket_of((us * 1e3).round() as u64) as i64;
            for (p, got) in [(50.0, stats.p50_us), (95.0, stats.p95_us), (99.0, stats.p99_us)] {
                let rank = (p / 100.0 * (exact.len() - 1) as f64).round() as usize;
                let want = exact[rank];
                proptest::prop_assert!(
                    (bucket(got) - bucket(want)).abs() <= 1,
                    "p{} = {} µs, exact {} µs", p, got, want
                );
            }
            proptest::prop_assert_eq!(stats.count, exact.len());
            proptest::prop_assert_eq!(stats.max_us, *exact.last().unwrap());
            let mean = exact.iter().sum::<f64>() / exact.len() as f64;
            proptest::prop_assert!((stats.mean_us - mean).abs() <= 1e-9 * mean.max(1.0));
        }
    }

    #[test]
    fn batched_push_matches_sequential_push() {
        let (pipeline, model, ncm) = fixture();
        let samples: Vec<Vec<f32>> = (0..360)
            .map(|i| vec![(i % 7) as f32 * 0.01; 22])
            .collect();

        let mut sequential = StreamingSession::new(22, 120, 3);
        let mut seq_out = Vec::new();
        for s in &samples {
            if let Some(p) = sequential.push_sample(s, &pipeline, &model, &ncm).unwrap() {
                seq_out.push(p);
            }
        }

        let mut batched = StreamingSession::new(22, 120, 3);
        let batch_out = batched
            .push_samples(&samples, &pipeline, &model, &ncm)
            .unwrap();

        assert_eq!(batch_out.len(), seq_out.len());
        assert_eq!(batched.windows_seen(), sequential.windows_seen());
        for (b, s) in batch_out.iter().zip(&seq_out) {
            assert_eq!(b.raw.label, s.raw.label);
            assert_eq!(b.raw.confidence, s.raw.confidence);
            assert_eq!(b.raw.distances, s.raw.distances);
            assert_eq!(b.smoothed_label, s.smoothed_label);
            assert_eq!(b.agreement, s.agreement);
        }
    }

    #[test]
    fn push_samples_with_no_completed_window_is_empty() {
        let (pipeline, model, ncm) = fixture();
        let mut session = StreamingSession::new(22, 120, 3);
        let samples = vec![vec![0.1; 22]; 50];
        let out = session
            .push_samples(&samples, &pipeline, &model, &ncm)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn streaming_session_emits_one_prediction_per_window() {
        let (pipeline, model, ncm) = fixture();
        let mut session = StreamingSession::new(22, 120, 3);
        let mut outputs = 0;
        for i in 0..360 {
            let sample = vec![(i % 7) as f32 * 0.01; 22];
            if session
                .push_sample(&sample, &pipeline, &model, &ncm)
                .unwrap()
                .is_some()
            {
                outputs += 1;
            }
        }
        assert_eq!(outputs, 3);
        assert_eq!(session.windows_seen(), 3);
    }

    #[test]
    fn smoothing_majority_vote() {
        let (pipeline, model, ncm) = fixture();
        let mut session = StreamingSession::new(22, 120, 5);
        let mut last = None;
        for i in 0..(120 * 5) {
            let sample = vec![0.05 + (i as f32 * 0.001).sin() * 0.01; 22];
            if let Some(p) = session
                .push_sample(&sample, &pipeline, &model, &ncm)
                .unwrap()
            {
                // Agreement is a valid fraction and the smoothed label is
                // one of the known classes.
                assert!((0.0..=1.0).contains(&p.agreement));
                assert!(["still", "walk"].contains(&p.smoothed_label.as_str()));
                last = Some(p);
            }
        }
        // With a stationary input the vote converges to full agreement.
        assert_eq!(last.unwrap().agreement, 1.0);
    }

    #[test]
    fn reset_clears_history() {
        let (pipeline, model, ncm) = fixture();
        let mut session = StreamingSession::new(22, 120, 3);
        for _ in 0..120 {
            session
                .push_sample(&[0.1; 22], &pipeline, &model, &ncm)
                .unwrap();
        }
        assert_eq!(session.windows_seen(), 1);
        session.reset();
        assert_eq!(session.windows_seen(), 0);
    }

    #[test]
    fn degraded_samples_flag_their_window_only() {
        let (pipeline, model, ncm) = fixture();
        let mut session = StreamingSession::new(22, 120, 3);
        let mut preds = Vec::new();
        for i in 0..360 {
            let mut sample = vec![0.1; 22];
            // Poison a few samples inside the SECOND window only.
            if (150..155).contains(&i) {
                sample[3] = f32::NAN;
                sample[7] = f32::INFINITY;
            }
            if let Some(p) = session
                .push_sample(&sample, &pipeline, &model, &ncm)
                .unwrap()
            {
                preds.push(p);
            }
        }
        assert_eq!(preds.len(), 3);
        assert_eq!(preds[0].raw.quality, SignalQuality::Nominal);
        assert_eq!(preds[1].raw.quality, SignalQuality::Degraded);
        assert_eq!(preds[2].raw.quality, SignalQuality::Nominal);
        assert!(preds.iter().all(|p| p.raw.distances.iter().all(|d| d.is_finite())));
        let health = session.sensor_health();
        assert_eq!(health.repaired_samples, 10);
        assert_eq!(health.degraded_windows, 1);
        assert!(matches!(health.worst_channel, Some((3 | 7, 5))));
    }

    #[test]
    fn batched_degraded_push_matches_sequential() {
        let (pipeline, model, ncm) = fixture();
        let mut samples: Vec<Vec<f32>> = (0..360)
            .map(|i| vec![(i % 7) as f32 * 0.01; 22])
            .collect();
        samples[40][0] = f32::NAN;
        samples[250][12] = f32::NEG_INFINITY;

        let mut sequential = StreamingSession::new(22, 120, 3);
        let mut seq_out = Vec::new();
        for s in &samples {
            if let Some(p) = sequential.push_sample(s, &pipeline, &model, &ncm).unwrap() {
                seq_out.push(p);
            }
        }
        let mut batched = StreamingSession::new(22, 120, 3);
        let batch_out = batched
            .push_samples(&samples, &pipeline, &model, &ncm)
            .unwrap();
        assert_eq!(batch_out.len(), seq_out.len());
        for (b, s) in batch_out.iter().zip(&seq_out) {
            assert_eq!(b.raw.quality, s.raw.quality);
            assert_eq!(b.raw.label, s.raw.label);
            assert_eq!(b.raw.distances, s.raw.distances);
        }
        assert_eq!(batch_out[0].raw.quality, SignalQuality::Degraded);
        assert_eq!(batch_out[1].raw.quality, SignalQuality::Nominal);
        assert_eq!(batch_out[2].raw.quality, SignalQuality::Degraded);
        assert_eq!(batched.sensor_health(), sequential.sensor_health());
    }

    #[test]
    fn malformed_sample_is_ignored() {
        let (pipeline, model, ncm) = fixture();
        let mut session = StreamingSession::new(22, 4, 1);
        // Wrong arity: ignored, no window forms.
        for _ in 0..10 {
            let out = session
                .push_sample(&[1.0, 2.0], &pipeline, &model, &ncm)
                .unwrap();
            assert!(out.is_none());
        }
    }
}
