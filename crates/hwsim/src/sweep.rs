//! Benchmark sweep generation — the "collect < 5,000 data points" step of
//! the paper, evaluated over compiled models.
//!
//! Each `(model, image_size)` pair is compiled once per process (see
//! [`crate::compile`]); the sweep then evaluates every batch size from the
//! cached batch-1 metrics — no graph rebuilds, no re-extraction, no
//! per-point allocation. Point evaluation fans out over the
//! order-preserving worker pool when [`crate::compile::set_sweep_jobs`]
//! raises the worker count.
//!
//! Determinism: each data point derives its noise seed from
//! (sweep seed, model name, image size, batch), so results are identical
//! regardless of worker count or scheduling, and the pool returns per-pair
//! results in submission order.

use std::sync::Arc;

use crate::compile;
use crate::device::DeviceProfile;
use crate::error::SweepError;
use crate::fault::{FaultModel, FaultProfile, FAULT_SALT};
use crate::memory::{inference_memory_bytes, training_memory_bytes};
use crate::noise::NoiseModel;
use crate::runner::{expected_inference_time, measure_inference_faulted, InferenceSample};
use crate::training::{expected_training_phases, measure_training_step_faulted, TrainingSample};
use convmeter_metrics::{obs, CompiledModel};
use convmeter_models::zoo;
use convmeter_pool as pool;
use serde::{Deserialize, Serialize};

/// Configuration of one benchmark sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Model names to include (must exist in the zoo).
    pub models: Vec<String>,
    /// Square image sizes, pixels.
    pub image_sizes: Vec<usize>,
    /// Batch sizes.
    pub batch_sizes: Vec<usize>,
    /// Master seed for measurement noise.
    pub seed: u64,
    /// Skip configurations whose footprint exceeds device memory.
    pub respect_memory: bool,
    /// Skip configurations whose expected runtime exceeds this many seconds
    /// (a benchmark-harness timeout; `None` = unbounded). Real sweeps bound
    /// per-point wall time — nobody benchmarks batch-2048 VGG-16 on one CPU
    /// core — and the paper's reported RMSE/NRMSE imply exactly such a cap.
    pub max_point_time: Option<f64>,
}

impl SweepConfig {
    /// The paper's sweep: every zoo model, image sizes 32–224, batch sizes
    /// 1–2048, memory-gated.
    pub fn paper() -> Self {
        SweepConfig {
            models: zoo::model_names()
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            image_sizes: vec![32, 64, 96, 128, 160, 192, 224],
            batch_sizes: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048],
            seed: 0xC0_4F_EE,
            respect_memory: true,
            max_point_time: None,
        }
    }

    /// The paper's GPU sweep: runtime-capped at 100 ms per point, matching
    /// the time range implied by the paper's A100 RMSE (8.8 ms at
    /// NRMSE 0.13).
    pub fn paper_gpu() -> Self {
        SweepConfig {
            max_point_time: Some(0.1),
            ..Self::paper()
        }
    }

    /// The paper's single-core CPU sweep: capped at 5 s per point (CPU
    /// RMSE 0.59 s at NRMSE 0.13 implies a ~4.5 s range).
    pub fn paper_cpu() -> Self {
        SweepConfig {
            max_point_time: Some(5.0),
            ..Self::paper()
        }
    }

    /// The paper's single-GPU training sweep: step times capped at 250 ms
    /// (training RMSE 29.4 ms at NRMSE 0.26 implies a ~110 ms range; the
    /// cap leaves headroom).
    pub fn paper_training() -> Self {
        SweepConfig {
            max_point_time: Some(0.25),
            ..Self::paper()
        }
    }

    /// A reduced sweep for unit tests and examples.
    pub fn quick() -> Self {
        SweepConfig {
            models: vec!["resnet18".into(), "mobilenet_v2".into(), "vgg11".into()],
            image_sizes: vec![64, 128],
            batch_sizes: vec![1, 8, 64],
            seed: 7,
            respect_memory: true,
            max_point_time: None,
        }
    }

    /// Restrict to the given model names.
    pub fn with_models(mut self, models: &[&str]) -> Self {
        self.models = models
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        self
    }

    /// A stable content fingerprint of this sweep configuration, for
    /// content-addressed dataset caches. Hashes the canonical JSON
    /// serialisation: changing *any* field — models, grids, seed, memory
    /// gating, or runtime cap — yields a different digest.
    pub fn fingerprint(&self) -> String {
        // Exhaustiveness witness: every field reaches the digest through the
        // canonical serialisation below. Adding a field without deciding its
        // hashing story fails to compile here (and trips analyzer CA0006).
        let Self {
            models: _,
            image_sizes: _,
            batch_sizes: _,
            seed: _,
            respect_memory: _,
            max_point_time: _,
        } = self;
        // analyzer:allow(CA0004, reason = "plain data struct; canonical JSON serialisation cannot fail")
        let json = serde_json::to_string(self).expect("sweep configs serialise");
        convmeter_graph::stable_digest(&json)
    }

    fn point_seed(&self, model: &str, image: usize, batch: usize) -> u64 {
        // FNV-1a over the identifying tuple: stable, scheduling-independent.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for b in model
            .as_bytes()
            .iter()
            .copied()
            .chain(image.to_le_bytes())
            .chain(batch.to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// Compile each (model, image) combination the models support, in config
/// order. Warm pairs come straight from the process-global cache.
fn compiled_grid(config: &SweepConfig) -> Result<Vec<Arc<CompiledModel>>, SweepError> {
    let _span = obs::span!("hwsim.metric_grid");
    let mut grid = Vec::with_capacity(config.models.len() * config.image_sizes.len());
    for name in &config.models {
        for &size in &config.image_sizes {
            if let Some(cm) = compile::compiled(name, size)? {
                grid.push(cm);
            }
        }
    }
    Ok(grid)
}

/// Evaluate one point-generator per grid pair across the ordered worker
/// pool and flatten in grid order. Workers only fold cached metrics —
/// they emit no spans (spans are thread-local), and per-point seeding makes
/// the output independent of scheduling.
fn sweep_points<S, F>(grid: &[Arc<CompiledModel>], points: F) -> Result<Vec<S>, SweepError>
where
    S: Send,
    F: Fn(&CompiledModel) -> Vec<S> + Sync,
{
    let per_pair = pool::run_ordered(grid, compile::sweep_jobs(), |_, cm| points(cm))?;
    Ok(per_pair.into_iter().flatten().collect())
}

fn inference_points(
    device: &DeviceProfile,
    config: &SweepConfig,
    cm: &CompiledModel,
    faults: &FaultProfile,
) -> Vec<InferenceSample> {
    let metrics = &cm.metrics;
    config
        .batch_sizes
        .iter()
        .filter_map(|&batch| {
            if config.respect_memory
                && inference_memory_bytes(metrics, batch) > device.memory_capacity
            {
                return None;
            }
            // One fold per point: the cap check and the measurement share
            // the expected time.
            let expected = expected_inference_time(device, metrics, batch);
            if let Some(cap) = config.max_point_time {
                if expected > cap {
                    return None;
                }
            }
            let seed = config.point_seed(cm.id.as_str(), cm.image_size, batch);
            let time_s = measure_inference_faulted(
                device,
                metrics,
                batch,
                expected,
                &mut NoiseModel::new(seed, device.noise_sigma),
                &mut FaultModel::new(faults, seed ^ FAULT_SALT),
            );
            Some(InferenceSample {
                model: cm.id,
                image_size: cm.image_size,
                batch,
                time_s,
            })
        })
        .collect()
}

fn training_points(
    device: &DeviceProfile,
    config: &SweepConfig,
    cm: &CompiledModel,
    faults: &FaultProfile,
) -> Vec<TrainingSample> {
    let metrics = &cm.metrics;
    config
        .batch_sizes
        .iter()
        .filter_map(|&batch| {
            if config.respect_memory
                && training_memory_bytes(metrics, batch) > device.memory_capacity
            {
                return None;
            }
            // One fold per point: the cap check and the measurement share
            // the expected phases.
            let expected = expected_training_phases(device, metrics, batch);
            if let Some(cap) = config.max_point_time {
                if expected.total() > cap {
                    return None;
                }
            }
            let seed = config
                .point_seed(cm.id.as_str(), cm.image_size, batch)
                .wrapping_add(1);
            let phases = measure_training_step_faulted(
                &expected,
                &mut NoiseModel::new(seed, device.noise_sigma),
                &mut FaultModel::new(faults, seed ^ FAULT_SALT),
            );
            Some(TrainingSample {
                model: cm.id,
                image_size: cm.image_size,
                batch,
                phases,
            })
        })
        .collect()
}

/// Run an inference benchmark sweep on a device, returning one noisy sample
/// per in-memory configuration.
pub fn inference_sweep(
    device: &DeviceProfile,
    config: &SweepConfig,
) -> Result<Vec<InferenceSample>, SweepError> {
    inference_sweep_faulted(device, config, &FaultProfile::disabled())
}

/// [`inference_sweep`] under a fault profile. Each point draws from a fault
/// stream seeded by the same per-point tuple XOR [`FAULT_SALT`], so injected
/// faults are bit-for-bit reproducible and independent of the noise stream;
/// with faults off nothing is drawn and the samples are exactly
/// [`inference_sweep`]'s. Sweep gates (memory, runtime cap) always use the
/// *unfaulted* expected time, so the sampled grid is identical with and
/// without faults.
pub fn inference_sweep_faulted(
    device: &DeviceProfile,
    config: &SweepConfig,
    faults: &FaultProfile,
) -> Result<Vec<InferenceSample>, SweepError> {
    let _span = obs::span!("hwsim.inference_sweep");
    let grid = compiled_grid(config)?;
    sweep_points(&grid, |cm| inference_points(device, config, cm, faults))
}

/// Run a single-device training benchmark sweep.
pub fn training_sweep(
    device: &DeviceProfile,
    config: &SweepConfig,
) -> Result<Vec<TrainingSample>, SweepError> {
    training_sweep_faulted(device, config, &FaultProfile::disabled())
}

/// [`training_sweep`] under a fault profile; see
/// [`inference_sweep_faulted`] for the determinism contract.
pub fn training_sweep_faulted(
    device: &DeviceProfile,
    config: &SweepConfig,
    faults: &FaultProfile,
) -> Result<Vec<TrainingSample>, SweepError> {
    let _span = obs::span!("hwsim.training_sweep");
    let grid = compiled_grid(config)?;
    sweep_points(&grid, |cm| training_points(device, config, cm, faults))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_all_points() {
        let d = DeviceProfile::a100_80gb();
        let samples = inference_sweep(&d, &SweepConfig::quick()).unwrap();
        // 3 models x 2 sizes x 3 batches, nothing OOMs at these sizes.
        assert_eq!(samples.len(), 18);
        assert!(samples.iter().all(|s| s.time_s > 0.0));
    }

    #[test]
    fn sweep_is_deterministic_across_runs_and_worker_counts() {
        let d = DeviceProfile::a100_80gb();
        let a = inference_sweep(&d, &SweepConfig::quick()).unwrap();
        compile::set_sweep_jobs(4);
        let b = inference_sweep(&d, &SweepConfig::quick()).unwrap();
        compile::set_sweep_jobs(1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.model, y.model);
            assert_eq!((x.image_size, x.batch), (y.image_size, y.batch));
            assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
        }
    }

    #[test]
    fn paper_sweep_stays_under_5000_points() {
        let d = DeviceProfile::a100_80gb();
        let samples = inference_sweep(&d, &SweepConfig::paper()).unwrap();
        assert!(samples.len() < 5000, "got {}", samples.len());
        assert!(samples.len() > 500, "got {}", samples.len());
    }

    #[test]
    fn memory_gate_prunes_large_training_configs() {
        let d = DeviceProfile::a100_80gb();
        let mut cfg = SweepConfig::quick().with_models(&["vgg16"]);
        cfg.image_sizes = vec![224];
        cfg.batch_sizes = vec![1, 64, 2048];
        let samples = training_sweep(&d, &cfg).unwrap();
        // Batch 2048 training of VGG-16 at 224 px cannot fit in 80 GB.
        assert!(samples.iter().all(|s| s.batch < 2048));
        assert!(samples.iter().any(|s| s.batch == 64));
    }

    #[test]
    fn training_sweep_phases_positive() {
        let d = DeviceProfile::a100_80gb();
        for s in training_sweep(&d, &SweepConfig::quick()).unwrap() {
            assert!(s.phases.forward > 0.0);
            assert!(s.phases.backward > s.phases.forward * 0.5);
            assert!(s.phases.grad_update > 0.0);
        }
    }

    #[test]
    fn unknown_model_is_an_error_not_a_panic() {
        let d = DeviceProfile::a100_80gb();
        let cfg = SweepConfig::quick().with_models(&["resnet999"]);
        let err = inference_sweep(&d, &cfg).unwrap_err();
        assert!(matches!(err, SweepError::UnknownModel { ref name } if name == "resnet999"));
    }
}
