//! Single-device training-step "measurement": forward, backward, and
//! optimizer (gradient update) phases, as in Figure 1 of the paper.

use crate::device::DeviceProfile;
use crate::fault::FaultModel;
use crate::kernel::{backward_layer_time, forward_layer_time, optimizer_layer_time};
use crate::noise::NoiseModel;
use convmeter_metrics::{ModelId, ModelMetrics};
use serde::{Deserialize, Serialize};

/// The three phases of one training step on one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingPhases {
    /// Forward pass, seconds.
    pub forward: f64,
    /// Backward pass (without communication), seconds.
    pub backward: f64,
    /// Gradient update (optimizer step; on one device, no communication),
    /// seconds.
    pub grad_update: f64,
}

impl TrainingPhases {
    /// Total step time `T_iter = T_fwd + T_bwd + T_grad` (paper Eq. 1).
    pub fn total(&self) -> f64 {
        self.forward + self.backward + self.grad_update
    }
}

/// One measured training data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingSample {
    /// Model name (interned; serialises as the plain string).
    pub model: ModelId,
    /// Square image size in pixels.
    pub image_size: usize,
    /// Per-device batch size.
    pub batch: usize,
    /// Measured phase times.
    pub phases: TrainingPhases,
}

/// Noise-free expected phase times for one training step at the given
/// per-device batch size.
///
/// The training forward pass carries a small overhead over inference
/// (autograd bookkeeping: recording the graph tape and retaining
/// activations).
pub fn expected_training_phases(
    device: &DeviceProfile,
    metrics: &ModelMetrics,
    batch: usize,
) -> TrainingPhases {
    const AUTOGRAD_OVERHEAD: f64 = 1.08;
    let forward: f64 = metrics
        .per_node
        .iter()
        .map(|c| forward_layer_time(device, c, batch))
        .sum::<f64>()
        * AUTOGRAD_OVERHEAD
        + device.base_overhead;
    let backward: f64 = metrics
        .per_node
        .iter()
        .map(|c| backward_layer_time(device, c, batch))
        .sum::<f64>()
        + device.base_overhead;
    let grad_update: f64 = metrics
        .per_node
        .iter()
        .map(|c| optimizer_layer_time(device, c))
        .sum::<f64>()
        + device.base_overhead;
    TrainingPhases {
        forward,
        backward,
        grad_update,
    }
}

/// A noisy, fault-injected measurement of one training step around
/// `expected`, the point's [`expected_training_phases`] (sweeps compute
/// them once for their gates and pass them in). Each phase jitters
/// independently, as phase timers in a real harness would; a slowdown
/// window throttles all compute phases, one straggler spike stretches the
/// whole step (the phase timers all see the same straggling device), and
/// corruption NaNs every phase (the harness lost the sample).
///
/// A model of [`FaultProfile::disabled`] draws nothing, so the result is
/// the plain jittered phases.
///
/// [`FaultProfile::disabled`]: crate::fault::FaultProfile::disabled
pub fn measure_training_step_faulted(
    expected: &TrainingPhases,
    noise: &mut NoiseModel,
    fault: &mut FaultModel<'_>,
) -> TrainingPhases {
    let slowdown = fault.slowdown_window().unwrap_or(1.0);
    let mut phases = TrainingPhases {
        forward: noise.jitter(expected.forward * slowdown),
        backward: noise.jitter(expected.backward * slowdown),
        grad_update: noise.jitter(expected.grad_update * slowdown),
    };
    let spike = fault.spike_factor();
    phases.forward *= spike;
    phases.backward *= spike;
    phases.grad_update *= spike;
    if fault.is_corrupt() {
        phases.forward = f64::NAN;
        phases.backward = f64::NAN;
        phases.grad_update = f64::NAN;
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultProfile;
    use convmeter_models::zoo::by_name;

    fn metrics(name: &str, size: usize) -> ModelMetrics {
        ModelMetrics::of(&by_name(name).unwrap().build(size, 1000)).unwrap()
    }

    #[test]
    fn backward_dominates_forward() {
        // Figure 7: "the training spends most of its time during the
        // backward pass and gradient update."
        let d = DeviceProfile::a100_80gb();
        let p = expected_training_phases(&d, &metrics("resnet50", 224), 64);
        assert!(p.backward > p.forward);
        assert!(p.backward < 3.0 * p.forward, "but not absurdly so");
    }

    #[test]
    fn grad_update_small_on_single_device() {
        let d = DeviceProfile::a100_80gb();
        let p = expected_training_phases(&d, &metrics("resnet50", 224), 64);
        assert!(p.grad_update < p.forward);
        assert!(p.grad_update > 0.0);
    }

    #[test]
    fn total_sums_phases() {
        let d = DeviceProfile::a100_80gb();
        let p = expected_training_phases(&d, &metrics("resnet18", 128), 32);
        assert!((p.total() - (p.forward + p.backward + p.grad_update)).abs() < 1e-15);
    }

    #[test]
    fn grad_update_batch_independent() {
        let d = DeviceProfile::a100_80gb();
        let m = metrics("resnet18", 128);
        let p1 = expected_training_phases(&d, &m, 1);
        let p256 = expected_training_phases(&d, &m, 256);
        assert_eq!(p1.grad_update, p256.grad_update);
        assert!(p256.forward > p1.forward);
    }

    #[test]
    fn training_step_realistic_magnitude() {
        // ResNet-50, batch 128, A100: real step times are roughly
        // 100-400 ms FP32. Land in that decade.
        let d = DeviceProfile::a100_80gb();
        let p = expected_training_phases(&d, &metrics("resnet50", 224), 128);
        assert!(p.total() > 0.03 && p.total() < 1.0, "step {} s", p.total());
    }

    #[test]
    fn measured_phases_jitter() {
        let d = DeviceProfile::a100_80gb();
        let p = expected_training_phases(&d, &metrics("resnet18", 64), 16);
        let off = FaultProfile::disabled();
        let mut noise = NoiseModel::new(11, d.noise_sigma);
        let mut fault = FaultModel::new(&off, 3);
        let a = measure_training_step_faulted(&p, &mut noise, &mut fault);
        let b = measure_training_step_faulted(&p, &mut noise, &mut fault);
        assert_ne!(a.forward, b.forward);
        assert_ne!(a.backward, b.backward);
    }

    #[test]
    fn disabled_faults_only_jitter() {
        let d = DeviceProfile::a100_80gb();
        let p = expected_training_phases(&d, &metrics("mobilenet_v2", 128), 32);
        let off = FaultProfile::disabled();
        let got = measure_training_step_faulted(
            &p,
            &mut NoiseModel::new(4, d.noise_sigma),
            &mut FaultModel::new(&off, 8),
        );
        let mut noise = NoiseModel::new(4, d.noise_sigma);
        assert_eq!(got.forward.to_bits(), noise.jitter(p.forward).to_bits());
        assert_eq!(got.backward.to_bits(), noise.jitter(p.backward).to_bits());
        assert_eq!(
            got.grad_update.to_bits(),
            noise.jitter(p.grad_update).to_bits()
        );
    }
}
