//! Model-level inference "measurement".

use crate::device::DeviceProfile;
use crate::fault::FaultModel;
use crate::kernel::{forward_layer_time, forward_layer_time_slowed};
use crate::noise::NoiseModel;
use convmeter_metrics::{ModelId, ModelMetrics};
use serde::{Deserialize, Serialize};

/// One measured inference data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InferenceSample {
    /// Model name (interned; serialises as the plain string).
    pub model: ModelId,
    /// Square image size in pixels.
    pub image_size: usize,
    /// Batch size.
    pub batch: usize,
    /// Measured (simulated) wall time, seconds.
    pub time_s: f64,
}

/// Noise-free expected inference time: the simulator's ground truth, before
/// measurement jitter. Sums per-kernel roofline times plus the framework's
/// fixed dispatch overhead.
pub fn expected_inference_time(
    device: &DeviceProfile,
    metrics: &ModelMetrics,
    batch: usize,
) -> f64 {
    let kernels: f64 = metrics
        .per_node
        .iter()
        .map(|c| forward_layer_time(device, c, batch))
        .sum();
    kernels + device.base_overhead
}

/// A noisy "measurement" of inference time, as a real benchmark would record.
pub fn measure_inference(
    device: &DeviceProfile,
    metrics: &ModelMetrics,
    batch: usize,
    noise: &mut NoiseModel,
) -> f64 {
    noise.jitter(expected_inference_time(device, metrics, batch))
}

/// A fault-injected measurement around `expected`, the point's
/// [`expected_inference_time`] (sweeps compute it once for their gates and
/// pass it in). The point may land in a slowdown window (throttled
/// compute), be hit by a heavy-tailed straggler spike, or come back
/// corrupted as NaN. Noise and faults draw from independent seeded streams.
///
/// Outside a slowdown window (the common case) `expected` is used as is,
/// so a point costs the caller's one fold; only inside a window are the
/// layers refolded at the throttled compute rate. A model of [`FaultProfile::disabled`] draws nothing and
/// makes this `noise.jitter(expected)`.
///
/// [`FaultProfile::disabled`]: crate::fault::FaultProfile::disabled
pub fn measure_inference_faulted(
    device: &DeviceProfile,
    metrics: &ModelMetrics,
    batch: usize,
    expected: f64,
    noise: &mut NoiseModel,
    fault: &mut FaultModel<'_>,
) -> f64 {
    let degraded = match fault.slowdown_window() {
        None => expected,
        Some(slowdown) => {
            let kernels: f64 = metrics
                .per_node
                .iter()
                .map(|c| forward_layer_time_slowed(device, c, batch, slowdown))
                .sum();
            kernels + device.base_overhead
        }
    };
    fault.corrupt(noise.jitter(degraded))
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
    fn resnet50_a100_batch1_in_realistic_range() {
        // Real A100 measurements put ResNet-50 batch-1 FP32 inference at
        // roughly 1-10 ms. The simulator should land in that decade.
        let t = expected_inference_time(&DeviceProfile::a100_80gb(), &metrics("resnet50", 224), 1);
        assert!(t > 5e-4 && t < 2e-2, "got {t} s");
    }

    #[test]
    fn resnet50_cpu_core_much_slower() {
        let gpu =
            expected_inference_time(&DeviceProfile::a100_80gb(), &metrics("resnet50", 224), 1);
        let cpu = expected_inference_time(
            &DeviceProfile::xeon_gold_5318y_core(),
            &metrics("resnet50", 224),
            1,
        );
        assert!(cpu > 20.0 * gpu, "cpu {cpu} vs gpu {gpu}");
        // Single Xeon core: hundreds of ms.
        assert!(cpu > 0.05 && cpu < 5.0, "cpu {cpu}");
    }

    #[test]
    fn bigger_models_take_longer() {
        let d = DeviceProfile::a100_80gb();
        let small = expected_inference_time(&d, &metrics("squeezenet1_0", 224), 64);
        let big = expected_inference_time(&d, &metrics("vgg16", 224), 64);
        assert!(big > 3.0 * small);
    }

    #[test]
    fn alexnet_fast_despite_many_params() {
        // The paper: "some models, such as AlexNet, have a significantly
        // lower execution time despite the image and batch size due to their
        // lower computational complexity."
        let d = DeviceProfile::a100_80gb();
        let alex = expected_inference_time(&d, &metrics("alexnet", 224), 128);
        let r50 = expected_inference_time(&d, &metrics("resnet50", 224), 128);
        assert!(alex < r50);
    }

    #[test]
    fn batch_and_image_scaling_monotonic() {
        let d = DeviceProfile::a100_80gb();
        let m = metrics("resnet18", 224);
        let mut last = 0.0;
        for b in [1, 4, 16, 64, 256] {
            let t = expected_inference_time(&d, &m, b);
            assert!(t > last);
            last = t;
        }
        let small_img = expected_inference_time(&d, &metrics("resnet18", 64), 32);
        let big_img = expected_inference_time(&d, &metrics("resnet18", 224), 32);
        assert!(big_img > small_img);
    }

    #[test]
    fn disabled_faults_are_the_identity() {
        let d = DeviceProfile::a100_80gb();
        let m = metrics("resnet18", 64);
        let off = FaultProfile::disabled();
        for batch in [1, 8, 64, 512] {
            let expected = expected_inference_time(&d, &m, batch);
            let plain = measure_inference(&d, &m, batch, &mut NoiseModel::new(5, d.noise_sigma));
            let faulted = measure_inference_faulted(
                &d,
                &m,
                batch,
                expected,
                &mut NoiseModel::new(5, d.noise_sigma),
                &mut FaultModel::new(&off, 9),
            );
            assert_eq!(plain.to_bits(), faulted.to_bits());
        }
    }

    #[test]
    fn slowdown_window_throttles_compute() {
        let d = DeviceProfile::a100_80gb();
        let m = metrics("vgg16", 128);
        let throttled = FaultProfile {
            slowdown_prob: 1.0,
            slowdown_factor: 2.0,
            ..FaultProfile::disabled()
        };
        let expected = expected_inference_time(&d, &m, 64);
        let t = measure_inference_faulted(
            &d,
            &m,
            64,
            expected,
            &mut NoiseModel::disabled(),
            &mut FaultModel::new(&throttled, 1),
        );
        // Compute-bound layers double, memory-bound ones do not.
        assert!(t > expected && t < 2.0 * expected, "{t} vs {expected}");
    }

    #[test]
    fn measurement_jitters_around_expectation() {
        let d = DeviceProfile::a100_80gb();
        let m = metrics("resnet18", 128);
        let expected = expected_inference_time(&d, &m, 32);
        let mut noise = NoiseModel::new(3, d.noise_sigma);
        let samples: Vec<f64> = (0..200)
            .map(|_| measure_inference(&d, &m, 32, &mut noise))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean / expected - 1.0).abs() < 0.03);
        assert!(samples.iter().any(|&s| s != expected));
    }
}
