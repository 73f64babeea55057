//! Analytic timeline simulation of one distributed training step.
//!
//! Per Figure 1 of the paper, a synchronous data-parallel step is: forward
//! pass, backward pass with gradient buckets all-reduced *during* the
//! backward propagation, then the optimizer update. The measured "gradient
//! update" phase is whatever outlives the backward compute: the
//! communication tail, per-tensor coordination, and the optimizer step.

use crate::cluster::ClusterConfig;
use crate::fusion::fuse_gradients;
use crate::ring::all_reduce_time_with_dropout;
use crate::strategies::{sync_time, SyncStrategy};
use convmeter_hwsim::kernel::{backward_layer_time, forward_layer_time, optimizer_layer_time};
use convmeter_hwsim::{DeviceProfile, FaultModel, NoiseModel, TrainingPhases};
use convmeter_metrics::ModelMetrics;

/// Expected straggler inflation for `n` synchronising devices with
/// log-normal(σ) compute jitter: E[max of n] ≈ exp(σ √(2 ln n)).
fn straggler_factor(sigma: f64, n: usize) -> f64 {
    if n <= 1 || sigma <= 0.0 {
        return 1.0;
    }
    (sigma * (2.0 * (n as f64).ln()).sqrt()).exp()
}

/// Noise-free expected phase times of one training step on every device of
/// `cluster`, with per-device batch `batch`.
///
/// For a single device this degenerates to
/// [`convmeter_hwsim::expected_training_phases`] (plus nothing), keeping the
/// two crates consistent.
pub fn expected_distributed_phases(
    device: &DeviceProfile,
    cluster: &ClusterConfig,
    metrics: &ModelMetrics,
    batch: usize,
) -> TrainingPhases {
    expected_distributed_phases_with_strategy(
        device,
        cluster,
        metrics,
        batch,
        SyncStrategy::FlatRing,
    )
}

/// [`expected_distributed_phases`] with an explicit gradient-synchronisation
/// strategy. The default everywhere else is the flat ring (the NCCL
/// behaviour the paper measures); hierarchical and parameter-server modes
/// support the strategy-comparison extension experiments.
pub fn expected_distributed_phases_with_strategy(
    device: &DeviceProfile,
    cluster: &ClusterConfig,
    metrics: &ModelMetrics,
    batch: usize,
    strategy: SyncStrategy,
) -> TrainingPhases {
    const AUTOGRAD_OVERHEAD: f64 = 1.08;
    let n = cluster.total_devices();
    let straggle = straggler_factor(cluster.straggler_sigma, n);

    let forward = metrics
        .per_node
        .iter()
        .map(|c| forward_layer_time(device, c, batch))
        .sum::<f64>()
        * AUTOGRAD_OVERHEAD
        * straggle
        + device.base_overhead;

    // Backward timeline in reverse layer order, recording when each
    // trainable layer's gradient tensor becomes available.
    let mut t = 0.0;
    let mut tensor_bytes: Vec<u64> = Vec::with_capacity(metrics.per_node.len());
    let mut tensor_ready: Vec<f64> = Vec::with_capacity(metrics.per_node.len());
    for cost in metrics.per_node.iter().rev() {
        t += backward_layer_time(device, cost, batch) * straggle;
        if cost.is_trainable {
            tensor_bytes.push(cost.param_elements * 4);
            tensor_ready.push(t);
        }
    }
    let backward = t + device.base_overhead;

    // Optimizer update (local, after gradients are averaged).
    let optimizer: f64 = metrics
        .per_node
        .iter()
        .map(|c| optimizer_layer_time(device, c))
        .sum::<f64>()
        + device.base_overhead;

    let grad_update = if n <= 1 {
        optimizer
    } else {
        // Communication stream processes fusion buckets in ready order,
        // overlapped with the remaining backward compute.
        let buckets = fuse_gradients(&tensor_bytes, cluster.fusion_buffer_bytes);
        let mut comm_free = 0.0f64;
        for bucket in &buckets {
            let ready = bucket
                .tensor_indices
                .iter()
                .map(|&i| tensor_ready[i])
                .fold(0.0f64, f64::max);
            let coordination = cluster.per_tensor_overhead * bucket.tensor_indices.len() as f64;
            let start = ready.max(comm_free);
            comm_free = start + sync_time(cluster, bucket.bytes, strategy) + coordination;
        }
        let comm_tail = (comm_free - t).max(0.0);
        comm_tail + optimizer
    };

    TrainingPhases {
        forward,
        backward,
        grad_update,
    }
}

/// A noisy measurement of one distributed training step.
pub fn measure_distributed_step(
    device: &DeviceProfile,
    cluster: &ClusterConfig,
    metrics: &ModelMetrics,
    batch: usize,
    noise: &mut NoiseModel,
) -> TrainingPhases {
    convmeter_metrics::obs::counter!("distsim.steps").inc();
    let p = expected_distributed_phases(device, cluster, metrics, batch);
    TrainingPhases {
        forward: noise.jitter(p.forward),
        backward: noise.jitter(p.backward),
        grad_update: noise.jitter(p.grad_update),
    }
}

/// A fault-injected distributed step. On top of
/// [`measure_distributed_step`]'s jitter, the step may suffer:
///
/// * **per-node stragglers** — the compute phases stretch by the worst of
///   `N` sampled per-node multipliers (synchronous data parallelism waits
///   for the slowest device),
/// * **node dropout** — a node leaves mid-step; the survivors pay the
///   profile's re-ring cost and restart the full gradient all-reduce over
///   the reduced ring, all charged to the gradient-update phase,
/// * **slowdown windows / spikes / corruption** — as in the single-device
///   path ([`convmeter_hwsim::measure_training_step_faulted`]).
///
/// With the fault model's profile off this is exactly
/// [`measure_distributed_step`].
pub fn measure_distributed_step_faulted(
    device: &DeviceProfile,
    cluster: &ClusterConfig,
    metrics: &ModelMetrics,
    batch: usize,
    noise: &mut NoiseModel,
    fault: &mut FaultModel<'_>,
) -> TrainingPhases {
    if fault.profile().is_off() {
        return measure_distributed_step(device, cluster, metrics, batch, noise);
    }
    convmeter_metrics::obs::counter!("distsim.steps").inc();
    let slowdown = fault.slowdown_window().unwrap_or(1.0);
    let straggle = fault.node_straggler_max(cluster.total_devices());
    let dropped = fault.node_dropout(cluster.nodes);
    let p = expected_distributed_phases(device, cluster, metrics, batch);
    let mut grad_update = p.grad_update;
    if dropped > 0 {
        // The collective restarts from scratch on the re-formed ring: every
        // trainable tensor is re-reduced in one (unoverlapped) pass.
        let total_grad_bytes: u64 = metrics
            .per_node
            .iter()
            .filter(|c| c.is_trainable)
            .map(|c| c.param_elements * 4)
            .sum();
        grad_update += all_reduce_time_with_dropout(
            cluster,
            total_grad_bytes,
            dropped,
            fault.profile().reringing_cost,
        );
    }
    let mut phases = TrainingPhases {
        forward: noise.jitter(p.forward * slowdown * straggle),
        backward: noise.jitter(p.backward * slowdown * straggle),
        grad_update: noise.jitter(grad_update),
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
    use convmeter_models::zoo::by_name;

    fn metrics(name: &str, size: usize) -> ModelMetrics {
        ModelMetrics::of(&by_name(name).unwrap().build(size, 1000)).unwrap()
    }

    fn gpu() -> DeviceProfile {
        DeviceProfile::a100_80gb()
    }

    #[test]
    fn single_device_matches_hwsim() {
        let m = metrics("resnet18", 128);
        let single = ClusterConfig::workstation(1);
        let dist = expected_distributed_phases(&gpu(), &single, &m, 32);
        let local = convmeter_hwsim::expected_training_phases(&gpu(), &m, 32);
        assert!((dist.forward - local.forward).abs() / local.forward < 1e-12);
        assert!((dist.backward - local.backward).abs() / local.backward < 1e-12);
        assert!((dist.grad_update - local.grad_update).abs() / local.grad_update < 1e-12);
    }

    #[test]
    fn grad_update_grows_with_nodes() {
        let m = metrics("resnet50", 128);
        let mut last = 0.0;
        for nodes in [1, 2, 4, 8] {
            let c = ClusterConfig::hpc_cluster(nodes);
            let p = expected_distributed_phases(&gpu(), &c, &m, 64);
            assert!(p.grad_update > last, "nodes {nodes}: {}", p.grad_update);
            last = p.grad_update;
        }
    }

    #[test]
    fn large_batches_hide_communication() {
        // At large per-device batch, backward compute grows while comm stays
        // fixed, so the grad-update share of the step shrinks — the paper's
        // "users typically maximize the per-device batch size" observation.
        let m = metrics("resnet50", 128);
        let c = ClusterConfig::hpc_cluster(4);
        let small = expected_distributed_phases(&gpu(), &c, &m, 4);
        let large = expected_distributed_phases(&gpu(), &c, &m, 256);
        let share = |p: &TrainingPhases| p.grad_update / p.total();
        assert!(share(&large) < share(&small));
    }

    #[test]
    fn alexnet_is_communication_heavy() {
        // 61 M parameters but tiny compute: across nodes, AlexNet's gradient
        // update dominates — the diminishing-returns case in Figure 8.
        let alex = metrics("alexnet", 128);
        let r18 = metrics("resnet18", 128);
        let c = ClusterConfig::hpc_cluster(8);
        let pa = expected_distributed_phases(&gpu(), &c, &alex, 64);
        let pr = expected_distributed_phases(&gpu(), &c, &r18, 64);
        assert!(
            pa.grad_update / pa.total() > pr.grad_update / pr.total(),
            "alexnet {:.4}/{:.4}, resnet18 {:.4}/{:.4}",
            pa.grad_update,
            pa.total(),
            pr.grad_update,
            pr.total()
        );
    }

    #[test]
    fn stragglers_inflate_compute_phases() {
        let m = metrics("resnet18", 128);
        let single = ClusterConfig::workstation(1);
        let multi = ClusterConfig::hpc_cluster(4);
        let p1 = expected_distributed_phases(&gpu(), &single, &m, 64);
        let pn = expected_distributed_phases(&gpu(), &multi, &m, 64);
        assert!(pn.forward > p1.forward);
        assert!(pn.backward > p1.backward);
    }

    #[test]
    fn straggler_factor_properties() {
        assert_eq!(straggler_factor(0.05, 1), 1.0);
        assert_eq!(straggler_factor(0.0, 16), 1.0);
        assert!(straggler_factor(0.05, 16) > straggler_factor(0.05, 4));
        assert!(straggler_factor(0.05, 16) < 1.5);
    }

    #[test]
    fn hierarchical_strategy_speeds_up_multi_node_steps() {
        use crate::strategies::SyncStrategy;
        let m = metrics("alexnet", 128);
        let c = ClusterConfig::hpc_cluster(8);
        let flat =
            expected_distributed_phases_with_strategy(&gpu(), &c, &m, 64, SyncStrategy::FlatRing);
        let hier = expected_distributed_phases_with_strategy(
            &gpu(),
            &c,
            &m,
            64,
            SyncStrategy::Hierarchical,
        );
        let ps = expected_distributed_phases_with_strategy(
            &gpu(),
            &c,
            &m,
            64,
            SyncStrategy::ParameterServer,
        );
        assert!(hier.grad_update < flat.grad_update);
        assert!(ps.grad_update > flat.grad_update);
        // Compute phases are strategy-independent.
        assert_eq!(hier.forward, flat.forward);
        assert_eq!(hier.backward, flat.backward);
    }

    #[test]
    fn measurement_jitters() {
        let m = metrics("resnet18", 64);
        let c = ClusterConfig::hpc_cluster(2);
        let mut noise = NoiseModel::new(5, 0.05);
        let a = measure_distributed_step(&gpu(), &c, &m, 32, &mut noise);
        let b = measure_distributed_step(&gpu(), &c, &m, 32, &mut noise);
        assert_ne!(a.grad_update, b.grad_update);
    }
}
