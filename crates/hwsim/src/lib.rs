//! Hardware measurement substrate for ConvMeter.
//!
//! The paper fits its performance model against wall-clock measurements on an
//! Intel Xeon Gold 5318Y (single core) and an NVIDIA A100 80GB. Neither is
//! available here, so this crate plays the role of the hardware: an
//! analytical-plus-stochastic **device simulator** that turns the static
//! per-layer costs from `convmeter-metrics` into noisy "measured" runtimes.
//!
//! The simulator is deliberately *richer* than the 3-term linear model the
//! paper fits, so that fitting it is non-trivial and the reported error rates
//! are meaningful:
//!
//! * per-layer roofline: `max(compute, memory)` with layer-class efficiency
//!   factors (dense conv vs. depthwise vs. elementwise),
//! * an occupancy ramp penalising small kernels — reproducing the paper's
//!   observation that predictions degrade for small batch/image sizes where
//!   the A100 is underutilised,
//! * per-kernel launch overhead (so deep, skinny networks are slower than
//!   their FLOPs suggest),
//! * multiplicative log-normal measurement noise, deterministic per seed.
//!
//! Nothing in `convmeter` (the model) sees any of these internals — it only
//! sees (metrics, measured-time) pairs, exactly like the paper's pipeline.

#![warn(missing_docs)]

pub mod calibration;
pub mod compile;
pub mod device;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod noise;
pub mod precision;
pub mod runner;
pub mod sweep;
pub mod training;

pub use calibration::{calibrate, Calibration, Observation};
pub use compile::{compiled, set_sweep_jobs, sweep_jobs};
pub use device::{DeviceKind, DeviceProfile};
pub use error::SweepError;
pub use fault::{FaultModel, FaultProfile, FAULT_SALT};
pub use kernel::{
    backward_layer_time, forward_layer_time, forward_layer_time_slowed, optimizer_layer_time,
};
pub use memory::{inference_memory_bytes, training_memory_bytes};
pub use noise::NoiseModel;
pub use precision::Precision;
pub use runner::{
    expected_inference_time, measure_inference, measure_inference_faulted, InferenceSample,
};
pub use sweep::{
    inference_sweep, inference_sweep_faulted, training_sweep, training_sweep_faulted, SweepConfig,
};
pub use training::{
    expected_training_phases, measure_training_step_faulted, TrainingPhases, TrainingSample,
};
