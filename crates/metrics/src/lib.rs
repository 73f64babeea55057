//! Static ConvNet metric extraction — the foundation of ConvMeter.
//!
//! The paper's key insight (Section 3) is that five metrics, all computable
//! from the computational graph *without running the network*, suffice for
//! runtime prediction:
//!
//! * **Inputs `I`** — the sum of the input tensor sizes of all
//!   *convolutional* layers (memory read pressure),
//! * **Outputs `O`** — the sum of the output tensor sizes of all
//!   *convolutional* layers (activation store pressure),
//! * **FLOPs `F`** — floating-point operations of all layers, computed from
//!   tensor shapes with no optimisation/implementation assumptions,
//! * **Weights `W`** — trainable parameter count (gradient volume), and
//! * **Layers `L`** — the number of parameterised layers (per-layer gradient
//!   synchronisation granularity).
//!
//! All of `I`, `O`, and `F` scale linearly with batch size, so they are
//! extracted once for batch 1 and multiplied at prediction time
//! ([`ModelMetrics::at_batch`]).

#![warn(missing_docs)]

pub mod compiled;
pub mod flops;
pub mod ident;
pub mod model;

pub use compiled::CompiledModel;
pub use flops::{
    layer_flops, layer_macs, try_layer_flops, try_layer_macs, CostOverflow, LayerCost,
};
pub use ident::ModelId;
pub use model::{BatchMetrics, ModelMetrics};

/// Workspace-wide observability surface (spans, metrics, profiles).
///
/// The implementation lives in the dependency-free `convmeter-obs` crate so
/// that leaf crates (`convmeter-graph`, `convmeter-linalg`) can use it too;
/// everything above the metric layer should reach it through this re-export.
pub use convmeter_obs as obs;
