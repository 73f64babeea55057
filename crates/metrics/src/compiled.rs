//! The compiled model: a keyed handle on one extraction.
//!
//! The paper extracts metrics **once at batch 1** and scales them
//! analytically; this module makes that structural. [`CompiledModel`] is
//! produced once per (model, image size) and pairs the batch-1
//! [`ModelMetrics`] — the only cost representation in the workspace, which
//! every simulator evaluates at any batch size with no further graph work —
//! with what caches over many sweep points need:
//!
//! * the graph's structural fingerprint (composed bottom-up from per-node
//!   digests, see `convmeter_graph::fingerprint`), so cache keys reuse one
//!   hash instead of rehashing the graph; and
//! * the interned [`ModelId`], so downstream samples are `Copy` and sweep
//!   emission stops cloning names per point.

use crate::ident::ModelId;
use crate::model::ModelMetrics;
use convmeter_graph::{Graph, GraphError};

/// A model compiled for prediction at one (model, image size) point:
/// interned id + structural fingerprint + batch-1 metrics. Built once,
/// evaluated at every batch size.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// Interned model name.
    pub id: ModelId,
    /// The square input image size this compilation is for.
    pub image_size: usize,
    /// Structural fingerprint of the source graph (32 hex chars), composed
    /// bottom-up from per-node digests; cache keys reuse this instead of
    /// rehashing the graph per sweep point.
    pub fingerprint: String,
    /// The batch-1 metrics and per-node costs of the graph.
    pub metrics: ModelMetrics,
}

impl CompiledModel {
    /// Compile a graph: run extraction once (shape inference + per-node
    /// costs, the `metrics.extract` step) and fingerprint it. The
    /// `compile.model` span wraps both so profiles can attribute them.
    pub fn compile(id: ModelId, image_size: usize, graph: &Graph) -> Result<Self, GraphError> {
        let _span = convmeter_obs::span!("compile.model");
        convmeter_obs::counter!("compile.models").inc();
        Ok(CompiledModel {
            id,
            image_size,
            metrics: ModelMetrics::of(graph)?,
            fingerprint: graph.fingerprint(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convmeter_graph::layer::Activation;
    use convmeter_graph::{GraphBuilder, Shape};

    fn toy() -> Graph {
        let mut b = GraphBuilder::new("toy", Shape::image(3, 32));
        b.conv_bn_act(3, 16, 3, 1, 1, Activation::ReLU);
        b.conv_bn_act(16, 32, 3, 2, 1, Activation::ReLU);
        b.classifier(32, 10);
        b.finish()
    }

    #[test]
    fn compile_keeps_the_extraction() {
        let g = toy();
        let want = ModelMetrics::of(&g).unwrap();
        let compiled = CompiledModel::compile(ModelId::intern("toy"), 32, &g).unwrap();
        assert_eq!(compiled.metrics.name, want.name);
        assert_eq!(compiled.metrics.per_node, want.per_node);
        assert_eq!(compiled.metrics.at_batch(64), want.at_batch(64));
        assert_eq!(compiled.fingerprint, g.fingerprint());
    }

    #[test]
    fn compile_propagates_graph_errors() {
        let mut b = GraphBuilder::new("bad", Shape::image(3, 32));
        b.conv_bn(4, 8, 3, 1, 1);
        assert!(CompiledModel::compile(ModelId::intern("bad"), 32, &b.finish()).is_err());
    }
}
