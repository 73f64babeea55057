//! Bottleneck analysis: per-block latency breakdown of a model.
//!
//! The paper motivates block-wise prediction with exactly this use case:
//! "fine-grained runtime information is particularly useful for neural
//! architecture search and network optimization methods to spot and tune
//! the network's bottlenecks". Given a fitted [`ForwardModel`] and a graph
//! with registered block spans, [`bottleneck_report`] predicts every block's
//! latency and ranks them.

use crate::forward::ForwardModel;
use convmeter_graph::Graph;
use convmeter_metrics::ModelMetrics;
use serde::{Deserialize, Serialize};

/// One block's entry in a bottleneck report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockTiming {
    /// Block name (from its registered span).
    pub block: String,
    /// Predicted latency at the report's batch size, seconds.
    pub predicted: f64,
    /// Share of the summed block latency (0..1).
    pub share: f64,
    /// Block FLOPs at the report's batch size.
    pub flops: u64,
    /// Block parameter count.
    pub weights: u64,
}

/// A per-block latency breakdown for one model at one batch size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BottleneckReport {
    /// Model name.
    pub model: String,
    /// Batch size the report was computed for.
    pub batch: usize,
    /// Blocks, sorted by predicted latency, slowest first.
    pub blocks: Vec<BlockTiming>,
    /// Predicted whole-model latency (for comparison with the block sum —
    /// blocks do not cover stem/head layers).
    pub whole_model: f64,
}

/// Errors from bottleneck analysis.
#[derive(Debug)]
pub enum AnalysisError {
    /// The graph has no registered block spans.
    NoBlocks,
    /// A registered block failed to extract or validate.
    Block(String),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::NoBlocks => write!(f, "graph has no registered blocks"),
            AnalysisError::Block(e) => write!(f, "block error: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Predict the latency of every registered block of `graph` at `batch`,
/// producing a ranked bottleneck report. `whole` is the whole graph's
/// metrics, which the caller already holds (for zoo models, the compiled
/// ones), so only the blocks are extracted here.
pub fn bottleneck_report(
    model: &ForwardModel,
    graph: &Graph,
    whole: &ModelMetrics,
    batch: usize,
) -> Result<BottleneckReport, AnalysisError> {
    if graph.blocks().is_empty() {
        return Err(AnalysisError::NoBlocks);
    }
    let whole_model = model.predict_metrics(whole, batch);

    let mut blocks = Vec::with_capacity(graph.blocks().len());
    for span in graph.blocks() {
        let block = graph.extract_block(span).map_err(AnalysisError::Block)?;
        let metrics = ModelMetrics::of(&block).map_err(|e| AnalysisError::Block(e.to_string()))?;
        let bm = metrics.at_batch(batch);
        blocks.push(BlockTiming {
            block: span.name.clone(),
            predicted: model.predict_metrics(&metrics, batch),
            share: 0.0,
            flops: bm.flops,
            weights: metrics.weights,
        });
    }
    let total: f64 = blocks.iter().map(|b| b.predicted).sum();
    if total > 0.0 {
        for b in &mut blocks {
            b.share = b.predicted / total;
        }
    }
    blocks.sort_by(|a, b| b.predicted.total_cmp(&a.predicted));
    Ok(BottleneckReport {
        model: graph.name().to_string(),
        batch,
        blocks,
        whole_model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::inference_dataset;
    use convmeter_hwsim::{DeviceProfile, SweepConfig};
    use convmeter_models::zoo;

    fn fitted() -> ForwardModel {
        let data = inference_dataset(&DeviceProfile::a100_80gb(), &SweepConfig::quick()).unwrap();
        ForwardModel::fit(&data).unwrap()
    }

    fn resnet50_report(model: &ForwardModel) -> BottleneckReport {
        let graph = zoo::by_name("resnet50").unwrap().build(224, 1000);
        let whole = ModelMetrics::of(&graph).unwrap();
        bottleneck_report(model, &graph, &whole, 32).unwrap()
    }

    #[test]
    fn resnet50_report_ranks_blocks() {
        let model = fitted();
        let report = resnet50_report(&model);
        assert_eq!(report.blocks.len(), 16);
        // Sorted descending.
        for w in report.blocks.windows(2) {
            assert!(w[0].predicted >= w[1].predicted);
        }
        // Shares sum to ~1.
        let total: f64 = report.blocks.iter().map(|b| b.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The whole model is at least as expensive as the block sum minus
        // slack (stem/head are outside the blocks; intercepts differ).
        assert!(report.whole_model > 0.0);
    }

    #[test]
    fn downsample_bottlenecks_rank_high() {
        // In ResNet-50 at 224 px the stage-boundary bottlenecks (the first
        // block of stages 2-4: Bottleneck4, 8, 14) are individually the most
        // expensive: they run their 3x3 conv at the incoming (higher)
        // resolution and add a strided 1x1 projection on the shortcut.
        let report = resnet50_report(&fitted());
        let mut top: Vec<usize> = report.blocks[..3]
            .iter()
            .map(|b| b.block.trim_start_matches("Bottleneck").parse().unwrap())
            .collect();
        top.sort_unstable();
        assert_eq!(
            top,
            vec![4, 8, 14],
            "expected the stage-2..4 downsample bottlenecks on top, got {:?}",
            &report.blocks[..3]
                .iter()
                .map(|b| &b.block)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn graph_without_blocks_is_an_error() {
        let model = fitted();
        let mut b =
            convmeter_graph::GraphBuilder::new("flat", convmeter_graph::Shape::image(3, 32));
        b.conv_bn(3, 8, 3, 1, 1);
        let g = b.finish();
        let whole = ModelMetrics::of(&g).unwrap();
        assert!(matches!(
            bottleneck_report(&model, &g, &whole, 1),
            Err(AnalysisError::NoBlocks)
        ));
    }
}
