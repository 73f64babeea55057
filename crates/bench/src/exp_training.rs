//! Training experiments: Table 3, Figure 5 (single GPU), Figure 7
//! (distributed). All take their benchmark dataset as input.

use crate::report::Table;
use convmeter::prelude::*;
use convmeter_linalg::stats::ErrorReport;
use convmeter_linalg::FitError;
use convmeter_metrics::ModelId;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Scatter of one training phase: (measured, predicted) with context.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseScatter {
    /// Phase name: `forward`, `backward`, `grad_update`, `step`.
    pub phase: String,
    /// Points: (model, measured, predicted). The model id is interned and
    /// serialises as the plain string.
    pub points: Vec<(ModelId, f64, f64)>,
    /// Error metrics across the phase.
    pub report: ErrorReport,
}

/// Result of a training-phase evaluation (Figure 5 or 7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingPhasesResult {
    /// One scatter per phase plus the full step.
    pub phases: Vec<PhaseScatter>,
    /// Per-model step-time reports (Table 3 columns).
    pub per_model: Vec<PerModelReport>,
    /// Overall step-time metrics.
    pub overall: ErrorReport,
}

/// Error metrics over one phase's `(model, measured, predicted)` points.
fn phase_report(points: &[(ModelId, f64, f64)]) -> ErrorReport {
    let meas: Vec<f64> = points.iter().map(|p| p.1).collect();
    let pred: Vec<f64> = points.iter().map(|p| p.2).collect();
    ErrorReport::compute(&pred, &meas)
}

/// Leave-one-model-out evaluation of all phases on a training dataset
/// (single-GPU for Figure 5, distributed for Figure 7). The folds are
/// [`leave_one_model_out`]'s, so `per_model` is exactly
/// [`leave_one_model_out_training`]'s reports.
pub fn evaluate_phases(points: &[TrainingPoint]) -> Result<TrainingPhasesResult, FitError> {
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    let mut grad = Vec::new();
    let mut step = Vec::new();
    let mut per_model = Vec::new();
    leave_one_model_out(points, |model_name, fitted: &TrainingModel, split| {
        let start = step.len();
        for &i in &split.test {
            let p = &points[i];
            let name = p.model;
            fwd.push((name, p.fwd, fitted.predict_forward(&p.metrics)));
            bwd.push((name, p.bwd, fitted.predict_backward(&p.metrics)));
            grad.push((
                name,
                p.grad,
                fitted.predict_grad_update(&p.metrics, p.nodes),
            ));
            step.push((
                name,
                p.step_time(),
                fitted.predict_step(&p.metrics, p.nodes),
            ));
        }
        per_model.push(PerModelReport {
            model: model_name.to_string(),
            report: phase_report(&step[start..]),
        });
    })?;
    let to_scatter = |phase: &str, points: Vec<(ModelId, f64, f64)>| PhaseScatter {
        phase: phase.to_string(),
        report: phase_report(&points),
        points,
    };
    let phases = vec![
        to_scatter("forward", fwd),
        to_scatter("backward", bwd),
        to_scatter("grad_update", grad),
        to_scatter("step", step),
    ];
    let overall = phases[3].report;
    Ok(TrainingPhasesResult {
        phases,
        per_model,
        overall,
    })
}

/// Result of Table 3: single-GPU and distributed per-model step errors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Result {
    /// Single-GPU per-model reports.
    pub single: Vec<PerModelReport>,
    /// Distributed per-model reports.
    pub distributed: Vec<PerModelReport>,
    /// Overall single-GPU step metrics.
    pub single_overall: ErrorReport,
    /// Overall distributed step metrics.
    pub distributed_overall: ErrorReport,
}

/// Assemble Table 3 from the same evaluations behind Figures 5 and 7.
pub fn table3(single: &TrainingPhasesResult, distributed: &TrainingPhasesResult) -> Table3Result {
    Table3Result {
        single_overall: single.overall,
        distributed_overall: distributed.overall,
        single: single.per_model.clone(),
        distributed: distributed.per_model.clone(),
    }
}

/// Render Table 3.
pub fn render_table3(result: &Table3Result) -> String {
    let mut t = Table::new(
        "Table 3: training-step prediction per ConvNet (leave-one-model-out)",
        &[
            "model",
            "1-GPU R2",
            "1-GPU RMSE",
            "1-GPU MAPE",
            "multi R2",
            "multi RMSE",
            "multi MAPE",
        ],
    );
    for (s, d) in result.single.iter().zip(&result.distributed) {
        assert_eq!(s.model, d.model);
        t.row(vec![
            s.model.clone(),
            format!("{:.2}", s.report.r2),
            format!("{:.1} ms", s.report.rmse * 1e3),
            format!("{:.2}", s.report.mape),
            format!("{:.2}", d.report.r2),
            format!("{:.1} ms", d.report.rmse * 1e3),
            format!("{:.2}", d.report.mape),
        ]);
    }
    let mut out = t.render();
    let _ = writeln!(
        out,
        "\nOverall:\n  single GPU:  {}\n  distributed: {}\n  Paper: single R2=0.88 RMSE=29.4ms NRMSE=0.26 MAPE=0.18 | multi R2=0.78 RMSE=38.7ms NRMSE=0.18 MAPE=0.15\n",
        result.single_overall, result.distributed_overall
    );
    out
}

/// Render a phase evaluation (Figure 5 or 7) under the given title.
pub fn render_phases(title: &str, result: &TrainingPhasesResult) -> String {
    let mut t = Table::new(
        title,
        &["phase", "points", "R2", "RMSE (ms)", "NRMSE", "MAPE"],
    );
    for p in &result.phases {
        t.row(vec![
            p.phase.clone(),
            p.points.len().to_string(),
            format!("{:.3}", p.report.r2),
            format!("{:.2}", p.report.rmse * 1e3),
            format!("{:.3}", p.report.nrmse),
            format!("{:.3}", p.report.mape),
        ]);
    }
    let mut out = t.render();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineError;
    use std::error::Error as _;

    /// Four models, so every fold keeps enough points to fit the
    /// multi-node regime on its own.
    fn small_distributed() -> Vec<TrainingPoint> {
        let mut sweep = DistSweepConfig::quick();
        sweep.models = vec![
            "resnet18".into(),
            "alexnet".into(),
            "mobilenet_v2".into(),
            "vgg11".into(),
        ];
        sweep.batch_sizes = vec![8, 32, 64, 128];
        distributed_dataset(&DeviceProfile::a100_80gb(), &sweep).unwrap()
    }

    fn bits(r: &ErrorReport) -> [u64; 5] {
        [
            r.r2.to_bits(),
            r.rmse.to_bits(),
            r.nrmse.to_bits(),
            r.mape.to_bits(),
            r.n as u64,
        ]
    }

    #[test]
    fn per_model_reports_match_the_training_evaluator_bitwise() {
        let points = small_distributed();
        let phases = evaluate_phases(&points).unwrap();
        let (reports, _, overall) = leave_one_model_out_training(&points).unwrap();
        assert_eq!(phases.per_model.len(), reports.len());
        for (a, b) in phases.per_model.iter().zip(&reports) {
            assert_eq!(a.model, b.model);
            assert_eq!(bits(&a.report), bits(&b.report), "{}", a.model);
        }
        assert_eq!(bits(&phases.overall), bits(&overall));
    }

    #[test]
    fn one_model_dataset_is_a_typed_error() {
        let mut points = small_distributed();
        let first = points[0].model;
        points.retain(|p| p.model == first);
        let err = evaluate_phases(&points)
            .map_err(EngineError::fit("fig7"))
            .unwrap_err();
        assert!(matches!(err, EngineError::Fit { .. }), "{err}");
        assert!(err
            .source()
            .is_some_and(|s| s.downcast_ref::<FitError>().is_some()));
    }
}
