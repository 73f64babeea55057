//! The paper's evaluation protocol: leave-one-model-out error reporting.
//!
//! "To obtain the error rates per ConvNet, we develop a performance model
//! for each ConvNet, excluding its own data from the training set to ensure
//! unbiased evaluation" (Section 4, Benchmarks). Every held-out evaluation in
//! the workspace runs through one fold loop: [`leave_one_model_out`] refits
//! the model once per held-out ConvNet on the other ConvNets' points and
//! hands each fitted model and its held-out rows to a visitor. The loop is
//! generic over the point type through [`FoldPoint`], so inference
//! (Table 1) and training (Table 3) are two instantiations of it, and so are
//! the phase scatters behind Figures 5 and 7 and the k-fold check in
//! [`kfold_inference`]. Each evaluation records one `convmeter.eval.logo`
//! span.

use crate::dataset::{InferencePoint, TrainingPoint};
use crate::forward::ForwardModel;
use crate::training::TrainingModel;
use convmeter_linalg::cv::{KFold, LeaveOneGroupOut, Split};
use convmeter_linalg::stats::ErrorReport;
use convmeter_linalg::FitError;
use convmeter_metrics::{obs, ModelId};
use serde::{Deserialize, Serialize};

/// Per-ConvNet error report (one row of Table 1 / Table 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerModelReport {
    /// The held-out ConvNet.
    pub model: String,
    /// Error metrics over the held-out points.
    pub report: ErrorReport,
}

/// One scatter-plot point: measured vs. predicted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScatterPoint {
    /// Model the point belongs to (interned; serialises as the plain
    /// string).
    pub model: ModelId,
    /// Square image size.
    pub image_size: usize,
    /// Batch size (per device where applicable).
    pub batch: usize,
    /// Measured time, seconds.
    pub measured: f64,
    /// Predicted time, seconds.
    pub predicted: f64,
}

/// A benchmark observation the fold loop can fit on and score.
pub trait FoldPoint: Copy {
    /// The model fitted on a fold's training points.
    type Model;
    /// The sweep configuration `(model, image size, batch)`. The model is
    /// the leave-one-out group key.
    fn config(&self) -> (ModelId, usize, usize);
    /// Fit [`FoldPoint::Model`] on a fold's training points.
    fn fit(train: &[Self]) -> Result<Self::Model, FitError>;
    /// The fitted model's prediction for this point, seconds.
    fn predict(&self, model: &Self::Model) -> f64;
    /// The measured time the prediction is scored against, seconds.
    fn measured(&self) -> f64;
}

impl FoldPoint for InferencePoint {
    type Model = ForwardModel;
    fn config(&self) -> (ModelId, usize, usize) {
        (self.model, self.image_size, self.batch)
    }
    fn fit(train: &[Self]) -> Result<ForwardModel, FitError> {
        ForwardModel::fit(train)
    }
    fn predict(&self, model: &ForwardModel) -> f64 {
        model.predict(&self.metrics)
    }
    fn measured(&self) -> f64 {
        self.measured
    }
}

/// Training points are scored on the full step (Eq. 1).
impl FoldPoint for TrainingPoint {
    type Model = TrainingModel;
    fn config(&self) -> (ModelId, usize, usize) {
        (self.model, self.image_size, self.batch)
    }
    fn fit(train: &[Self]) -> Result<TrainingModel, FitError> {
        TrainingModel::fit(train)
    }
    fn predict(&self, model: &TrainingModel) -> f64 {
        model.predict_step(&self.metrics, self.nodes)
    }
    fn measured(&self) -> f64 {
        self.step_time()
    }
}

/// Fit once per split on its training rows, in split order, and hand the
/// split's label, the fitted model and the split itself to `visit`.
fn for_each_fold<P: FoldPoint, G>(
    points: &[P],
    splits: impl IntoIterator<Item = (G, Split)>,
    mut visit: impl FnMut(G, &P::Model, &Split),
) -> Result<(), FitError> {
    let mut train = Vec::with_capacity(points.len());
    for (label, split) in splits {
        train.clear();
        train.extend(split.train.iter().map(|&i| points[i]));
        let fitted = P::fit(&train)?;
        visit(label, &fitted, &split);
    }
    Ok(())
}

/// The leave-one-model-out fold loop: one exact refit per distinct model,
/// in order of first appearance in `points`. `visit` receives the held-out
/// model's name, the model fitted without its points, and the split (the
/// held-out points are `split.test`).
pub fn leave_one_model_out<P: FoldPoint>(
    points: &[P],
    visit: impl FnMut(&str, &P::Model, &Split),
) -> Result<(), FitError> {
    let _span = obs::span!("convmeter.eval.logo");
    let groups: Vec<&str> = points.iter().map(|p| p.config().0.as_str()).collect();
    for_each_fold(points, LeaveOneGroupOut::splits(&groups), visit)
}

/// A held-out point scored by the model fitted without it.
fn held_out<P: FoldPoint>(point: &P, fitted: &P::Model) -> ScatterPoint {
    let (model, image_size, batch) = point.config();
    ScatterPoint {
        model,
        image_size,
        batch,
        measured: point.measured(),
        predicted: point.predict(fitted),
    }
}

/// Error metrics over a run of scatter points.
fn report_of(scatter: &[ScatterPoint]) -> ErrorReport {
    let (pred, meas): (Vec<f64>, Vec<f64>) =
        scatter.iter().map(|s| (s.predicted, s.measured)).unzip();
    ErrorReport::compute(&pred, &meas)
}

/// Leave-one-model-out scoring: per-model reports, every held-out scatter
/// point in fold order, and the overall report across all of them.
fn score<P: FoldPoint>(
    points: &[P],
) -> Result<(Vec<PerModelReport>, Vec<ScatterPoint>, ErrorReport), FitError> {
    let mut reports = Vec::new();
    let mut scatter = Vec::with_capacity(points.len());
    leave_one_model_out(points, |model_name, fitted, split| {
        let start = scatter.len();
        scatter.extend(split.test.iter().map(|&i| held_out(&points[i], fitted)));
        reports.push(PerModelReport {
            // analyzer:allow(CP0001, reason = "one owned name per distinct held-out model; the report rows own their labels")
            model: model_name.to_string(),
            report: report_of(&scatter[start..]),
        });
    })?;
    let overall = report_of(&scatter);
    Ok((reports, scatter, overall))
}

/// Leave-one-model-out evaluation of the inference model.
///
/// Returns per-model reports plus all held-out scatter points, and the
/// overall report across every held-out prediction.
pub fn leave_one_model_out_inference(
    points: &[InferencePoint],
) -> Result<(Vec<PerModelReport>, Vec<ScatterPoint>, ErrorReport), FitError> {
    score(points)
}

/// Leave-one-model-out evaluation of the full training-step model.
pub fn leave_one_model_out_training(
    points: &[TrainingPoint],
) -> Result<(Vec<PerModelReport>, Vec<ScatterPoint>, ErrorReport), FitError> {
    score(points)
}

/// K-fold cross-validated evaluation of the inference model: a generic
/// generalisation check that mixes all models in every fold (contrast with
/// the stricter leave-one-model-out protocol).
pub fn kfold_inference(points: &[InferencePoint], k: usize) -> Result<ErrorReport, FitError> {
    let splits = KFold::new(k).splits(points.len());
    let mut scatter = Vec::with_capacity(points.len());
    for_each_fold(
        points,
        splits.into_iter().map(|s| ((), s)),
        |(), fitted, split| {
            scatter.extend(split.test.iter().map(|&i| held_out(&points[i], fitted)));
        },
    )?;
    Ok(report_of(&scatter))
}

/// Error breakdown of a scatter by a grouping key — e.g. by batch size to
/// quantify the paper's "the prediction is more accurate for larger batch
/// sizes" observation, or by image size.
pub fn breakdown_by<K: Ord + Clone>(
    scatter: &[ScatterPoint],
    key: impl Fn(&ScatterPoint) -> K,
) -> Vec<(K, ErrorReport)> {
    let mut groups: std::collections::BTreeMap<K, (Vec<f64>, Vec<f64>)> =
        std::collections::BTreeMap::new();
    for s in scatter {
        let entry = groups.entry(key(s)).or_default();
        entry.0.push(s.predicted);
        entry.1.push(s.measured);
    }
    groups
        .into_iter()
        .map(|(k, (p, m))| (k, ErrorReport::compute(&p, &m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{inference_dataset, training_dataset};
    use convmeter_hwsim::{DeviceProfile, SweepConfig};

    /// A mid-size sweep: big enough that leave-one-model-out generalisation
    /// is meaningful (the 18-point quick sweep is not), small enough for
    /// fast tests.
    fn eval_config() -> SweepConfig {
        let mut cfg = SweepConfig::quick();
        cfg.models = vec![
            "resnet18".into(),
            "resnet50".into(),
            "mobilenet_v2".into(),
            "vgg11".into(),
            "alexnet".into(),
            "densenet121".into(),
        ];
        cfg.image_sizes = vec![64, 128, 224];
        cfg.batch_sizes = vec![1, 4, 16, 64, 256];
        cfg
    }

    #[test]
    fn inference_loocv_reports_per_model() {
        let data = inference_dataset(&DeviceProfile::a100_80gb(), &eval_config()).unwrap();
        let (reports, scatter, overall) = leave_one_model_out_inference(&data).unwrap();
        assert_eq!(reports.len(), 6);
        assert_eq!(scatter.len(), data.len());
        assert!(overall.n == data.len());
        // Held-out predictions should still be decent on the simulator.
        assert!(overall.r2 > 0.8, "overall {overall}");
        for r in &reports {
            assert!(r.report.mape < 1.0, "{}: {}", r.model, r.report);
        }
    }

    #[test]
    fn training_loocv_runs() {
        let data = training_dataset(&DeviceProfile::a100_80gb(), &eval_config()).unwrap();
        let (reports, scatter, overall) = leave_one_model_out_training(&data).unwrap();
        assert_eq!(reports.len(), 6);
        assert_eq!(scatter.len(), data.len());
        assert!(overall.r2 > 0.7, "overall {overall}");
    }

    #[test]
    fn kfold_beats_leave_one_model_out() {
        // K-fold mixes every model into training, so it must be at least as
        // accurate as the stricter unseen-model protocol.
        let data = inference_dataset(&DeviceProfile::a100_80gb(), &eval_config()).unwrap();
        let kfold = kfold_inference(&data, 5).unwrap();
        let (_, _, loocv) = leave_one_model_out_inference(&data).unwrap();
        assert!(
            kfold.r2 >= loocv.r2 - 0.02,
            "kfold {kfold} vs loocv {loocv}"
        );
        assert!(kfold.mape <= loocv.mape * 1.1);
    }

    #[test]
    fn accuracy_improves_with_batch_size() {
        // The paper: "the prediction is more accurate for larger batch
        // sizes." Compare relative error at the extremes of the sweep.
        let data = inference_dataset(&DeviceProfile::a100_80gb(), &eval_config()).unwrap();
        let (_, scatter, _) = leave_one_model_out_inference(&data).unwrap();
        let by_batch = breakdown_by(&scatter, |s| s.batch);
        let small = by_batch.first().unwrap();
        let large = by_batch.last().unwrap();
        assert!(small.0 < large.0);
        assert!(
            large.1.mape < small.1.mape,
            "batch {} MAPE {} should beat batch {} MAPE {}",
            large.0,
            large.1.mape,
            small.0,
            small.1.mape
        );
    }

    /// Every point appears exactly once in the scatter, in the held-out
    /// fold of its own model.
    fn assert_each_point_held_out_once(scatter: &[ScatterPoint], keys: &[(ModelId, usize, usize)]) {
        let mut counts = std::collections::HashMap::new();
        for s in scatter {
            *counts
                .entry((s.model, s.image_size, s.batch))
                .or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), keys.len());
        for key in keys {
            assert_eq!(counts.get(key), Some(&1), "{key:?}");
        }
    }

    #[test]
    fn held_out_model_not_in_training_set() {
        // Both instantiations of the fold loop score every point exactly
        // once, and no fold trains on the model it holds out.
        let device = DeviceProfile::a100_80gb();
        let inference = inference_dataset(&device, &SweepConfig::quick()).unwrap();
        let (_, scatter, _) = leave_one_model_out_inference(&inference).unwrap();
        let keys: Vec<_> = inference.iter().map(FoldPoint::config).collect();
        assert_each_point_held_out_once(&scatter, &keys);

        let training = training_dataset(&device, &SweepConfig::quick()).unwrap();
        let (_, scatter, _) = leave_one_model_out_training(&training).unwrap();
        let keys: Vec<_> = training.iter().map(FoldPoint::config).collect();
        assert_each_point_held_out_once(&scatter, &keys);

        let mut folds = 0;
        leave_one_model_out(&training, |name, _, split| {
            folds += 1;
            assert!(split.test.iter().all(|&i| training[i].model == name));
            assert!(split.train.iter().all(|&i| training[i].model != name));
        })
        .unwrap();
        let distinct: std::collections::BTreeSet<_> = training.iter().map(|p| p.model).collect();
        assert_eq!(folds, distinct.len());
    }
}
