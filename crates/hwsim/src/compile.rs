//! Process-global compiled-model cache and sweep parallelism knob.
//!
//! Every sweep point used to rebuild its graph and re-extract metrics.
//! [`compiled`] does that work exactly once per `(model, image_size)` pair
//! per process: it builds the zoo graph, lints it, compiles it to a
//! [`CompiledModel`] (batch-1 `ModelMetrics` keyed by interned id and
//! structural fingerprint), and memoises the result behind an `Arc`.
//! Sweeps, dataset builders and `serve` then evaluate any batch size from
//! the cached metrics without touching the graph again.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use convmeter_metrics::{CompiledModel, ModelId};
use convmeter_models::zoo;

use crate::error::SweepError;

/// Classifier head width used for every zoo build in the sweep pipeline.
const NUM_CLASSES: usize = 1000;

type Cache = BTreeMap<(ModelId, usize), Arc<CompiledModel>>;

fn cache() -> &'static Mutex<Cache> {
    static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The compiled model for `(name, image_size)`, built and memoised on first
/// use.
///
/// Returns `Ok(None)` when the model exists but does not support
/// `image_size` (sweeps skip such pairs), `Err` when the name is unknown or
/// the graph fails lint or metric extraction. The build runs under the
/// cache lock so each pair compiles exactly once per process and the
/// `compile.models` counter stays deterministic.
pub fn compiled(name: &str, image_size: usize) -> Result<Option<Arc<CompiledModel>>, SweepError> {
    let spec = zoo::by_name(name).ok_or_else(|| SweepError::UnknownModel {
        name: name.to_string(),
    })?;
    if !spec.supports(image_size) {
        return Ok(None);
    }
    let id = ModelId::intern(spec.name);
    let mut cache = cache().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(cm) = cache.get(&(id, image_size)) {
        return Ok(Some(Arc::clone(cm)));
    }
    let graph = spec.build(image_size, NUM_CLASSES);
    // analyzer:allow(CB0002, reason = "holding the memo lock across the build is intentional: it serialises duplicate compiles of the same (model, size) so only one caller pays; the registry mutex inside is leaf-level and never takes this lock")
    if let Err(report) = graph.check() {
        return Err(SweepError::Lint {
            model: name.to_string(),
            image_size,
            report: report.to_string(),
        });
    }
    let cm = Arc::new(
        // analyzer:allow(CB0002, reason = "same intentional serialisation as the lint pass above: one compile per (model, size) under the memo lock; the telemetry registry mutex is leaf-level")
        CompiledModel::compile(id, image_size, &graph).map_err(|source| SweepError::Graph {
            model: name.to_string(),
            image_size,
            source,
        })?,
    );
    cache.insert((id, image_size), Arc::clone(&cm));
    Ok(Some(cm))
}

/// Drop every memoised compiled model (test isolation helper).
#[doc(hidden)]
pub fn clear_cache() {
    cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

static SWEEP_JOBS: AtomicUsize = AtomicUsize::new(1);

/// Set the worker count used *inside* a single sweep (default 1).
///
/// The engine sets this from `--jobs` so intra-build parallelism follows
/// the same knob as cross-experiment parallelism. Per-point noise seeding
/// is derived from point coordinates, so results are identical at any
/// worker count.
pub fn set_sweep_jobs(jobs: usize) {
    SWEEP_JOBS.store(jobs.max(1), Ordering::Relaxed);
}

/// The current intra-sweep worker count.
pub fn sweep_jobs() -> usize {
    SWEEP_JOBS.load(Ordering::Relaxed).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_memoises_per_pair() {
        let a = compiled("resnet18", 64).unwrap().unwrap();
        let b = compiled("resnet18", 64).unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.id, ModelId::intern("resnet18"));
        assert_eq!(a.image_size, 64);
    }

    #[test]
    fn compiles_deterministically_per_pair() {
        // Two independent compilations of the same (model, image) agree on
        // every field the cache key and sweeps depend on.
        let spec = zoo::by_name("resnet18").unwrap();
        let id = ModelId::intern("resnet18");
        let a = CompiledModel::compile(id, 64, &spec.build(64, NUM_CLASSES)).unwrap();
        let b = CompiledModel::compile(id, 64, &spec.build(64, NUM_CLASSES)).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.metrics.flops, b.metrics.flops);
        assert_eq!(a.metrics.peak_live_elements, b.metrics.peak_live_elements);
        assert_eq!(a.metrics.per_node, b.metrics.per_node);
    }

    #[test]
    fn unknown_model_is_a_typed_error() {
        let err = compiled("not_a_model", 64).unwrap_err();
        assert!(matches!(err, SweepError::UnknownModel { ref name } if name == "not_a_model"));
        assert!(err.to_string().contains("not_a_model"));
    }

    #[test]
    fn unsupported_image_size_is_skipped() {
        // vgg16 requires >= 32 px.
        assert!(compiled("vgg16", 1).unwrap().is_none());
    }

    #[test]
    fn sweep_jobs_clamps_to_one() {
        set_sweep_jobs(0);
        assert_eq!(sweep_jobs(), 1);
        set_sweep_jobs(4);
        assert_eq!(sweep_jobs(), 4);
        set_sweep_jobs(1);
    }
}
