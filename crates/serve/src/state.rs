//! Shared service state: the sharded coefficient store and the
//! fingerprint-keyed LRU response cache with request coalescing.
//!
//! Both layers reuse the engine store's memoisation idiom — a map of
//! `Arc<OnceLock<...>>` slots whose `get_or_init` blocks concurrent
//! initialisers — so identical work runs exactly once per process no matter
//! how many connections race:
//!
//! * **coefficient shards**, keyed by device-profile fingerprint: the first
//!   request for a device runs the quick calibration sweeps through the
//!   engine's [`DatasetStore`] (one inference, one distributed) and fits the
//!   forward and training models once; every later request on that device
//!   reuses the fitted coefficients;
//! * **response cache**, keyed by request fingerprint: completed responses
//!   are served straight from memory (LRU-evicted beyond capacity), and a
//!   request identical to one still being computed *coalesces* onto the
//!   in-flight slot instead of predicting again.

use crate::api::{
    error_body, BottleneckEntry, PredictRequest, PredictResponse, ScalePoint, API_FORMAT,
};
use convmeter::prelude::*;
use convmeter::scalability::{throughput_vs_nodes, turning_point};
use convmeter_bench::engine::store::{DatasetSpec, DatasetStats, DatasetStore};
use convmeter_graph::Graph;
use convmeter_hwsim::Precision;
use convmeter_metrics::{obs, CompiledModel};
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory for the engine store's on-disk dataset cache; `None` keeps
    /// calibration sweeps in memory only.
    pub disk_cache_dir: Option<PathBuf>,
    /// Response-cache capacity (completed entries).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            disk_cache_dir: None,
            cache_capacity: 256,
        }
    }
}

/// How a `/predict` request met the response cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a completed cached response.
    Hit,
    /// Joined an identical request still being computed.
    Coalesced,
    /// First request for this fingerprint; this caller built the response.
    Miss,
}

/// Point-in-time response-cache accounting.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CacheStats {
    /// Requests served from completed entries.
    pub hits: u64,
    /// Requests that created a new entry.
    pub misses: u64,
    /// Requests that joined an in-flight entry.
    pub coalesced: u64,
    /// Responses actually computed (one per distinct fingerprint, however
    /// many requests raced).
    pub builds: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
}

/// A rendered HTTP-level answer: status code plus JSON body.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
}

/// Fitted per-device coefficient set.
pub struct DeviceModels {
    /// Eq. 2 forward model fitted on the device's quick inference sweep.
    pub forward: ForwardModel,
    /// Training-step model fitted on the device's quick distributed sweep.
    pub training: TrainingModel,
}

type ModelSlot = Arc<OnceLock<Result<Arc<DeviceModels>, String>>>;
type ResponseSlot = Arc<OnceLock<Arc<Rendered>>>;

struct LruCache {
    capacity: usize,
    slots: BTreeMap<String, ResponseSlot>,
    /// Keys from least- to most-recently used.
    order: VecDeque<String>,
    stats: CacheStats,
}

impl LruCache {
    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key.to_string());
    }

    /// Drop least-recently-used entries beyond capacity. Completed entries
    /// go first; an in-flight entry is only dropped when nothing completed
    /// remains (waiters keep their own `Arc` to the slot, so dropping the
    /// map entry never breaks an in-progress coalesce — it merely lets a
    /// future identical request rebuild).
    /// Returns how many entries were dropped so the caller can bump the
    /// process-wide telemetry counter once its own guard is released — the
    /// registry takes a mutex on the cold path and must not nest under ours.
    fn evict(&mut self) -> u64 {
        let mut evicted = 0;
        while self.slots.len() > self.capacity {
            let victim = self
                .order
                .iter()
                .position(|k| self.slots.get(k).is_some_and(|s| s.get().is_some()))
                .unwrap_or(0);
            if let Some(key) = self.order.remove(victim) {
                self.slots.remove(&key);
                self.stats.evictions += 1;
                evicted += 1;
            } else {
                break;
            }
        }
        evicted
    }
}

/// Process-shared service state. Cheap to share behind an `Arc`; every
/// method takes `&self`.
pub struct ServeState {
    store: DatasetStore,
    shards: Mutex<BTreeMap<String, ModelSlot>>,
    cache: Mutex<LruCache>,
    builds: AtomicU64,
}

/// Resolve a device name and precision to a profile. Mirrors the CLI's
/// vocabulary so `convmeter benchmark --device gpu` and a `/predict` body
/// mean the same hardware.
pub fn resolve_device(name: &str, precision: &str) -> Result<DeviceProfile, String> {
    let device = match name {
        "gpu" | "a100" => DeviceProfile::a100_80gb(),
        "cpu" | "xeon" => DeviceProfile::xeon_gold_5318y_core(),
        other => return Err(format!("unknown device '{other}' (expected gpu|cpu)")),
    };
    Ok(match precision {
        "fp32" => device,
        "tf32" => device.with_precision(Precision::Tf32),
        "fp16" | "amp" => device.with_precision(Precision::Fp16),
        other => {
            return Err(format!(
                "unknown precision '{other}' (expected fp32|tf32|fp16)"
            ))
        }
    })
}

/// The architecture a request resolved to: a zoo model compiled through
/// the process-global compile cache (its metrics and fingerprint come from
/// there) or an owned raw graph.
enum Arch {
    Zoo {
        name: String,
        compiled: Arc<CompiledModel>,
    },
    Raw(Box<Graph>),
}

impl ServeState {
    /// Create service state with its own engine dataset store.
    pub fn new(config: &ServeConfig) -> ServeState {
        ServeState {
            store: DatasetStore::new(config.disk_cache_dir.clone()),
            shards: Mutex::new(BTreeMap::new()),
            cache: Mutex::new(LruCache {
                capacity: config.cache_capacity.max(1),
                slots: BTreeMap::new(),
                order: VecDeque::new(),
                stats: CacheStats::default(),
            }),
            builds: AtomicU64::new(0),
        }
    }

    /// Answer a parsed `/predict` request.
    ///
    /// `Err` is a bad-request message (unknown model/device, malformed
    /// graph) decided *before* the cache — invalid requests never occupy
    /// cache slots. `Ok` carries the rendered response (which may itself be
    /// a cached 5xx if a calibration sweep failed) and how the cache was
    /// met.
    pub fn predict(&self, req: &PredictRequest) -> Result<(Arc<Rendered>, CacheOutcome), String> {
        let device = resolve_device(&req.device, &req.precision)?;
        let (arch, graph_fp) = Self::resolve_arch(req)?;
        let fingerprint = req.fingerprint(&graph_fp, &device.fingerprint());
        let (slot, outcome) = self.lookup(&fingerprint);
        let rendered = slot
            .get_or_init(|| {
                self.builds.fetch_add(1, Ordering::Relaxed);
                obs::counter!("serve.predict.builds").inc();
                Arc::new(self.build_response(req, &device, &arch, &fingerprint))
            })
            .clone();
        Ok((rendered, outcome))
    }

    /// Pre-build the coefficient shard for a device so the first `/predict`
    /// does not pay for the calibration sweeps.
    pub fn warm(&self, device_name: &str, precision: &str) -> Result<(), String> {
        let device = resolve_device(device_name, precision)?;
        self.device_models(&device).map(|_| ())
    }

    /// Exactly-once build count. The coalescing cache guarantees each
    /// distinct fingerprint is built by exactly one caller, so this value is
    /// a function of the admitted request set alone — unlike the hit/miss
    /// split in [`Self::cache_stats`], it does not depend on worker
    /// scheduling order and is safe to put in reproducible artefacts.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Response-cache accounting (authoritative for tests: unlike the obs
    /// counters, this is scoped to one state instance).
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats;
        stats.builds = self.builds.load(Ordering::Relaxed);
        stats
    }

    /// Per-dataset accounting of the underlying engine store — the
    /// build-count instrumentation the coalescing tests assert on.
    pub fn store_stats(&self) -> BTreeMap<String, DatasetStats> {
        self.store.stats()
    }

    fn resolve_arch(req: &PredictRequest) -> Result<(Arch, String), String> {
        match (&req.model, &req.graph) {
            (Some(name), None) => {
                let compiled = convmeter_hwsim::compile::compiled(name, req.image)
                    .map_err(|e| e.to_string())?;
                let Some(compiled) = compiled else {
                    return Err(format!("{name} does not support {}px images", req.image));
                };
                let fingerprint = compiled.fingerprint.clone();
                Ok((
                    Arch::Zoo {
                        name: name.clone(),
                        compiled,
                    },
                    fingerprint,
                ))
            }
            (None, Some(value)) => {
                let graph = <Graph as serde::de::Deserialize>::from_value(value)
                    .map_err(|e| format!("invalid graph: {e}"))?;
                if let Err(report) = graph.check() {
                    return Err(format!("graph failed lint: {report}"));
                }
                let fp = graph.fingerprint();
                Ok((Arch::Raw(Box::new(graph)), fp))
            }
            // `from_json` guarantees exactly one side is present.
            _ => Err("provide `model` or `graph`".into()),
        }
    }

    fn lookup(&self, fingerprint: &str) -> (ResponseSlot, CacheOutcome) {
        let mut lru = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let (slot, outcome, evicted) = if let Some(slot) = lru.slots.get(fingerprint) {
            let slot = slot.clone();
            let outcome = if slot.get().is_some() {
                lru.stats.hits += 1;
                CacheOutcome::Hit
            } else {
                lru.stats.coalesced += 1;
                CacheOutcome::Coalesced
            };
            lru.touch(fingerprint);
            (slot, outcome, 0)
        } else {
            lru.stats.misses += 1;
            let slot = ResponseSlot::default();
            lru.slots.insert(fingerprint.to_string(), slot.clone());
            lru.order.push_back(fingerprint.to_string());
            let evicted = lru.evict();
            (slot, CacheOutcome::Miss, evicted)
        };
        drop(lru);
        // The telemetry registry takes its own mutex when a counter is first
        // interned; bump the process-wide counters only after the cache guard
        // is released so the two locks never nest.
        match outcome {
            CacheOutcome::Hit => obs::counter!("serve.cache.hits").inc(),
            CacheOutcome::Coalesced => obs::counter!("serve.cache.coalesced").inc(),
            CacheOutcome::Miss => obs::counter!("serve.cache.misses").inc(),
        }
        if evicted > 0 {
            obs::counter!("serve.cache.evictions").add(evicted);
        }
        (slot, outcome)
    }

    fn device_models(&self, device: &DeviceProfile) -> Result<Arc<DeviceModels>, String> {
        let slot = self
            .shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(device.fingerprint())
            .or_default()
            .clone();
        slot.get_or_init(|| {
            obs::counter!("serve.coeff.builds").inc();
            let started = obs::clock::now();
            let result = Self::build_models(&self.store, device);
            obs::histogram!("serve.coeff.build_us").record_duration_us(started.elapsed());
            result
        })
        .clone()
    }

    /// Fit the per-device coefficient set from the engine store's quick
    /// calibration sweeps. The store memoises and (optionally) persists the
    /// datasets, so two devices sharing a sweep share its cost.
    fn build_models(
        store: &DatasetStore,
        device: &DeviceProfile,
    ) -> Result<Arc<DeviceModels>, String> {
        let inference = store
            .inference(&DatasetSpec::Inference {
                device: device.clone(),
                config: SweepConfig::quick(),
            })
            .map_err(|e| format!("inference calibration sweep failed: {e}"))?;
        let forward =
            ForwardModel::fit(&inference).map_err(|e| format!("forward fit failed: {e}"))?;
        let distributed = store
            .training(&DatasetSpec::Distributed {
                device: device.clone(),
                config: DistSweepConfig::quick(),
            })
            .map_err(|e| format!("distributed calibration sweep failed: {e}"))?;
        let training =
            TrainingModel::fit(&distributed).map_err(|e| format!("training fit failed: {e}"))?;
        Ok(Arc::new(DeviceModels { forward, training }))
    }

    fn build_response(
        &self,
        req: &PredictRequest,
        device: &DeviceProfile,
        arch: &Arch,
        fingerprint: &str,
    ) -> Rendered {
        let models = match self.device_models(device) {
            Ok(models) => models,
            // Calibration failures are server-side: the device is known but
            // its sweep or fit broke. The rendered 500 is cached like any
            // other response — the failure is deterministic for this key.
            Err(e) => {
                return Rendered {
                    status: 500,
                    body: error_body(&e),
                }
            }
        };
        // Zoo models reuse the compiled metrics and build their graph only
        // for the bottleneck ranking; raw graphs are extracted here.
        let (zoo_graph, raw_metrics);
        let (graph, metrics, display_name) = match arch {
            Arch::Zoo { name, compiled } => match convmeter_models::zoo::by_name(name) {
                Some(spec) => {
                    zoo_graph = spec.build(req.image, 1000);
                    (&zoo_graph, &compiled.metrics, name.as_str())
                }
                None => {
                    return Rendered {
                        status: 500,
                        body: error_body(&format!("zoo spec '{name}' vanished after resolve")),
                    }
                }
            },
            Arch::Raw(graph) => match ModelMetrics::of(graph) {
                Ok(m) => {
                    raw_metrics = m;
                    (&**graph, &raw_metrics, graph.name())
                }
                Err(e) => {
                    return Rendered {
                        status: 500,
                        body: error_body(&format!("metric extraction failed: {e}")),
                    }
                }
            },
        };
        let batch_metrics = metrics.at_batch(req.batch);
        let forward_s = models.forward.predict_metrics(metrics, req.batch);
        let bwd_grad_s = models.training.predict_bwd_grad(&batch_metrics, 1);
        let step_s = models.training.predict_step(&batch_metrics, 1);
        let epoch_s = models.training.predict_epoch(
            metrics,
            req.dataset_size,
            req.batch,
            1,
            req.gpus_per_node,
        );
        let curve = throughput_vs_nodes(
            &models.training,
            metrics,
            req.batch,
            &req.nodes,
            req.gpus_per_node,
        );
        let turning_point_nodes = turning_point(&curve, 0.05);
        let scaling = curve
            .iter()
            .map(|p| ScalePoint {
                nodes: p.nodes,
                devices: p.devices,
                step_s: p.step_time,
                images_per_sec: p.images_per_sec,
            })
            .collect();
        let bottlenecks = match convmeter::bottleneck_report(&models.forward, graph, req.batch) {
            Ok(report) => report
                .blocks
                .iter()
                .take(req.top_blocks)
                .map(|b| BottleneckEntry {
                    block: b.block.clone(),
                    predicted_s: b.predicted,
                    share: b.share,
                })
                .collect(),
            // Architectures without registered block spans still get the
            // whole-model predictions; the ranking is best-effort.
            Err(_) => Vec::new(),
        };
        let response = PredictResponse {
            api_format: API_FORMAT,
            model: display_name.to_string(),
            fingerprint: fingerprint.to_string(),
            device_fingerprint: device.fingerprint(),
            image: req.image,
            batch: req.batch,
            forward_s,
            bwd_grad_s,
            step_s,
            epoch_s,
            scaling,
            turning_point_nodes,
            bottlenecks,
        };
        match serde_json::to_string_pretty(&response) {
            Ok(body) => Rendered { status: 200, body },
            Err(e) => Rendered {
                status: 500,
                body: error_body(&format!("response serialisation failed: {e}")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_request(json: &str) -> PredictRequest {
        PredictRequest::from_json(json).unwrap()
    }

    /// Small request: tiny image + trimmed analysis keeps the test fast.
    const REQ: &str =
        r#"{"model": "resnet18", "image": 64, "batch": 8, "nodes": [1, 2], "top_blocks": 2}"#;

    #[test]
    fn predict_hits_cache_on_repeat() {
        let state = ServeState::new(&ServeConfig::default());
        let req = quick_request(REQ);
        let (first, outcome) = state.predict(&req).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(first.status, 200, "{}", first.body);
        let (second, outcome) = state.predict(&req).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = state.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.builds, 1);
    }

    #[test]
    fn predict_response_schema_is_complete() {
        let state = ServeState::new(&ServeConfig::default());
        let (r, _) = state.predict(&quick_request(REQ)).unwrap();
        let v = serde_json::parse(&r.body).unwrap();
        assert_eq!(
            v.get("api_format").and_then(serde_json::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("model").and_then(serde_json::Value::as_str),
            Some("resnet18")
        );
        assert!(
            v.get("forward_s")
                .and_then(serde_json::Value::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(v.get("step_s").and_then(serde_json::Value::as_f64).unwrap() > 0.0);
        assert!(
            v.get("epoch_s")
                .and_then(serde_json::Value::as_f64)
                .unwrap()
                > 0.0
        );
        assert_eq!(
            v.get("scaling")
                .and_then(serde_json::Value::as_array)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            v.get("bottlenecks")
                .and_then(serde_json::Value::as_array)
                .unwrap()
                .len(),
            2
        );
        assert!(v
            .get("turning_point_nodes")
            .and_then(serde_json::Value::as_u64)
            .is_some());
    }

    #[test]
    fn bad_requests_never_occupy_the_cache() {
        let state = ServeState::new(&ServeConfig::default());
        let unknown_model = quick_request(r#"{"model": "resnet999"}"#);
        assert!(state.predict(&unknown_model).is_err());
        let unknown_device = quick_request(r#"{"model": "resnet18", "device": "tpu"}"#);
        assert!(state.predict(&unknown_device).is_err());
        let too_small = quick_request(r#"{"model": "inception_v3", "image": 32}"#);
        assert!(state.predict(&too_small).is_err());
        let stats = state.cache_stats();
        assert_eq!(stats.misses + stats.hits + stats.coalesced, 0);
    }

    #[test]
    fn raw_graph_requests_predict_and_coalesce_with_structure() {
        let state = ServeState::new(&ServeConfig::default());
        // Serialise a zoo graph and submit it as a raw graph document.
        let graph = convmeter_models::zoo::by_name("vgg11")
            .unwrap()
            .build(64, 1000);
        let graph_json = serde_json::to_string(&serde_json::to_value(&graph)).unwrap();
        let body = format!(r#"{{"graph": {graph_json}, "image": 64, "batch": 8, "nodes": [1]}}"#);
        let raw_req = quick_request(&body);
        let (r, outcome) = state.predict(&raw_req).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(outcome, CacheOutcome::Miss);
        // The same architecture by zoo name lands on the same fingerprint.
        let by_name = quick_request(r#"{"model": "vgg11", "image": 64, "batch": 8, "nodes": [1]}"#);
        let (_, outcome) = state.predict(&by_name).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
    }

    #[test]
    fn lru_evicts_least_recent_completed_entries() {
        let state = ServeState::new(&ServeConfig {
            disk_cache_dir: None,
            cache_capacity: 2,
        });
        let mk = |batch: usize| {
            quick_request(&format!(
                r#"{{"model": "resnet18", "image": 64, "batch": {batch}, "nodes": [1]}}"#
            ))
        };
        state.predict(&mk(1)).unwrap();
        state.predict(&mk(2)).unwrap();
        state.predict(&mk(4)).unwrap(); // evicts batch=1
        let (_, outcome) = state.predict(&mk(2)).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        let (_, outcome) = state.predict(&mk(1)).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "evicted entry must rebuild");
        assert_eq!(state.cache_stats().evictions, 2);
    }
}
