//! In-process side of the repository benchmark (`perfbench/run.py`).
//!
//! * `gen`    — the seeded `/predict` request bodies of a serve workload,
//!   one compact JSON body per line;
//! * `expect` — the in-process `ServeState::predict` answer to each body,
//!   which the runner requires every HTTP response to equal byte for byte;
//! * `layers` — the traced per-layer pass: a span around each call into a
//!   crate's public API, kept in memory and written out when the pass ends,
//!   plus the per-layer metrics derived from those spans.
//!
//! Run it through `python3 perfbench/run.py`; the runner builds it.

mod trace;

use convmeter::eval::{leave_one_model_out_inference, leave_one_model_out_training};
use convmeter::persist;
use convmeter::{ForwardModel, TrainingModel};
use convmeter_baselines::mlp::{graph_features, MlpConfig, MlpPredictor};
use convmeter_bench::engine::registry;
use convmeter_bench::engine::store::{DatasetSpec, DatasetStore};
use convmeter_graph::Graph;
use convmeter_hwsim::{DeviceProfile, NoiseModel};
use convmeter_metrics::ModelMetrics;
use convmeter_serve::state::resolve_device;
use convmeter_serve::{CacheOutcome, PredictRequest, ServeConfig, ServeState};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// Node counts every generated request asks a scaling curve for.
const NODES: &str = "[1, 2, 4, 8]";

/// Serve-hot grid: fixed models crossed with image sizes and batch sizes.
/// 4 models x 4 sizes x 4 batches stays far below the server's 256-entry
/// response cache, so every timed request can hit. The models are fixed so
/// that the cache-fill set-up costs the same whatever the seed; the seed
/// drives the zipf ranks and the request sequence.
const HOT_MODELS: &[&str] = &[
    "regnet_y_8gf",
    "regnet_x_8gf",
    "wide_resnet101",
    "densenet169",
];
const HOT_IMAGES: &[usize] = &[96, 128, 160, 224];
const HOT_BATCHES: &[usize] = &[1, 8, 32, 64];

/// Same corpus as Figure 6's DIPPM surrogate (`exp_compare`): 300 seeded
/// random ConvNets at 128 px, measured at the small-batch grid.
const SURROGATE_CORPUS: u64 = 300;
const SURROGATE_BATCHES: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Trailing requests replayed a second time so that a stream without
/// repeats still times cache hits; below the cache capacity, so all hit.
const HIT_REPLAY: usize = 128;

/// SplitMix64: tiny, seedable and identical on every platform.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Draws `0..n` in seeded shuffled rounds: every value once per round, so
/// any stretch of the stream holds each value about equally often.
struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            order: (0..n).collect(),
            next: n,
        }
    }

    fn draw(&mut self, rng: &mut SplitMix64) -> usize {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("expect") => expect(&args[1..]),
        Some("layers") => layers(&args[1..]),
        _ => Err("usage: perfbench-harness gen|expect|layers [--key value ...]".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` option lookup.
fn opt<'a>(args: &'a [String], key: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {key}"))
}

fn num(args: &[String], key: &str) -> Result<u64, String> {
    opt(args, key)?
        .parse()
        .map_err(|_| format!("{key}: expected a whole number"))
}

fn read_lines(path: &str) -> Result<Vec<String>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect())
}

fn write_file(path: &Path, contents: &[u8]) -> Result<(), String> {
    fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// The request-cache fingerprint the server will compute for `body`; `None`
/// when the server would refuse the request.
fn request_fingerprint(body: &str, device_fp: &str) -> Option<String> {
    let req = PredictRequest::from_json(body).ok()?;
    let graph_fp = match (&req.model, &req.graph) {
        (Some(name), None) => convmeter_hwsim::compile::compiled(name, req.image)
            .ok()??
            .fingerprint
            .clone(),
        (None, Some(value)) => {
            let graph = <Graph as serde::de::Deserialize>::from_value(value).ok()?;
            graph.check().ok()?;
            graph.fingerprint()
        }
        _ => return None,
    };
    Some(req.fingerprint(&graph_fp, device_fp))
}

/// `gen --workload serve-hot|serve-miss --seed S --count N --out FILE`
///
/// serve-hot writes its whole query grid (the count is ignored); serve-miss
/// writes `N` queries with pairwise distinct cache fingerprints, every fourth
/// a raw `graph` body from a seeded `random_convnet`. Every body is one the
/// server answers with 200.
fn gen(args: &[String]) -> Result<(), String> {
    let workload = opt(args, "--workload")?;
    let seed = num(args, "--seed")?;
    let out = PathBuf::from(opt(args, "--out")?);
    let mut rng = SplitMix64(seed ^ 0x5EED_F00D_CAFE_D00D);
    let names = convmeter_models::zoo::all_model_names();
    let device_fp = resolve_device("gpu", "fp32")?.fingerprint();
    let mut bodies = Vec::new();
    match workload {
        "serve-hot" => {
            for &model in HOT_MODELS {
                for &image in HOT_IMAGES {
                    for &batch in HOT_BATCHES {
                        bodies.push(format!(
                            r#"{{"model": "{model}", "image": {image}, "batch": {batch}, "nodes": {NODES}, "top_blocks": 3}}"#
                        ));
                    }
                }
            }
        }
        "serve-miss" => {
            // Models and image sizes come from decks, and every fourth
            // request is a raw graph, so that each stretch of the stream
            // (one cycle of a run) costs the server about the same.
            let count = num(args, "--count")? as usize;
            let mut seen = BTreeSet::new();
            let (mut models, mut zoo_images, mut graph_images) =
                (Deck::new(names.len()), Deck::new(19), Deck::new(15));
            while bodies.len() < count {
                let batch = 1 + rng.below(256);
                let body = if bodies.len() % 4 == 3 {
                    let image = 32 + 16 * graph_images.draw(&mut rng);
                    let graph =
                        convmeter_models::random::random_convnet(rng.next_u64(), image, 1000);
                    let json = serde_json::to_string(&graph).map_err(|e| e.to_string())?;
                    format!(
                        r#"{{"graph": {json}, "image": {image}, "batch": {batch}, "nodes": {NODES}, "top_blocks": 3}}"#
                    )
                } else {
                    let model = names[models.draw(&mut rng)];
                    let image = 32 + 16 * zoo_images.draw(&mut rng);
                    format!(
                        r#"{{"model": "{model}", "image": {image}, "batch": {batch}, "nodes": {NODES}, "top_blocks": 3}}"#
                    )
                };
                // Unsupported sizes and (unlikely) fingerprint collisions are
                // redrawn: the stream must hold only distinct, valid queries.
                if let Some(fp) = request_fingerprint(&body, &device_fp) {
                    if seen.insert(fp) {
                        bodies.push(body);
                    }
                }
            }
        }
        other => return Err(format!("unknown workload '{other}'")),
    }
    let mut text = bodies.join("\n");
    text.push('\n');
    write_file(&out, text.as_bytes())
}

/// A service state configured like `convmeter serve --warm` with default
/// settings (in-memory calibration store; the datasets are deterministic,
/// so the on-disk store the server uses yields the same coefficients).
fn warm_state() -> Result<ServeState, String> {
    let state = ServeState::new(&ServeConfig::default());
    for device in ["gpu", "cpu"] {
        state.warm(device, "fp32")?;
    }
    Ok(state)
}

/// `expect --in BODIES --out FILE`: for each body, `<status> <length>\n`
/// followed by the exact response body and a newline.
fn expect(args: &[String]) -> Result<(), String> {
    let bodies = read_lines(opt(args, "--in")?)?;
    let state = warm_state()?;
    let mut out = Vec::new();
    for body in &bodies {
        let (status, text) = match PredictRequest::from_json(body).and_then(|r| state.predict(&r)) {
            Ok((rendered, _)) => (rendered.status, rendered.body.clone()),
            Err(e) => (400, convmeter_serve::api::error_body(&e)),
        };
        writeln!(out, "{status} {}", text.len()).map_err(|e| e.to_string())?;
        out.extend_from_slice(text.as_bytes());
        out.push(b'\n');
    }
    write_file(Path::new(opt(args, "--out")?), &out)
}

/// The exact request head the runner's load generator sends for a body.
fn request_head(body_len: usize) -> String {
    format!(
        "POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {body_len}\r\nConnection: close\r\n\r\n"
    )
}

fn mean_us(total_s: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total_s * 1e6 / n as f64
    }
}

/// `layers --fill FILE --stream FILE --work DIR --out FILE`
///
/// `fill` holds the bodies answered during the workload's set-up and
/// `stream` the timed request sequence, both as the runner sent them.
fn layers(args: &[String]) -> Result<(), String> {
    let fill = read_lines(opt(args, "--fill")?)?;
    let stream = read_lines(opt(args, "--stream")?)?;
    let work = PathBuf::from(opt(args, "--work")?);
    fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let mut t = Tracer::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    serve_layers(&mut t, &mut m, &fill, &stream)?;
    query_layers(&mut t, &mut m, &fill, &stream)?;
    let datasets = sweep_and_store_layers(&mut t, &mut m, &work)?;
    convmeter_layers(&mut t, &mut m, &work, &datasets)?;
    baselines_layers(&mut t, &mut m)?;

    let json = t.to_json(&m);
    write_file(Path::new(opt(args, "--out")?), json.as_bytes())
}

/// `serve` in-process: request parsing, head parsing, and the cached
/// `ServeState::predict` over the same request sequence the server saw.
fn serve_layers(
    t: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
    fill: &[String],
    stream: &[String],
) -> Result<(), String> {
    let all: Vec<&String> = fill.iter().chain(stream).collect();
    let mut requests = Vec::with_capacity(all.len());
    let top = t.open("serve.api.parse_all", None);
    for (i, body) in all.iter().enumerate() {
        let s = t.open("serve.api.parse", Some(i as u64));
        requests.push(PredictRequest::from_json(body)?);
        t.close(s);
    }
    t.close(top);
    m.insert(
        "serve.api.parse_us",
        mean_us(t.total("serve.api.parse"), all.len()),
    );

    let top = t.open("serve.http.parse_head_all", None);
    for (i, body) in all.iter().enumerate() {
        let head = request_head(body.len());
        let s = t.open("serve.http.parse_head", Some(i as u64));
        let parsed =
            convmeter_serve::http::parse_head(head.as_bytes()).map_err(|e| e.to_string())?;
        t.close(s);
        if parsed.content_length != body.len() {
            return Err("parse_head misread Content-Length".into());
        }
    }
    t.close(top);
    m.insert(
        "serve.http.parse_head_us",
        mean_us(t.total("serve.http.parse_head"), all.len()),
    );

    // Start from an empty compile memo, as a fresh server does.
    convmeter_hwsim::compile::clear_cache();
    let warm = t.open("serve.state.warm", None);
    let state = warm_state()?;
    t.close(warm);
    let replay: Vec<usize> = (0..requests.len())
        .chain(requests.len().saturating_sub(HIT_REPLAY)..requests.len())
        .collect();
    let (mut hit_s, mut hits, mut miss_s, mut misses) = (0.0, 0usize, 0.0, 0usize);
    let top = t.open("serve.state.replay", None);
    for i in replay {
        let s = t.open("serve.state.predict", Some(i as u64));
        let (_, outcome) = state.predict(&requests[i])?;
        let dur = t.close(s);
        if outcome == CacheOutcome::Miss {
            miss_s += dur;
            misses += 1;
        } else {
            hit_s += dur;
            hits += 1;
        }
    }
    t.close(top);
    m.insert("serve.state.predict_hit_us", mean_us(hit_s, hits));
    m.insert("serve.state.predict_miss_us", mean_us(miss_s, misses));
    Ok(())
}

/// `models` / `metrics` / `graph` / `hwsim.compile` per distinct query: the
/// work a cache miss does before any prediction.
fn query_layers(
    t: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
    fill: &[String],
    stream: &[String],
) -> Result<(), String> {
    let mut distinct: Vec<&String> = Vec::new();
    let mut seen = BTreeSet::new();
    for body in fill.iter().chain(stream) {
        if seen.insert(body.as_str()) {
            distinct.push(body);
        }
    }
    convmeter_hwsim::compile::clear_cache();
    let mut pairs = BTreeSet::new();
    let top = t.open("query.all", None);
    for (i, body) in distinct.iter().enumerate() {
        let id = Some(i as u64);
        let req = PredictRequest::from_json(body)?;
        let graph = match (&req.model, &req.graph) {
            (Some(name), None) => {
                let s = t.open("hwsim.compile", id);
                convmeter_hwsim::compile::compiled(name, req.image).map_err(|e| e.to_string())?;
                t.close(s);
                pairs.insert((name.clone(), req.image));
                let spec = convmeter_models::zoo::by_name(name)
                    .ok_or_else(|| format!("unknown model {name}"))?;
                let s = t.open("models.build", id);
                let graph = spec.build(req.image, 1000);
                t.close(s);
                graph
            }
            (None, Some(value)) => {
                let s = t.open("models.build", id);
                let graph = <Graph as serde::de::Deserialize>::from_value(value)
                    .map_err(|e| format!("invalid graph: {e}"))?;
                t.close(s);
                graph
            }
            _ => return Err("request has neither model nor graph".into()),
        };
        let s = t.open("graph.check", id);
        graph.check().map_err(|e| e.to_string())?;
        t.close(s);
        let s = t.open("metrics.extract", id);
        ModelMetrics::of(&graph).map_err(|e| e.to_string())?;
        t.close(s);
    }
    t.close(top);
    let n = distinct.len();
    m.insert("models.build_us", mean_us(t.total("models.build"), n));
    m.insert("metrics.extract_us", mean_us(t.total("metrics.extract"), n));
    m.insert("graph.check_us", mean_us(t.total("graph.check"), n));
    m.insert("hwsim.compile_s", t.total("hwsim.compile"));
    m.insert("hwsim.compile.pairs", pairs.len() as f64);
    Ok(())
}

/// The artefact datasets the convmeter layer pass fits and persists.
struct Datasets {
    gpu: std::sync::Arc<Vec<convmeter::InferencePoint>>,
    cpu: std::sync::Arc<Vec<convmeter::InferencePoint>>,
    training: std::sync::Arc<Vec<convmeter::TrainingPoint>>,
    distributed: std::sync::Arc<Vec<convmeter::TrainingPoint>>,
}

/// `hwsim` and `distsim` sweeps over the artefact grids, then the engine's
/// `DatasetStore` building all six artefact datasets into a fresh disk
/// cache and loading them back from it.
fn sweep_and_store_layers(
    t: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
    work: &Path,
) -> Result<Datasets, String> {
    convmeter_hwsim::compile::clear_cache();
    let mut points = 0usize;
    for spec in [
        registry::spec_inference_gpu(),
        registry::spec_inference_cpu(),
        registry::spec_fig6_grid(),
    ] {
        if let DatasetSpec::Inference { device, config } = spec {
            let s = t.open("hwsim.sweep.inference", None);
            points += convmeter_hwsim::inference_sweep(&device, &config)
                .map_err(|e| e.to_string())?
                .len();
            t.close(s);
        }
    }
    if let DatasetSpec::Training { device, config } = registry::spec_training() {
        let s = t.open("hwsim.sweep.training", None);
        points += convmeter_hwsim::training_sweep(&device, &config)
            .map_err(|e| e.to_string())?
            .len();
        t.close(s);
    }
    m.insert("hwsim.sweep.inference_s", t.total("hwsim.sweep.inference"));
    m.insert("hwsim.sweep.training_s", t.total("hwsim.sweep.training"));
    m.insert("hwsim.sweep.points", points as f64);

    if let DatasetSpec::Distributed { device, config } = registry::spec_distributed() {
        let s = t.open("distsim.sweep", None);
        let n = convmeter_distsim::distributed_sweep(&device, &config)
            .map_err(|e| e.to_string())?
            .len();
        t.close(s);
        m.insert("distsim.sweep.points", n as f64);
    }
    m.insert("distsim.sweep_s", t.total("distsim.sweep"));

    let dir = work.join("store");
    let _ = fs::remove_dir_all(&dir);
    let specs = [
        registry::spec_inference_gpu(),
        registry::spec_inference_cpu(),
        registry::spec_fig6_grid(),
        registry::spec_blocks(),
        registry::spec_training(),
        registry::spec_distributed(),
    ];
    let mut datasets = None;
    for phase in ["bench.store.build", "bench.store.load"] {
        let store = DatasetStore::new(Some(dir.clone()));
        let s = t.open(phase, None);
        let mut inference = Vec::new();
        let mut training = Vec::new();
        for spec in &specs {
            match spec {
                DatasetSpec::Inference { .. } | DatasetSpec::Blocks { .. } => {
                    inference.push(store.inference(spec).map_err(|e| e.to_string())?);
                }
                _ => training.push(store.training(spec).map_err(|e| e.to_string())?),
            }
        }
        t.close(s);
        datasets = Some(Datasets {
            gpu: inference[0].clone(),
            cpu: inference[1].clone(),
            training: training[0].clone(),
            distributed: training[1].clone(),
        });
    }
    m.insert("bench.store.build_s", t.total("bench.store.build"));
    m.insert("bench.store.load_s", t.total("bench.store.load"));
    datasets.ok_or_else(|| "no datasets".to_string())
}

fn distinct_models<P>(points: &[P], model: impl Fn(&P) -> &str) -> usize {
    points.iter().map(model).collect::<BTreeSet<_>>().len()
}

/// `convmeter`: direct fits, the leave-one-model-out evaluators, and
/// persisting / reloading fitted models and a dataset.
fn convmeter_layers(
    t: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
    work: &Path,
    d: &Datasets,
) -> Result<(), String> {
    let s = t.open("convmeter.fit", None);
    let gpu = ForwardModel::fit(&d.gpu).map_err(|e| e.to_string())?;
    ForwardModel::fit(&d.cpu).map_err(|e| e.to_string())?;
    let training = TrainingModel::fit(&d.training).map_err(|e| e.to_string())?;
    TrainingModel::fit(&d.distributed).map_err(|e| e.to_string())?;
    t.close(s);
    m.insert("convmeter.fit_s", t.total("convmeter.fit"));

    let s = t.open("convmeter.logo", None);
    leave_one_model_out_inference(&d.gpu).map_err(|e| e.to_string())?;
    leave_one_model_out_inference(&d.cpu).map_err(|e| e.to_string())?;
    leave_one_model_out_training(&d.training).map_err(|e| e.to_string())?;
    t.close(s);
    m.insert("convmeter.logo_s", t.total("convmeter.logo"));
    // One fit per direct call plus one per held-out model in each evaluator.
    let calls = 4
        + distinct_models(&d.gpu, |p| p.model.as_str())
        + distinct_models(&d.cpu, |p| p.model.as_str())
        + distinct_models(&d.training, |p| p.model.as_str());
    m.insert("convmeter.fit.calls", calls as f64);

    let paths = [
        work.join("forward.json"),
        work.join("training.json"),
        work.join("inference-gpu.json"),
    ];
    let s = t.open("convmeter.persist.save", None);
    persist::save_forward_model(&paths[0], &gpu).map_err(|e| e.to_string())?;
    persist::save_training_model(&paths[1], &training).map_err(|e| e.to_string())?;
    persist::save_inference_dataset(&paths[2], &d.gpu).map_err(|e| e.to_string())?;
    t.close(s);
    let s = t.open("convmeter.persist.load", None);
    persist::load_forward_model(&paths[0]).map_err(|e| e.to_string())?;
    persist::load_training_model(&paths[1]).map_err(|e| e.to_string())?;
    let reloaded = persist::load_inference_dataset(&paths[2]).map_err(|e| e.to_string())?;
    t.close(s);
    if reloaded.len() != d.gpu.len() {
        return Err("persisted dataset lost points".into());
    }
    let mut bytes = 0u64;
    for p in &paths {
        bytes += fs::metadata(p).map_err(|e| e.to_string())?.len();
    }
    m.insert(
        "convmeter.persist.save_s",
        t.total("convmeter.persist.save"),
    );
    m.insert(
        "convmeter.persist.load_s",
        t.total("convmeter.persist.load"),
    );
    m.insert("convmeter.persist.bytes", bytes as f64);
    Ok(())
}

/// `baselines`: Figure 6's DIPPM-surrogate corpus and its MLP fit.
fn baselines_layers(t: &mut Tracer, m: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let device = DeviceProfile::a100_80gb();
    let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
    let s = t.open("baselines.mlp.corpus", None);
    for seed in 0..SURROGATE_CORPUS {
        let graph = convmeter_models::random::random_convnet(seed, 128, 1000);
        let metrics = ModelMetrics::of(&graph).map_err(|e| e.to_string())?;
        let mut noise = NoiseModel::new(0xD1_99 + seed, device.noise_sigma);
        for &batch in SURROGATE_BATCHES {
            let measured = convmeter_hwsim::measure_inference(&device, &metrics, batch, &mut noise);
            rows.push((graph_features(&metrics.at_batch(batch), 128), measured));
        }
    }
    t.close(s);
    let s = t.open("baselines.mlp.fit", None);
    let surrogate = MlpPredictor::fit(&rows, &MlpConfig::default())?;
    t.close(s);
    std::hint::black_box(surrogate.predict(&rows[0].0));
    m.insert("baselines.mlp.corpus_s", t.total("baselines.mlp.corpus"));
    m.insert("baselines.mlp.fit_s", t.total("baselines.mlp.fit"));
    m.insert("baselines.mlp.rows", rows.len() as f64);
    Ok(())
}
