#!/usr/bin/env python3
"""The repository benchmark: artefact regeneration and /predict serving.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds ``convmeter`` and the
in-process harness from source (into ``$CARGO_TARGET_DIR``, default
``.bench_build``), runs workload W on inputs made from seed N for S seconds,
checks every output, and prints one JSON result as its last line. With
``--trace 0`` that line carries the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run, which also reruns the end-to-end
measurement untraced and traced to give the tracing overhead.

Workloads (see perfbench/README.md for why each exists):
  artefacts-cold  convmeter bench --no-cache, fresh results dir
  serve-hot       convmeter serve --warm; every timed request a cache hit
"""

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb import checks, loadgen, procs, stats  # noqa: E402
from pb.trace import Tracer, summary  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
#: `/predict` answers pinned from the commit that added the benchmark, one
#: `{"request", "response"}` object a line (written by perfbench/pin.py).
PINNED = os.path.join(REFERENCE, "predict.jsonl")
NPROC = len(os.sched_getaffinity(0))

WORKLOADS = ("artefacts-cold", "serve-hot")

#: A serve set-up is repeated this many times per run; the median is kept.
SETUPS = 5
#: Connections of the serve-hot cache fill. The server polls for new
#: connections every 5 ms, so a fill over a few connections would mostly
#: time that poll's wake-ups, which the shared host delays; 32 at once
#: (half the default admission queue) leave the fill to the server's work.
FILL_CONNECTIONS = 32
#: `bench --list` spawns per artefact set-up. A spawn takes about 2 ms, and
#: scheduler and IPI delays on the shared host add up to several times that
#: to single spawns, so a set-up is its fastest spawn. The artefact workload
#: sets up before each regeneration, so its set-ups are spread over the run
#: like its timed work, and the run reports their median.
LIST_SPAWNS = 20

#: A serve run is SERVE_CYCLES cycles of an open loop (OPEN_SHARE of the
#: cycle, at OPEN_RATE requests/s) and a closed loop (NPROC connections)
#: answering a fixed batch: as many requests as SIZING_RPS would answer in
#: the rest of the cycle. The host is a shared VM whose hypervisor at times
#: runs other guests on our virtual CPUs (steal): while it does, latencies
#: here rise by half or more. So each cycle's steal is measured, and the
#: metrics come from the QUIET_SHARE of cycles with the least steal:
#: percentiles over their pooled open-loop samples (6000 requests on
#: serve-hot at 40 s), the rest medians over them.
SERVE_CYCLES = 10
QUIET_SHARE = 0.5
OPEN_RATE = {"serve-hot": 500, "serve-miss": 200}
OPEN_SHARE = 0.6
#: About the closed-loop rate of serve-hot on the commit that added the
#: benchmark (2 vCPUs); it only sizes the fixed closed-loop batch.
SIZING_RPS = 400
#: Zipf exponent of the serve-hot stream over its query grid.
ZIPF_S = 1.1

#: The traced run of an artefact workload drives a short serve-miss probe
#: (every request a distinct query; not a workload of its own) and a serve
#: workload one cold `bench` run, so every layer is measured.
PROBE_SECONDS = 4

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
]
#: Measured and printed with the end-to-end metrics, but carrying no bound:
#: on this shared host the tail is set by hypervisor steal (serve-hot p99
#: 5.5 ms in quiet runs, up to 13 ms in contended ones), beyond any bound a
#: benchmark may set.
UNBOUNDED = [
    ("latency_p99_ms", "ms", "lower"),
]


class Fail(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------- build ---


def build(root):
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "cli"))):
        raise Fail("run from the root of a convmeter checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target))
    for argv in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "convmeter-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")],
    ):
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-4000:])
            raise Fail(f"build failed: {' '.join(argv)}")
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "convmeter"), os.path.join(release, "perfbench-harness")


# -------------------------------------------------------------- context ---


class Ctx:
    def __init__(self, args, root, binary, harness):
        self.args = args
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.binary = binary
        self.harness = harness
        runs = os.path.join(root, ".bench_runs")
        self.dir = os.path.join(runs, f"{args.workload}-{args.seed}-{os.getpid()}")
        self.trace_dir = os.path.join(runs, "traces")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        os.makedirs(self.trace_dir, exist_ok=True)
        self.log_path = os.path.join(self.dir, "program.log")
        self._n = 0

    def fresh(self, tag):
        """A new, empty results directory (one per program run)."""
        self._n += 1
        path = os.path.join(self.dir, f"{tag}-{self._n}")
        os.makedirs(path)
        return path

    def env(self, results):
        return dict(os.environ, CONVMETER_RESULTS=results)

    def harness_run(self, *argv):
        done = subprocess.run([self.harness, *argv], capture_output=True, text=True,
                              timeout=170)
        if done.returncode != 0:
            raise Fail(f"harness {argv[0]} failed: {done.stderr.strip()}")


def digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(item if isinstance(item, bytes) else item.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class Result:
    """What one pass measured: metrics with sample counts, plus checks."""

    def __init__(self):
        self.metrics = {}
        self.samples = {}
        self.beyond = {}
        self.notes = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # Raw material for the traced run's per-layer metrics.
        self.manifest = None
        self.fill, self.sent, self.requests, self.lag_ms = [], [], [], []
        self.bad = set()
        self.scrape = {}

    def put(self, name, value, n):
        self.metrics[name] = value
        self.samples[name] = n


# ------------------------------------------------------------ artefacts ---


def list_experiments(ctx, results):
    out = os.path.join(results, "list.txt")
    ex = procs.run([ctx.binary, "bench", "--list"], ctx.env(results), out)
    if ex.code != 0:
        raise Fail("convmeter bench --list failed")
    names = []
    with open(out, encoding="utf-8") as f:
        for line in f.read().splitlines()[1:]:
            if line and not line[0].isspace() and "registered" not in line:
                names.append(line.split()[0])
    return ex, names


def artefacts_setup(ctx):
    """One set-up: spawning the program until it has planned the run
    (`bench --list`), LIST_SPAWNS times -> ``(fastest seconds, names)``."""
    spawns = []
    for _ in range(LIST_SPAWNS):
        ex, names = list_experiments(ctx, ctx.fresh("list"))
        spawns.append(ex.wall_s)
    return min(spawns), names


def bench_argv(ctx, names):
    order = list(names)
    random.Random(ctx.seed).shuffle(order)
    return [ctx.binary, "bench", "--only", ",".join(order), "--jobs", str(NPROC), "--no-cache"]


def artefacts_pass(ctx, tracer, seconds):
    res = Result()
    runs, setups = [], []
    ticks = procs.host_ticks()
    phase = tracer.open("artefacts.timed")
    t0 = time.perf_counter()
    while not runs or time.perf_counter() - t0 < seconds:
        setup_s, names = artefacts_setup(ctx)
        setups.append(setup_s)
        argv = bench_argv(ctx, names)
        d = ctx.fresh("cold")
        span = tracer.open("bench.invocation", request=len(runs))
        ticks0 = procs.host_ticks()
        ex = procs.run(argv, ctx.env(d), ctx.log_path)
        steal = procs.steal_share(ticks0, procs.host_ticks())
        tracer.close(span)
        runs.append((ex, d, steal))
    tracer.close(phase)
    res.notes.append(f"host steal while timed: {procs.steal_share(ticks, procs.host_ticks()):.2%}")
    res.notes.append(f"stream digest {digest([argv[3]])} (--only {argv[3]})")
    res.put("setup_s", stats.median(setups), len(setups))
    res.notes.append("set-ups (ms): " + " ".join(f"{v * 1000:.3f}" for v in setups))

    # Checks, after timing.
    expected = len([n for n in os.listdir(REFERENCE) if n.endswith(".json")])
    for ex, d, _ in runs:
        res.attempted += expected
        if ex.code != 0:
            res.failed += expected
            res.problems.append(f"bench exited {ex.code}")
            continue
        bad = {name: msg for name, msg in checks.check_dir(REFERENCE, d) if msg}
        manifest, err = checks.load(os.path.join(d, "manifest.json"))
        if manifest:
            disk = sum(s["disk_hits"] for s in manifest["datasets"].values())
            if disk:
                bad.setdefault("manifest.json", f"cold run read {disk} cached datasets")
        res.failed += len(bad)
        res.problems.extend(f"{n}: {m}" for n, m in sorted(bad.items()))

    # Every regeneration is checked; the metrics come from the fastest
    # QUIET_SHARE of them. Co-tenants on the host's sibling hardware threads
    # slow this CPU-bound work without showing as steal (regenerations of
    # one run, all at zero steal, took 5.1 to 7.6 s), and interference only
    # ever adds time, so the fastest regenerations are the least disturbed.
    quiet = stats.quietest(runs, lambda r: r[0].wall_s, QUIET_SHARE)
    res.notes.append("bench wall time (s) / host steal: " + " ".join(
        f"{r[0].wall_s:.3f}/{r[2]:.2%}{'*' if r in quiet else ''}" for r in runs) + " (* kept)")
    walls = [ex.wall_s for ex, _, _ in quiet]
    n = len(quiet)
    res.put("wall_s", stats.median(walls), n)
    res.put("cpu_s", stats.median([ex.cpu_s for ex, _, _ in quiet]), n)
    res.put("peak_rss_mb", stats.median([ex.peak_rss_mb for ex, _, _ in quiet]), n)
    # An artefact's latency is the wall time of the experiment that writes
    # it (the manifest's `wall_seconds`), taken as each experiment's median
    # over every regeneration of the run: which regenerations were fastest
    # overall says little about the small experiments, which are most of
    # them. The percentiles are over the experiments.
    per_exp = {}
    for _, d, _ in runs:
        manifest = checks.load(os.path.join(d, "manifest.json"))[0] or {"experiments": []}
        for e in manifest["experiments"]:
            per_exp.setdefault(e["name"], []).append(e["wall_seconds"] * 1000)
    typical = [stats.median(v) for v in per_exp.values()] or [math.inf]
    n_exp = sum(len(v) for v in per_exp.values())
    for name, p in (("latency_p50_ms", 50), ("latency_p99_ms", 99)):
        value, res.beyond[name] = stats.percentile(typical, p)
        res.put(name, value, n_exp)
    res.put("throughput_rps", expected / stats.median(walls), n)
    res.manifest = checks.load(os.path.join(runs[-1][1], "manifest.json"))[0]
    for _, d, _ in runs:
        shutil.rmtree(d, ignore_errors=True)
    return res


# ---------------------------------------------------------------- serve ---


def read_bodies(path):
    with open(path, "rb") as f:
        return [line for line in f.read().split(b"\n") if line]


def closed_batch(seconds):
    """Requests each cycle's closed loop answers."""
    return max(NPROC, int(SIZING_RPS * seconds / SERVE_CYCLES * (1 - OPEN_SHARE)))


def serve_inputs(ctx, workload, seconds):
    """The seeded request stream: ``(fill, open bodies per cycle, closed
    iterator, digest)``. The digest covers every generated body, so one
    seed always names the same stream whatever share of it a run sends."""
    cycles = SERVE_CYCLES
    n_open = int(OPEN_RATE[workload] * seconds / cycles * OPEN_SHARE)
    path = os.path.join(ctx.dir, f"{workload}.jsonl")
    if workload == "serve-hot":
        ctx.harness_run("gen", "--workload", workload, "--seed", str(ctx.seed), "--out", path)
        grid = read_bodies(path)
        rng = random.Random(ctx.seed)
        ranked = list(grid)
        rng.shuffle(ranked)
        weights = [1.0 / (i + 1) ** ZIPF_S for i in range(len(ranked))]
        draw = lambda: rng.choices(ranked, weights)[0]  # noqa: E731
        opened = [[draw() for _ in range(n_open)] for _ in range(cycles)]
        return grid, opened, iter(draw, None), digest(grid + sum(opened, []))
    ctx.harness_run("gen", "--workload", workload, "--seed", str(ctx.seed),
                    "--count", str(cycles * (n_open + closed_batch(seconds))),
                    "--out", path)
    bodies = read_bodies(path)
    opened = [bodies[k * n_open:(k + 1) * n_open] for k in range(cycles)]
    return [], opened, iter(bodies[cycles * n_open:]), digest(bodies)


def scrape(addr):
    status, body = loadgen.get(addr, "/metrics")
    if status != 200:
        raise Fail("/metrics scrape failed")
    values = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def serve_setup(ctx, fill):
    """Spawn to ready, including --warm calibration and, for serve-hot,
    answering every distinct query once. Repeated SETUPS times in fresh
    results dirs; the last server is kept for the timed phases."""
    times = []
    server = None
    for k in range(SETUPS):
        if server:
            server.stop()
        d = ctx.fresh("serve")
        start = time.perf_counter()
        try:
            server = procs.Server([ctx.binary, "serve", "--warm", "--port", "0"],
                                  ctx.env(d), ctx.log_path)
        except RuntimeError as e:
            raise Fail(str(e)) from e
        try:
            if fill:
                reqs, _ = loadgen.closed_loop(server.addr, _once(fill), FILL_CONNECTIONS)
                if not all(r.ok for r in reqs):
                    raise Fail("cache-fill request failed")
        except BaseException:
            server.stop()
            raise
        times.append(time.perf_counter() - start)
    return server, times


def _once(items):
    it = iter(items)
    return lambda: next(it, None)


class Cycle:
    """What one (open loop, closed loop) cycle of a serve run measured."""

    def __init__(self, open_reqs, closed_reqs, elapsed, cpu, steal):
        self.open_reqs = open_reqs
        self.closed_reqs = closed_reqs
        self.elapsed = elapsed
        self.cpu = cpu
        self.steal = steal


def serve_pass(ctx, workload, tracer, seconds):
    """Cycles of (open loop, closed loop) against one server; the metrics
    come from the cycles with the least host steal (see SERVE_CYCLES)."""
    res = Result()
    fill, opened, closed_iter, stream_digest = serve_inputs(ctx, workload, seconds)
    server, setups = serve_setup(ctx, fill)
    res.put("setup_s", stats.median(setups), len(setups))
    res.notes.append("set-ups (ms): " + " ".join(f"{v * 1000:.3f}" for v in setups))
    batch = closed_batch(seconds)
    cycles = []
    # The generator makes no reference cycles while timed; a collector
    # pause would show as lateness.
    gc.collect()
    gc.disable()
    try:
        before = scrape(server.addr)
        ticks = procs.host_ticks()
        for k in range(len(opened)):
            ticks0 = procs.host_ticks()
            cpu0 = server.cpu_seconds()
            phase = tracer.open("serve.open_loop", request=k)
            open_reqs = loadgen.open_loop(server.addr, opened[k], OPEN_RATE[workload])
            record_requests(tracer, "open", open_reqs)
            tracer.close(phase)
            cpu = server.cpu_seconds() - cpu0
            phase = tracer.open("serve.closed_loop", request=k)
            closed_reqs, elapsed = loadgen.closed_loop(
                server.addr, _once(itertools.islice(closed_iter, batch)), NPROC)
            record_requests(tracer, "closed", closed_reqs)
            tracer.close(phase)
            steal = procs.steal_share(ticks0, procs.host_ticks())
            cycles.append(Cycle(open_reqs, closed_reqs, elapsed, cpu, steal))
        after = scrape(server.addr)
        res.notes.append(f"host steal while timed: {procs.steal_share(ticks, procs.host_ticks()):.2%}")
        # After timing, the pinned queries, one at a time.
        pinned = checks.load_pinned(PINNED)
        pinned_reqs, _ = loadgen.closed_loop(server.addr, _once([b for b, _ in pinned]), 1)
    finally:
        gc.enable()
        exited = server.stop()

    # Checks, after timing, over every cycle: every body must equal the
    # in-process answer, and the pinned queries must also get the pinned
    # answers.
    every = [r for c in cycles for r in c.open_reqs + c.closed_reqs]
    sent = [r.body for r in every]
    res.notes.append(f"stream digest {stream_digest} ({len(sent)} requests sent)")
    expected = expect(ctx, list(dict.fromkeys(fill + sent + [b for b, _ in pinned])))
    failed_reqs = checks.bad_responses(every + pinned_reqs, expected)
    for r in failed_reqs[:5]:
        res.problems.append(f"request {r.body[:60]!r}: status {r.status} error {r.error}"
                            + (" body differs from the in-process answer" if r.ok else ""))
    wrong = checks.pinned_mismatches(pinned, pinned_reqs)
    res.problems.extend(f"pinned query {r.index}: {msg}" for r, msg in wrong[:5])
    bad = {id(r) for r in failed_reqs} | {id(r) for r, _ in wrong}
    res.attempted = len(every) + len(pinned_reqs)
    res.failed = len(bad)

    for c in cycles:
        res.lag_ms += loadgen.lateness(c.open_reqs)[1]
    quiet = stats.quietest(cycles, lambda c: c.steal, QUIET_SHARE)
    res.notes.append("host steal per cycle: " + " ".join(
        f"{c.steal:.2%}{'*' if c in quiet else ''}" for c in cycles) + " (* kept)")
    lat = [ms for c in quiet for ms in loadgen.lateness(c.open_reqs, bad)[0]]
    for name, p in (("latency_p50_ms", 50), ("latency_p99_ms", 99)):
        value, res.beyond[name] = stats.percentile(lat, p)
        res.put(name, value, len(lat))
    # wall_s is the closed loop's time to answer its fixed batch, so it is
    # the batch size over throughput_rps.
    per = {
        "wall_s": [c.elapsed for c in quiet],
        "cpu_s": [c.cpu for c in quiet],
        "throughput_rps": [sum(1 for r in c.closed_reqs if id(r) not in bad) / c.elapsed
                           for c in quiet],
    }
    n_closed = sum(len(c.closed_reqs) for c in quiet)
    for name, values in per.items():
        res.put(name, stats.median(values), len(values) if name == "cpu_s" else n_closed)
        res.notes.append(f"{name} per kept cycle: " + " ".join(f"{v:.6g}" for v in values))
    tail = stats.highest_supported(lat)
    if tail:
        res.notes.append(f"kept cycles: highest percentile with >= {stats.MIN_BEYOND} samples "
                         f"beyond: p{tail[0]:g} = {tail[1]:.3f} ms ({tail[2]} beyond)")
    res.put("peak_rss_mb", exited.peak_rss_mb, 1)

    res.fill, res.sent, res.requests, res.bad = fill, sent, every, bad
    res.scrape = {k: after.get(k, 0.0) - before.get(k, 0.0)
                  for k in set(after) | set(before)}
    return res


def record_requests(tracer, kind, reqs):
    """One span per request, with its connect / send / wait / receive
    parts as children, under the phase span that is open."""
    if not tracer.enabled:
        return
    for r in reqs:
        span = tracer.record(f"request.{kind}", r.start, r.done, r.index)
        tracer.child(span, "request.connect", r.start, r.connected, r.index)
        tracer.child(span, "request.send", r.connected, r.sent, r.index)
        tracer.child(span, "request.wait", r.sent, r.first, r.index)
        tracer.child(span, "request.receive", r.first, r.done, r.index)


def expect(ctx, bodies):
    """In-process ServeState::predict answers -> ``{body: response bytes}``
    (responses with any status other than 200 are never expected)."""
    src = os.path.join(ctx.dir, "expect-in.jsonl")
    dst = os.path.join(ctx.dir, "expect-out.bin")
    with open(src, "wb") as f:
        f.write(b"\n".join(bodies) + b"\n")
    ctx.harness_run("expect", "--in", src, "--out", dst)
    with open(dst, "rb") as f:
        raw = f.read()
    out, pos = {}, 0
    for body in bodies:
        eol = raw.index(b"\n", pos)
        status, length = raw[pos:eol].split()
        pos = eol + 1 + int(length)
        out[body] = raw[eol + 1:pos] if status == b"200" else None
        pos += 1
    return out


# ---------------------------------------------------------------- trace ---


def layer_metrics(ctx, art, srv):
    """Per-layer metrics from the harness pass, the bench manifest, the
    client's own timings and the server's /metrics."""
    m = {}
    fill = os.path.join(ctx.dir, "layers-fill.jsonl")
    stream = os.path.join(ctx.dir, "layers-stream.jsonl")
    for path, bodies in ((fill, srv.fill), (stream, srv.sent)):
        with open(path, "wb") as f:
            f.write(b"".join(b + b"\n" for b in bodies))
    out = os.path.join(ctx.dir, "layers.json")
    ctx.harness_run("layers", "--fill", fill, "--stream", stream,
                    "--work", os.path.join(ctx.dir, "layers-work"), "--out", out)
    with open(out, encoding="utf-8") as f:
        harness = json.load(f)
    m.update(harness["metrics"])

    datasets = art.manifest["datasets"].values()
    for key in ("builds", "disk_hits", "memory_hits"):
        m[f"bench.store.{key}"] = sum(s[key] for s in datasets)
    walls = {e["name"]: e["wall_seconds"] for e in art.manifest["experiments"]}
    m["bench.experiment.fig6_s"] = walls.pop("fig6", 0.0)
    m["bench.experiment.others_s"] = sum(walls.values())

    reqs = [r for r in srv.requests if r.ok]
    connect = [(r.connected - r.start) * 1000 for r in reqs]
    ttfb = [(r.first - r.connected) * 1000 for r in reqs]
    m["serve.connect_p50_ms"] = stats.percentile(connect, 50)[0]
    m["serve.ttfb_p50_ms"] = stats.percentile(ttfb, 50)[0]
    m["serve.ttfb_p99_ms"] = stats.percentile(ttfb, 99)[0]
    s = srv.scrape
    # The deltas include the scrapes themselves: a few requests among thousands.
    server_mean_ms = s.get("serve_request_us_sum", 0.0) / max(1.0, s.get("serve_request_us_count", 0.0)) / 1000
    m["serve.pre_accept_ms"] = sum(ttfb) / len(ttfb) - server_mean_ms
    lookups = sum(s.get(f"serve_cache_{k}_total", 0.0) for k in ("hits", "misses", "coalesced"))
    m["serve.cache.hit_ratio"] = s.get("serve_cache_hits_total", 0.0) / max(1.0, lookups)
    m["serve.cache.evictions"] = s.get("serve_cache_evictions_total", 0.0)
    m["serve.predict.builds"] = s.get("serve_predict_builds_total", 0.0)
    m["serve.shed"] = s.get("serve_shed_total", 0.0)
    m["serve.deadline.cut"] = s.get("serve_deadline_cut_total", 0.0)
    failed = sum(1 for r in srv.requests if id(r) in srv.bad)
    m["loadgen.sent"] = len(srv.requests)
    m["loadgen.ok"] = len(srv.requests) - failed
    m["loadgen.failed"] = failed
    m["loadgen.lag_p99_ms"] = stats.percentile(srv.lag_ms, 99)[0]
    return m, harness


# ----------------------------------------------------------------- main ---


def measure(ctx, tracer, seconds):
    if ctx.workload == "artefacts-cold":
        return artefacts_pass(ctx, tracer, seconds)
    return serve_pass(ctx, ctx.workload, tracer, seconds)


def report(title, res):
    log(f"== {title}")
    for name, unit, better in END_TO_END + UNBOUNDED:
        beyond = res.beyond.get(name)
        tail = f", {beyond} samples beyond" if beyond is not None else ""
        tail += "; no bound" if (name, unit, better) in UNBOUNDED else ""
        log(f"  {name:<16} {res.metrics[name]:>14.6f} {unit:<4} ({better} is better; "
            f"n={res.samples[name]}{tail})")
    frac = res.failed / res.attempted if res.attempted else 1.0
    log(f"  failed_frac      {frac:>14.6f}      (failed {res.failed} of {res.attempted} attempted)")
    for note in res.notes:
        log(f"  {note}")
    for problem in res.problems[:20]:
        log(f"  FAILED {problem}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    try:
        binary, harness = build(root)
        results = []
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            ctx = Ctx(argparse.Namespace(**{**vars(args), "workload": workload}),
                      root, binary, harness)
            try:
                results.append(run(ctx))
            finally:
                shutil.rmtree(ctx.dir, ignore_errors=True)
    except Fail as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}/{k}": v for w, r in zip(WORKLOADS, results)
                        for k, v in r["metrics"].items()}}))
    return 0 if all(r["correct"] for r in results) else 1


def run(ctx):
    log(f"perfbench {ctx.workload} seed={ctx.seed} seconds={ctx.seconds} "
        f"trace={ctx.args.trace} nproc={NPROC}")
    untraced = measure(ctx, Tracer(False), ctx.seconds)
    report("end-to-end (untraced)", untraced)
    results = [untraced]
    if ctx.args.trace:
        tracer = Tracer(True)
        traced = measure(ctx, tracer, ctx.seconds)
        report("end-to-end (traced)", traced)
        results.append(traced)
        if ctx.workload == "artefacts-cold":
            art = traced
            srv = serve_pass(ctx, "serve-miss", tracer, PROBE_SECONDS)
            results.append(srv)
        else:
            srv = traced
            # One cold regeneration (seconds=0 runs it once).
            art = artefacts_pass(ctx, tracer, 0)
            results.append(art)
        metrics, harness = layer_metrics(ctx, art, srv)
        key = "wall_s" if ctx.workload == "artefacts-cold" else "latency_p50_ms"
        metrics["trace.overhead_frac"] = traced.metrics[key] / untraced.metrics[key] - 1
        log("== per-layer (traced run)")
        for name in sorted(metrics):
            log(f"  {name:<32} {metrics[name]:.6g}")
        log(f"  tracing overhead on {key}: {metrics['trace.overhead_frac'] * 100:+.2f}% "
            f"({untraced.metrics[key]:.6g} untraced, {traced.metrics[key]:.6g} traced)")
        path = os.path.join(ctx.trace_dir, f"{ctx.workload}-seed{ctx.seed}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"workload": ctx.workload, "seed": ctx.seed,
                       "notes": [n for r in results for n in r.notes],
                       "runner_layers": summary(tracer.spans),
                       "runner_span_fields": ["name", "start_s", "end_s", "parent", "request"],
                       "runner_spans": tracer.spans,
                       "harness": harness}, f)
        log(f"  trace written to {os.path.relpath(path)}")
        if set(metrics) != set(PER_LAYER):
            raise Fail(f"per-layer metrics drifted: {sorted(set(metrics) ^ set(PER_LAYER))}")
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        out = {name: {"value": untraced.metrics[name], "unit": unit}
               for name, unit, _ in END_TO_END}
    result = {"correct": all(r.failed == 0 and not r.problems for r in results),
              "attempted": sum(r.attempted for r in results),
              "failed": sum(r.failed for r in results), "metrics": out}
    print(json.dumps(result), flush=True)
    return result


#: Every per-layer metric of the traced run, with its unit.
PER_LAYER = {
    "baselines.mlp.fit_s": "s",
    "baselines.mlp.corpus_s": "s",
    "baselines.mlp.rows": "count",
    "hwsim.sweep.inference_s": "s",
    "hwsim.sweep.training_s": "s",
    "hwsim.sweep.points": "count",
    "hwsim.compile_s": "s",
    "hwsim.compile.pairs": "count",
    "distsim.sweep_s": "s",
    "distsim.sweep.points": "count",
    "bench.store.builds": "count",
    "bench.store.disk_hits": "count",
    "bench.store.memory_hits": "count",
    "bench.store.build_s": "s",
    "bench.store.load_s": "s",
    "bench.experiment.fig6_s": "s",
    "bench.experiment.others_s": "s",
    "convmeter.fit_s": "s",
    "convmeter.fit.calls": "count",
    "convmeter.logo_s": "s",
    "convmeter.persist.load_s": "s",
    "convmeter.persist.save_s": "s",
    "convmeter.persist.bytes": "bytes",
    "models.build_us": "us",
    "metrics.extract_us": "us",
    "graph.check_us": "us",
    "serve.connect_p50_ms": "ms",
    "serve.ttfb_p50_ms": "ms",
    "serve.ttfb_p99_ms": "ms",
    "serve.pre_accept_ms": "ms",
    "serve.api.parse_us": "us",
    "serve.http.parse_head_us": "us",
    "serve.state.predict_hit_us": "us",
    "serve.state.predict_miss_us": "us",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.evictions": "count",
    "serve.predict.builds": "count",
    "serve.shed": "count",
    "serve.deadline.cut": "count",
    "loadgen.sent": "count",
    "loadgen.ok": "count",
    "loadgen.failed": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
}

if __name__ == "__main__":
    sys.exit(main())
