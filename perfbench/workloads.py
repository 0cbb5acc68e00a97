"""The two benchmark workloads.

Each workload repeats its timed part, and after every iteration serves
the fresh study from a `repro serve` subprocess in a short burst — a
closed loop on every core's worth of keep-alive connections, then an
open loop at :data:`OPEN_RATE` — so each reports the same end-to-end
metrics:

``setup_s``      everything before the timed part (median of repeats
                 where the set-up is cheap enough to repeat).
``result_s``     time until the workload's fresh result is live:
                 ``korean_e2e`` build + study + save + boot to the first
                 byte of ``GET /stats``; ``paper_restudy`` load + study +
                 save of both corpora (median over the run's
                 iterations).
``rps``          closed-loop throughput.
``lat_p50_ms``   open-loop latency over all bursts, timed from each
                 request's due time (its p99 is printed in the report
                 line).
``peak_rss_mb``  peak memory of the timed part in the benchmark process
                 (its high-water mark is reset when set-up ends, and
                 ``paper_restudy`` generates its corpora in a child
                 process).

Why these workloads: ``korean_e2e`` is the study-to-first-byte path,
where dataset generation and store indexing dominate; ``paper_restudy``
re-runs the analysis over corpora collected once (store loading and
cold reverse geocoding, over the dense Korean and the sparse world
grid), so a change to generation or indexing moves only the first.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    HERE,
    ServerProcess,
    WorkDir,
    benchmark_rss_mb,
    child_env,
    connect,
    first_byte,
    request,
    reset_peak_rss,
)
from loadgen import (
    LoopResult,
    closed_loop,
    max_connections,
    open_loop,
    percentile,
    tail_summary,
)
from mix import Mix, served_view
# Imported before any wrapper is installed, so that installing rebinds the
# dataset builders the CLI module imported.
from repro import cli as repro_cli
# Bound at import, before any wrapper is installed: digests the benchmark
# computes to check results are not program work in a traced run.
from repro.analysis.serialization import study_digest as check_digest
from tracing import Tracer, install

#: Open-loop arrival rate (requests/s), fixed so later changes are
#: compared at the same offered load.  A closed loop of two clients
#: opening one connection per request reached 1100-1450 requests/s on
#: a 2-core host when the benchmark was defined; a quarter of that keeps
#: the queue short even when the shared host runs at half speed.  (The
#: keep-alive closed loop's ~45 requests/s is set by a ~40 ms stall per
#: keep-alive response in the default server, not by its capacity.)
OPEN_RATE = 300.0

#: After each iteration of the timed part its fresh study is served in
#: a burst: an open loop of :data:`BURST_OPEN_S` seconds, preceded in a
#: pass's first burst by a closed loop of :data:`CLOSED_S` (one long
#: closed loop, because every keep-alive connection's first reply skips
#: the ~40 ms stall that sets ``rps``, so short loops read high).  Bursts
#: spread the open-loop samples over the whole run, so one stretch of
#: contention on a shared host does not set the run's latency.  The one
#: traced iteration gets a longer open loop, enough samples for a p99.
CLOSED_S = 1.0
BURST_OPEN_S = 1.0
TRACED_OPEN_S = 3.5

#: Requests a mix generates up front, so that generating them does not
#: compete with the loops: more than one run's bursts send.
PREFILL = 3000

#: Server counters read from ``/metrics`` before each server stops.
SERVER_COUNTERS = ("serving.shed", "serving.errors", "serving.client_disconnects")

#: Set-up probes whose median ``korean_e2e`` reports.
SETUP_REPEATS = 9

#: Snapshot digests of ``korean_e2e`` studies, by seed, recorded when
#: the benchmark was defined (CLI-default scale).
RECORDED_DIGESTS = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))

_SETUP_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "from repro.geodata.registry import dataset_gazetteer; "
    "dataset_gazetteer('korean'); print(time.perf_counter() - t)"
)


@dataclass
class Outcome:
    """One workload run: checks, end-to-end and per-layer figures."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        """Count one checked operation."""
        self.attempted += 1
        self.failed += 0 if ok else 1


# ----------------------------------------------------------------- datasets
def build(seed: int, extra: list[str] = ()):
    """Build the dataset `repro study --seed seed *extra` would build."""
    args = repro_cli.build_parser().parse_args(["study", "--seed", str(seed), *extra])
    return repro_cli._build_dataset(args)


def study(kind: str, users, tweets, gazetteer, spans: dict[str, float]):
    """Run the study with the default engine config; fold its stage
    spans and geocode counts into ``spans``."""
    from repro.analysis import correlation
    from repro.engine import RunContext

    context = RunContext(dataset_name=kind)
    result = correlation.run_study(users, tweets, gazetteer, dataset_name=kind,
                                   context=context)
    for span in context.spans:
        spans[span.stage] = spans.get(span.stage, 0.0) + span.duration_s
    stats = result.api_stats
    spans["geocode.lookups"] = spans.get("geocode.lookups", 0) + stats.requests + stats.cache_hits
    spans["geocode.cells"] = spans.get("geocode.cells", 0) + stats.requests
    return result


def save(result, path: Path) -> None:
    from repro.analysis import serialization

    serialization.save_study(result, path)


# ------------------------------------------------------------------ serving
@dataclass
class ServeStats:
    """What the serving bursts of one pass measured, pooled."""

    closed_done: int = 0
    closed_s: float = 0.0
    samples: list = field(default_factory=list)
    open_samples: list = field(default_factory=list)
    backlog_max: int = 0
    counters: dict = field(default_factory=dict)
    warm_requests: int = 0
    cells: set = field(default_factory=set)

    def add_counters(self, server: ServerProcess) -> None:
        """Fold in the counters of a server about to stop."""
        conn = connect(server.port)
        try:
            _, body = request(conn, "GET", "/metrics", {"Connection": "close"})
        finally:
            conn.close()
        metrics = json.loads(body)["metrics"]
        for name in SERVER_COUNTERS:
            self.counters[name] = self.counters.get(name, 0) + metrics.get(name, 0)


def burst(server: ServerProcess, mix: Mix, stats: ServeStats, outcome: Outcome,
          traced: bool, warm: bool) -> None:
    """One serving burst: on a fresh server (``warm``) request the mix's
    warm cells first; in a pass's first burst run the closed loop; then
    run the open loop.

    Objects alive before the loops are frozen out of the collector, so a
    full collection of a pipeline's heap never pauses the generator.
    """
    import gc
    import http.client

    def send(c, item) -> bool:
        try:
            status, body = request(c, item.method, item.target)
        except (OSError, http.client.HTTPException):
            c.close()
            return False
        return mix.check(item, status, body)

    def send_fresh(_, item) -> bool:
        # Independent users: one connection per request.
        fresh = connect(server.port)
        try:
            status, body = request(fresh, item.method, item.target,
                                   {"Connection": "close"})
        except (OSError, http.client.HTTPException):
            return False
        finally:
            fresh.close()
        return mix.check(item, status, body)

    if warm:
        for item in mix.warm:
            outcome.check(send_fresh(None, item))
        stats.warm_requests += len(mix.warm)
        stats.cells.update(item.target for item in mix.warm)
    gc.collect()
    gc.freeze()
    try:
        closed = LoopResult()
        if not stats.closed_s:
            closed = closed_loop(lambda: connect(server.port), send, mix.next,
                                 max_connections(), CLOSED_S)
        opened = open_loop(lambda: None, send_fresh, mix.next, OPEN_RATE,
                           TRACED_OPEN_S if traced else BURST_OPEN_S,
                           max_connections())
    finally:
        gc.unfreeze()
    for _ in range(opened.unsent):
        outcome.check(False)
    samples = closed.samples + opened.samples
    for sample in samples:
        outcome.check(sample.ok)
    stats.closed_done += len(closed.samples)
    stats.closed_s += closed.elapsed_s
    stats.samples += samples
    stats.open_samples += opened.samples
    stats.backlog_max = max(stats.backlog_max, opened.backlog_max)
    stats.cells.update(s.item.target for s in samples
                       if s.item.kind.startswith("reverse"))


def report_serving(stats: ServeStats, outcome: Outcome) -> None:
    """End-to-end serving figures of an untraced pass.

    The open-loop tail (p99 with at least a thousand samples) is
    reported beside the metrics, not as one: on a shared two-core host a
    single 20-40 ms scheduling stall moves the p99 of a few thousand
    requests, so it does not repeat run to run within any usable bound.
    """
    summary = tail_summary([s.latency_s * 1000.0 for s in stats.open_samples])
    outcome.metrics["rps"] = (stats.closed_done / stats.closed_s, "1/s")
    outcome.metrics["lat_p50_ms"] = (summary["p50"], "ms")
    outcome.report["open_loop_latency_ms"] = dict(summary, rate=OPEN_RATE)


def serve_layers(stats: ServeStats) -> dict[str, float]:
    """Client-side per-endpoint and generator figures of a traced pass."""
    def p50(kinds: tuple[str, ...]) -> float:
        values = [(s.end - s.start) * 1000.0 for s in stats.open_samples
                  if s.item.kind in kinds]
        return statistics.median(values) if values else 0.0

    def p99(values: list[float]) -> float:
        return percentile(sorted(values), 99.0) if values else 0.0

    late = [max(0.0, s.late_s) * 1000.0 for s in stats.open_samples]
    reverse = sum(1 for s in stats.samples if s.item.kind.startswith("reverse"))
    return {
        "serving.lookup_p50_ms": p50(("lookup", "lookup_unknown")),
        "serving.stats_p50_ms": p50(("stats",)),
        "serving.reverse_warm_p50_ms": p50(("reverse_warm",)),
        "serving.reverse_cold_p50_ms": p50(("reverse_cold",)),
        "serving.lat_p99_ms": p99([s.latency_s * 1000.0 for s in stats.open_samples]),
        **{name: stats.counters.get(name, 0) for name in SERVER_COUNTERS},
        "loadgen.late_p99_ms": p99(late),
        "loadgen.backlog_max": stats.backlog_max,
        "serving.reverse_requests": reverse + stats.warm_requests,
        "serving.reverse_cells": len(stats.cells),
    }


def boot(snapshot: Path, gazetteer: str, work: WorkDir,
         trace_out: Path | None = None) -> tuple[ServerProcess, float]:
    """Start a server; seconds from spawn to the first ``/healthz`` byte."""
    start = time.perf_counter()
    server = ServerProcess(snapshot, gazetteer, work, trace_out)
    arrived, status, _ = first_byte(server.port, "/healthz")
    if status != 200:
        server.stop()
        raise RuntimeError(f"/healthz answered {status}")
    return server, arrived - start


def setup_probe() -> float:
    """Median seconds a fresh interpreter takes to import the package and
    open the Korean gazetteer."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=child_env(),
                              capture_output=True, text=True, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------- workloads
class Workload:
    """Shared shape: set up once, run the timed part (untraced, and in a
    traced run also traced), then derive metrics.

    Attributes:
        name: Workload name on the command line.
        top_layers: Per-layer times that together cover the primary
            figure, summed beside it in a traced run's report (per
            iteration of the timed part).
        min_iterations: Iterations of the timed part a run makes at
            least: a shared host's speed swings from one pass to the
            next, so the reported median should not rest on one pass.
    """

    name = ""
    top_layers: tuple[str, ...] = ()
    min_iterations = 1

    def __init__(self, seed: int, seconds: float, work: WorkDir):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.outcome = Outcome()
        self.spans: dict[str, float] = {}
        self.serve_layer: dict[str, float] = {}
        self.iterations = 1
        self.mix: Mix | None = None

    def run(self, trace: bool) -> Outcome:
        setup_s = self.setup()
        self.outcome.metrics["setup_s"] = (setup_s, "s")
        reset_peak_rss()
        if not trace:
            self.measure(None)
            return self.outcome
        untraced = self.measure(None)
        self.spans = {}
        tracer = install(Tracer())
        try:
            traced = self.measure(tracer)
        finally:
            tracer.uninstall()
        self.outcome.layers = self.layers(tracer, untraced, traced)
        return self.outcome

    def setup(self) -> float:
        raise NotImplementedError

    def room_for_another(self, times: list[float], traced: bool) -> bool:
        """Whether to make another iteration.  A traced pass makes one,
        so its per-layer figures are those of one iteration; an untraced
        pass makes ``min_iterations``, then more while the timed
        iterations, one more of the mean length included, stay within
        ``--seconds``."""
        if traced:
            return False
        if len(times) < self.min_iterations:
            return True
        return sum(times) + statistics.mean(times) <= self.seconds

    def serve(self, server: ServerProcess, study, digest: str, stats: ServeStats,
              traced: bool, warm: bool) -> None:
        """Serve the fresh Korean study in one burst; the request mix is
        generated on first use and shared by every later burst."""
        if self.mix is None:
            self.mix = Mix(self.seed, served_view(study, digest), self.gazetteer,
                           prefill=PREFILL)
        burst(server, self.mix, stats, self.outcome, traced, warm)

    def measure(self, tracer: Tracer | None) -> float:
        """Run the timed part; returns the primary figure (a time, in
        seconds) used for the tracing overhead."""
        raise NotImplementedError

    def layers(self, tracer: Tracer, untraced: float, traced: float) -> dict:
        """Per-layer figures of the traced pass, plus the sum of the
        top-level layer times per iteration beside the primary figure."""
        layers = layer_metrics(tracer, self.spans, self.serve_layer, untraced,
                               traced)
        top = sum(layers[name][0] for name in self.top_layers)
        self.outcome.report["trace"] = {
            "untraced_primary": untraced,
            "traced_primary": traced,
            "top_layers": list(self.top_layers),
            "top_layer_sum_s": top / max(1, self.iterations),
            "overhead_pct": layers["trace.overhead_pct"][0],
        }
        return layers


#: The study engine's stages, as named by its ``RunContext`` spans.
STAGES = ("refine", "profile_geocode", "reverse_geocode", "grouping", "statistics")
ENGINE_LAYERS = tuple(f"engine.{stage}_s" for stage in STAGES)


class KoreanE2E(Workload):
    """Build the Korean corpus, study it, save it, serve it: timed from
    the build to the first byte of ``GET /stats``."""

    name = "korean_e2e"
    top_layers = ("datasets.build_s", *ENGINE_LAYERS, "analysis.save_s",
                  "serving.boot_s")
    # ~10 s each; the host's speed drifts over tens of seconds, so the
    # median rests on at least four of them whatever --seconds allows.
    min_iterations = 4

    def setup(self) -> float:
        from repro.geodata.registry import dataset_gazetteer

        self.gazetteer = dataset_gazetteer("korean")
        return setup_probe()

    def measure(self, tracer: Tracer | None) -> float:
        times = []
        stats = ServeStats()
        iteration = 0
        while True:
            iteration += 1
            path = self.work.file(f"korean-{iteration}-{tracer is not None}.json")
            trace_out = self.work.file(f"serve-trace-{iteration}.json") if tracer else None
            start = time.perf_counter()
            dataset = build(self.seed)
            result = study("korean", dataset.users, dataset.tweets, dataset.gazetteer,
                           self.spans)
            save(result, path)
            spawned = time.perf_counter()
            server = ServerProcess(path, "korean", self.work, trace_out)
            try:
                arrived, status, body = first_byte(server.port, "/stats")
                times.append(arrived - start)
                digest = check_digest(result)
                recorded = RECORDED_DIGESTS.get(str(self.seed))
                self.outcome.check(status == 200 and body.get("version") == digest[:16]
                                   and recorded in (None, digest))
                if tracer is not None:
                    tracer.uninstall()  # what is traced from here on runs in the server
                self.serve(server, result, digest, stats, tracer is not None, warm=True)
                stats.add_counters(server)
            finally:
                server.stop()
            if tracer is not None:
                tracer.merge(json.loads(trace_out.read_text(encoding="utf-8")))
                self.spans["analysis.snapshot_bytes"] = path.stat().st_size
                self.serve_layer = serve_layers(stats)
                self.serve_layer["serving.boot_s"] = arrived - spawned
            del dataset, result
            if not self.room_for_another(times, tracer is not None):
                break
        self.iterations = len(times)
        if tracer is None:
            self.outcome.metrics["result_s"] = (statistics.median(times), "s")
            report_serving(stats, self.outcome)
            self.outcome.metrics["peak_rss_mb"] = (benchmark_rss_mb(), "MB")
            self.outcome.report["first_byte_s"] = {
                "median": statistics.median(times), "count": len(times), "unit": "s",
                "each": times}
        return statistics.median(times)


class PaperRestudy(Workload):
    """Restudy both persisted corpora: load, study, save."""

    name = "paper_restudy"
    top_layers = ("storage.load_s", *ENGINE_LAYERS, "analysis.save_s")
    min_iterations = 3  # ~5 s each
    corpora = (("korean", "korean"), ("ladygaga", "combined"))

    def setup(self) -> float:
        """Generate and persist both corpora in a child process (so they
        never count towards this process's peak memory); it also reports
        the digest of each corpus's study before persisting."""
        from repro.geodata.registry import dataset_gazetteer

        self.gazetteers = {kind: dataset_gazetteer(g) for kind, g in self.corpora}
        self.gazetteer = self.gazetteers["korean"]  # the one the server holds
        done = subprocess.run(
            [sys.executable, str(HERE / "make_corpora.py"), str(self.seed),
             str(self.work.path), *(kind for kind, _ in self.corpora)],
            env=child_env(), capture_output=True, text=True, check=True)
        made = json.loads(done.stdout.strip().splitlines()[-1])
        self.expected = made["digests"]
        return made["setup_s"]

    def restudy(self, kind: str, iteration: int):
        """Load one persisted corpus, study it, save the study; the stores
        are released on return, so peak memory does not depend on how
        many iterations a run makes."""
        from repro.storage.tweetstore import TweetStore
        from repro.storage.userstore import UserStore

        users = UserStore.load(self.work.file(f"{kind}-users.jsonl"))
        tweets = TweetStore.load(self.work.file(f"{kind}-tweets.jsonl"))
        result = study(kind, users, tweets, self.gazetteers[kind], self.spans)
        path = self.work.file(f"restudy-{kind}-{iteration}.json")
        save(result, path)
        return result, path

    def measure(self, tracer: Tracer | None) -> float:
        """Restudy repeatedly; the server boots on the first iteration's
        Korean study (every iteration's has the same digest) and serves a
        burst after each iteration, outside its timing."""
        times = []
        stats = ServeStats()
        trace_out = self.work.file("serve-trace-restudy.json") if tracer else None
        server = None
        iteration = 0
        try:
            while True:
                iteration += 1
                # Release the previous iteration's studies first.
                results = korean_result = None
                start = time.perf_counter()
                results = {kind: self.restudy(kind, iteration) for kind, _ in self.corpora}
                times.append(time.perf_counter() - start)
                digests = {kind: check_digest(r) for kind, (r, _) in results.items()}
                for kind, digest in digests.items():
                    self.outcome.check(digest == self.expected[kind])
                korean_result, korean_path = results["korean"]
                if server is None:
                    if tracer is not None:
                        self.spans["analysis.snapshot_bytes"] = sum(
                            p.stat().st_size for _, p in results.values())
                        tracer.uninstall()  # what is traced from here on runs in the server
                    server, boot_s = boot(korean_path, "korean", self.work, trace_out)
                self.serve(server, korean_result, digests["korean"], stats,
                           tracer is not None, warm=iteration == 1)
                if not self.room_for_another(times, tracer is not None):
                    break
            stats.add_counters(server)
        finally:
            if server is not None:
                server.stop()
        self.iterations = len(times)
        if tracer is None:
            self.outcome.metrics["result_s"] = (statistics.median(times), "s")
            report_serving(stats, self.outcome)
            self.outcome.metrics["peak_rss_mb"] = (benchmark_rss_mb(), "MB")
            self.outcome.report["restudy_s"] = {
                "median": statistics.median(times), "count": len(times), "unit": "s",
                "each": times}
        else:
            tracer.merge(json.loads(trace_out.read_text(encoding="utf-8")))
            self.serve_layer = serve_layers(stats)
            self.serve_layer["serving.boot_s"] = boot_s
        return statistics.median(times)


WORKLOADS = {cls.name: cls for cls in (KoreanE2E, PaperRestudy)}


# ------------------------------------------------------------ layer metrics
#: Per-layer metric names and units, in report order.
LAYER_UNITS = {
    "twitter.population_s": "s", "twitter.graph_s": "s", "twitter.tweetgen_s": "s",
    "twitter.crawl_s": "s", "twitter.tweets": "count",
    "storage.insert_s": "s", "storage.load_s": "s", "storage.tweets_indexed": "count",
    "datasets.build_s": "s",
    "engine.refine_s": "s", "engine.profile_geocode_s": "s",
    "engine.reverse_geocode_s": "s", "engine.grouping_s": "s",
    "engine.statistics_s": "s",
    "geocode.lookups": "count", "geocode.cells": "count",
    "geocode.backend_lookups": "count", "geocode.hit_ratio": "ratio",
    "geocode.backend_s": "s",
    "geo.search_s": "s", "geo.search_calls": "count", "geo.reverse_s": "s",
    "yahooapi.requests": "count", "yahooapi.self_s": "s",
    "analysis.save_s": "s", "analysis.snapshot_bytes": "bytes",
    "analysis.digest_s": "s",
    "serving.from_study_s": "s", "serving.load_s": "s", "serving.boot_s": "s",
    "serving.lookup_p50_ms": "ms", "serving.stats_p50_ms": "ms",
    "serving.reverse_warm_p50_ms": "ms", "serving.reverse_cold_p50_ms": "ms",
    "serving.lat_p99_ms": "ms",
    "serving.shed": "count", "serving.errors": "count",
    "serving.client_disconnects": "count",
    "loadgen.late_p99_ms": "ms", "loadgen.backlog_max": "count",
    "trace.overhead_pct": "%",
}

_TIMED = {
    "twitter.population_s": "twitter.population", "twitter.graph_s": "twitter.graph",
    "twitter.tweetgen_s": "twitter.tweetgen", "twitter.crawl_s": "twitter.crawl",
    "storage.insert_s": "storage.insert", "storage.load_s": "storage.load",
    "datasets.build_s": "datasets.build", "geocode.backend_s": "geocode.backend",
    "geo.search_s": "geo.search", "geo.reverse_s": "geo.reverse",
    "analysis.save_s": "analysis.save", "analysis.digest_s": "analysis.digest",
    "serving.from_study_s": "serving.from_study", "serving.load_s": "serving.load",
}

def layer_metrics(tracer: Tracer, spans: dict[str, float], serve: dict[str, float],
                  untraced: float, traced: float) -> dict:
    """Assemble every per-layer metric (0 for a layer the workload does
    not run) plus the tracing overhead on the primary figure."""
    totals = tracer.totals()

    def row(key: str) -> dict:
        return totals.get(key, {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0})

    values: dict[str, float] = {name: row(key)["total_s"] for name, key in _TIMED.items()}
    values["twitter.tweets"] = row("twitter.tweetgen")["items"]
    values["storage.tweets_indexed"] = (row("storage.insert")["items"]
                                        + row("storage.load")["items"])
    for stage in STAGES:
        values[f"engine.{stage}_s"] = spans.get(stage, 0.0)
    lookups = spans.get("geocode.lookups", 0) + serve.get("serving.reverse_requests", 0)
    backend = row("geocode.backend")["calls"]
    values["geocode.lookups"] = lookups
    values["geocode.cells"] = (spans.get("geocode.cells", 0)
                               + serve.get("serving.reverse_cells", 0))
    values["geocode.backend_lookups"] = backend
    values["geocode.hit_ratio"] = (lookups - backend) / lookups if lookups else 0.0
    values["geo.search_calls"] = row("geo.search")["calls"]
    values["yahooapi.requests"] = row("yahooapi")["calls"]
    values["yahooapi.self_s"] = row("yahooapi")["self_s"]
    values["analysis.snapshot_bytes"] = spans.get("analysis.snapshot_bytes", 0)
    for name in LAYER_UNITS:
        if name.startswith(("serving.", "loadgen.")) and name not in _TIMED:
            values[name] = serve.get(name, 0)
    values["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
