"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``study``       — build a dataset and run the correlation study
* ``experiment``  — render one of the E1-E10 artefacts
* ``dataset``     — build a dataset and persist it as JSONL
* ``localize``    — run the reliability-weighted localisation experiment
* ``engine``      — staged-engine introspection (``engine trace``)
* ``stream``      — live firehose ingestion with checkpoint/resume
* ``serve``       — online query API over a saved study snapshot
* ``live``        — ingestion + serving in one process with delta snapshots
* ``fleet``       — multi-replica serving with health-gated snapshot rollout
* ``geodata``     — compile / inspect gazetteer artifacts (RGAZ1)

Everything is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ReproError, StorageError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.serving.http import ServingApp

#: ``repro experiment`` ids, in the order ``--help`` lists them.  The
#: registry itself (:data:`repro.pipelines.experiments.EXPERIMENTS`)
#: imports both dataset builders, so the parser does not import it; a
#: tier-1 test keeps the two key sets equal.
EXPERIMENT_IDS = ("E1", "E10", "E2", "E3", "E4", "E5", "E6+E7", "E8", "E9")

#: ``--policy`` values: those of
#: :class:`repro.streaming.queue.BackpressurePolicy`, the default first
#: (a tier-1 test keeps them equal).
BACKPRESSURE_POLICIES = ("block", "drop-oldest", "shed")


def _build_dataset(args: argparse.Namespace):
    """Build the dataset selected by ``args`` (korean | ladygaga)."""
    from repro.twitter.tweetgen import CollectionWindow

    window = CollectionWindow(start_ms=1_314_835_200_000, days=args.days)
    if args.dataset == "korean":
        from repro.datasets.korean import KoreanDatasetConfig, build_korean_dataset

        config = KoreanDatasetConfig(
            population_size=args.population,
            crawl_limit=min(args.users, args.population),
            window=window,
            seed=args.seed,
            use_api_timelines=False,
        )
        return build_korean_dataset(config)
    from repro.datasets.ladygaga import LadyGagaDatasetConfig, build_ladygaga_dataset

    config = LadyGagaDatasetConfig(
        population_size=args.population, window=window, seed=args.seed
    )
    return build_ladygaga_dataset(config)


def _run_engine_study(args: argparse.Namespace):
    """Build the dataset and run the study with the CLI's cache option."""
    from repro.analysis.correlation import run_study
    from repro.engine.context import RunContext
    from repro.engine.engine import EngineConfig

    dataset = _build_dataset(args)
    context = RunContext(dataset_name=args.dataset, seed=args.seed)
    if hasattr(dataset, "crawl"):
        context.metrics.register_source("crawl", dataset.crawl.snapshot)
    else:
        context.metrics.register_source("crawl", dataset.stream_stats.snapshot)
    study = run_study(
        dataset.users,
        dataset.tweets,
        dataset.gazetteer,
        dataset_name=args.dataset,
        engine_config=EngineConfig(cache_dir=args.cache_dir or None),
        context=context,
    )
    return dataset, study, context


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.analysis.reliability import ReliabilityTable
    from repro.analysis.report import (
        render_fig6,
        render_fig7,
        render_funnel,
        render_tweet_distribution,
    )
    from repro.analysis.serialization import save_study
    from repro.engine.context import render_trace

    dataset, study, context = _run_engine_study(args)
    print(render_funnel(study.funnel))
    print()
    print(render_fig7(study.statistics))
    print()
    print(render_fig6(study.statistics))
    print()
    print(render_tweet_distribution(study.statistics))
    print()
    table = ReliabilityTable.from_statistics(study.statistics)
    print("reliability weight factors:", table.as_dict())
    if args.metrics:
        print()
        print(render_trace(context))
    if args.save:
        save_study(study, args.save)
        print(f"study saved to {args.save}")
    return 0


def _cmd_engine_trace(args: argparse.Namespace) -> int:
    from repro.engine.context import render_trace

    _, _, context = _run_engine_study(args)
    print(render_trace(context))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.regional import regional_breakdown, render_regional_breakdown
    from repro.analysis.report import render_fig7
    from repro.analysis.serialization import load_study
    from repro.analysis.significance import bootstrap_share_intervals
    from repro.analysis.stability import render_stability, split_half_stability
    from repro.geodata.registry import dataset_gazetteer

    gazetteer = dataset_gazetteer(args.gazetteer)
    study = load_study(args.study, gazetteer)
    print(f"loaded study {study.dataset_name!r}: "
          f"{study.statistics.total_users} users, "
          f"{len(study.observations)} observations")
    print()
    print(render_fig7(study.statistics))
    print()
    intervals = bootstrap_share_intervals(study.groupings.values(), seed=args.seed)
    print("95% bootstrap confidence intervals on user shares:")
    for group, ci in intervals.items():
        print(f"  {group.value:<8} {ci.share:7.2%}  [{ci.low:6.2%}, {ci.high:6.2%}]")
    print()
    try:
        rows = regional_breakdown(study.groupings, study.profile_districts, min_users=10)
    except ReproError:
        print("regional breakdown: too few users per region at this scale")
    else:
        print(render_regional_breakdown(rows))
    print()
    try:
        print(render_stability(split_half_stability(study.observations)))
    except ReproError:
        print("stability analysis: too few timestamped observations")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.pipelines.experiments import run_experiment

    print(run_experiment(args.id, scale=args.scale))
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    users_path = out_dir / f"{args.dataset}_users.jsonl"
    tweets_path = out_dir / f"{args.dataset}_tweets.jsonl"
    user_count = dataset.users.save(users_path)
    tweet_count = dataset.tweets.save(tweets_path)
    print(f"wrote {user_count} users to {users_path}")
    print(f"wrote {tweet_count} tweets to {tweets_path}")
    print(f"geotagged tweets: {dataset.tweets.gps_count()}")
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    from repro.analysis.correlation import run_study
    from repro.events.evaluation import (
        LocalizationExperiment,
        make_korean_scenarios,
        render_localization_table,
    )

    args.dataset = "korean"  # localisation scenarios are Korean
    dataset = _build_dataset(args)
    study = run_study(dataset.users, dataset.tweets, dataset.gazetteer, "Korean")
    experiment = LocalizationExperiment(
        study, dataset.gazetteer, study.profile_districts, gps_rate=args.gps_rate
    )
    scenarios = make_korean_scenarios(dataset.gazetteer)
    outcomes = experiment.run_localization(scenarios)
    print(render_localization_table(outcomes))
    print()
    print("learned weight factors:", experiment.reliability_table.as_dict())
    return 0


#: Exit code for unusable on-disk state at boot — a ``stream --resume``
#: against a bad state directory, or a ``serve``/``live`` boot over a
#: missing/corrupt/truncated snapshot artifact.  Distinct from 1 (generic
#: :class:`ReproError`) so operators and scripts can tell "fix the
#: state/artifact" apart from every other failure.
EXIT_RESUME_STATE = 3

def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.analysis.incremental import IncrementalStudyAccumulator
    from repro.analysis.report import (
        render_fig6,
        render_fig7,
        render_funnel,
        render_tweet_distribution,
    )
    from repro.analysis.serialization import save_study
    from repro.engine.context import RunContext, render_trace
    from repro.streaming.checkpoint import CheckpointLog
    from repro.streaming.consumer import StreamConfig, StreamConsumer, StreamPump
    from repro.streaming.queue import BackpressurePolicy, BoundedTweetQueue
    from repro.streaming.source import FirehoseSource

    state_dir = Path(args.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    wal_path = state_dir / "wal.jsonl"
    checkpoint_log = CheckpointLog(state_dir / "checkpoints.jsonl")

    if args.resume:
        # Validate the resume state before the (expensive) dataset build so
        # a bad state directory fails in milliseconds with a clear message.
        if not checkpoint_log.path.exists():
            print(f"error: cannot resume: no checkpoint log at {checkpoint_log.path} "
                  "— run without --resume to start a fresh stream", file=sys.stderr)
            return EXIT_RESUME_STATE
        try:
            if checkpoint_log.latest() is None:
                print(f"error: cannot resume: checkpoint log {checkpoint_log.path} "
                      "holds no complete checkpoint (truncated write?) — run "
                      "without --resume to start a fresh stream", file=sys.stderr)
                return EXIT_RESUME_STATE
        except StorageError as exc:
            print(f"error: cannot resume: {exc} — run without --resume to start "
                  "a fresh stream", file=sys.stderr)
            return EXIT_RESUME_STATE

    dataset = _build_dataset(args)
    accumulator = IncrementalStudyAccumulator(
        dataset.gazetteer, dataset.users, cache_dir=args.cache_dir or None
    )
    if args.resume:
        try:
            consumer, offset = StreamConsumer.resume(
                accumulator, wal_path, checkpoint_log, args.checkpoint_every
            )
        except StorageError as exc:
            print(f"error: cannot resume: {exc} — run without --resume to start "
                  "a fresh stream", file=sys.stderr)
            return EXIT_RESUME_STATE
        print(f"resuming from checkpoint: offset {offset}, "
              f"{consumer.batches} batches already durable")
    else:
        # A fresh run owns the state directory: clear any previous journal
        # so stale records cannot mix into the new write-ahead log.
        wal_path.unlink(missing_ok=True)
        checkpoint_log.path.unlink(missing_ok=True)
        consumer = StreamConsumer(
            accumulator, wal_path, checkpoint_log, args.checkpoint_every
        )
        offset = 0

    config = StreamConfig(
        batch_size=args.batch_size,
        capacity=args.capacity,
        policy=BackpressurePolicy(args.policy),
        drain_every=args.drain_every,
        checkpoint_every=args.checkpoint_every,
    )
    source = FirehoseSource(
        dataset.tweets,
        dataset.users,
        track=tuple(args.track),
        disconnect_every=args.disconnect_every,
    )
    queue = BoundedTweetQueue(config.capacity, config.policy)
    context = RunContext(dataset_name=args.dataset, seed=args.seed)
    pump = StreamPump(source, queue, consumer, config, context)
    snapshot = pump.run(start_offset=offset, max_batches=args.max_batches)

    print(f"stream {'exhausted' if snapshot.exhausted else 'paused'} at "
          f"offset {snapshot.offset}/{len(source)} after {snapshot.batches} "
          f"batches ({queue.stats.dropped} dropped by backpressure)")
    if not snapshot.exhausted:
        print("resume with: repro stream --resume "
              f"--state-dir {args.state_dir} [same options]")
    print(f"state digest: {snapshot.digest[:16]}…")
    print()
    study = snapshot.result
    print(render_funnel(study.funnel))
    print()
    print(render_fig7(study.statistics))
    print()
    print(render_fig6(study.statistics))
    print()
    print(render_tweet_distribution(study.statistics))
    if args.metrics:
        print()
        print(render_trace(context))
    if args.save:
        save_study(study, args.save)
        print(f"study saved to {args.save}")
    return 0


def _cmd_geodata_prepare(args: argparse.Namespace) -> int:
    """Compile a district catalogue into a gazetteer artifact."""
    from repro.geodata.prepare import prepare_artifact

    try:
        summary = prepare_artifact(
            args.out,
            catalogue=args.catalogue or None,
            districts_path=args.districts or None,
            polygons_path=args.polygons or None,
            grid_deg=args.grid_deg,
        )
    except StorageError as exc:
        # Unusable input / artifact state: exit 3, one line, no traceback —
        # the same convention as serve/live boot over a bad snapshot.
        print(f"error: geodata prepare failed: {exc}", file=sys.stderr)
        return EXIT_RESUME_STATE
    print(
        f"wrote {summary['path']}: {summary['districts']} districts, "
        f"{summary['polygons']} polygons, grid {summary['grid_deg']}deg, "
        f"{summary['bytes']} bytes (source {summary['source']})"
    )
    return 0


def _cmd_geodata_info(args: argparse.Namespace) -> int:
    """Print version, counts, and sections of a gazetteer artifact."""
    from repro.geodata.artifact import gazetteer_artifact_info

    try:
        info = gazetteer_artifact_info(args.artifact)
    except StorageError as exc:
        print(f"error: cannot read gazetteer artifact: {exc}", file=sys.stderr)
        return EXIT_RESUME_STATE
    print(f"{info['path']}: {info['format']} v{info['version']} "
          f"({info['bytes']} bytes, source {info['source']})")
    print(f"  districts: {info['districts']}  states: {info['states']}  "
          f"aliases: {info['aliases']}")
    print(f"  grid: {info['grid_deg']}deg ({info['grid_cells']} occupied cells, "
          f"{info['lon_cells']} lon columns)")
    print(f"  polygons: {info['polygons']} ({info['rings']} rings, "
          f"{info['vertices']} vertices)")
    print(f"  sections: {', '.join(info['sections'])}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a saved study over HTTP until interrupted."""
    from repro.geo.reverse import ReverseGeocoder
    from repro.geocode.backend import DirectBackend
    from repro.geocode.service import GeocodeService
    from repro.geodata.registry import dataset_gazetteer
    from repro.serving.http import (
        ServingApp,
        StudyServer,
        install_reload_signal,
        render_serving_summary,
    )
    from repro.serving.ratelimit import TokenBucket
    from repro.serving.state import SnapshotStore, load_snapshot

    gazetteer = dataset_gazetteer(args.gazetteer)
    # The "current" artifact path is mutable state: a fleet publisher may
    # retarget this replica at a new snapshot via /admin/reload?snapshot=,
    # after which a bare reload (SIGHUP) re-reads the *new* path.
    active = {"path": args.snapshot}

    def reloader():
        """Re-read the active study document from disk (SIGHUP / /admin/reload)."""
        return load_snapshot(active["path"], gazetteer)

    def snapshot_loader(path: str):
        """Load a publisher-named artifact; it becomes the active path."""
        snapshot = load_snapshot(path, gazetteer)
        active["path"] = path
        return snapshot

    try:
        boot = reloader()
    except StorageError as exc:
        # Same convention as `stream --resume` against a bad state dir:
        # unusable on-disk state is exit 3, one line, no traceback.
        print(f"error: cannot serve: {exc} — re-save the study with "
              "`repro study --save` / `repro stream --save`", file=sys.stderr)
        return EXIT_RESUME_STATE
    store = SnapshotStore(boot)
    geocoder = GeocodeService(DirectBackend(ReverseGeocoder(gazetteer)))
    bucket = TokenBucket(rate=args.rate if args.rate > 0 else None, burst=args.burst)
    app = ServingApp(
        store,
        geocoder,
        bucket=bucket,
        reloader=reloader,
        snapshot_loader=snapshot_loader,
    )
    hup = install_reload_signal(app)
    if args.server == "asyncio":
        return _serve_asyncio_forever(app, args.host, args.port, hup)
    server = StudyServer(app, host=args.host, port=args.port)
    print(render_serving_summary(app, args.host, server.port))
    print("  server: thread-per-connection")
    if hup:
        print("  reload: POST /admin/reload or SIGHUP")
    else:
        print("  reload: POST /admin/reload")
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _serve_asyncio_forever(app: ServingApp, host: str, port: int, hup: bool) -> int:
    """Foreground event-loop serving (`repro serve --server asyncio`)."""
    import asyncio

    from repro.serving.aio import AsyncStudyServer
    from repro.serving.http import render_serving_summary

    async def run() -> None:
        server = AsyncStudyServer(app, host=host, port=port)
        await server.start()
        print(render_serving_summary(app, host, server.port))
        print("  server: asyncio (keep-alive + pipelining, single event loop)")
        print("  reload: POST /admin/reload" + (" or SIGHUP" if hup else ""))
        sys.stdout.flush()
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    """Boot N subprocess replicas behind one fleet front (`repro fleet run`)."""
    from repro.engine.metrics import MetricsRegistry
    from repro.errors import FleetError
    from repro.fleet.controller import FleetController
    from repro.fleet.front import FleetFront
    from repro.fleet.publisher import SnapshotPublisher
    from repro.fleet.replica import ReplicaSupervisor
    from repro.fleet.rollout import RolloutConfig
    from repro.fleet.targets import ReplicaSet
    from repro.serving.aio import start_background_server
    from repro.serving.ratelimit import TokenBucket

    route = "hash" if args.hash else "round-robin"
    metrics = MetricsRegistry()
    targets = ReplicaSet()
    supervisor = ReplicaSupervisor(
        args.snapshot,
        args.replicas,
        targets,
        server=args.replica_server,
        gazetteer=args.gazetteer,
        metrics=metrics,
    )
    try:
        supervisor.start()
    except FleetError as exc:
        print(f"error: fleet boot failed: {exc}", file=sys.stderr)
        supervisor.stop()
        targets.close()
        return EXIT_RESUME_STATE
    bucket = TokenBucket(rate=args.rate if args.rate > 0 else None, burst=args.burst)
    front = FleetFront(targets, metrics=metrics, bucket=bucket, route=route)
    publisher = SnapshotPublisher(targets, metrics=metrics)
    controller = FleetController(
        front,
        publisher,
        current_path=args.snapshot,
        config=RolloutConfig(
            min_shadow_samples=args.min_shadow_samples,
            max_error_rate=args.max_error_rate,
            max_p95_latency_s=args.max_p95_latency,
            shadow_timeout_s=args.shadow_timeout,
        ),
        supervisor=supervisor,
        metrics=metrics,
    )
    server = start_background_server(front, args.server, args.host, args.port)
    print(f"fleet front on http://{args.host}:{server.port} "
          f"({args.server} transport, {route} routing)")
    for handle in supervisor.handles():
        print(f"  replica {handle.replica_id}: http://{handle.host}:{handle.port} "
              f"({handle.server}, pid {handle.pid})")
    print(f"  snapshot: {args.snapshot} "
          f"(version {controller.current_version or 'unknown'})")
    print("  endpoints: data endpoints proxied; "
          "/fleet/healthz /fleet/metrics /fleet/status /fleet/publish")
    print("  publish: repro fleet publish <snapshot> "
          f"--front-port {server.port}")
    sys.stdout.flush()
    try:
        server.join()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        controller.shutdown()
        supervisor.stop()
        targets.close()
    return 0


def _cmd_fleet_publish(args: argparse.Namespace) -> int:
    """Ask a running fleet front to roll out a snapshot (`repro fleet publish`)."""
    from urllib.parse import quote

    from repro.errors import ReplicaUnreachableError
    from repro.fleet.client import PooledReplicaClient

    client = PooledReplicaClient(args.front_host, args.front_port)
    target = f"/fleet/publish?snapshot={quote(args.snapshot, safe='')}"
    if args.no_gate:
        target += "&gate=0"
    try:
        status, body = client.request("POST", target)
    except ReplicaUnreachableError as exc:
        print(f"error: fleet front unreachable: {exc}", file=sys.stderr)
        client.close()
        return 1
    parsed = json.loads(body)
    if status != 202:
        print(f"error: publish rejected ({status}): "
              f"{parsed.get('error', body.decode('utf-8', 'replace'))}",
              file=sys.stderr)
        client.close()
        return 1
    print(f"publish accepted: {args.snapshot} "
          f"({'ungated' if args.no_gate else 'health-gated'})")
    if args.no_wait:
        client.close()
        return 0
    deadline = time.monotonic() + args.wait_timeout
    outcome = None
    while time.monotonic() < deadline:
        time.sleep(0.2)
        try:
            status, body = client.request("GET", "/fleet/status")
        except ReplicaUnreachableError:
            continue
        state = json.loads(body)
        if state.get("state") == "idle":
            outcome = state.get("last_rollout")
            break
        print(f"  rollout {state.get('state')}…")
        sys.stdout.flush()
    client.close()
    if outcome is None:
        print(f"error: rollout still running after {args.wait_timeout:.0f}s",
              file=sys.stderr)
        return 1
    print(json.dumps(outcome, indent=2, sort_keys=True))
    return 0 if outcome.get("promoted") else 1


def _cmd_live(args: argparse.Namespace) -> int:
    """Run ingestion and serving in one process (`repro live`).

    Boots a :class:`~repro.serving.http.StudyServer` over the (initially
    empty or resumed) accumulator state, then pumps the synthetic
    firehose while a :class:`~repro.live.pipeline.LiveStudyPipeline`
    builds delta snapshots on cadence and hot-swaps them into the running
    server — queries observe each publish as a generation bump on
    ``/healthz``.
    """
    from repro.analysis.incremental import IncrementalStudyAccumulator
    from repro.engine.context import RunContext
    from repro.geo.reverse import ReverseGeocoder
    from repro.geocode.backend import DirectBackend
    from repro.geocode.service import GeocodeService
    from repro.live.builder import DeltaSnapshotBuilder
    from repro.live.pipeline import LiveConfig, LiveStudyPipeline
    from repro.serving.aio import start_background_server
    from repro.serving.http import ServingApp, render_serving_summary
    from repro.serving.ratelimit import TokenBucket
    from repro.serving.state import SnapshotStore
    from repro.streaming.checkpoint import CheckpointLog
    from repro.streaming.consumer import StreamConfig, StreamConsumer, StreamPump
    from repro.streaming.queue import BackpressurePolicy, BoundedTweetQueue
    from repro.streaming.source import FirehoseSource

    state_dir = Path(args.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    wal_path = state_dir / "wal.jsonl"
    checkpoint_log = CheckpointLog(state_dir / "checkpoints.jsonl")

    dataset = _build_dataset(args)
    accumulator = IncrementalStudyAccumulator(
        dataset.gazetteer, dataset.users, cache_dir=args.cache_dir or None
    )
    try:
        if args.resume:
            consumer, offset = StreamConsumer.resume(
                accumulator, wal_path, checkpoint_log, args.checkpoint_every
            )
        else:
            wal_path.unlink(missing_ok=True)
            checkpoint_log.path.unlink(missing_ok=True)
            consumer = StreamConsumer(
                accumulator, wal_path, checkpoint_log, args.checkpoint_every
            )
            offset = 0
    except StorageError as exc:
        print(f"error: cannot resume: {exc} — run without --resume to start "
              "a fresh stream", file=sys.stderr)
        return EXIT_RESUME_STATE

    config = StreamConfig(
        batch_size=args.batch_size,
        capacity=args.capacity,
        policy=BackpressurePolicy(args.policy),
        drain_every=args.drain_every,
        checkpoint_every=args.checkpoint_every,
    )
    source = FirehoseSource(dataset.tweets, dataset.users)
    queue = BoundedTweetQueue(config.capacity, config.policy)
    context = RunContext(dataset_name=args.dataset, seed=args.seed)
    pump = StreamPump(source, queue, consumer, config, context)

    builder = DeltaSnapshotBuilder(accumulator, dataset_name=args.dataset)
    store = SnapshotStore(builder.build())  # generation 1: the boot state
    geocoder = GeocodeService(DirectBackend(ReverseGeocoder(dataset.gazetteer)))
    bucket = TokenBucket(rate=args.rate if args.rate > 0 else None, burst=args.burst)
    # Share the pump's registry so /metrics surfaces stream.* and live.*
    # gauges beside the serving.* counters — one pane of glass.
    app = ServingApp(store, geocoder, metrics=context.metrics, bucket=bucket)
    pipeline = LiveStudyPipeline(
        pump,
        builder,
        store,
        LiveConfig(
            cadence_batches=args.cadence if args.cadence > 0 else None,
            cadence_seconds=(
                args.cadence_seconds if args.cadence_seconds > 0 else None
            ),
            pace_s=args.pace_ms / 1000.0,
        ),
    )
    server = start_background_server(app, args.server, args.host, args.port)
    print(render_serving_summary(app, args.host, server.port))
    print(f"  server: {args.server}")
    print(f"  live: cadence {args.cadence} batches"
          + (f" / {args.cadence_seconds}s" if args.cadence_seconds > 0 else "")
          + f", serving while streaming {len(source)} tweets")
    sys.stdout.flush()

    try:
        snapshot = pipeline.run(start_offset=offset, max_batches=args.max_batches)
    except KeyboardInterrupt:
        server.shutdown()
        return 0
    metrics = context.metrics.snapshot()
    print(f"stream {'exhausted' if snapshot.exhausted else 'paused'} at "
          f"offset {snapshot.offset}/{len(source)} after {snapshot.batches} "
          f"batches; {int(metrics['live.swaps'])} snapshot swaps "
          f"({int(metrics.get('live.swaps_skipped', 0))} content-equal skips), "
          f"serving generation {store.generation}")
    print(f"served version: {store.current().version} "
          f"(swap lag p95 {metrics.get('live.swap_lag.p95', 0.0):.3f}s)")
    sys.stdout.flush()
    if args.on_exhausted == "serve":
        try:
            server.join()
        except KeyboardInterrupt:
            pass
    server.shutdown()
    return 0


def _add_build_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--population", type=int, default=2_000,
                        help="accounts on the simulated platform")
    parser.add_argument("--users", type=int, default=1_600,
                        help="users the crawler collects (korean only)")
    parser.add_argument("--days", type=int, default=60,
                        help="collection-window length in days")
    parser.add_argument("--seed", type=int, default=7, help="master seed")


def _add_cache_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default="",
                        help="directory for the persistent geocode cell cache; "
                        "reuse it across runs to skip already-resolved cells")


class _OneLineArgumentParser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose failures are one actionable line.

    ``argparse`` normally prints a multi-line usage dump before the error;
    for scripted callers (CI smoke steps, shell pipelines) a single line
    naming the problem and pointing at ``--help`` is easier to surface.
    The exit code stays argparse's conventional 2, so an unknown
    subcommand is distinguishable from a study failure (1) and a bad
    resume state (3); DESIGN.md lists every exit code.
    """

    def error(self, message: str):
        """Exit 2 with a one-line diagnostic instead of a usage dump."""
        self.exit(2, f"{self.prog}: error: {message} — see `repro --help`\n")


def package_version() -> str:
    """The installed package version, from metadata or ``pyproject.toml``.

    An installed distribution answers from its metadata; a source
    checkout run via ``PYTHONPATH=src`` falls back to the repository's
    ``pyproject.toml``, and finally to the library's ``__version__`` —
    the three can only disagree during a version bump, where the
    checkout's files win over stale installed metadata anyway.
    """
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    if pyproject.is_file():
        try:
            import tomllib

            with pyproject.open("rb") as handle:
                return tomllib.load(handle)["project"]["version"]
        except Exception:  # malformed/pre-3.11 — fall through to metadata
            pass
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    from repro.geo.gazetteer import BUILTIN_GRID_DEG

    parser = _OneLineArgumentParser(
        prog="repro",
        description="Reproduction of Lee & Hwang (ICDE 2012): spatial "
        "attributes on Twitter",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    study = subparsers.add_parser("study", help="run the correlation study")
    study.add_argument("--dataset", choices=("korean", "ladygaga"), default="korean")
    study.add_argument("--save", default="", help="save the study result as JSON")
    study.add_argument("--metrics", action="store_true",
                       help="print the engine metrics snapshot and stage spans")
    _add_build_options(study)
    _add_cache_option(study)
    study.set_defaults(func=_cmd_study)

    engine = subparsers.add_parser(
        "engine", help="staged-engine introspection"
    )
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)
    trace = engine_sub.add_parser(
        "trace", help="run a study and print its full execution trace"
    )
    trace.add_argument("--dataset", choices=("korean", "ladygaga"), default="korean")
    _add_build_options(trace)
    _add_cache_option(trace)
    trace.set_defaults(func=_cmd_engine_trace)

    report = subparsers.add_parser(
        "report", help="extension analyses over a saved study"
    )
    report.add_argument("--study", required=True, help="path from `study --save`")
    report.add_argument("--gazetteer", choices=("korean", "combined"), default="korean")
    report.add_argument("--seed", type=int, default=7)
    report.set_defaults(func=_cmd_report)

    experiment = subparsers.add_parser("experiment", help="render an E1-E10 artefact")
    experiment.add_argument("id", choices=EXPERIMENT_IDS)
    experiment.add_argument("--scale", choices=("small", "default"), default="small")
    experiment.set_defaults(func=_cmd_experiment)

    dataset = subparsers.add_parser("dataset", help="build and persist a dataset")
    dataset.add_argument("--dataset", choices=("korean", "ladygaga"), default="korean")
    dataset.add_argument("--out", default="./data", help="output directory")
    _add_build_options(dataset)
    dataset.set_defaults(func=_cmd_dataset)

    stream = subparsers.add_parser(
        "stream", help="ingest the firehose incrementally with checkpoints"
    )
    stream.add_argument("--dataset", choices=("korean", "ladygaga"), default="ladygaga")
    stream.add_argument("--policy", choices=BACKPRESSURE_POLICIES,
                        default=BACKPRESSURE_POLICIES[0],
                        help="backpressure policy when the ingest queue fills")
    stream.add_argument("--batch-size", type=int, default=256,
                        help="tweets folded per micro-batch")
    stream.add_argument("--capacity", type=int, default=1024,
                        help="bounded ingest-queue capacity")
    stream.add_argument("--drain-every", type=int, default=1,
                        help="produced tweets between consumer drains "
                        "(larger = slower consumer)")
    stream.add_argument("--checkpoint-every", type=int, default=1,
                        help="micro-batches between durable checkpoints")
    stream.add_argument("--disconnect-every", type=int, default=0,
                        help="simulate a stream disconnect every N deliveries")
    stream.add_argument("--state-dir", default="./stream_state",
                        help="directory for the write-ahead log and checkpoints")
    stream.add_argument("--resume", action="store_true",
                        help="continue from the state directory's last checkpoint")
    stream.add_argument("--max-batches", type=int, default=None,
                        help="pause after this many micro-batches (crash drill)")
    stream.add_argument("--track", action="append", default=[],
                        help="extra track keyword(s) filtered at the source")
    stream.add_argument("--save", default="", help="save the snapshot study as JSON")
    stream.add_argument("--metrics", action="store_true",
                        help="print the stream metrics snapshot and batch spans")
    _add_build_options(stream)
    _add_cache_option(stream)
    stream.set_defaults(func=_cmd_stream)

    serve = subparsers.add_parser(
        "serve", help="serve a saved study over a JSON HTTP API"
    )
    serve.add_argument("--snapshot", required=True,
                       help="study JSON from `study --save` / `stream --save`")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--gazetteer", choices=("korean", "combined"),
                       default="korean",
                       help="district catalogue for /reverse and snapshot load")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="admitted data requests per second "
                       "(0 = unlimited; excess answered 429)")
    serve.add_argument("--server", choices=("thread", "asyncio"), default="thread",
                       help="front end: thread-per-connection stdlib server or "
                            "single event loop with keep-alive pipelining")
    serve.add_argument("--burst", type=int, default=32,
                       help="admission burst capacity above the sustained rate")
    serve.set_defaults(func=_cmd_serve)

    live = subparsers.add_parser(
        "live", help="stream the firehose and serve delta snapshots live"
    )
    live.add_argument("--dataset", choices=("korean", "ladygaga"), default="ladygaga")
    live.add_argument("--cadence", type=int, default=8,
                      help="micro-batches between snapshot builds "
                      "(0 disables the batch trigger)")
    live.add_argument("--cadence-seconds", type=float, default=0.0,
                      help="wall-clock seconds between snapshot builds "
                      "(0 disables the clock trigger)")
    live.add_argument("--pace-ms", type=float, default=0.0,
                      help="sleep this long after each folded batch — throttles "
                      "the synthetic firehose to an observable rate")
    live.add_argument("--host", default="127.0.0.1", help="bind address")
    live.add_argument("--port", type=int, default=8080,
                      help="TCP port (0 picks a free one)")
    live.add_argument("--rate", type=float, default=0.0,
                      help="admitted data requests per second "
                      "(0 = unlimited; excess answered 429)")
    live.add_argument("--server", choices=("thread", "asyncio"), default="thread",
                      help="serving front end (same choice as `repro serve`)")
    live.add_argument("--burst", type=int, default=32,
                      help="admission burst capacity above the sustained rate")
    live.add_argument("--policy", choices=BACKPRESSURE_POLICIES,
                      default=BACKPRESSURE_POLICIES[0],
                      help="backpressure policy when the ingest queue fills")
    live.add_argument("--batch-size", type=int, default=256,
                      help="tweets folded per micro-batch")
    live.add_argument("--capacity", type=int, default=1024,
                      help="bounded ingest-queue capacity")
    live.add_argument("--drain-every", type=int, default=1,
                      help="produced tweets between consumer drains")
    live.add_argument("--checkpoint-every", type=int, default=1,
                      help="micro-batches between durable checkpoints")
    live.add_argument("--state-dir", default="./stream_state",
                      help="directory for the write-ahead log and checkpoints")
    live.add_argument("--resume", action="store_true",
                      help="continue from the state directory's last checkpoint")
    live.add_argument("--max-batches", type=int, default=None,
                      help="pause after this many micro-batches (crash drill)")
    live.add_argument("--on-exhausted", choices=("serve", "exit"),
                      default="serve",
                      help="after the stream ends: keep serving the final "
                      "snapshot, or shut down (scripted runs)")
    _add_build_options(live)
    _add_cache_option(live)
    live.set_defaults(func=_cmd_live)

    fleet = subparsers.add_parser(
        "fleet",
        help="multi-replica serving with health-gated snapshot rollout",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser(
        "run", help="boot N subprocess replicas behind one fleet front"
    )
    fleet_run.add_argument("--snapshot", required=True,
                           help="study JSON every replica boots with")
    fleet_run.add_argument("--replicas", type=int, default=3,
                           help="replica subprocess count (default 3)")
    fleet_run.add_argument("--host", default="127.0.0.1",
                           help="front bind address")
    fleet_run.add_argument("--port", type=int, default=8090,
                           help="front port (0 = ephemeral)")
    fleet_run.add_argument("--server", choices=("thread", "asyncio"),
                           default="thread",
                           help="front transport (default thread)")
    fleet_run.add_argument("--replica-server", choices=("thread", "asyncio"),
                           default="thread",
                           help="replica transport (default thread)")
    routing = fleet_run.add_mutually_exclusive_group()
    routing.add_argument("--hash", action="store_true",
                         help="consistent-hash routing (stable replica per key)")
    routing.add_argument("--round-robin", action="store_true",
                         help="round-robin routing (the default)")
    fleet_run.add_argument("--gazetteer", choices=("korean", "combined"),
                           default="korean",
                           help="gazetteer the replicas load")
    fleet_run.add_argument("--rate", type=float, default=0.0,
                           help="fleet-level admitted requests/second "
                                "(0 = unlimited)")
    fleet_run.add_argument("--burst", type=int, default=64,
                           help="fleet admission burst capacity")
    fleet_run.add_argument("--min-shadow-samples", type=int, default=50,
                           help="shadow samples a canary needs before the "
                                "gate may pass")
    fleet_run.add_argument("--max-error-rate", type=float, default=0.05,
                           help="canary error-rate budget")
    fleet_run.add_argument("--max-p95-latency", type=float, default=0.5,
                           help="canary p95 latency budget (seconds)")
    fleet_run.add_argument("--shadow-timeout", type=float, default=30.0,
                           help="seconds to collect shadow samples before "
                                "ruling the canary unproven")
    fleet_run.set_defaults(func=_cmd_fleet_run)
    fleet_publish = fleet_sub.add_parser(
        "publish", help="roll a snapshot out through a running fleet front"
    )
    fleet_publish.add_argument("snapshot",
                               help="study JSON to publish fleet-wide")
    fleet_publish.add_argument("--front-host", default="127.0.0.1",
                               help="fleet front host")
    fleet_publish.add_argument("--front-port", type=int, default=8090,
                               help="fleet front port")
    fleet_publish.add_argument("--no-gate", action="store_true",
                               help="skip the canary/shadow gate and publish "
                                    "fleet-wide immediately")
    fleet_publish.add_argument("--no-wait", action="store_true",
                               help="return once the rollout is accepted "
                                    "instead of waiting for its outcome")
    fleet_publish.add_argument("--wait-timeout", type=float, default=120.0,
                               help="seconds to wait for the rollout outcome")
    fleet_publish.set_defaults(func=_cmd_fleet_publish)

    geodata = subparsers.add_parser(
        "geodata", help="compile / inspect gazetteer artifacts (RGAZ1)"
    )
    geodata_sub = geodata.add_subparsers(dest="geodata_command", required=True)
    prepare = geodata_sub.add_parser(
        "prepare", help="compile districts (+ polygons) into an RGAZ1 artifact"
    )
    prepare.add_argument("--out", required=True, help="artifact path to write")
    prepare.add_argument(
        "--catalogue", choices=tuple(BUILTIN_GRID_DEG), default="",
        help="builtin catalogue to compile (alternative to --districts)",
    )
    prepare.add_argument(
        "--districts", default="",
        help="external districts JSONL (alternative to --catalogue)",
    )
    prepare.add_argument(
        "--polygons", default="",
        help="optional boundary polygons JSON layered on the catalogue",
    )
    prepare.add_argument(
        "--grid-deg", type=float, default=None,
        help="spatial grid cell size in degrees, 0.01 to 180 "
             "(default: catalogue's)",
    )
    prepare.set_defaults(func=_cmd_geodata_prepare)
    info = geodata_sub.add_parser(
        "info", help="print version, counts, and sections of an artifact"
    )
    info.add_argument("artifact", help="artifact path to inspect")
    info.set_defaults(func=_cmd_geodata_info)

    localize = subparsers.add_parser(
        "localize", help="reliability-weighted event localisation"
    )
    localize.add_argument("--gps-rate", type=float, default=0.2,
                          help="fraction of witness reports carrying GPS")
    _add_build_options(localize)
    localize.set_defaults(func=_cmd_localize)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
