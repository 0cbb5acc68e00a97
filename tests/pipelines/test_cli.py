"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, package_version
from tests.analysis.test_serialization import BAD_STUDY_NAMES, write_bad_studies

FAST = ["--population", "400", "--users", "300", "--days", "10", "--seed", "13"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_id_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "E99"])

    def test_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.dataset == "korean"
        assert args.seed == 7

    def test_static_choices_match_their_registries(self):
        """The parser names experiment ids and backpressure policies
        without importing the registries; the two must stay equal."""
        from repro.cli import BACKPRESSURE_POLICIES, EXPERIMENT_IDS
        from repro.pipelines.experiments import EXPERIMENTS
        from repro.streaming.queue import BackpressurePolicy

        assert EXPERIMENT_IDS == tuple(sorted(EXPERIMENTS))
        assert BACKPRESSURE_POLICIES == tuple(p.value for p in BackpressurePolicy)
        assert BACKPRESSURE_POLICIES[0] == BackpressurePolicy.BLOCK.value

    @pytest.mark.parametrize("command", [
        [], ["study"], ["engine"], ["engine", "trace"], ["report"], ["experiment"],
        ["dataset"], ["stream"], ["serve"], ["live"], ["fleet"], ["fleet", "run"],
        ["fleet", "publish"], ["geodata"], ["geodata", "prepare"],
        ["geodata", "info"], ["localize"],
    ])
    def test_every_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--help"])
        assert excinfo.value.code == 0
        assert "usage: repro" in capsys.readouterr().out


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {package_version()}"

    def test_version_matches_pyproject(self):
        """The version comes from package metadata, not a drifting copy."""
        import tomllib
        from pathlib import Path

        import repro.cli as cli_module

        pyproject = Path(cli_module.__file__).resolve().parents[2] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            declared = tomllib.load(handle)["project"]["version"]
        assert package_version() == declared


class TestUnknownCommand:
    def test_unknown_subcommand_exits_2_with_one_line_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.strip()]
        assert len(lines) == 1
        assert "invalid choice" in lines[0]
        assert "repro --help" in lines[0]
        assert "usage:" not in err

    def test_unknown_option_exits_2_with_one_line_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "--frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.strip()]
        assert len(lines) == 1
        assert "repro --help" in lines[0]


class TestStudy:
    def test_korean_study_output(self, capsys):
        assert main(["study", "--dataset", "korean", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Refinement funnel" in out
        assert "Number of users in each group" in out
        assert "reliability weight factors" in out

    def test_ladygaga_study_output(self, capsys):
        assert main(["study", "--dataset", "ladygaga", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Refinement funnel" in out

    def test_study_metrics_flag_prints_trace(self, capsys):
        assert main(["study", "--dataset", "korean", "--metrics", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Run trace — korean" in out
        assert "geocode.requests" in out
        assert "funnel.study_users" in out
        assert "reverse_geocode" in out

    def test_study_metrics_exposes_geocode_tiers(self, capsys):
        """`repro study --metrics` surfaces the geocode service's tier
        hit/miss counters and cache sizes (snapshot keys + summary line)."""
        assert main(["study", "--dataset", "korean", "--metrics", *FAST]) == 0
        out = capsys.readouterr().out
        for key in (
            "geocode.tiers.l1.hits",
            "geocode.tiers.l1.misses",
            "geocode.tiers.disk.hits",
            "geocode.tiers.disk.misses",
            "geocode.tiers.backend.lookups",
            "geocode.tiers.cache_size",
            "geocode.tiers.client_cache_size",
        ):
            assert key in out
        assert "geocode tiers: l1" in out

    def test_study_cache_dir_warm_run_matches(self, capsys, tmp_path):
        """A second run over a shared --cache-dir reproduces the study
        byte for byte from the warm disk tier."""
        cache = str(tmp_path / "geocache")
        assert main(["study", "--dataset", "korean", "--cache-dir", cache, *FAST]) == 0
        cold = capsys.readouterr().out
        assert main(["study", "--dataset", "korean", "--cache-dir", cache, *FAST]) == 0
        warm = capsys.readouterr().out
        assert warm == cold


class TestEngineTrace:
    def test_trace_output(self, capsys):
        assert main(["engine", "trace", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Run trace — korean" in out
        assert "per-stage spans:" in out
        for stage in ("refine", "profile_geocode", "reverse_geocode",
                      "grouping", "statistics"):
            assert stage in out
        assert "crawl.users" in out
        assert "geocode.requests" in out
        assert "grouping.users" in out

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine"])


class TestDataset:
    def test_writes_jsonl(self, capsys, tmp_path):
        out_dir = tmp_path / "data"
        code = main(["dataset", "--dataset", "korean", "--out", str(out_dir), *FAST])
        assert code == 0
        assert (out_dir / "korean_users.jsonl").exists()
        assert (out_dir / "korean_tweets.jsonl").exists()
        out = capsys.readouterr().out
        assert "wrote 300 users" in out


class TestStudySaveAndReport:
    def test_save_then_report(self, capsys, tmp_path):
        saved = tmp_path / "study.json"
        code = main(["study", "--dataset", "korean", "--save", str(saved), *FAST])
        assert code == 0
        assert saved.exists()
        capsys.readouterr()

        code = main(["report", "--study", str(saved)])
        assert code == 0
        out = capsys.readouterr().out
        assert "loaded study 'korean'" in out
        assert "bootstrap confidence intervals" in out
        assert "Split-half stability" in out
        # At this tiny scale the regional table may fall below min_users;
        # either the table or the explicit notice must be printed.
        assert "by profile region" in out or "too few users per region" in out

    def test_report_missing_file_fails_cleanly(self, capsys, tmp_path):
        code = main(["report", "--study", str(tmp_path / "missing.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExperiment:
    def test_renders_artefact(self, capsys, small_ctx):
        assert main(["experiment", "E2", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Number of users in each group" in out


class TestLocalize:
    def test_localization_table(self, capsys):
        code = main(
            ["localize", "--population", "900", "--users", "700", "--days", "20",
             "--seed", "13", "--gps-rate", "0.3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimator x weighting scheme" in out
        assert "learned weight factors" in out


class TestFleetPublish:
    """``fleet publish`` exits 0 only when the rollout it waited on was
    promoted; a rollback is exit 1."""

    @staticmethod
    def _front(promoted):
        import json

        class FakeFront:
            def __init__(self, host, port):
                pass

            def request(self, method, target):
                if method == "POST":
                    return 202, b'{"accepted": true}'
                state = {"state": "idle", "last_rollout": {"promoted": promoted}}
                return 200, json.dumps(state).encode()

            def close(self):
                pass

        return FakeFront

    @pytest.mark.parametrize("promoted, code", [(True, 0), (False, 1)])
    def test_exit_code_follows_the_rollout_outcome(
        self, promoted, code, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.fleet.client.PooledReplicaClient", self._front(promoted)
        )
        assert main(["fleet", "publish", "v2.json", "--front-port", "1"]) == code
        assert '"promoted"' in capsys.readouterr().out


class TestServe:
    def test_serve_requires_snapshot(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve"])
        assert excinfo.value.code == 2

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--snapshot", "s.json"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.rate == 0.0
        assert args.gazetteer == "korean"

    def test_serve_loads_snapshot_and_prints_banner(
        self, capsys, tmp_path, monkeypatch
    ):
        """`repro serve` loads the saved study, binds, prints the banner,
        and exits cleanly once serve_forever returns."""
        from repro.serving import StudyServer

        saved = tmp_path / "study.json"
        assert main(["study", "--dataset", "korean",
                     "--save", str(saved), *FAST]) == 0
        capsys.readouterr()
        monkeypatch.setattr(StudyServer, "serve_forever", lambda self: None)
        code = main(["serve", "--snapshot", str(saved), "--port", "0",
                     "--rate", "100", "--burst", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 'korean'" in out
        assert "snapshot version" in out
        assert "/lookup" in out and "/admin/reload" in out
        assert "admission: 100.0/s sustained, burst 5" in out

    def test_serve_missing_snapshot_file_fails_cleanly(self, capsys, tmp_path):
        # Unusable on-disk state at boot is the `stream --resume`
        # convention: exit 3, one line, no traceback.
        code = main(["serve", "--snapshot", str(tmp_path / "absent.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "error:" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_serve_corrupt_snapshot_fails_cleanly(self, capsys, tmp_path):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{ this is not a study", encoding="utf-8")
        code = main(["serve", "--snapshot", str(corrupt)])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: cannot serve:" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", BAD_STUDY_NAMES)
    def test_serve_bad_study_file_fails_cleanly(self, capsys, tmp_path, name):
        path = write_bad_studies(tmp_path)[name]
        code = main(["serve", "--snapshot", str(path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: cannot serve:" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_serve_truncated_snapshot_fails_cleanly(self, capsys, tmp_path):
        """A study file cut mid-write (half its bytes) must fail exactly
        like any other unusable boot state: exit 3, one line."""
        saved = tmp_path / "study.json"
        assert main(["study", "--dataset", "korean",
                     "--save", str(saved), *FAST]) == 0
        capsys.readouterr()
        text = saved.read_text(encoding="utf-8")
        saved.write_text(text[: len(text) // 2], encoding="utf-8")
        code = main(["serve", "--snapshot", str(saved)])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: cannot serve:" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestLive:
    def test_live_defaults(self):
        args = build_parser().parse_args(["live"])
        assert args.dataset == "ladygaga"
        assert args.cadence == 8
        assert args.cadence_seconds == 0.0
        assert args.on_exhausted == "serve"
        assert args.port == 8080

    def test_live_streams_swaps_and_exits(self, capsys, tmp_path):
        """`repro live --on-exhausted exit` pumps the whole firehose,
        publishes snapshots on cadence, and reports the final generation."""
        code = main(
            ["live", "--dataset", "korean", "--port", "0",
             "--state-dir", str(tmp_path / "state"),
             "--cadence", "50", "--on-exhausted", "exit", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 'korean'" in out
        assert "live: cadence 50 batches" in out
        assert "stream exhausted at offset" in out
        assert "snapshot swaps" in out
        assert "served version:" in out

    def test_live_resume_over_bad_state_fails_cleanly(self, capsys, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "checkpoints.jsonl").write_text(
            "not a checkpoint\n", encoding="utf-8"
        )
        code = main(
            ["live", "--dataset", "korean", "--port", "0",
             "--state-dir", str(state), "--resume",
             "--on-exhausted", "exit", *FAST]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "error: cannot resume:" in err
        assert "Traceback" not in err


class TestStream:
    def test_stream_exhausts_and_reports(self, capsys, tmp_path):
        code = main(
            ["stream", "--dataset", "korean",
             "--state-dir", str(tmp_path / "state"), *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stream exhausted at offset" in out
        assert "(0 dropped by backpressure)" in out
        assert "state digest:" in out
        assert "Number of users in each group" in out

    def test_stream_report_matches_batch_study(self, capsys, tmp_path):
        """The end-of-stream report sections are the batch study's, verbatim."""
        assert main(["study", "--dataset", "korean", *FAST]) == 0
        study_out = capsys.readouterr().out
        code = main(
            ["stream", "--dataset", "korean",
             "--state-dir", str(tmp_path / "state"), *FAST]
        )
        assert code == 0
        stream_out = capsys.readouterr().out
        # Everything after the stream header (ending at the digest line)
        # must appear verbatim in the study output.
        report = stream_out.split("…\n", 1)[1].strip()
        assert report
        assert report in study_out

    def test_stream_pause_then_resume(self, capsys, tmp_path):
        state = str(tmp_path / "state")
        code = main(
            ["stream", "--dataset", "korean", "--state-dir", state,
             "--max-batches", "3", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stream paused at offset" in out
        assert "resume with: repro stream --resume" in out
        code = main(
            ["stream", "--dataset", "korean", "--state-dir", state,
             "--resume", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resuming from checkpoint: offset" in out
        assert "stream exhausted at offset" in out

    def test_stream_metrics_flag_prints_trace(self, capsys, tmp_path):
        code = main(
            ["stream", "--dataset", "korean", "--state-dir", str(tmp_path / "s"),
             "--metrics", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stream.batch" in out
        assert "stream.queue.depth" in out
        assert "stream.checkpoint.age_batches" in out

    def test_resume_missing_checkpoint_exits_distinctly(self, capsys, tmp_path):
        """--resume with no checkpoint log: exit code 3 and a one-line
        actionable message, no traceback."""
        code = main(
            ["stream", "--dataset", "korean",
             "--state-dir", str(tmp_path / "never-ran"), "--resume", *FAST]
        )
        assert code == 3
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.strip()]
        assert len(lines) == 1
        assert "cannot resume" in lines[0]
        assert "no checkpoint log" in lines[0]
        assert "--resume" in lines[0]  # tells the operator what to do
        assert "Traceback" not in err

    def test_resume_truncated_checkpoint_exits_distinctly(self, capsys, tmp_path):
        """--resume against a checkpoint log whose only record was torn
        mid-write: exit code 3 and a one-line message, no traceback."""
        state = tmp_path / "state"
        state.mkdir()
        (state / "checkpoints.jsonl").write_text('{"offset": 12, "wal_rec')
        code = main(
            ["stream", "--dataset", "korean",
             "--state-dir", str(state), "--resume", *FAST]
        )
        assert code == 3
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.strip()]
        assert len(lines) == 1
        assert "cannot resume" in lines[0]
        assert "no complete checkpoint" in lines[0]
        assert "Traceback" not in err

    def test_stream_save_writes_loadable_study(self, capsys, tmp_path):
        saved = tmp_path / "stream_study.json"
        code = main(
            ["stream", "--dataset", "korean", "--state-dir", str(tmp_path / "s"),
             "--save", str(saved), *FAST]
        )
        assert code == 0
        assert saved.exists()
        capsys.readouterr()
        assert main(["report", "--study", str(saved)]) == 0
        assert "loaded study 'korean'" in capsys.readouterr().out
