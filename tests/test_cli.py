"""Config validation, the experiment runners, and the command-line surface."""

import csv
import inspect
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from attnpool import cli, covid
from attnpool.forecasting import ClosedLoopResult
from attnpool.lorenz import CANDIDATE_RHOS

LORENZ_TINY = """\
experiment: lorenz
seed: 0
output: {out}
data:
  t_train: 40.0
  t_val: 25.6
  n_val_segments: 8
  segment_len: 32
model:
  methods: [additive, fixed_attention, best_initial, linear, ffnn]
  delays: [1, 2]
  epochs: 3
  ffnn_epochs: 3
  ffnn_delay: 2
  weights_delay: 2
  write_forecasts: true
"""

COVID_TINY = """\
experiment: covid
seed: 3
output: {out}
data:
  synthetic:
    seed: 7
    n_locations: 5
    n_weeks: 36
    n_models: 6
model:
  epochs: 2
  learning_rate: 1.0e-3
  batch_size: 64
  hidden: 10
  n_heads: 2
"""


def write_config(directory: Path, text: str, name="config.yaml", **fmt) -> Path:
    path = directory / name
    path.write_text(text.format(**fmt))
    return path


def invoke(*args):
    return CliRunner().invoke(cli.main, list(args))


def read_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def lorenz_out(tmp_path_factory):
    d = tmp_path_factory.mktemp("lorenz")
    cfg = write_config(d, LORENZ_TINY, out=str(d / "out"))
    result = invoke("lorenz-run", "--config", str(cfg))
    assert result.exit_code == 0, result.output + str(result.exception)
    return d / "out", cfg


@pytest.fixture(scope="module")
def covid_out(tmp_path_factory):
    d = tmp_path_factory.mktemp("covid")
    cfg = write_config(d, COVID_TINY, out=str(d / "out"))
    result = invoke("covid-run", "--config", str(cfg))
    assert result.exit_code == 0, result.output + str(result.exception)
    return d / "out", cfg


@pytest.fixture
def worker_pools(monkeypatch):
    """Pretend the process may run on two cores, so ``--threads 2`` or more
    starts a pool of two workers; returns the worker count of every pool
    started."""
    from concurrent import futures

    pools = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    return pools


# ---------------------------------------------------------------------------
# config validation


class TestValidateConfig:
    def test_minimal_lorenz_config_parses_with_defaults(self, tmp_path):
        cfg = write_config(tmp_path, "experiment: lorenz\noutput: out\n")
        parsed = cli.validate_config(cfg)
        assert parsed.experiment == "lorenz"
        assert parsed.seed == 0
        assert parsed.threads == 1
        assert parsed.model.epochs == 500
        assert parsed.model.delays == (1, 2, 3, 4, 5, 6)
        assert parsed.model.weights_delay == 6  # defaults to the largest delay
        assert parsed.data.n_val_segments == 200

    def test_negative_learning_rate_names_the_key(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "experiment: lorenz\noutput: out\nmodel:\n  learning_rate: -0.5\n",
        )
        with pytest.raises(cli.ConfigError) as err:
            cli.validate_config(cfg)
        assert any("model.learning_rate" in e for e in err.value.errors)

    def test_a_lorenz_dataset_cache_is_an_unknown_key(self, tmp_path):
        """Every lorenz-run generates its data from the seed and the data
        keys; a config still naming a cache directory fails validation."""
        cfg = write_config(tmp_path, "experiment: lorenz\noutput: out\ndata:\n  cache: d\n")
        result = invoke("validate", "--config", str(cfg))
        assert result.exit_code == 1
        assert "config error: data.cache: unknown key" in result.stderr

    def test_per_location_scaling_is_an_unknown_key(self, tmp_path):
        """Hub poolers read and predict raw death counts; a config still
        asking for per-location scaling fails validation."""
        cfg = write_config(
            tmp_path,
            "experiment: covid\noutput: out\ndata:\n  synthetic: {{}}\n"
            "model:\n  scale_per_location: false\n",
        )
        with pytest.raises(cli.ConfigError) as err:
            cli.validate_config(cfg)
        assert err.value.errors == ["model.scale_per_location: unknown key"]

    def test_unknown_key_suggests_the_nearest_valid_one(self, tmp_path):
        cfg = write_config(
            tmp_path, "experiment: lorenz\noutput: out\nmodel:\n  hiddne: 30\n"
        )
        with pytest.raises(cli.ConfigError) as err:
            cli.validate_config(cfg)
        msg = next(e for e in err.value.errors if "hiddne" in e)
        assert "unknown key" in msg and "'hidden'" in msg

    def test_all_errors_collected_in_one_pass(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "experiment: lorenz\nseed: -1\noutput: out\n"
            "model:\n  epochs: 0\n  batch_size: yes\n",
        )
        with pytest.raises(cli.ConfigError) as err:
            cli.validate_config(cfg)
        text = "\n".join(err.value.errors)
        for key in ("seed", "model.epochs", "model.batch_size"):
            assert key in text

    def test_missing_output_is_required(self, tmp_path):
        cfg = write_config(tmp_path, "experiment: lorenz\n")
        with pytest.raises(cli.ConfigError, match="output: required"):
            cli.validate_config(cfg)

    def test_experiment_must_be_known(self, tmp_path):
        cfg = write_config(tmp_path, "experiment: weather\noutput: out\n")
        with pytest.raises(cli.ConfigError, match="lorenz.*covid"):
            cli.validate_config(cfg)
        listed = write_config(tmp_path, "experiment: [lorenz]\noutput: out\n", name="l.yaml")
        with pytest.raises(cli.ConfigError, match="lorenz.*covid"):
            cli.validate_config(listed)

    def test_unreadable_and_malformed_files(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.validate_config(tmp_path / "missing.yaml")
        bad = write_config(tmp_path, "experiment: [unclosed\n")
        with pytest.raises(cli.ConfigError, match="invalid YAML"):
            cli.validate_config(bad)
        scalar = write_config(tmp_path, "just a string\n", name="scalar.yaml")
        with pytest.raises(cli.ConfigError, match="must be a mapping"):
            cli.validate_config(scalar)

    def test_segment_geometry_checked_early(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "experiment: lorenz\noutput: out\n"
            "data:\n  t_val: 25.6\n  n_val_segments: 7\n",
        )
        with pytest.raises(cli.ConfigError, match="data.n_val_segments"):
            cli.validate_config(cfg)
        cfg2 = write_config(
            tmp_path,
            "experiment: lorenz\noutput: out\n"
            "data:\n  t_val: 25.6\n  n_val_segments: 8\n  segment_len: 64\n",
            name="c2.yaml",
        )
        with pytest.raises(cli.ConfigError, match="data.segment_len"):
            cli.validate_config(cfg2)

    def test_weights_delay_must_be_swept(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "experiment: lorenz\noutput: out\n"
            "model:\n  delays: [1, 2]\n  weights_delay: 5\n",
        )
        with pytest.raises(cli.ConfigError, match="model.weights_delay"):
            cli.validate_config(cfg)

    def test_weights_delay_is_checked_only_for_the_additive_method(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "experiment: lorenz\noutput: out\n"
            "model:\n  methods: [fixed_attention]\n  delays: [1, 2]\n  weights_delay: 5\n",
        )
        assert cli.validate_config(cfg).model.weights_delay == 5

    def test_forecast_dump_needs_the_additive_method(self, tmp_path):
        """forecasts.csv comes from the additive rollout only, so asking for
        it without that method is an error, not a silently missing file."""
        cfg = write_config(
            tmp_path,
            "experiment: lorenz\noutput: out\n"
            "model:\n  methods: [fixed_attention, linear]\n  write_forecasts: true\n",
        )
        with pytest.raises(cli.ConfigError, match="model.write_forecasts"):
            cli.validate_config(cfg)

    @pytest.mark.parametrize(
        "model, need",
        [
            ("methods: [additive, linear]\n  delays: [1, 4]", 5),
            ("methods: [best_initial]\n  delays: [1, 4]", 5),
            ("methods: [ffnn, linear]\n  ffnn_delay: 6", 6),
        ],
        ids=["additive", "best_initial", "ffnn"],
    )
    def test_warmup_must_cover_the_closed_loop_history(self, tmp_path, model, need):
        text = "experiment: lorenz\noutput: out\ndata:\n  warmup: {warmup}\nmodel:\n  {model}\n"
        short = write_config(tmp_path, text, warmup=need - 1, model=model)
        with pytest.raises(cli.ConfigError, match="data.warmup"):
            cli.validate_config(short)
        enough = write_config(tmp_path, text, name="enough.yaml", warmup=need, model=model)
        assert cli.validate_config(enough).data.warmup == need

    @pytest.mark.parametrize(
        "model, need",
        [
            ("methods: [additive]\n  delays: [5]\n  epochs: 1", 7),
            ("methods: [linear]\n  epochs: 1", 3),
            ("methods: [ffnn]\n  ffnn_delay: 5\n  ffnn_epochs: 1", 7),
        ],
        ids=["additive", "linear", "ffnn"],
    )
    def test_t_train_must_cover_the_longest_trained_delay(self, tmp_path, model, need):
        """A model of delay length L needs L + 2 training samples: one
        sample short is a config error on data.t_train, and exactly enough
        runs."""
        text = (
            "experiment: lorenz\noutput: {out}\n"
            "data:\n  t_train: {t_train}\n  t_val: 25.6\n  n_val_segments: 8\n"
            "  segment_len: 16\nmodel:\n  {model}\n"
        )
        short = write_config(tmp_path, text, out="out", t_train=(need - 1) / 10, model=model)
        with pytest.raises(cli.ConfigError) as err:
            cli.validate_config(short)
        assert err.value.errors == [
            f"data.t_train: {(need - 1) / 10} gives {need - 1} training samples; the "
            f"longest delay length trained, {need - 2}, needs >= {need}"
        ]
        enough = write_config(
            tmp_path, text, name="enough.yaml",
            out=str(tmp_path / "out"), t_train=need / 10, model=model,
        )
        assert cli.validate_config(enough).data.t_train == need / 10
        result = invoke("lorenz-run", "--config", str(enough))
        assert result.exit_code == 0, result.output + str(result.exception)

    def test_covid_needs_exactly_one_data_source(self, tmp_path):
        neither = write_config(tmp_path, "experiment: covid\noutput: out\n")
        with pytest.raises(cli.ConfigError, match="data.forecasts"):
            cli.validate_config(neither)
        both = write_config(
            tmp_path,
            "experiment: covid\noutput: out\n"
            "data:\n  forecasts: f.csv\n  truth: t.csv\n  synthetic: {{}}\n",
            name="both.yaml",
        )
        with pytest.raises(cli.ConfigError, match="mutually exclusive"):
            cli.validate_config(both)

    def test_a_period_list_is_a_config_error(self, tmp_path):
        """Periods are named (auto, standard, split); a list of date pairs
        is one error, on its key, that names the choices and the list, not
        the dates YAML parsed."""
        cfg = write_config(
            tmp_path,
            "experiment: covid\noutput: out\n"
            "data:\n  synthetic: {{}}\n"
            "  periods: [[2023-02-04, 2023-04-01], [2023-04-08, 2023-06-03]]\n",
        )
        with pytest.raises(cli.ConfigError) as info:
            cli.validate_config(cfg)
        assert info.value.errors == [
            "data.periods: must be one of auto, standard, split; got a value of type list"
        ]

    def test_periods_auto_resolution(self, tmp_path):
        synth = write_config(
            tmp_path, "experiment: covid\noutput: out\ndata:\n  synthetic: {{}}\n"
        )
        assert cli.validate_config(synth).data.periods == "split"
        real = write_config(
            tmp_path,
            "experiment: covid\noutput: out\n"
            "data:\n  forecasts: f.csv\n  truth: t.csv\n",
            name="real.yaml",
        )
        assert cli.validate_config(real).data.periods == "standard"

    def test_overrides_enter_the_config_hash(self, tmp_path):
        cfg = write_config(tmp_path, "experiment: lorenz\noutput: out\n")
        base = cli.validate_config(cfg)
        moved = cli.validate_config(cfg, output="elsewhere")
        assert moved.output == Path("elsewhere")
        assert moved.config_sha256 != base.config_sha256
        rethreaded = cli.validate_config(cfg, threads=4)
        assert rethreaded.threads == 4
        assert rethreaded.config_sha256 != base.config_sha256

    def test_overrides_are_checked_like_the_file(self, tmp_path):
        """An override takes the file's place before parsing: a bad one is
        reported once, and a good one replaces a bad value in the file."""
        cfg = write_config(tmp_path, "experiment: lorenz\noutput: out\nthreads: 0\n")
        with pytest.raises(cli.ConfigError) as err:
            cli.validate_config(cfg, threads=0)
        assert err.value.errors == ["threads: must be >= 1, got 0"]
        assert cli.validate_config(cfg, threads=2).threads == 2

    def test_input_paths_resolve_against_the_config_directory(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        cfg = write_config(
            sub,
            "experiment: covid\noutput: out\n"
            "data:\n  forecasts: f.csv\n  truth: t.csv\n",
        )
        parsed = cli.validate_config(cfg)
        assert parsed.data.forecasts == sub / "f.csv"
        assert parsed.output == Path("out")  # output is workdir-relative

    def test_shipped_example_configs_validate(self):
        """The hash covers the file's values before any resolution, so a
        change to parsing or defaults that moves it shows here."""
        root = Path(__file__).resolve().parent.parent / "configs"
        pinned = {
            "lorenz_full.yaml": "95c50c88e2b717dc2447b6a2579715397484a29761a8a5043c2c33c3990bae1e",
            "lorenz_smoke.yaml": "17e1958d595d428ca118a69b2870683b6bdf361912cb50109937496170cb3443",
            "covid_synthetic.yaml": "1f7b63e5fa2bd313b6cc66ca67efe0bc14f51b21f28d384d013d12068ca5cbdf",
        }
        for name, digest in pinned.items():
            assert cli.validate_config(root / name).config_sha256 == digest, name


# ---------------------------------------------------------------------------
# Lorenz runner


class TestLorenzRun:
    def test_valid_times_row_counts(self, lorenz_out):
        out, _ = lorenz_out
        rows = read_rows(out / "valid_times.csv")
        # 3 attention variants x 2 delays + linear + ffnn, 8 segments each
        assert len(rows) == 8 * 8
        combos = {(r["method"], r["l"]) for r in rows}
        assert len(combos) == 8
        for combo in combos:
            assert sum((r["method"], r["l"]) == combo for r in rows) == 8
        assert {r["method"] for r in rows} == set(cli.LORENZ_METHODS)

    def test_summary_has_ordered_intervals(self, lorenz_out):
        out, _ = lorenz_out
        for r in read_rows(out / "vt_summary.csv"):
            lo, med, hi = float(r["ci_lower"]), float(r["median_vt"]), float(r["ci_upper"])
            assert lo <= med <= hi
            assert int(r["n_segments"]) == 8

    def test_attention_weights_are_convex_per_step(self, lorenz_out):
        out, _ = lorenz_out
        sums: dict[tuple, float] = {}
        for r in read_rows(out / "attention_weights.csv"):
            key = (r["segment_id"], r["step"])
            w = float(r["weight"])
            assert w >= 0.0
            sums[key] = sums.get(key, 0.0) + w
        assert sums  # the weights_delay model produced rows
        np.testing.assert_allclose(list(sums.values()), 1.0, atol=1e-9)

    def test_forecast_dump_covers_every_step(self, lorenz_out):
        out, _ = lorenz_out
        rows = read_rows(out / "forecasts.csv")
        assert len(rows) == 8 * 32
        assert list(rows[0]) == [
            "segment_id", "step", "t",
            "yhat1", "yhat2", "yhat3", "true1", "true2", "true3",
        ]

    def test_loss_curve_rows(self, lorenz_out):
        out, _ = lorenz_out
        rows = read_rows(out / "loss_curve.csv")
        assert len(rows) == 3 * 2 + 3 + 3  # additive per delay + linear + ffnn
        assert all(np.isfinite(float(r["loss"])) for r in rows)

    def test_manifest_records_hashes_and_identity(self, lorenz_out):
        out, cfg = lorenz_out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["config_sha256"] == cli.validate_config(cfg).config_sha256
        import hashlib

        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert not (out / ".partial").exists()
        # the data is generated from the seed and config, not read from files
        assert "dataset" not in manifest and "inputs" not in manifest

    def test_manifest_records_the_closed_loop_work(self, lorenz_out):
        """Per scored method and delay: the rows, the row-steps they ran,
        the budget of rows times horizon and the rows that blew up. The
        tile whose forecasts are written runs its whole budget; every other
        row stops once its valid time is decided."""
        out, _ = lorenz_out
        work = json.loads((out / "manifest.json").read_text())["closed_loop"]
        series = {(method, l) for method, by_l in work.items() for l in by_l}
        attention = {(v, l) for v in ("additive", "fixed_attention", "best_initial") for l in "12"}
        assert series == attention | {("linear", "1"), ("ffnn", "2")}
        stopped = 0
        for method, by_l in work.items():
            for l, record in by_l.items():
                assert record.keys() == {"rows", "row_steps", "budget", "truncated_rows"}
                assert record["rows"] == 8 and record["budget"] == 8 * 32
                assert 8 <= record["row_steps"] <= record["budget"]
                if (method, l) != ("additive", "2"):
                    stopped += record["budget"] - record["row_steps"]
        written = work["additive"]["2"]
        assert written["truncated_rows"] == 0
        assert written["row_steps"] == written["budget"]
        assert stopped > 0

    def test_rerun_and_thread_count_leave_outputs_byte_identical(
        self, lorenz_out, tmp_path, worker_pools
    ):
        """A rerun, and a run whose jobs go to worker processes (four
        asked, two cores, so two workers), write the bytes of the first run,
        which ran its jobs in-process."""
        out, cfg = lorenz_out
        rerun = invoke("lorenz-run", "--config", str(cfg), "--output", str(tmp_path / "b"))
        assert rerun.exit_code == 0
        assert worker_pools == []
        threaded = invoke(
            "lorenz-run", "--config", str(cfg),
            "--output", str(tmp_path / "c"), "--threads", "4",
        )
        assert threaded.exit_code == 0
        assert worker_pools == [2]
        names = ["valid_times.csv", "vt_summary.csv", "loss_curve.csv",
                 "attention_weights.csv", "forecasts.csv"]
        assert sorted(json.loads((out / "manifest.json").read_text())["outputs"]) == sorted(names)
        for name in names:
            reference = (out / name).read_bytes()
            assert (tmp_path / "b" / name).read_bytes() == reference
            assert (tmp_path / "c" / name).read_bytes() == reference

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failing_job_exits_2_and_writes_nothing(self, tmp_path, worker_pools, threads):
        text = LORENZ_TINY.replace("  epochs: 3\n", "  epochs: 3\n  learning_rate: 1.0e+300\n")
        cfg = write_config(tmp_path, text, out=str(tmp_path / "out"))
        result = invoke("lorenz-run", "--config", str(cfg), "--threads", threads)
        assert result.exit_code == 2
        assert "error: non-finite training loss at epoch 0, batch 1" in result.stderr
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == []
        assert worker_pools == ([2] if threads == "2" else [])

    def test_failure_after_the_weights_are_streamed_writes_nothing(self, tmp_path, monkeypatch):
        """At one thread the additive job at weights_delay runs first and
        writes its segment CSVs into the stage; when the ffnn job after it
        fails, the run exits 2 and leaves the output directory empty."""
        streamed = []

        def write_blocks(path, blocks, write=cli._write_blocks):
            write(path, blocks)
            streamed.append(path.name)

        def train_ffnn(*args, **kwargs):
            raise RuntimeError("ffnn training failed")

        monkeypatch.setattr(cli, "_write_blocks", write_blocks)
        monkeypatch.setattr(cli, "train_ffnn", train_ffnn)
        cfg = write_config(tmp_path, LORENZ_TINY, out=str(tmp_path / "out"))
        result = invoke("lorenz-run", "--config", str(cfg), "--threads", "1")
        assert result.exit_code == 2
        assert "error: ffnn training failed" in result.stderr
        assert streamed == ["attention_weights.csv", "forecasts.csv"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == []

    def test_rerun_removes_the_previous_runs_stale_outputs(self, lorenz_out, tmp_path):
        """A rerun that writes fewer files deletes the ones the previous
        manifest listed, and leaves a file that no manifest lists."""
        out, _ = lorenz_out
        target = tmp_path / "rerun"
        shutil.copytree(out, target)
        (target / "notes.txt").write_text("kept\n")
        assert (target / "attention_weights.csv").exists()
        assert (target / "forecasts.csv").exists()
        text = (
            LORENZ_TINY.replace(
                "methods: [additive, fixed_attention, best_initial, linear, ffnn]",
                "methods: [linear]",
            )
            .replace("  weights_delay: 2\n", "")
            .replace("write_forecasts: true", "write_forecasts: false")
        )
        cfg = write_config(tmp_path, text, out=str(target))
        result = invoke("lorenz-run", "--config", str(cfg))
        assert result.exit_code == 0, result.output + str(result.exception)
        manifest = json.loads((target / "manifest.json").read_text())
        assert "attention_weights.csv" not in manifest["outputs"]
        assert sorted(p.name for p in target.iterdir()) == sorted(
            [*manifest["outputs"], "manifest.json", "notes.txt"]
        )

    def test_reseeded_run_differs(self, lorenz_out, tmp_path):
        out, _ = lorenz_out
        text = LORENZ_TINY.replace("seed: 0\n", "seed: 1\n")
        cfg = write_config(tmp_path, text, out=str(tmp_path / "d"))
        result = invoke("lorenz-run", "--config", str(cfg))
        assert result.exit_code == 0
        assert (tmp_path / "d" / "valid_times.csv").read_bytes() != (
            out / "valid_times.csv"
        ).read_bytes()

    def test_warmup_of_max_delay_plus_one_runs(self, tmp_path):
        text = LORENZ_TINY.replace("data:\n", "data:\n  warmup: 5\n").replace(
            "methods: [additive, fixed_attention, best_initial, linear, ffnn]\n"
            "  delays: [1, 2]",
            "methods: [additive, linear]\n  delays: [1, 4]",
        ).replace("  weights_delay: 2\n", "")
        cfg = write_config(tmp_path, text, out=str(tmp_path / "out"))
        result = invoke("lorenz-run", "--config", str(cfg))
        assert result.exit_code == 0, result.output + str(result.exception)


# ---------------------------------------------------------------------------
# COVID runner


class TestCovidRun:
    def test_summary_has_periods_times_methods_rows(self, covid_out):
        out, _ = covid_out
        rows = read_rows(out / "period_summary.csv")
        assert len(rows) == 4 * len(cli.COVID_METHODS)
        assert {r["method"] for r in rows} == set(cli.COVID_METHODS)
        starts = sorted({r["period_start"] for r in rows})
        assert len(starts) == 4

    def test_imputation_log_matches_injected_gaps(self, covid_out):
        out, cfg = covid_out
        hub = covid.synthesize_hub(**asdict(cli.validate_config(cfg).data.synthetic))
        gaps = [(g.model_id, g.location, w.isoformat()) for g in hub.gaps for w in g.weeks]
        log_rows = read_rows(out / "imputation_log.csv")
        assert len(log_rows) == len(gaps)
        assert {(r["model"], r["location"], r["week"]) for r in log_rows} == set(gaps)

    def test_staged_data_files_are_the_generators_csvs(self, covid_out, tmp_path):
        """A synthetic run stages the bytes ``SyntheticHub.write_csvs``
        writes for the config's synthetic section."""
        out, cfg = covid_out
        hub = covid.synthesize_hub(**asdict(cli.validate_config(cfg).data.synthetic))
        hub.write_csvs(tmp_path / "forecasts.csv", tmp_path / "truth.csv")
        for name in ("forecasts.csv", "truth.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_weekly_scores_cover_each_method_on_the_held_out_union(self, covid_out):
        out, _ = covid_out
        rows = read_rows(out / "wis_by_week.csv")
        # split periods tile all scored weeks: 5 locations x (36 - 5) weeks
        per_method = 5 * 31
        assert len(rows) == per_method * len(cli.COVID_METHODS)
        for method in cli.COVID_METHODS:
            assert sum(r["method"] == method for r in rows) == per_method
        assert all(float(r["wis"]) >= 0.0 for r in rows)

    def test_summary_means_match_weekly_scores(self, covid_out):
        out, _ = covid_out
        weekly = read_rows(out / "wis_by_week.csv")
        summary = read_rows(out / "period_summary.csv")
        by_week = {}
        for r in weekly:
            by_week.setdefault(r["method"], []).append(
                (date.fromisoformat(r["target_week"]), float(r["wis"]))
            )
        for r in summary:
            start, end = date.fromisoformat(r["period_start"]), date.fromisoformat(r["period_end"])
            inside = [w for wk, w in by_week[r["method"]] if start <= wk <= end]
            assert float(r["mean_wis"]) == pytest.approx(np.mean(inside), rel=1e-12)

    def test_manifest_reports_training_and_champions(self, covid_out):
        out, _ = covid_out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_imputed_cells"] == 35
        assert len(manifest["training"]) == 4 * 3  # periods x trained kinds
        assert set(manifest["best_single_candidates"]) == {
            "period0", "period1", "period2", "period3"
        }

    def test_manifest_counts_what_ingest_repaired_and_scoring_sorted(self, covid_out):
        """The ingest counts (one row read per data line of each input
        file), and each job's training record: its first and last epoch's
        WIS, and no count of sorted rows (the sort is an output layer)."""
        out, _ = covid_out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_repaired_cells"] == 0
        assert manifest["n_dropped_level_rows"] == 0
        for key, name in (("n_forecast_rows", "forecasts.csv"), ("n_truth_rows", "truth.csv")):
            assert manifest[key] == len((out / name).read_text().splitlines()) - 1, key
        for job, info in manifest["training"].items():
            assert set(info) == {"first_train_wis", "final_train_wis"}, job
            assert info["final_train_wis"] >= 0.0, job

    def test_manifest_records_ingest_warning_texts(self, covid_out, tmp_path):
        out, _ = covid_out
        with open(out / "forecasts.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        cell = tuple(body[0][:3])
        in_cell = [i for i, r in enumerate(body) if tuple(r[:3]) == cell]
        lo, hi = in_cell[3], in_cell[4]  # two neighbouring quantile levels
        body[lo][4], body[hi][4] = body[hi][4], body[lo][4]
        with open(tmp_path / "forecasts.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *body])
        shutil.copy(out / "truth.csv", tmp_path / "truth.csv")
        cfg = write_config(
            tmp_path,
            "experiment: covid\noutput: {out}\n"
            "data:\n  forecasts: forecasts.csv\n  truth: truth.csv\n  periods: split\n"
            "model:\n  methods: [uniform]\n",
            out=str(tmp_path / "out"),
        )
        result = invoke("covid-run", "--config", str(cfg))
        assert result.exit_code == 0, result.output + str(result.exception)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        model, location, week = cell
        assert manifest["ingest_warnings"] == [
            f"sorted non-monotone quantiles for ({model}, {location}, {week})"
        ]
        assert manifest["n_repaired_cells"] == 1

    def test_rerun_keeps_input_files_its_previous_manifest_listed(self, covid_out, tmp_path):
        """A covid-run reading forecasts.csv and truth.csv that the previous
        covid-run in the same directory wrote leaves them in place."""
        out, _ = covid_out
        target = tmp_path / "hub"
        shutil.copytree(out, target)
        listed = json.loads((target / "manifest.json").read_text())["outputs"]
        assert {"forecasts.csv", "truth.csv"} <= set(listed)
        cfg = write_config(
            target,
            "experiment: covid\noutput: {out}\n"
            "data:\n  forecasts: forecasts.csv\n  truth: truth.csv\n  periods: split\n"
            "model:\n  methods: [uniform]\n",
            out=str(target),
        )
        result = invoke("covid-run", "--config", str(cfg))
        assert result.exit_code == 0, result.output + str(result.exception)
        assert (target / "forecasts.csv").read_bytes() == (out / "forecasts.csv").read_bytes()
        assert (target / "truth.csv").read_bytes() == (out / "truth.csv").read_bytes()

    def test_manifest_records_the_hashes_of_the_input_files(self, covid_out, tmp_path):
        """A run over hub CSVs records the SHA-256 of each, by config key; a
        synthetic run lists its staged CSVs under outputs instead."""
        import hashlib

        out, _ = covid_out
        assert "inputs" not in json.loads((out / "manifest.json").read_text())
        for name in ("forecasts.csv", "truth.csv"):
            shutil.copy(out / name, tmp_path / name)
        cfg = write_config(
            tmp_path,
            "experiment: covid\noutput: {out}\n"
            "data:\n  forecasts: forecasts.csv\n  truth: truth.csv\n  periods: split\n"
            "model:\n  methods: [uniform]\n",
            out=str(tmp_path / "out"),
        )
        result = invoke("covid-run", "--config", str(cfg))
        assert result.exit_code == 0, result.output + str(result.exception)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["inputs"] == {
            key: hashlib.sha256((tmp_path / f"{key}.csv").read_bytes()).hexdigest()
            for key in ("forecasts", "truth")
        }

    @pytest.mark.parametrize("first", ["lorenz-run", "covid-run"])
    def test_run_refuses_the_outputs_of_another_command(self, tmp_path, first):
        """A run into a directory whose manifest another command wrote fails
        before any job with exit 2, names the directory and that command,
        and leaves every file of the first run with its hash and nothing
        else in the directory."""
        target = tmp_path / "both"
        lorenz = write_config(tmp_path, LORENZ_TINY, name="lorenz.yaml", out=str(target))
        text = COVID_TINY.replace("model:\n", "model:\n  methods: [uniform]\n")
        hub = write_config(tmp_path, text, name="covid.yaml", out=str(target))
        second = "covid-run" if first == "lorenz-run" else "lorenz-run"
        configs = {"lorenz-run": lorenz, "covid-run": hub}
        result = invoke(first, "--config", str(configs[first]))
        assert result.exit_code == 0, result.output + str(result.exception)
        before = {p.name: cli._sha256(p) for p in target.iterdir()}
        result = invoke(second, "--config", str(configs[second]))
        assert result.exit_code == 2
        assert f"output directory {target} holds the outputs of a {first} run" in result.stderr
        assert {p.name: cli._sha256(p) for p in target.iterdir()} == before
        assert json.loads((target / "manifest.json").read_text())["command"] == first

    def test_rerun_with_threads_is_byte_identical(self, covid_out, tmp_path, worker_pools):
        out, cfg = covid_out
        rerun = invoke(
            "covid-run", "--config", str(cfg),
            "--output", str(tmp_path / "r"), "--threads", "3",
        )
        assert rerun.exit_code == 0
        assert worker_pools == [2]
        for name in ("wis_by_week.csv", "period_summary.csv",
                     "imputation_log.csv", "forecasts.csv", "truth.csv"):
            assert (tmp_path / "r" / name).read_bytes() == (out / name).read_bytes()

    def test_baseline_scores_keep_their_bits(self, tmp_path):
        """Pinned digests of a baselines-only run's score files. The two
        baselines use only elementwise numpy (the candidates' mean, one
        candidate, WIS) and no BLAS, so the digests hold on any machine."""
        import hashlib

        text = COVID_TINY.replace("model:\n", "model:\n  methods: [uniform, best_single]\n")
        cfg = write_config(tmp_path, text, out=str(tmp_path / "out"))
        result = invoke("covid-run", "--config", str(cfg))
        assert result.exit_code == 0, result.output + str(result.exception)
        digests = {
            name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in ("wis_by_week.csv", "period_summary.csv")
        }
        assert digests == {
            "wis_by_week.csv": "5c33e1674e4be62c0c48af24ce43acbc9e42c26e03ab331b99f2c979205971e2",
            "period_summary.csv": "2e94bc2f278928ae3e4816a4e284e9c667c4b15e8be602155cad4902a350e128",
        }

    @pytest.mark.parametrize("methods", ["[uniform, best_single]", "[additive, uniform]"])
    def test_a_period_without_scored_weeks_fails_before_any_job(
        self, tmp_path, monkeypatch, methods
    ):
        calls = []
        monkeypatch.setattr(covid, "train_pooler", lambda *a, **k: calls.append("train"))
        monkeypatch.setattr(covid, "evaluate_period", lambda *a, **k: calls.append("score"))
        # the synthetic hub's weeks fall in 2023, after the standard periods
        text = COVID_TINY.replace("model:\n", f"model:\n  methods: {methods}\n").replace(
            "data:\n", "data:\n  periods: standard\n"
        )
        cfg = write_config(tmp_path, text, out=str(tmp_path / "out"))
        result = invoke("covid-run", "--config", str(cfg))
        assert result.exit_code == 2
        assert "validation period 2020-08-29..2021-02-20 holds no scored week" in result.stderr
        assert calls == []
        assert list((tmp_path / "out").iterdir()) == []

    def test_missing_data_files_abort_cleanly(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "experiment: covid\noutput: {out}\n"
            "data:\n  forecasts: nope.csv\n  truth: nope2.csv\n",
            out=str(tmp_path / "out"),
        )
        result = invoke("covid-run", "--config", str(cfg))
        assert result.exit_code == 2
        assert "does not exist" in result.stderr
        assert not (tmp_path / "out" / ".partial").exists()

    @pytest.mark.parametrize(
        "bad, text",
        [
            ("forecasts", ""),
            ("forecasts", ",".join(covid.FORECAST_HEADER) + "\n"),
            ("forecasts", "tolerated levels"),
            ("truth", ""),
            ("truth", ",".join(covid.TRUTH_HEADER) + "\n"),
        ],
        ids=["forecasts-blank", "forecasts-header", "forecasts-tolerated", "truth-blank", "truth-header"],
    )
    def test_an_input_without_usable_rows_is_named(self, covid_out, tmp_path, bad, text):
        """A hub file that is blank, holds only its header, or (forecasts)
        only rows at the tolerated 0.1/0.9 levels fails ingest with its
        name; the run exits 2 and writes no output file."""
        out, _ = covid_out
        for name in ("forecasts.csv", "truth.csv"):
            shutil.copy(out / name, tmp_path / name)
        if text == "tolerated levels":
            text = ",".join(covid.FORECAST_HEADER) + "\n" + "".join(
                f"model00,loc00,2023-01-07,{level},{value}\n" for level, value in ((0.1, 3), (0.9, 5))
            )
        (tmp_path / f"{bad}.csv").write_text(text)
        message = {
            "forecasts": "no forecast cell holds the 21 carried quantile levels",
            "truth": "no data rows",
        }[bad]
        with pytest.raises(ValueError) as err:
            covid.ingest(tmp_path / "forecasts.csv", tmp_path / "truth.csv")
        assert str(err.value) == f"{tmp_path / bad}.csv: {message}"
        cfg = write_config(
            tmp_path,
            "experiment: covid\noutput: {out}\n"
            "data:\n  forecasts: forecasts.csv\n  truth: truth.csv\n"
            "model:\n  methods: [uniform]\n",
            out=str(tmp_path / "out"),
        )
        result = invoke("covid-run", "--config", str(cfg))
        assert result.exit_code == 2
        assert f"error: {tmp_path / bad}.csv: {message}" in result.stderr
        assert list((tmp_path / "out").iterdir()) == []


# ---------------------------------------------------------------------------
# command surface


def reference_weight_rows(res, seg_t0, dt):
    """``attention_weights.csv`` row by row, one list of fields per
    (segment, step, candidate)."""
    rows = []
    n_seg, horizon, n_models = res.weights.shape
    for seg in range(n_seg):
        stop = res.truncated_at[seg]
        stop = horizon if stop < 0 else int(stop)
        for step in range(stop):
            t = seg_t0[seg] + step * dt
            for mdl in range(n_models):
                rows.append([
                    str(seg), str(step), cli._fmt(t),
                    cli._fmt(CANDIDATE_RHOS[mdl]), cli._fmt(res.weights[seg, step, mdl]),
                ])
    return rows


def csv_bytes(header, rows) -> str:
    """What ``csv.writer`` writes for ``header`` and ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def closed_loop_result(n_seg, horizon, truncated_at, seed=0):
    """Dirichlet weights and normal predictions, both NaN from each
    segment's truncation on, as the closed-loop driver reports them."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(len(CANDIDATE_RHOS)), size=(n_seg, horizon))
    predictions = rng.normal(0.0, 20.0, size=(n_seg, horizon, 3))
    for seg, stop in enumerate(truncated_at):
        if stop >= 0:
            weights[seg, stop:] = np.nan
            predictions[seg, stop:] = np.nan
    steps = [horizon if stop < 0 else stop + 1 for stop in truncated_at]
    return ClosedLoopResult(predictions, weights, np.array(truncated_at), np.array(steps))


class TestWeightRows:
    def test_matches_row_at_a_time_formatter_with_truncation(self):
        """Segments truncated at step 0, mid-run and never."""
        n_seg, horizon = 5, 7
        res = closed_loop_result(n_seg, horizon, [-1, 3, 0, -1, 6])
        seg_t0 = 12.3 + np.arange(n_seg) * 25.6
        blocks = list(cli._weights_text(res, seg_t0, 0.1))
        rows = reference_weight_rows(res, seg_t0, 0.1)
        assert "".join(blocks) == csv_bytes(["segment_id", "step", "t", "rho_m", "weight"], rows)
        assert len(blocks) == 1 + n_seg
        assert len(rows) == (7 + 3 + 0 + 7 + 6) * len(CANDIDATE_RHOS)

    def test_forecasts_match_csv_writer_over_the_whole_horizon(self):
        """Every step of every segment, ``nan`` predictions after a
        truncation included."""
        n_seg, horizon = 4, 6
        res = closed_loop_result(n_seg, horizon, [-1, 2, 0, -1], seed=1)
        truths = np.random.default_rng(2).normal(0.0, 20.0, size=(n_seg, horizon, 3))
        seg_t0 = 7.9 + np.arange(n_seg) * 25.6
        rows = [
            [str(seg), str(step), cli._fmt(seg_t0[seg] + step * 0.1)]
            + [cli._fmt(v) for v in res.predictions[seg, step]]
            + [cli._fmt(v) for v in truths[seg, step]]
            for seg in range(n_seg)
            for step in range(horizon)
        ]
        header = ["segment_id", "step", "t", "yhat1", "yhat2", "yhat3", "true1", "true2", "true3"]
        text = "".join(cli._forecasts_text(res, truths, seg_t0, 0.1))
        assert text == csv_bytes(header, rows)
        assert text.count(",nan,nan,nan,") == 4 + 6

    def test_formatting_peaks_near_the_file_size(self):
        """40 segments of 128 steps: the blocks, and whatever formatting them
        allocates on the way, stay below 1.5 times the file's bytes. Lists
        of five strings per row would take about four times."""
        n_seg, horizon = 40, 128
        res = closed_loop_result(n_seg, horizon, [-1] * n_seg)
        seg_t0 = 12.3 + np.arange(n_seg) * 25.6
        tracemalloc.start()
        try:
            blocks = list(cli._weights_text(res, seg_t0, 0.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = sum(len(b) for b in blocks)
        assert size > n_seg * horizon * len(CANDIDATE_RHOS) * 30
        assert peak < 1.5 * size, f"peak {peak} B for a {size} B file"

    def test_streamed_write_holds_about_one_segment_block(self, tmp_path):
        """Written as they are made, the same 40 blocks never sit in memory
        together: the write peaks below a quarter of the file's bytes."""
        n_seg, horizon = 40, 128
        res = closed_loop_result(n_seg, horizon, [-1] * n_seg)
        seg_t0 = 12.3 + np.arange(n_seg) * 25.6
        path = tmp_path / "attention_weights.csv"
        tracemalloc.start()
        try:
            cli._write_blocks(path, cli._weights_text(res, seg_t0, 0.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size == len("".join(cli._weights_text(res, seg_t0, 0.1)))
        assert peak < 0.25 * size, f"peak {peak} B for a {size} B file"


def test_importing_the_cli_does_not_load_scipy_stats():
    """Nor the process-pool modules, which only a fanned-out run needs."""
    unwanted = ["scipy.stats", "multiprocessing", "concurrent.futures.process"]
    code = f"import sys, attnpool.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# hidden 100 at batch 32: the gradient of w_key then takes other bits when
# OpenBLAS runs it on more than one thread
COVID_TINY_WIDE = COVID_TINY.replace("batch_size: 64", "batch_size: 32").replace(
    "hidden: 10\n", "hidden: 100\n"
)


@pytest.mark.parametrize(
    "command, text", [("lorenz-run", LORENZ_TINY), ("covid-run", COVID_TINY_WIDE)]
)
def test_outputs_do_not_depend_on_workers_or_blas_threads(tmp_path, command, text):
    """With OpenBLAS free to use every core, and its thread pool already
    started by the parent, a run on two forked workers neither hangs nor
    writes other bytes than a run in one process."""
    code = (
        "import os, sys\n"
        "import numpy as np\n"
        "from attnpool import cli\n"
        "a = np.ones((1024, 1024))\n"
        "a @ a\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "cli.main(sys.argv[1:])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = path
    cfg = write_config(tmp_path, text, out=str(tmp_path / "out"))
    outputs = []
    for threads in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-c", code, command, "--config", str(cfg),
             "--output", str(tmp_path / threads), "--threads", threads],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(json.loads((tmp_path / threads / "manifest.json").read_text())["outputs"])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("path", ["compiled", "numpy"])
def test_manifest_names_the_adam_update_that_ran(tmp_path, monkeypatch, path, lorenz_out, covid_out):
    """The manifest's ``kernels`` key is the path that every Adam step, RK4
    step and attention pass ran: the compiled kernel library, or the numpy
    and Python code where it does not load. A serial run on either path writes the bytes of
    the module's runs, which took the process's own path."""
    from attnpool import lorenz, numerics

    if path == "compiled" and numerics.kernels() is None:
        pytest.skip("the C compiler builds no kernel library that loads")
    if path == "numpy":
        monkeypatch.setattr(numerics, "kernels", lambda: None)
    fallbacks = {
        (numerics, "_numpy_update"), (lorenz, "_integrate_block"), (lorenz, "_numpy_steps"),
        (numerics, "_numpy_broadcast_add"), (numerics, "_numpy_tanh_backward"),
    }
    ran = set()
    for module, name in fallbacks:
        def spy(*args, _name=name, _fallback=getattr(module, name)):
            ran.add(_name)
            return _fallback(*args)

        monkeypatch.setattr(module, name, spy)
    for command, text, (reference, _) in (
        ("lorenz-run", LORENZ_TINY, lorenz_out), ("covid-run", COVID_TINY, covid_out)
    ):
        out = tmp_path / command
        cfg = write_config(tmp_path, text, out=str(out))
        result = invoke(command, "--config", str(cfg), "--threads", "1")
        assert result.exit_code == 0, result.output + str(result.exception)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kernels"] == path
        assert "adam" not in manifest
        expected = json.loads((reference / "manifest.json").read_text())["outputs"]
        assert manifest["outputs"] == expected, command
    assert ran == ({name for _, name in fallbacks} if path == "numpy" else set())


def test_import_and_validate_start_no_compiler(tmp_path):
    """The kernel library is built on first use: importing the package and
    validating a config start no process."""
    code = (
        "import subprocess, sys\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError(f'started {args[0]!r}')\n"
        "subprocess.run = subprocess.Popen = refuse\n"
        "import attnpool\n"
        "from attnpool import cli, numerics\n"
        "cli.validate_config(sys.argv[1])\n"
        "assert numerics.kernels.cache_info().currsize == 0\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for text in (LORENZ_TINY, COVID_TINY):
        cfg = write_config(tmp_path, text, out=str(tmp_path / "out"))
        run = subprocess.run(
            [sys.executable, "-c", code, str(cfg)], env=env, capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr


def test_manifests_name_the_openblas_the_pin_found(lorenz_out, covid_out):
    loaded = [p.name for p in cli._loaded_openblas()]
    if not loaded:
        pytest.skip("this process has loaded no OpenBLAS, so nothing is pinned")
    for out, _ in (lorenz_out, covid_out):
        pinned = json.loads((out / "manifest.json").read_text())["blas_pinned"]
        assert pinned, out
        assert set(pinned) <= set(loaded), (pinned, loaded)
        assert all("openblas" in name for name in pinned), pinned


def test_loaded_openblas_reads_the_memory_map(tmp_path, monkeypatch):
    """Only mapped files named like OpenBLAS count, each once, however many
    segments map it; without a memory map to read nothing is found."""
    maps = tmp_path / "maps"
    maps.write_text(
        "7f00-7f01 r--p 00000000 08:01 11 /lib/x 86/libopenblas.so.0\n"
        "7f01-7f02 r-xp 00001000 08:01 11 /lib/x 86/libopenblas.so.0\n"
        "7f02-7f03 r-xp 00000000 08:01 12 /lib/libm.so.6\n"
        "7f03-7f04 rw-p 00000000 00:00 0 \n"
        "7ffc-7ffd rw-p 00000000 00:00 0 [stack]\n"
    )
    monkeypatch.setattr(cli, "_SELF_MAPS", maps)
    assert cli._loaded_openblas() == [Path("/lib/x 86/libopenblas.so.0")]
    maps.unlink()
    assert cli._loaded_openblas() == []


def every_line_openblas(maps: str) -> list[Path]:
    """The OpenBLAS libraries of the memory map ``maps``, found by making a
    path of every line: the reference for the reading that parses only the
    lines naming OpenBLAS."""
    mapped = {Path(line.split(maxsplit=5)[-1]) for line in maps.splitlines()}
    return sorted(p for p in mapped if "openblas" in p.name)


def test_loaded_openblas_finds_what_a_path_per_line_finds(tmp_path, monkeypatch):
    """On this process's own memory map, and on one where OpenBLAS names a
    directory of a library that is not OpenBLAS, the libraries found are
    those a path made of every line finds."""
    if not cli._SELF_MAPS.exists():
        pytest.skip("no memory map to read on this platform")
    own = cli._SELF_MAPS.read_text()
    crafted = (
        "7f00-7f01 r-xp 00000000 08:01 11 /opt/openblas/lib/libgfortran.so.5\n"
        "7f01-7f02 r-xp 00000000 08:01 12 /opt/openblas/lib/libscipy_openblas64_.so\n"
        "7f02-7f03 rw-p 00000000 00:00 0 \n"
    )
    maps = tmp_path / "maps"
    monkeypatch.setattr(cli, "_SELF_MAPS", maps)
    for text in (own, crafted):
        maps.write_text(text)
        assert cli._loaded_openblas() == every_line_openblas(text)
    assert cli._loaded_openblas() == [Path("/opt/openblas/lib/libscipy_openblas64_.so")]


def test_manifest_records_an_empty_pin_without_a_loaded_openblas(tmp_path, monkeypatch):
    """Where the process has loaded no OpenBLAS, or has no memory map to
    read, the pin finds nothing and the manifest says so."""
    monkeypatch.setattr(cli, "_loaded_openblas", lambda: [])
    cfg = write_config(
        tmp_path, COVID_TINY + "  methods: [uniform]\n", out=str(tmp_path / "out")
    )
    result = invoke("covid-run", "--config", str(cfg))
    assert result.exit_code == 0, result.output + str(result.exception)
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["blas_pinned"] == []


def test_worker_count_is_capped_by_cores_and_jobs(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert cli._worker_count(threads=8, n_jobs=10) == 3
    assert cli._worker_count(threads=2, n_jobs=10) == 2
    assert cli._worker_count(threads=8, n_jobs=2) == 2
    assert cli._worker_count(threads=8, n_jobs=0) == 0
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {5})
    assert cli._worker_count(threads=4, n_jobs=8) == 1


def _sleep_or_fail(shared, job):
    if job == "raise":
        raise ValueError("this job failed")
    if job == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60.0)


@pytest.mark.parametrize(
    "job, error", [("raise", ValueError), ("die", BrokenProcessPool)], ids=["raise", "die"]
)
def test_failing_job_stops_the_running_ones(worker_pools, job, error):
    """The failure is reported while the other worker still sleeps, and no
    worker outlives the call."""
    import multiprocessing

    def hung(signum, frame):
        raise TimeoutError("_run_jobs did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    start = time.monotonic()
    try:
        with pytest.raises(error):
            cli._run_jobs(_sleep_or_fail, None, ["sleep", job], threads=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 15.0
    assert worker_pools == [2]
    assert multiprocessing.active_children() == []


class TestOutputStage:
    @staticmethod
    def stage_run(final: Path, tag: str) -> None:
        """Stage three files whose contents name the run, and their manifest."""
        with cli._OutputStage(final, "x") as stage:
            for name in ("a.csv", "b.csv", "z.csv"):
                stage.path(name).write_text(f"{tag}\n")
            outputs = stage.file_hashes()
            stage.path("manifest.json").write_text(json.dumps({"command": "x", "outputs": outputs}))
            stage.commit([])

    @staticmethod
    def manifest_matches_its_files(directory: Path) -> bool:
        import hashlib

        listed = json.loads((directory / "manifest.json").read_text())["outputs"]
        return all(
            hashlib.sha256((directory / name).read_bytes()).hexdigest() == digest
            for name, digest in listed.items()
        )

    @pytest.mark.parametrize("failing", [1, 2, 3, 4])
    def test_interrupted_commit_leaves_no_manifest_beside_another_runs_files(
        self, tmp_path, monkeypatch, failing
    ):
        """Whichever of the four renames fails, the output directory holds
        no manifest, or one that lists the files beside it."""
        self.stage_run(tmp_path, "first")
        replace, calls = Path.replace, []

        def fail_one_replace(self, target):
            calls.append(self.name)
            if len(calls) == failing:
                raise OSError("disk gone")
            return replace(self, target)

        monkeypatch.setattr(Path, "replace", fail_one_replace)
        with pytest.raises(OSError, match="disk gone"):
            self.stage_run(tmp_path, "second")
        if (tmp_path / "manifest.json").exists():
            assert self.manifest_matches_its_files(tmp_path)


class TestCommands:
    def test_validate_reports_ok(self, tmp_path):
        cfg = write_config(tmp_path, "experiment: lorenz\noutput: out\n")
        result = invoke("validate", "--config", str(cfg))
        assert result.exit_code == 0
        assert "configuration OK" in result.output

    def test_validate_reports_every_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "experiment: lorenz\nseed: -2\noutput: out\nmodel:\n  hiddne: 1\n",
        )
        result = invoke("validate", "--config", str(cfg))
        assert result.exit_code == 1
        assert result.stderr.count("config error:") == 2

    @pytest.mark.parametrize(
        "value", [".nan", ".inf", "-.inf", pytest.param("1" + "0" * 400, id="10**400")]
    )
    @pytest.mark.parametrize(
        "key", ["model.learning_rate", "data.t_transient", "data.t_val", "data.t_train"]
    )
    def test_validate_names_a_non_finite_float_key(self, tmp_path, key, value):
        """NaN, an infinity and an integer past the float range fail as the
        key's own error, not as a later overflow or conversion: the command
        exits, it raises nothing that would print a traceback."""
        section, name = key.split(".")
        cfg = write_config(
            tmp_path, f"experiment: lorenz\noutput: out\n{section}:\n  {name}: {value}\n"
        )
        result = invoke("validate", "--config", str(cfg))
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.stderr.startswith(f"config error: {key}: must be a finite number")

    def test_experiment_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "experiment: lorenz\noutput: out\n")
        result = invoke("covid-run", "--config", str(cfg))
        assert result.exit_code == 1
        assert "runs 'covid' configs" in result.stderr

    def test_readme_documents_exactly_the_commands(self):
        """The command lines of README's CLI block name every command, and
        only commands that exist."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```", 2)[1]
        documented = {line.split()[1] for line in block.splitlines() if line.startswith("attnpool ")}
        assert documented == set(cli.main.commands)

    @pytest.mark.parametrize(
        "command, extra, error",
        [
            ("lorenz-data", [], "No such command 'lorenz-data'"),
            ("covid-synth", [], "No such command 'covid-synth'"),
            ("lorenz-run", ["--seed", "1"], "No such option"),
        ],
        ids=["lorenz-data", "covid-synth", "seed"],
    )
    def test_lorenz_data_is_an_unknown_command(self, tmp_path, command, extra, error):
        """Removed commands, and the removed --seed override (the seed is
        the config's alone), fail before anything runs."""
        cfg = write_config(tmp_path, LORENZ_TINY, out=str(tmp_path / "out"))
        result = invoke(command, "--config", str(cfg), *extra)
        assert result.exit_code != 0
        assert error in result.output
        assert not (tmp_path / "out").exists()

    def test_version(self):
        from attnpool import __version__

        result = invoke("version")
        assert result.exit_code == 0
        assert __version__ in result.output

    def test_an_empty_synthetic_section_takes_the_full_hub_shape(self, tmp_path, monkeypatch):
        """``data.synthetic: {}`` reaches ``synthesize_hub`` as 8 locations,
        120 weeks and 9 models, seeded by the top-level seed; the config
        schema is the one place that declares them."""
        calls = []
        signature = inspect.signature(covid.synthesize_hub)

        def synthesize_hub(*args, **kwargs):
            calls.append(dict(signature.bind(*args, **kwargs).arguments))
            raise RuntimeError("not generated")

        monkeypatch.setattr(covid, "synthesize_hub", synthesize_hub)
        cfg = write_config(
            tmp_path, "experiment: covid\nseed: 4\noutput: {out}\ndata:\n  synthetic: {{}}\n",
            out=str(tmp_path / "out"),
        )
        result = invoke("covid-run", "--config", str(cfg))
        assert result.exit_code == 2 and "not generated" in result.stderr
        assert calls == [dict(seed=4, n_locations=8, n_weeks=120, n_models=9)]
