"""Config-driven experiment runner.

One YAML file describes a full experiment (which system, which methods, all
hyperparameters, where outputs go); subcommands generate data, run the
experiment, or just validate the file. Every run writes its metric CSVs plus
a ``manifest.json`` recording the seed, a hash of the effective config, and
per-file content hashes — two runs with the same seed and config hash produce
byte-identical CSVs.

All randomness flows from the single top-level ``seed`` through labeled
streams (one label per trained model, e.g. ``train-attention-l5``), so adding
a method to the config never perturbs another method's draws.

Outputs are staged in ``<output>/.partial`` and moved into place only when
the run completes; an aborted run leaves no partial metric files behind.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from datetime import date
from difflib import get_close_matches
from functools import partial
from pathlib import Path
from typing import Sequence

import click
import numpy as np
import yaml

from . import __version__, covid
from .evaluation import median_with_ci, valid_time, wis_batch
from .forecasting import (
    VARIANTS,
    TrainConfig,
    assemble_open_loop,
    closed_loop_forecast_batch,
    gather_histories,
    train_attention,
    train_ffnn,
    train_linear,
)
from .lorenz import (
    CANDIDATE_RHOS,
    LorenzDataset,
    _dataset_layout,
    candidate_forecasts,
    generate_dataset,
    load_trajectory_csv,
    save_trajectory_csv,
)

LORENZ_METHODS = ("additive", "fixed_attention", "best_initial", "linear", "ffnn")
COVID_METHODS = ("additive", "multi_head", "linear", "uniform", "best_single")


class ConfigError(Exception):
    """Invalid experiment config; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


# ---------------------------------------------------------------------------
# config schema
#
# Each config key is declared once, as a field of the frozen dataclass the
# runners read: ``_key`` puts the key's parser in the field's metadata and
# makes the key's default the field's default (a field without one is a
# required key); ``_section`` marks a field that holds a nested mapping.
# Validation collects *all* errors, each tagged with its dotted key path.


class _Bad(Exception):
    pass


def _key(parse, default=MISSING):
    """A config key whose YAML value ``parse`` turns into the field's value,
    raising _Bad."""
    return field(default=default, metadata={"parse": parse})


def _section(cls, optional=False):
    """A nested mapping read by the fields of ``cls``; an absent or null
    section is None if ``optional``, else it takes every default."""
    return field(metadata={"section": cls, "optional": optional})


def _no_bool(value):
    if isinstance(value, bool):
        raise _Bad(f"expected a number, got the boolean {value}")


def _int_field(minimum=None, maximum=None):
    def parse(value):
        _no_bool(value)
        if not isinstance(value, int):
            raise _Bad(f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise _Bad(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise _Bad(f"must be <= {maximum}, got {value}")
        return value

    return parse


def _float_field(minimum=None, exclusive_minimum=None):
    def parse(value):
        _no_bool(value)
        if not isinstance(value, (int, float)):
            raise _Bad(f"expected a number, got {value!r}")
        value = float(value)
        if exclusive_minimum is not None and value <= exclusive_minimum:
            raise _Bad(f"must be > {exclusive_minimum}, got {value}")
        if minimum is not None and value < minimum:
            raise _Bad(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _bool_field():
    def parse(value):
        if not isinstance(value, bool):
            raise _Bad(f"expected true/false, got {value!r}")
        return value

    return parse


def _str_field(choices=None):
    def parse(value):
        if not isinstance(value, str):
            raise _Bad(f"expected a string, got {value!r}")
        if choices is not None and value not in choices:
            raise _Bad(f"must be one of {', '.join(choices)}; got {value!r}")
        return value

    return parse


def _opt(inner):
    def parse(value):
        return None if value is None else inner(value)

    return parse


def _method_list(allowed):
    def parse(value):
        if not isinstance(value, list) or not value:
            raise _Bad(f"expected a non-empty list from {{{', '.join(allowed)}}}")
        seen = []
        for item in value:
            if not isinstance(item, str) or item not in allowed:
                raise _Bad(f"unknown method {item!r}; allowed: {', '.join(allowed)}")
            if item in seen:
                raise _Bad(f"method {item!r} listed twice")
            seen.append(item)
        return tuple(seen)

    return parse


def _int_list(minimum):
    def parse(value):
        if not isinstance(value, list) or not value:
            raise _Bad("expected a non-empty list of integers")
        out = []
        for item in value:
            _no_bool(item)
            if not isinstance(item, int) or item < minimum:
                raise _Bad(f"entries must be integers >= {minimum}, got {item!r}")
            if item in out:
                raise _Bad(f"entry {item} listed twice")
            out.append(item)
        return tuple(out)

    return parse


def _parse_date(value):
    if isinstance(value, date):
        return value
    if isinstance(value, str):
        try:
            return date.fromisoformat(value)
        except ValueError as exc:
            raise _Bad(f"bad date {value!r}: {exc}") from None
    raise _Bad(f"expected a YYYY-MM-DD date, got {value!r}")


def _periods_field():
    """'standard' (the four built-in periods), 'split' (quarter the scored
    weeks), 'auto', or an explicit list of [start, end] date pairs."""

    def parse(value):
        if isinstance(value, str):
            if value in ("auto", "standard", "split"):
                return value
            raise _Bad(f"must be auto, standard, split, or a list of date pairs; got {value!r}")
        if not isinstance(value, list) or not value:
            raise _Bad("expected auto, standard, split, or a non-empty list of [start, end] pairs")
        periods = []
        for i, pair in enumerate(value):
            if not isinstance(pair, list) or len(pair) != 2:
                raise _Bad(f"entry {i} must be a [start, end] pair, got {pair!r}")
            start, end = (_parse_date(d) for d in pair)
            try:
                periods.append(covid.ValidationPeriod(start, end))
            except ValueError as exc:
                raise _Bad(f"entry {i}: {exc}") from None
        try:
            covid.check_periods_disjoint(periods)
        except ValueError as exc:
            raise _Bad(str(exc)) from None
        return tuple(periods)

    return parse


@dataclass(frozen=True, kw_only=True)
class LorenzDataConfig:
    t_transient: float = _key(_float_field(exclusive_minimum=0.0), 100.0)
    t_train: float = _key(_float_field(exclusive_minimum=0.0), 400.0)
    t_val: float = _key(_float_field(exclusive_minimum=0.0), 2560.0)
    n_val_segments: int = _key(_int_field(minimum=6), 200)
    segment_len: int = _key(_int_field(minimum=2), 128)
    warmup: int = _key(_int_field(minimum=1), 8)
    cache: Path | None = _key(_opt(_str_field()), None)


@dataclass(frozen=True, kw_only=True)
class LorenzModelConfig:
    methods: tuple[str, ...] = _key(_method_list(LORENZ_METHODS), LORENZ_METHODS)
    delays: tuple[int, ...] = _key(_int_list(minimum=1), (1, 2, 3, 4, 5, 6))
    hidden: int | None = _key(_opt(_int_field(minimum=1)), None)
    epochs: int = _key(_int_field(minimum=1), 500)
    learning_rate: float = _key(_float_field(exclusive_minimum=0.0), 1e-3)
    weight_decay: float = _key(_float_field(minimum=0.0), 0.0)
    batch_size: int = _key(_int_field(minimum=1), 128)
    ffnn_delay: int = _key(_int_field(minimum=1), 5)
    ffnn_hidden: int | None = _key(_opt(_int_field(minimum=1)), None)
    ffnn_epochs: int = _key(_int_field(minimum=1), 800)
    # null in the file resolves to the largest delay
    weights_delay: int = _key(_opt(_int_field(minimum=1)), None)
    write_forecasts: bool = _key(_bool_field(), False)


@dataclass(frozen=True, kw_only=True)
class CovidSyntheticConfig:
    # null in the file resolves to the top-level seed
    seed: int = _key(_opt(_int_field(minimum=0)), None)
    n_locations: int = _key(_int_field(minimum=5), 8)
    n_weeks: int = _key(_int_field(minimum=24), 120)
    n_models: int = _key(_int_field(minimum=6, maximum=9), 9)


@dataclass(frozen=True, kw_only=True)
class CovidDataConfig:
    forecasts: Path | None = _key(_opt(_str_field()), None)
    truth: Path | None = _key(_opt(_str_field()), None)
    synthetic: CovidSyntheticConfig | None = _section(CovidSyntheticConfig, optional=True)
    # 'auto' in the file resolves to 'split' (synthetic) or 'standard'
    periods: str | tuple[covid.ValidationPeriod, ...] = _key(_periods_field(), "auto")


@dataclass(frozen=True, kw_only=True)
class CovidModelConfig:
    methods: tuple[str, ...] = _key(_method_list(COVID_METHODS), COVID_METHODS)
    delay: int = _key(_int_field(minimum=1), 5)
    epochs: int = _key(_int_field(minimum=1), 200)
    learning_rate: float = _key(_float_field(exclusive_minimum=0.0), 1e-5)
    batch_size: int = _key(_int_field(minimum=1), 1)
    weight_decay: float | None = _key(_opt(_float_field(minimum=0.0)), None)
    hidden: int | None = _key(_opt(_int_field(minimum=1)), None)
    n_heads: int = _key(_int_field(minimum=1), 21)
    scale_per_location: bool = _key(_bool_field(), False)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """The top-level keys both experiments share, and the config's hash."""

    experiment: str = _key(_str_field(("lorenz", "covid")))
    seed: int = _key(_int_field(minimum=0), 0)
    output: Path = _key(_str_field())
    threads: int = _key(_int_field(minimum=1), 1)
    config_sha256: str


@dataclass(frozen=True, kw_only=True)
class LorenzConfig(ExperimentConfig):
    data: LorenzDataConfig = _section(LorenzDataConfig)
    model: LorenzModelConfig = _section(LorenzModelConfig)


@dataclass(frozen=True, kw_only=True)
class CovidConfig(ExperimentConfig):
    data: CovidDataConfig = _section(CovidDataConfig)
    model: CovidModelConfig = _section(CovidModelConfig)


_CONFIGS = {"lorenz": LorenzConfig, "covid": CovidConfig}


def _walk(value, cls, path: str, errors: list[str]) -> dict:
    """Parse the mapping ``value`` by the keys of ``cls`` into a dict of the
    same shape, defaults filled in."""
    prefix = f"{path}." if path else ""
    keys = {f.name: f for f in fields(cls) if f.metadata}
    if value is None:
        value = {}
    if not isinstance(value, dict):
        errors.append(f"{path or 'config'}: expected a mapping, got {value!r}")
        value = {}
    for key in value:
        if key not in keys:
            msg = f"{prefix}{key}: unknown key"
            close = get_close_matches(str(key), list(keys), n=1)
            if close:
                msg += f" (did you mean {close[0]!r}?)"
            errors.append(msg)
    out = {}
    for key, f in keys.items():
        raw = value.get(key, MISSING)
        if "section" in f.metadata:
            sub = None if raw is MISSING else raw
            if sub is None and f.metadata["optional"]:
                out[key] = None
            else:
                out[key] = _walk(sub, f.metadata["section"], f"{prefix}{key}", errors)
        elif raw is not MISSING:
            try:
                out[key] = f.metadata["parse"](raw)
            except _Bad as exc:
                errors.append(f"{prefix}{key}: {exc}")
        elif f.default is not MISSING:
            out[key] = f.default
        else:
            errors.append(f"{prefix}{key}: required key is missing")
    return out


def _build(cls, values: dict):
    """An instance of ``cls`` holding ``values``, sections built in turn."""
    kwargs = {}
    for f in fields(cls):
        value, section = values[f.name], f.metadata.get("section")
        kwargs[f.name] = value if section is None or value is None else _build(section, value)
    return cls(**kwargs)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, covid.ValidationPeriod):
        return [value.start.isoformat(), value.end.isoformat()]
    if isinstance(value, date):
        return value.isoformat()
    return value


def _resolve(base: Path, raw: str | None) -> Path | None:
    if raw is None:
        return None
    p = Path(raw)
    return p if p.is_absolute() else base / p


def validate_config(
    path: str | Path,
    *,
    output: str | None = None,
    threads: int | None = None,
    seed: int | None = None,
) -> ExperimentConfig:
    """Parse and exhaustively validate a YAML experiment config.

    Raises :class:`ConfigError` carrying *every* problem found, each message
    prefixed with the offending key path. Keyword overrides take the place of
    the file's ``output``/``threads``/``seed`` before the config is hashed,
    so the manifest reflects what actually ran. Relative *input* paths (data
    files, cache) resolve against the config file's directory, so a config
    can ship next to its data; the relative ``output`` destination resolves
    against the working directory.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from None
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"invalid YAML in {path}: {exc}"]) from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])

    experiment = raw.get("experiment")
    if experiment not in ("lorenz", "covid"):
        raise ConfigError(
            [f"experiment: must be 'lorenz' or 'covid', got {experiment!r}"]
        )

    errors: list[str] = []
    eff = _walk(raw, _CONFIGS[experiment], "", errors)
    if output is not None:
        eff["output"] = output
    if threads is not None:
        if threads < 1:
            errors.append(f"threads: must be >= 1, got {threads}")
        eff["threads"] = threads
    if seed is not None:
        if seed < 0:
            errors.append(f"seed: must be >= 0, got {seed}")
        eff["seed"] = seed
    if errors:
        raise ConfigError(errors)

    # the hash covers the file's values plus the overrides, before the
    # resolutions below
    eff["config_sha256"] = hashlib.sha256(
        json.dumps(_jsonable(eff), sort_keys=True).encode()
    ).hexdigest()
    d, m = eff["data"], eff["model"]
    eff["output"] = Path(eff["output"])
    if experiment == "lorenz":
        d["cache"] = _resolve(path.parent, d["cache"])
        if m["weights_delay"] is None:
            m["weights_delay"] = max(m["delays"])
    else:
        d["forecasts"] = _resolve(path.parent, d["forecasts"])
        d["truth"] = _resolve(path.parent, d["truth"])
        if d["synthetic"] is not None and d["synthetic"]["seed"] is None:
            d["synthetic"]["seed"] = eff["seed"]
        if d["periods"] == "auto":
            d["periods"] = "standard" if d["synthetic"] is None else "split"
    cfg = _build(_CONFIGS[experiment], eff)
    errors = _cross_checks(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def _cross_checks(cfg: ExperimentConfig) -> list[str]:
    errors = []
    d, m = cfg.data, cfg.model
    if cfg.experiment == "lorenz":
        try:
            _dataset_layout(d.t_train, d.t_val, d.n_val_segments, d.segment_len, d.warmup)
        except ValueError as exc:
            errors.append(f"data.{exc}")
        # the additive rollout is the one that writes the weights and forecasts
        if "additive" in m.methods and m.weights_delay not in m.delays:
            errors.append(
                f"model.weights_delay: {m.weights_delay} is not in "
                f"model.delays {list(m.delays)}"
            )
        if m.write_forecasts and "additive" not in m.methods:
            errors.append(
                "model.write_forecasts: forecasts.csv comes from the additive "
                "method, which model.methods does not list"
            )
        # a closed-loop forecast starts from the samples before its segment
        needs = []
        if any(v in m.methods for v in VARIANTS):
            needs.append(("max(model.delays) + 1", max(m.delays) + 1))
        if "ffnn" in m.methods:
            needs.append(("model.ffnn_delay", m.ffnn_delay))
        for source, need in needs:
            if d.warmup < need:
                errors.append(f"data.warmup: must be >= {need} ({source}), got {d.warmup}")
    else:
        has_paths = d.forecasts is not None or d.truth is not None
        if d.synthetic is None:
            if d.forecasts is None or d.truth is None:
                errors.append(
                    "data.forecasts: provide both forecast and truth CSV paths, "
                    "or a data.synthetic section"
                )
        elif has_paths:
            errors.append(
                "data.synthetic: remove the CSV paths or the synthetic section "
                "(they are mutually exclusive)"
            )
    return errors


# ---------------------------------------------------------------------------
# output staging and manifests


class _OutputStage:
    """Collects files under ``<output>/.partial`` until :meth:`commit`; used
    as a context manager, it discards them if the run raises."""

    def __init__(self, output_dir: Path):
        self.final = output_dir
        self.partial = output_dir / ".partial"
        self.final.mkdir(parents=True, exist_ok=True)
        if self.partial.exists():
            shutil.rmtree(self.partial)
        self.partial.mkdir()

    def path(self, name: str) -> Path:
        return self.partial / name

    def file_hashes(self) -> dict[str, str]:
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(self.partial.iterdir())
        }

    def commit(self, command: str, inputs: Sequence[Path] = ()) -> None:
        """Move the staged files into place, ``manifest.json`` last, and
        delete the files that the previous run of the same ``command`` listed
        in its manifest and this run did not write. A file no such manifest
        lists, and any of the ``inputs`` this run read, is never touched.

        The old manifest goes first, so a crash part-way leaves a directory
        without one rather than a manifest next to another run's files."""
        staged = sorted(self.partial.iterdir())
        stale = self._previous_outputs(command) - {p.name for p in staged}
        keep = {p.resolve() for p in inputs}
        manifest = self.final / "manifest.json"
        manifest.unlink(missing_ok=True)
        for name in sorted(stale):
            path = self.final / name
            if path.is_file() and path.resolve() not in keep:
                path.unlink()
        for p in sorted(staged, key=lambda p: p.name == manifest.name):
            p.replace(self.final / p.name)
        self.partial.rmdir()

    def _previous_outputs(self, command: str) -> set[str]:
        """File names listed by the manifest already in the output directory,
        if a run of ``command`` wrote it."""
        try:
            manifest = json.loads((self.final / "manifest.json").read_text())
            outputs = manifest["outputs"]
        except (OSError, ValueError, KeyError, TypeError):
            return set()
        if manifest.get("command") != command or not isinstance(outputs, dict):
            return set()
        # only plain names inside the output directory, never a path out of it
        return {n for n in outputs if isinstance(n, str) and n == Path(n).name}

    def __enter__(self) -> "_OutputStage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:  # interrupts too; the exception propagates
            shutil.rmtree(self.partial, ignore_errors=True)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _finish(stage: _OutputStage, cfg: ExperimentConfig, command: str, started: float, extra=None) -> Path:
    manifest = {
        "command": command,
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "threads": cfg.threads,
        "config_sha256": cfg.config_sha256,
        "package_version": __version__,
        "outputs": stage.file_hashes(),
        "wall_clock_seconds": round(time.perf_counter() - started, 3),
    }
    if extra:
        manifest.update(extra)
    stage.path("manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    stage.commit(command, _input_paths(cfg))
    return cfg.output


def _input_paths(cfg: ExperimentConfig) -> list[Path]:
    """The data files a run reads; a rerun's cleanup never deletes them."""
    d = cfg.data
    if isinstance(d, LorenzDataConfig):
        return [] if d.cache is None else [d.cache / "train.csv", d.cache / "validation.csv"]
    return [p for p in (d.forecasts, d.truth) if p is not None]


# ---------------------------------------------------------------------------
# independent jobs


def _worker_count(threads: int, n_jobs: int) -> int:
    """Worker processes for ``n_jobs`` jobs: ``threads``, capped by the
    cores this process may run on and by the number of jobs."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(threads, cores, n_jobs)


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread inside the block, then restore its thread
    count; where numpy bundles no OpenBLAS, BLAS is left as it is.

    Every job runs inside this, in a worker or in this process. The bits of
    some hub kernels depend on OpenBLAS's thread count, so a job's results
    then depend neither on the worker count nor on the environment's BLAS
    settings; and the workers already fill the cores, so more BLAS threads
    would only oversubscribe them.
    """
    restore = []
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in (
            "scipy_openblas_{}_num_threads64_",
            "openblas_{}_num_threads64_",
            "openblas_{}_num_threads",
        ):
            get = getattr(handle, name.format("get"), None)
            set_ = getattr(handle, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                restore.append((set_, get()))
                set_(1)
                break
    try:
        yield
    finally:
        for set_, threads in restore:
            set_(threads)


# A worker process's copy of the inputs its pool's jobs share, set once in
# each worker by _init_worker and never in the main process.
_WORKER_SHARED = None


def _init_worker(shared) -> None:
    """Keep the jobs' shared inputs, which a forked worker inherits without
    pickling."""
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _call_in_worker(fn, job):
    with _one_blas_thread():
        return fn(_WORKER_SHARED, job)


def _run_jobs(fn, shared, jobs: list, threads: int) -> list:
    """``[fn(shared, job) for job in jobs]``, on up to ``threads`` worker
    processes, the results in the order of ``jobs`` whatever order they
    finish in. List the longest jobs first: the pool starts them in order.

    With one worker the jobs run in this process and no pool starts. The
    workers are forked: they start without importing numpy again and
    inherit ``shared``, so only the job and its result are pickled; a job
    should return rows or scores, not models. The main process runs no
    other Python thread when it forks, and OpenBLAS resets its own thread
    pool in a forked child. The first job that raises cancels the jobs not
    yet started, and its exception propagates.
    """
    workers = _worker_count(threads, len(jobs))
    if workers <= 1:
        with _one_blas_thread():
            return [fn(shared, job) for job in jobs]
    # imported here: they would add to the startup of every command
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(shared,),
    ) as pool:
        return list(pool.map(partial(_call_in_worker, fn), jobs))


# ---------------------------------------------------------------------------
# Lorenz experiment


def _lorenz_dataset(cfg: ExperimentConfig) -> LorenzDataset:
    """The configured dataset: generated, or read from ``data.cache``."""
    d = cfg.data
    if d.cache is None:
        return generate_dataset(
            seed=cfg.seed,
            t_transient=d.t_transient,
            t_train=d.t_train,
            t_val=d.t_val,
            n_val_segments=d.n_val_segments,
            segment_len=d.segment_len,
            warmup=d.warmup,
        )
    train_csv, val_csv = _input_paths(cfg)
    for p in (train_csv, val_csv):
        if not p.exists():
            raise RuntimeError(
                f"dataset cache {d.cache} is missing {p.name}; run lorenz-data first"
            )
    train = load_trajectory_csv(train_csv)
    validation = load_trajectory_csv(val_csv)
    n_train, n_validation, starts = _dataset_layout(
        d.t_train, d.t_val, d.n_val_segments, d.segment_len, d.warmup
    )
    if len(train) != n_train or len(validation) != n_validation:
        raise RuntimeError(
            f"cached dataset shape mismatch: train {len(train)} (config {n_train}), "
            f"validation {len(validation)} (config {n_validation})"
        )
    return LorenzDataset(
        train=train,
        validation=validation,
        segment_starts=starts,
        segment_len=d.segment_len,
        warmup=d.warmup,
    )


@dataclass(frozen=True)
class _LorenzInputs:
    """What every (trained method, l) job of one ``lorenz-run`` reads."""

    model: LorenzModelConfig
    seed: int
    dataset: LorenzDataset
    cand_train: np.ndarray  # candidate forecasts along the training run
    truths: np.ndarray      # (segments, segment_len, 3)
    seg_t0: np.ndarray      # model time of each segment's first step


def _train_lorenz_model(inputs: _LorenzInputs, method: str, length: int):
    """The trained ``method`` model at delay ``length``, and its loss curve."""
    m = inputs.model
    config = TrainConfig(
        epochs=m.ffnn_epochs if method == "ffnn" else m.epochs,
        learning_rate=m.learning_rate,
        batch_size=m.batch_size,
        weight_decay=m.weight_decay,
        seed=inputs.seed,
    )
    data = assemble_open_loop(inputs.dataset.train.states, inputs.cand_train, length)
    if method == "additive":
        return train_attention(data, length, hidden=m.hidden, config=config)
    if method == "linear":
        return train_linear(data.values.reshape(len(data.values), -1), data.targets, config)
    return train_ffnn(data.queries, data.targets, length, hidden=m.ffnn_hidden, config=config)


def _lorenz_job(inputs: _LorenzInputs, job) -> tuple[list, list, list, list]:
    """Train one (method, l) model, roll out every method scored with it and
    return its rows: loss curve, valid times, attention weights and
    forecasts (the last two only for the ``additive`` run at
    ``weights_delay``)."""
    trained, length, depth, scored = job
    m = inputs.model
    model, curve = _train_lorenz_model(inputs, trained, length)
    loss_rows = [[trained, str(length), str(e), _fmt(v)] for e, v in enumerate(curve)]

    val = inputs.dataset.validation
    histories = gather_histories(val.states, inputs.dataset.segment_starts, depth)
    vt_rows, weight_rows, forecast_rows = [], [], []
    for method, variant in scored:
        res = closed_loop_forecast_batch(model, histories, inputs.dataset.segment_len, variant=variant)
        vts = [valid_time(pred, truth) for pred, truth in zip(res.predictions, inputs.truths)]
        vt_rows.append((method, length, vts))
        if method == "additive" and length == m.weights_delay:
            weight_rows = _weight_rows(res, inputs.seg_t0, val.dt_sample)
            if m.write_forecasts:
                forecast_rows = _forecast_rows(res, inputs.truths, inputs.seg_t0, val.dt_sample)
    click.echo(f"[lorenz] {trained} l={length} done", err=True)
    return loss_rows, vt_rows, weight_rows, forecast_rows


def run_lorenz_experiment(cfg: ExperimentConfig) -> Path:
    """Train the requested methods, score closed-loop valid times, write CSVs.

    The three attention variants share one trained model per delay length
    (they differ only at forecast time), so ``loss_curve.csv`` carries a
    single ``additive`` row set per delay. The linear pooler consumes only
    the current candidate forecasts (recorded as l=1) and the direct net
    runs at its own configured delay; both are trained once, not per delay.
    Each (trained method, l) is one job; up to ``threads`` jobs run at once.
    """
    started = time.perf_counter()
    m = cfg.model
    with _OutputStage(cfg.output) as stage:
        dataset = _lorenz_dataset(cfg)
        val, starts, horizon = dataset.validation, dataset.segment_starts, dataset.segment_len
        inputs = _LorenzInputs(
            model=m,
            seed=cfg.seed,
            dataset=dataset,
            cand_train=candidate_forecasts(dataset.train.states),
            truths=np.stack([val.states[s : s + horizon] for s in starts]),
            seg_t0=val.t0 + np.asarray(starts) * val.dt_sample,
        )
        # (trained method, l, history depth, ((scored method, variant), ...));
        # the attention variants share one model per delay length
        variants = tuple((v, v) for v in m.methods if v in VARIANTS)
        attention = [("additive", l, l + 1, variants) for l in m.delays if variants]
        baselines = [
            (method, length, length, ((method, "additive"),))
            for method, length in (("linear", 1), ("ffnn", m.ffnn_delay))
            if method in m.methods
        ]
        # longest first: the smaller l, the wider the attention model
        queue = sorted(attention, key=lambda job: job[1]) + baselines
        done = dict(zip(queue, _run_jobs(_lorenz_job, inputs, queue, cfg.threads)))

        vt_rows: list[tuple[str, int, list[float]]] = []
        loss_rows: list[list[str]] = []
        weight_rows: list[list[str]] = []
        forecast_rows: list[list[str]] = []
        for job in attention + baselines:
            loss, vts, weights, forecasts = done[job]
            loss_rows += loss
            vt_rows += vts
            if weights:  # the additive job at weights_delay, and only it
                weight_rows, forecast_rows = weights, forecasts

        ordered = sorted(vt_rows, key=lambda r: (m.methods.index(r[0]), r[1]))
        _write_csv(
            stage.path("valid_times.csv"),
            ["method", "l", "segment_id", "valid_time"],
            (
                [method, str(length), str(seg), _fmt(vt)]
                for method, length, vts in ordered
                for seg, vt in enumerate(vts)
            ),
        )
        _write_csv(
            stage.path("vt_summary.csv"),
            ["method", "l", "n_segments", "median_vt", "ci_lower", "ci_upper"],
            (
                [method, str(length), str(len(vts))] + [_fmt(v) for v in median_with_ci(vts)]
                for method, length, vts in ordered
            ),
        )
        _write_csv(stage.path("loss_curve.csv"), ["method", "l", "epoch", "loss"], loss_rows)
        if weight_rows:
            _write_csv(
                stage.path("attention_weights.csv"),
                ["segment_id", "step", "t", "rho_m", "weight"],
                weight_rows,
            )
        if forecast_rows:
            _write_csv(
                stage.path("forecasts.csv"),
                ["segment_id", "step", "t", "yhat1", "yhat2", "yhat3", "true1", "true2", "true3"],
                forecast_rows,
            )
        return _finish(stage, cfg, "lorenz-run", started)


def _weight_rows(res, seg_t0, dt) -> list[list[str]]:
    """One row per (segment, step, model) up to each segment's truncation.

    Strings repeated across rows are formatted once and shared between them.
    """
    rows = []
    n_seg, horizon, _ = res.weights.shape
    rhos = [_fmt(rho) for rho in CANDIDATE_RHOS]
    for seg in range(n_seg):
        stop = res.truncated_at[seg]
        stop = horizon if stop < 0 else int(stop)
        seg_s, t0 = str(seg), seg_t0[seg]
        for step, weights in enumerate(res.weights[seg, :stop].tolist()):
            head = [seg_s, str(step), _fmt(t0 + step * dt)]
            rows.extend(head + [rho, _fmt(w)] for rho, w in zip(rhos, weights, strict=True))
    return rows


def _forecast_rows(res, truths, seg_t0, dt) -> list[list[str]]:
    rows = []
    n_seg, horizon, _ = res.predictions.shape
    for seg in range(n_seg):
        for step in range(horizon):
            rows.append(
                [str(seg), str(step), _fmt(seg_t0[seg] + step * dt)]
                + [_fmt(v) for v in res.predictions[seg, step]]
                + [_fmt(v) for v in truths[seg, step]]
            )
    return rows


def write_lorenz_dataset(cfg: ExperimentConfig) -> Path:
    """Generate the training/validation trajectories and save them as CSVs."""
    started = time.perf_counter()
    if cfg.data.cache is not None:
        raise RuntimeError("lorenz-data generates a dataset; remove data.cache from the config")
    with _OutputStage(cfg.output) as stage:
        dataset = _lorenz_dataset(cfg)
        save_trajectory_csv(stage.path("train.csv"), dataset.train)
        save_trajectory_csv(stage.path("validation.csv"), dataset.validation)
        return _finish(
            stage,
            cfg,
            "lorenz-data",
            started,
            extra={
                "n_train_samples": len(dataset.train),
                "n_validation_samples": len(dataset.validation),
                "n_segments": len(dataset.segment_starts),
                "segment_len": dataset.segment_len,
                "warmup": dataset.warmup,
            },
        )


# ---------------------------------------------------------------------------
# COVID experiment


def _synthetic_hub(cfg: ExperimentConfig, stage: _OutputStage) -> covid.SyntheticHub:
    """Generate the configured synthetic hub and stage its two CSVs."""
    syn = cfg.data.synthetic
    hub = covid.synthesize_hub(
        seed=syn.seed,
        n_locations=syn.n_locations,
        n_weeks=syn.n_weeks,
        n_models=syn.n_models,
    )
    hub.write_csvs(stage.path("forecasts.csv"), stage.path("truth.csv"))
    return hub


def _covid_tables(cfg: ExperimentConfig, stage: _OutputStage):
    d = cfg.data
    if d.synthetic is not None:
        _synthetic_hub(cfg, stage)
        return covid.ingest(stage.path("forecasts.csv"), stage.path("truth.csv"))
    for p in (d.forecasts, d.truth):
        if not p.exists():
            raise RuntimeError(f"data file {p} does not exist")
    return covid.ingest(d.forecasts, d.truth)


def _covid_periods(cfg: ExperimentConfig, samples) -> tuple[covid.ValidationPeriod, ...]:
    periods = cfg.data.periods
    if periods == "standard":
        return covid.DEFAULT_VALIDATION_PERIODS
    if periods == "split":
        return tuple(covid.split_into_periods(samples.weeks, 4, skip=samples.delay))
    return periods


def _covid_job(inputs, job) -> tuple[dict, covid.PeriodScores]:
    """Train one kind of pooler with one period held out and score it there;
    return the training record and the period's scores."""
    samples, periods, config = inputs
    pi, kind = job
    result = covid.train_pooler(kind, samples, holdout=periods[pi], config=config)
    info = {
        "first_train_wis": float(result.curve[0]) if len(result.curve) else None,
        "final_train_wis": float(result.curve[-1]) if len(result.curve) else None,
        "sort_repairs": result.sort_repairs,
    }
    click.echo(f"[covid] trained {kind} holding out period {pi}", err=True)
    return info, covid.evaluate_period(result.pooler, samples, periods[pi])


def run_covid_experiment(cfg: ExperimentConfig) -> Path:
    """Leave-one-period-out pooling run over hub-format (or synthetic) data.

    For every validation period each trained method fits on the complement
    and is scored inside the period; the ``uniform`` and ``best_single``
    baselines need no training (``best_single`` picks its candidate per
    period by hindsight mean WIS — an oracle reference, not a forecast
    method). Each (period, trained kind) is one job; up to ``threads`` jobs
    run at once.
    """
    started = time.perf_counter()
    m = cfg.model
    with _OutputStage(cfg.output) as stage:
        table, truth, report = _covid_tables(cfg, stage)
        full, log = covid.impute_missing(table)
        _write_csv(
            stage.path("imputation_log.csv"),
            ["model", "location", "week", "rule"],
            ([e.model_id, e.location, e.week.isoformat(), e.rule] for e in log),
        )
        samples = covid.assemble_samples(truth, full, delay=m.delay)
        periods = _covid_periods(cfg, samples)

        train_cfg = covid.PoolerTrainConfig(
            epochs=m.epochs,
            learning_rate=m.learning_rate,
            batch_size=m.batch_size,
            weight_decay=m.weight_decay,
            hidden=m.hidden,
            n_heads=m.n_heads,
            seed=cfg.seed,
            scale_per_location=m.scale_per_location,
        )

        # longest first: the multi-head pooler, then the single head, then linear
        kinds = [k for k in ("multi_head", "additive", "linear") if k in m.methods]
        jobs = [(pi, kind) for kind in kinds for pi in range(len(periods))]
        done = dict(zip(jobs, _run_jobs(_covid_job, (samples, periods, train_cfg), jobs, cfg.threads)))
        training_info = {f"period{pi}/{kind}": info for (pi, kind), (info, _) in done.items()}

        levels = np.asarray(covid.QUANTILE_LEVELS)
        best_single_ids: dict[str, str] = {}
        wis_rows: list[list[str]] = []
        summary_rows: list[list[str]] = []
        for method in m.methods:
            for pi, period in enumerate(periods):
                rows = covid.period_rows(samples, period)
                if method in covid.POOLER_KINDS:
                    ev = done[(pi, method)][1]
                    week_scores = [(s.location, s.week, s.wis) for s in ev.scores]
                    mean_wis = ev.mean_wis
                else:
                    if method == "uniform":
                        per_row = covid.uniform_pool_wis(samples, rows)
                    else:  # best_single
                        champion = int(np.argmin(covid.candidate_mean_wis(samples, rows)))
                        best_single_ids[f"period{pi}"] = samples.models[champion]
                        per_row = wis_batch(
                            levels, samples.values[rows, champion], samples.truths[rows]
                        )
                    week_scores = [
                        (
                            samples.locations[samples.location_idx[r]],
                            samples.weeks[samples.week_idx[r]],
                            w,
                        )
                        for r, w in zip(rows, per_row)
                    ]
                    mean_wis = float(per_row.mean())
                wis_rows += [
                    [method, loc, week.isoformat(), _fmt(w)]
                    for loc, week, w in week_scores
                ]
                summary_rows.append(
                    [period.start.isoformat(), period.end.isoformat(), method, _fmt(mean_wis)]
                )

        _write_csv(
            stage.path("wis_by_week.csv"),
            ["method", "location", "target_week", "wis"],
            wis_rows,
        )
        # chronological within each method block
        summary_rows.sort(key=lambda r: (m.methods.index(r[2]), r[0]))
        _write_csv(
            stage.path("period_summary.csv"),
            ["period_start", "period_end", "method", "mean_wis"],
            summary_rows,
        )
        extra = {
            "n_imputed_cells": len(log),
            "ingest_warnings": list(report.warnings),
            "training": training_info,
        }
        if best_single_ids:
            extra["best_single_candidates"] = best_single_ids
        return _finish(stage, cfg, "covid-run", started, extra=extra)


def write_synthetic_hub(cfg: ExperimentConfig) -> Path:
    """Generate the synthetic hub CSVs plus a listing of the injected gaps."""
    started = time.perf_counter()
    if cfg.data.synthetic is None:
        raise RuntimeError("covid-synth needs a data.synthetic section in the config")
    with _OutputStage(cfg.output) as stage:
        hub = _synthetic_hub(cfg, stage)
        _write_csv(
            stage.path("gaps.csv"),
            ["model", "location", "week", "expected_rule"],
            (
                [g.model_id, g.location, w.isoformat(), g.expected_rule]
                for g in hub.gaps
                for w in g.weeks
            ),
        )
        return _finish(
            stage,
            cfg,
            "covid-synth",
            started,
            extra={"n_gap_cells": sum(len(g.weeks) for g in hub.gaps)},
        )


# ---------------------------------------------------------------------------
# command-line interface


def _config_options(fn):
    for opt in (
        click.option("--config", "config_path", required=True, type=click.Path(), help="YAML experiment config."),
        click.option("--output", "output_override", default=None, help="Override the config's output directory."),
        click.option("--threads", "threads_override", default=None, type=int, help="Worker processes for the independent training jobs (lorenz-run, covid-run)."),
        click.option("--seed", "seed_override", default=None, type=int, help="Override the config's seed."),
    ):
        fn = opt(fn)
    return fn


def _load_or_exit(config_path, experiment, output, threads, seed) -> ExperimentConfig:
    try:
        cfg = validate_config(config_path, output=output, threads=threads, seed=seed)
    except ConfigError as exc:
        for msg in exc.errors:
            click.echo(f"config error: {msg}", err=True)
        sys.exit(1)
    if cfg.experiment != experiment:
        click.echo(
            f"config error: experiment: this command runs {experiment!r} configs, "
            f"got {cfg.experiment!r}",
            err=True,
        )
        sys.exit(1)
    return cfg


def _execute(runner, cfg: ExperimentConfig) -> None:
    try:
        out = runner(cfg)
    except Exception as exc:  # runtime failure -> exit 2
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"wrote {out}")


@click.group()
def main():
    """Attention-pooled ensemble forecasting experiments."""


@main.command("lorenz-data")
@_config_options
def lorenz_data_cmd(config_path, output_override, threads_override, seed_override):
    """Generate and save the chaotic benchmark trajectories."""
    cfg = _load_or_exit(config_path, "lorenz", output_override, threads_override, seed_override)
    _execute(write_lorenz_dataset, cfg)


@main.command("lorenz-run")
@_config_options
def lorenz_run_cmd(config_path, output_override, threads_override, seed_override):
    """Train poolers and score closed-loop valid times."""
    cfg = _load_or_exit(config_path, "lorenz", output_override, threads_override, seed_override)
    _execute(run_lorenz_experiment, cfg)


@main.command("covid-synth")
@_config_options
def covid_synth_cmd(config_path, output_override, threads_override, seed_override):
    """Generate synthetic hub-format forecast and truth CSVs."""
    cfg = _load_or_exit(config_path, "covid", output_override, threads_override, seed_override)
    _execute(write_synthetic_hub, cfg)


@main.command("covid-run")
@_config_options
def covid_run_cmd(config_path, output_override, threads_override, seed_override):
    """Run the leave-one-period-out quantile pooling experiment."""
    cfg = _load_or_exit(config_path, "covid", output_override, threads_override, seed_override)
    _execute(run_covid_experiment, cfg)


@main.command("validate")
@click.option("--config", "config_path", required=True, type=click.Path())
def validate_cmd(config_path):
    """Check a config file and report every problem found."""
    try:
        cfg = validate_config(config_path)
    except ConfigError as exc:
        for msg in exc.errors:
            click.echo(f"config error: {msg}", err=True)
        sys.exit(1)
    click.echo(f"configuration OK: {cfg.experiment} experiment, seed {cfg.seed}")
    click.echo(f"output directory: {cfg.output}")
    click.echo(f"config hash: {cfg.config_sha256}")


@main.command("version")
def version_cmd():
    """Print the package version."""
    click.echo(f"attnpool {__version__}")


if __name__ == "__main__":
    main()
