"""Config-driven experiment runner.

One YAML file describes a full experiment (which system, which methods, all
hyperparameters, where outputs go); subcommands run the experiment or just
validate the file. Every run writes its metric CSVs
plus a ``manifest.json`` recording the seed, a hash of the effective config,
and per-file content hashes — two runs with the same seed and config hash
produce byte-identical CSVs. A Lorenz run generates its trajectories from the
seed and the ``data`` keys; it reads no data file.

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
from dataclasses import MISSING, asdict, dataclass, field, fields
from difflib import get_close_matches
from pathlib import Path
from typing import Callable, Iterator, Sequence

import click
import numpy as np
import yaml

from . import __version__, covid
from .evaluation import median_with_ci, valid_time
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
)
from .numerics import kernel_path

LORENZ_METHODS = VARIANTS + ("linear", "ffnn")
COVID_METHODS = covid.POOLER_KINDS + covid.BASELINE_KINDS


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


def _int_field(minimum, maximum=None):
    def parse(value):
        _no_bool(value)
        if not isinstance(value, int):
            raise _Bad(f"expected an integer, got {value!r}")
        if value < minimum:
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
        if not abs(value) <= sys.float_info.max:  # NaN, an infinity or a vast integer
            raise _Bad(f"must be a finite number, got {value}")
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
        if isinstance(value, str) and (choices is None or value in choices):
            return value
        # YAML has already parsed a non-string (dates included), so name its type
        got = repr(value) if isinstance(value, str) else f"a value of type {type(value).__name__}"
        if choices is None:
            raise _Bad(f"expected a string, got {got}")
        raise _Bad(f"must be one of {', '.join(choices)}; got {got}")

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


@dataclass(frozen=True, kw_only=True)
class LorenzDataConfig:
    t_transient: float = _key(_float_field(exclusive_minimum=0.0), 100.0)
    t_train: float = _key(_float_field(exclusive_minimum=0.0), 400.0)
    t_val: float = _key(_float_field(exclusive_minimum=0.0), 2560.0)
    n_val_segments: int = _key(_int_field(minimum=6), 200)
    segment_len: int = _key(_int_field(minimum=2), 128)
    warmup: int = _key(_int_field(minimum=1), 8)


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
    periods: str = _key(_str_field(("auto", "standard", "split")), "auto")


@dataclass(frozen=True, kw_only=True)
class CovidModelConfig:
    methods: tuple[str, ...] = _key(_method_list(COVID_METHODS), COVID_METHODS)
    delay: int = _key(_int_field(minimum=1), 5)
    epochs: int = _key(_int_field(minimum=1), 200)
    learning_rate: float = _key(_float_field(exclusive_minimum=0.0), 1e-5)
    batch_size: int = _key(_int_field(minimum=1), 1)
    # null weight_decay and hidden resolve per pooler kind (_pooler_settings)
    weight_decay: float | None = _key(_opt(_float_field(minimum=0.0)), None)
    hidden: int | None = _key(_opt(_int_field(minimum=1)), None)
    n_heads: int = _key(_int_field(minimum=1), 21)


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
) -> ExperimentConfig:
    """Parse and exhaustively validate a YAML experiment config.

    Raises :class:`ConfigError` carrying *every* problem found, each message
    prefixed with the offending key path. Keyword overrides take the place of
    the file's ``output``/``threads`` before the config is parsed,
    so they are checked like the file's values and the hash reflects what
    actually ran. Relative *input* paths (the hub's data files) resolve against
    the config file's directory, so a config can ship next to its data; the
    relative ``output`` destination resolves against the working directory.
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

    overrides = {"output": output, "threads": threads}
    raw.update((key, value) for key, value in overrides.items() if value is not None)
    errors: list[str] = []
    eff = _walk(raw, _CONFIGS[experiment], "", errors)
    if errors:
        raise ConfigError(errors)

    # the hash covers the file's values plus the overrides, before the
    # resolutions below
    eff["config_sha256"] = hashlib.sha256(
        json.dumps(eff, sort_keys=True).encode()
    ).hexdigest()
    d, m = eff["data"], eff["model"]
    eff["output"] = Path(eff["output"])
    if experiment == "lorenz":
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
        n_train = None
        try:
            n_train = _dataset_layout(d.t_train, d.t_val, d.n_val_segments, d.segment_len, d.warmup)[0]
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
        # a model of delay length L trains on targets from sample L + 1 on
        # (sample 0 has no candidate forecast to take an error of), so it
        # needs L + 2 training samples
        lengths = {"linear": 1, "ffnn": m.ffnn_delay}
        longest = max(lengths.get(method, max(m.delays)) for method in m.methods)
        if n_train is not None and n_train < longest + 2:
            errors.append(
                f"data.t_train: {d.t_train} gives {n_train} training samples; the "
                f"longest delay length trained, {longest}, needs >= {longest + 2}"
            )
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


def _read_manifest(directory: Path) -> dict:
    """The manifest in ``directory``; empty where there is none that parses
    to an object."""
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except (OSError, ValueError):
        return {}
    return manifest if isinstance(manifest, dict) else {}


class _OutputStage:
    """Collects the files of one run of ``command`` under
    ``<output>/.partial`` until :meth:`commit`; used as a context manager,
    it discards them if the run raises. An output directory whose manifest
    another command wrote is refused before anything is written: a run
    directory holds the files of one run."""

    def __init__(self, output_dir: Path, command: str):
        previous = _read_manifest(output_dir).get("command", command)
        if previous != command:
            raise RuntimeError(
                f"output directory {output_dir} holds the outputs of a {previous} run; "
                f"{command} writes only into its own runs' directories"
            )
        self.command = command
        self.final = output_dir
        self.partial = output_dir / ".partial"
        self.final.mkdir(parents=True, exist_ok=True)
        if self.partial.exists():
            shutil.rmtree(self.partial)
        self.partial.mkdir()

    def path(self, name: str) -> Path:
        return self.partial / name

    def file_hashes(self) -> dict[str, str]:
        return {p.name: _sha256(p) for p in sorted(self.partial.iterdir())}

    def commit(self, inputs: Sequence[Path]) -> None:
        """Move the staged files into place, ``manifest.json`` last, and
        delete the files that the previous run listed in its manifest and
        this run did not write. A file no manifest lists, and any of the
        ``inputs`` this run read, is never touched.

        The old manifest goes first, so a crash part-way leaves a directory
        without one rather than a manifest next to another run's files."""
        staged = sorted(self.partial.iterdir())
        stale = self._previous_outputs() - {p.name for p in staged}
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

    def _previous_outputs(self) -> set[str]:
        """File names listed by the manifest already in the output directory."""
        outputs = _read_manifest(self.final).get("outputs")
        if not isinstance(outputs, dict):
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


def _sha256(path: Path) -> str:
    """The file's SHA-256, read in 1 MiB chunks rather than as one copy."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _finish(stage: _OutputStage, cfg: ExperimentConfig, started: float, extra: dict) -> Path:
    manifest = {
        "command": stage.command,
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "threads": cfg.threads,
        "config_sha256": cfg.config_sha256,
        "package_version": __version__,
        "outputs": stage.file_hashes(),
        "wall_clock_seconds": round(time.perf_counter() - started, 3),
        **extra,
    }
    # hashed here with the outputs, not before the run: a 1 MiB read ahead of
    # training moves the allocator's mmap threshold and raises peak memory
    inputs = _input_paths(cfg)
    if inputs:
        manifest["inputs"] = {key: _sha256(p) for key, p in inputs.items()}
    stage.path("manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    stage.commit(list(inputs.values()))
    return cfg.output


def _input_paths(cfg: ExperimentConfig) -> dict[str, Path]:
    """The hub data files a run reads, by config key; a rerun's cleanup
    never deletes them. A Lorenz run generates its data and reads none."""
    d = cfg.data
    if isinstance(d, LorenzDataConfig):
        return {}
    return {key: p for key, p in (("forecasts", d.forecasts), ("truth", d.truth)) if p is not None}


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


# this process's memory map on Linux: one line per mapped region, ending in
# the path of the file mapped there
_SELF_MAPS = Path("/proc/self/maps")


def _loaded_openblas() -> list[Path]:
    """The OpenBLAS libraries this process has loaded, read from its memory
    map; empty where there is no memory map to read."""
    try:
        maps = _SELF_MAPS.read_text()
    except OSError:
        return []
    # a region that maps no file ends in its inode field, 0; only the few
    # lines that name OpenBLAS somewhere are parsed
    mapped = {Path(line.split(maxsplit=5)[-1]) for line in maps.splitlines() if "openblas" in line}
    return sorted(p for p in mapped if "openblas" in p.name)


def _openblas_thread_controls() -> list[tuple[str, Callable[[], int], Callable[[int], None]]]:
    """``(file name, get, set)`` of the thread-count calls of each OpenBLAS
    that this process has loaded; empty where it has loaded none."""
    controls = []
    for lib in _loaded_openblas():
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
                controls.append((lib.name, get, set_))
                break
    return controls


def _blas_pinned() -> list[str]:
    """The libraries :func:`_one_blas_thread` pins, for the manifest: an
    empty list says that the jobs ran with BLAS as the environment set it."""
    return [name for name, _, _ in _openblas_thread_controls()]


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread inside the block, then restore its thread
    count; where this process has loaded no OpenBLAS, BLAS is left as it is.

    Every job runs inside this, in a worker or in this process. The bits of
    some hub kernels depend on OpenBLAS's thread count, so a job's results
    then depend neither on the worker count nor on the environment's BLAS
    settings; and the workers already fill the cores, so more BLAS threads
    would only oversubscribe them.
    """
    restore = [(set_, get()) for _, get, set_ in _openblas_thread_controls()]
    for set_, _ in restore:
        set_(1)
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
    pool in a forked child. The first job that raises does so here as soon
    as it fails, after the workers still running are terminated; a worker
    that dies raises ``BrokenProcessPool``.
    """
    workers = _worker_count(threads, len(jobs))
    if workers <= 1:
        with _one_blas_thread():
            return [fn(shared, job) for job in jobs]
    # imported here: they would add to the startup of every command
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    earlier = set(multiprocessing.active_children())
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(shared,),
    ) as pool:
        futures = [pool.submit(_call_in_worker, fn, job) for job in jobs]
        try:
            for future in as_completed(futures):
                future.result()
        except BaseException:
            # the pool's shutdown would wait for the jobs still running
            for worker in set(multiprocessing.active_children()) - earlier:
                worker.terminate()
            raise
        return [future.result() for future in futures]


# ---------------------------------------------------------------------------
# Lorenz experiment


@dataclass(frozen=True)
class _LorenzInputs:
    """What every (trained method, l) job of one ``lorenz-run`` reads."""

    model: LorenzModelConfig
    seed: int
    dataset: LorenzDataset
    cand_train: np.ndarray  # candidate forecasts along the training run
    truths: np.ndarray      # (segments, segment_len, 3)
    seg_t0: np.ndarray      # model time of each segment's first step
    stage: Path             # the staging directory the job writes its CSVs into


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


def _lorenz_job(inputs: _LorenzInputs, job) -> tuple[list, list, list]:
    """Train one (method, l) model, roll out every method scored with it in
    one closed-loop call and return its loss and valid-time rows and each
    scored method's closed-loop work. The ``additive`` job at
    ``weights_delay`` writes ``attention_weights.csv`` (and, when asked,
    ``forecasts.csv``) into the stage itself, one segment block at a time.

    Every row stops once its valid time is decided, except in the tile whose
    forecasts are written out, which runs the whole horizon."""
    trained, length, depth, scored = job
    m = inputs.model
    model, curve = _train_lorenz_model(inputs, trained, length)
    loss_rows = [[trained, str(length), str(e), _fmt(v)] for e, v in enumerate(curve)]

    val = inputs.dataset.validation
    histories = gather_histories(val.states, inputs.dataset.segment_starts, depth)
    # the additive pooler's tile at weights_delay, scored as "additive"
    written = ("additive", "additive") in scored and length == m.weights_delay
    results = closed_loop_forecast_batch(
        model, histories, inputs.dataset.segment_len, variants=[v for _, v in scored],
        truths=inputs.truths, full_horizon=["additive"] if written else (),
    )
    vt_rows, work = [], []
    for (method, _), res in zip(scored, results):
        vts = [valid_time(pred, truth) for pred, truth in zip(res.predictions, inputs.truths)]
        vt_rows.append((method, length, vts))
        work.append((method, length, {
            "rows": len(res.steps),
            "row_steps": int(res.steps.sum()),
            "budget": res.predictions.shape[0] * res.predictions.shape[1],
            "truncated_rows": int((res.truncated_at >= 0).sum()),
        }))
        if written and method == "additive":
            _write_blocks(
                inputs.stage / "attention_weights.csv",
                _weights_text(res, inputs.seg_t0, val.dt_sample),
            )
            if m.write_forecasts:
                _write_blocks(
                    inputs.stage / "forecasts.csv",
                    _forecasts_text(res, inputs.truths, inputs.seg_t0, val.dt_sample),
                )
    click.echo(f"[lorenz] {trained} l={length} done", err=True)
    return loss_rows, vt_rows, work


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
    with _OutputStage(cfg.output, "lorenz-run") as stage:
        dataset = generate_dataset(seed=cfg.seed, **asdict(cfg.data))
        val, starts, horizon = dataset.validation, dataset.segment_starts, dataset.segment_len
        inputs = _LorenzInputs(
            model=m,
            seed=cfg.seed,
            dataset=dataset,
            cand_train=candidate_forecasts(dataset.train.states),
            truths=np.stack([val.states[s : s + horizon] for s in starts]),
            seg_t0=val.t0 + np.asarray(starts) * val.dt_sample,
            stage=stage.partial,
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
        # longest first: the job at weights_delay, whose written tile runs
        # the whole horizon, then the smaller l, the wider the attention model
        queue = sorted(attention, key=lambda job: (job[1] != m.weights_delay, job[1])) + baselines
        done = dict(zip(queue, _run_jobs(_lorenz_job, inputs, queue, cfg.threads)))

        vt_rows: list[tuple[str, int, list[float]]] = []
        loss_rows: list[list[str]] = []
        closed_loop: dict[str, dict[str, dict]] = {}
        for job in attention + baselines:
            loss, vts, work = done[job]
            loss_rows += loss
            vt_rows += vts
            for method, length, record in work:
                closed_loop.setdefault(method, {})[str(length)] = record

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
        extra = {"closed_loop": closed_loop, "blas_pinned": _blas_pinned(), "kernels": kernel_path()}
        return _finish(stage, cfg, started, extra=extra)


def _write_blocks(path: Path, blocks: Iterator[str]) -> None:
    """Write text blocks to ``path`` as they are made."""
    with open(path, "w", newline="") as fh:
        fh.writelines(blocks)


def _segment_blocks(header: str, line: str, seg_t0, dt, steps_by_segment) -> Iterator[str]:
    """A CSV as text blocks, yielded one at a time: ``header``, then one
    block per segment holding ``line.format(f"{segment_id},{step},{t}",
    *fields)`` for each step's ``fields`` in that segment's entry of
    ``steps_by_segment``.

    The fields are integers and ``%.17g`` floats (``nan`` and ``inf``
    included), none of which ``csv.writer`` would quote, so the blocks hold
    the bytes it writes; each block is built by one join, without a list
    per row.
    """
    yield header
    for seg, steps in enumerate(steps_by_segment):
        t0 = seg_t0[seg]
        yield "".join(
            line.format(f"{seg},{step},{_fmt(t0 + step * dt)}", *fields)
            for step, fields in enumerate(steps)
        )


def _weights_text(res, seg_t0, dt) -> Iterator[str]:
    """``attention_weights.csv``: one row per (segment, step, candidate) up
    to each segment's truncation."""
    horizon = res.weights.shape[1]
    line = "".join(
        f"{{0}},{_fmt(rho)},{{{i}:.17g}}\n" for i, rho in enumerate(CANDIDATE_RHOS, 1)
    )
    stops = [horizon if stop < 0 else stop for stop in res.truncated_at]
    steps = (w[:stop].tolist() for w, stop in zip(res.weights, stops))
    return _segment_blocks("segment_id,step,t,rho_m,weight\n", line, seg_t0, dt, steps)


def _forecasts_text(res, truths, seg_t0, dt) -> Iterator[str]:
    """``forecasts.csv``: one row per (segment, step) over the whole horizon,
    the predictions ``nan`` from a segment's truncation on."""
    header = "segment_id,step,t,yhat1,yhat2,yhat3,true1,true2,true3\n"
    line = "{0}" + "".join(f",{{{i}:.17g}}" for i in range(1, 7)) + "\n"
    steps = (np.hstack([p, t]).tolist() for p, t in zip(res.predictions, truths))
    return _segment_blocks(header, line, seg_t0, dt, steps)


# ---------------------------------------------------------------------------
# COVID experiment


def _covid_tables(cfg: ExperimentConfig, stage: _OutputStage):
    """Ingest the configured hub CSVs; synthetic data is generated and its
    two CSVs staged as outputs first, so it is read like real data."""
    d = cfg.data
    if d.synthetic is not None:
        forecasts, truth = stage.path("forecasts.csv"), stage.path("truth.csv")
        covid.synthesize_hub(**asdict(d.synthetic)).write_csvs(forecasts, truth)
        return covid.ingest(forecasts, truth)
    for p in (d.forecasts, d.truth):
        if not p.exists():
            raise RuntimeError(f"data file {p} does not exist")
    return covid.ingest(d.forecasts, d.truth)


def _covid_periods(cfg: ExperimentConfig, samples) -> tuple[covid.ValidationPeriod, ...]:
    """The configured validation periods; each must hold a scored week."""
    if cfg.data.periods == "standard":
        periods = covid.DEFAULT_VALIDATION_PERIODS
    else:
        periods = covid.split_into_periods(samples.weeks, 4, skip=samples.delay)
    for period in periods:
        if not samples.period_mask(period).any():
            raise ValueError(
                f"validation period {period.start}..{period.end} holds no scored week "
                f"of the data ({samples.weeks[samples.delay]}..{samples.weeks[-1]})"
            )
    return periods


def _pooler_settings(
    model: CovidModelConfig, seed: int, kind: str
) -> tuple[TrainConfig, int | None, int]:
    """The training config, hidden size and head count ``kind`` trains at:
    the model section's values, a null ``hidden`` or ``weight_decay``
    resolved to the kind's full-scale value (``covid._KIND_DEFAULTS``)."""
    default_hidden, default_decay = covid._KIND_DEFAULTS[kind]
    config = TrainConfig(
        epochs=model.epochs,
        learning_rate=model.learning_rate,
        batch_size=model.batch_size,
        weight_decay=default_decay if model.weight_decay is None else model.weight_decay,
        seed=seed,
    )
    return config, default_hidden if model.hidden is None else model.hidden, model.n_heads


def _covid_job(inputs, job) -> tuple[dict, covid.PeriodScores]:
    """Train one kind of pooler with one period held out and score it there;
    return the training record and the period's scores."""
    samples, periods, model, seed = inputs
    pi, kind = job
    config, hidden, n_heads = _pooler_settings(model, seed, kind)
    result = covid.train_pooler(
        kind, samples, periods[pi], config=config, hidden=hidden, n_heads=n_heads
    )
    scores = covid.evaluate_period(result.pooler, samples, periods[pi])
    info = {
        "first_train_wis": float(result.curve[0]) if len(result.curve) else None,
        "final_train_wis": float(result.curve[-1]) if len(result.curve) else None,
    }
    click.echo(f"[covid] trained {kind} holding out period {pi}", err=True)
    return info, scores


def run_covid_experiment(cfg: ExperimentConfig) -> Path:
    """Leave-one-period-out pooling run over hub-format (or synthetic) data.

    For every validation period each trained method fits on the complement
    and is scored inside the period; the ``uniform`` and ``best_single``
    baselines need no training (``best_single`` picks its candidate per
    period by hindsight mean WIS — an oracle reference, not a forecast
    method). Every method is scored by ``covid.evaluate_period``. Each
    (period, trained kind) is one job; up to ``threads`` jobs run at once.
    A period without a scored week fails the run before any job starts.
    """
    started = time.perf_counter()
    m = cfg.model
    with _OutputStage(cfg.output, "covid-run") as stage:
        table, truth, report = _covid_tables(cfg, stage)
        full, log = covid.impute_missing(table)
        _write_csv(
            stage.path("imputation_log.csv"),
            ["model", "location", "week", "rule"],
            ([e.model_id, e.location, e.week.isoformat(), e.rule] for e in log),
        )
        samples = covid.assemble_samples(truth, full, delay=m.delay)
        periods = _covid_periods(cfg, samples)

        # longest first: the multi-head pooler, then the single head, then linear
        kinds = [k for k in ("multi_head", "additive", "linear") if k in m.methods]
        jobs = [(pi, kind) for kind in kinds for pi in range(len(periods))]
        done = dict(zip(jobs, _run_jobs(_covid_job, (samples, periods, m, cfg.seed), jobs, cfg.threads)))
        training_info = {f"period{pi}/{kind}": info for (pi, kind), (info, _) in done.items()}
        scores = {job: ev for job, (_, ev) in done.items()}

        best_single_ids: dict[str, str] = {}
        for pi, period in enumerate(periods):
            for kind in (k for k in covid.BASELINE_KINDS if k in m.methods):
                pooler = covid.baseline_pooler(kind, samples, covid.period_rows(samples, period))
                scores[(pi, kind)] = covid.evaluate_period(pooler, samples, period)
                if kind == "best_single":
                    best_single_ids[f"period{pi}"] = samples.models[pooler.params]

        wis_rows: list[list[str]] = []
        summary_rows: list[list[str]] = []
        for method in m.methods:
            for pi, period in enumerate(periods):
                ev = scores[(pi, method)]
                wis_rows += [
                    [method, s.location, s.week.isoformat(), _fmt(s.wis)] for s in ev.scores
                ]
                summary_rows.append(
                    [period.start.isoformat(), period.end.isoformat(), method, _fmt(ev.mean_wis)]
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
            "n_forecast_rows": report.forecast_rows,
            "n_truth_rows": report.truth_rows,
            "n_repaired_cells": len(report.repaired_cells),
            "n_dropped_level_rows": report.dropped_level_rows,
            "ingest_warnings": list(report.warnings),
            "blas_pinned": _blas_pinned(),
            "kernels": kernel_path(),
            "training": training_info,
        }
        if best_single_ids:
            extra["best_single_candidates"] = best_single_ids
        return _finish(stage, cfg, started, extra=extra)


# ---------------------------------------------------------------------------
# command-line interface


def _config_options(fn):
    for opt in (
        click.option("--config", "config_path", required=True, type=click.Path(), help="YAML experiment config."),
        click.option("--output", default=None, help="Override the config's output directory."),
        click.option("--threads", default=None, type=int, help="Worker processes for the independent training jobs."),
    ):
        fn = opt(fn)
    return fn


def _load_or_exit(config_path, experiment=None, **overrides) -> ExperimentConfig:
    """The validated config, or exit 1 after printing every error; a config
    of another ``experiment`` than the command runs is an error too."""
    try:
        cfg = validate_config(config_path, **overrides)
    except ConfigError as exc:
        for msg in exc.errors:
            click.echo(f"config error: {msg}", err=True)
        sys.exit(1)
    if experiment is not None and cfg.experiment != experiment:
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


@main.command("lorenz-run")
@_config_options
def lorenz_run_cmd(config_path, **overrides):
    """Train poolers and score closed-loop valid times."""
    cfg = _load_or_exit(config_path, "lorenz", **overrides)
    _execute(run_lorenz_experiment, cfg)


@main.command("covid-run")
@_config_options
def covid_run_cmd(config_path, **overrides):
    """Run the leave-one-period-out quantile pooling experiment."""
    cfg = _load_or_exit(config_path, "covid", **overrides)
    _execute(run_covid_experiment, cfg)


@main.command("validate")
@click.option("--config", "config_path", required=True, type=click.Path())
def validate_cmd(config_path):
    """Check a config file and report every problem found."""
    cfg = _load_or_exit(config_path)
    click.echo(f"configuration OK: {cfg.experiment} experiment, seed {cfg.seed}")
    click.echo(f"output directory: {cfg.output}")
    click.echo(f"config hash: {cfg.config_sha256}")


@main.command("version")
def version_cmd():
    """Print the package version."""
    click.echo(f"attnpool {__version__}")


if __name__ == "__main__":
    main()
