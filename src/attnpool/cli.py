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
import hashlib
import json
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import date
from difflib import get_close_matches
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
    DT_SAMPLE,
    LorenzDataset,
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
# A schema is a dict of key -> _Field (leaf) or _Section (nested mapping).
# Validation collects *all* errors, each tagged with its dotted key path.

_MISSING = object()


class _Bad(Exception):
    pass


@dataclass(frozen=True)
class _Field:
    parse: object               # callable (value) -> parsed, raising _Bad
    default: object = _MISSING  # _MISSING means the key is required


@dataclass(frozen=True)
class _Section:
    schema: dict
    optional: bool = False      # absent/null -> None instead of defaults


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


_LORENZ_SCHEMA = {
    "experiment": _Field(_str_field(("lorenz", "covid"))),
    "seed": _Field(_int_field(minimum=0), default=0),
    "output": _Field(_str_field()),
    "threads": _Field(_int_field(minimum=1), default=1),
    "data": _Section(
        {
            "t_transient": _Field(_float_field(exclusive_minimum=0.0), default=100.0),
            "t_train": _Field(_float_field(exclusive_minimum=0.0), default=400.0),
            "t_val": _Field(_float_field(exclusive_minimum=0.0), default=2560.0),
            "n_val_segments": _Field(_int_field(minimum=6), default=200),
            "segment_len": _Field(_int_field(minimum=2), default=128),
            "warmup": _Field(_int_field(minimum=1), default=8),
            "cache": _Field(_opt(_str_field()), default=None),
        }
    ),
    "model": _Section(
        {
            "methods": _Field(_method_list(LORENZ_METHODS), default=LORENZ_METHODS),
            "delays": _Field(_int_list(minimum=1), default=(1, 2, 3, 4, 5, 6)),
            "hidden": _Field(_opt(_int_field(minimum=1)), default=None),
            "epochs": _Field(_int_field(minimum=1), default=500),
            "learning_rate": _Field(_float_field(exclusive_minimum=0.0), default=1e-3),
            "weight_decay": _Field(_float_field(minimum=0.0), default=0.0),
            "batch_size": _Field(_int_field(minimum=1), default=128),
            "ffnn_delay": _Field(_int_field(minimum=1), default=5),
            "ffnn_hidden": _Field(_opt(_int_field(minimum=1)), default=None),
            "ffnn_epochs": _Field(_int_field(minimum=1), default=800),
            "weights_delay": _Field(_opt(_int_field(minimum=1)), default=None),
            "write_forecasts": _Field(_bool_field(), default=False),
        }
    ),
}

_COVID_SCHEMA = {
    "experiment": _Field(_str_field(("lorenz", "covid"))),
    "seed": _Field(_int_field(minimum=0), default=0),
    "output": _Field(_str_field()),
    "threads": _Field(_int_field(minimum=1), default=1),
    "data": _Section(
        {
            "forecasts": _Field(_opt(_str_field()), default=None),
            "truth": _Field(_opt(_str_field()), default=None),
            "synthetic": _Section(
                {
                    "seed": _Field(_opt(_int_field(minimum=0)), default=None),
                    "n_locations": _Field(_int_field(minimum=5), default=8),
                    "n_weeks": _Field(_int_field(minimum=24), default=120),
                    "n_models": _Field(_int_field(minimum=6, maximum=9), default=9),
                },
                optional=True,
            ),
            "periods": _Field(_periods_field(), default="auto"),
        }
    ),
    "model": _Section(
        {
            "methods": _Field(_method_list(COVID_METHODS), default=COVID_METHODS),
            "delay": _Field(_int_field(minimum=1), default=5),
            "epochs": _Field(_int_field(minimum=1), default=200),
            "learning_rate": _Field(_float_field(exclusive_minimum=0.0), default=1e-5),
            "batch_size": _Field(_int_field(minimum=1), default=1),
            "weight_decay": _Field(_opt(_float_field(minimum=0.0)), default=None),
            "hidden": _Field(_opt(_int_field(minimum=1)), default=None),
            "n_heads": _Field(_int_field(minimum=1), default=21),
            "scale_per_location": _Field(_bool_field(), default=False),
        }
    ),
}


def _walk(value, schema: dict, path: str, errors: list[str]) -> dict:
    prefix = f"{path}." if path else ""
    if value is None:
        value = {}
    if not isinstance(value, dict):
        errors.append(f"{path or 'config'}: expected a mapping, got {value!r}")
        value = {}
    for key in value:
        if key not in schema:
            msg = f"{prefix}{key}: unknown key"
            close = get_close_matches(str(key), list(schema), n=1)
            if close:
                msg += f" (did you mean {close[0]!r}?)"
            errors.append(msg)
    out = {}
    for key, spec in schema.items():
        if isinstance(spec, _Section):
            raw = value.get(key, _MISSING)
            if spec.optional and (raw is _MISSING or raw is None):
                out[key] = None
            else:
                out[key] = _walk(
                    {} if raw is _MISSING else raw, spec.schema, f"{prefix}{key}", errors
                )
            continue
        raw = value.get(key, _MISSING)
        if raw is _MISSING:
            if spec.default is _MISSING:
                errors.append(f"{prefix}{key}: required key is missing")
                out[key] = None
            else:
                out[key] = spec.default
            continue
        try:
            out[key] = spec.parse(raw)
        except _Bad as exc:
            errors.append(f"{prefix}{key}: {exc}")
            out[key] = spec.default if spec.default is not _MISSING else None
    return out


# ---------------------------------------------------------------------------
# parsed config


@dataclass(frozen=True)
class LorenzDataConfig:
    t_transient: float
    t_train: float
    t_val: float
    n_val_segments: int
    segment_len: int
    warmup: int
    cache: Path | None


@dataclass(frozen=True)
class LorenzModelConfig:
    methods: tuple[str, ...]
    delays: tuple[int, ...]
    hidden: int | None
    epochs: int
    learning_rate: float
    weight_decay: float
    batch_size: int
    ffnn_delay: int
    ffnn_hidden: int | None
    ffnn_epochs: int
    weights_delay: int
    write_forecasts: bool


@dataclass(frozen=True)
class CovidSyntheticConfig:
    seed: int
    n_locations: int
    n_weeks: int
    n_models: int


@dataclass(frozen=True)
class CovidDataConfig:
    forecasts: Path | None
    truth: Path | None
    synthetic: CovidSyntheticConfig | None
    periods: str | tuple[covid.ValidationPeriod, ...]


@dataclass(frozen=True)
class CovidModelConfig:
    methods: tuple[str, ...]
    delay: int
    epochs: int
    learning_rate: float
    batch_size: int
    weight_decay: float | None
    hidden: int | None
    n_heads: int
    scale_per_location: bool


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    output: Path
    threads: int
    data: LorenzDataConfig | CovidDataConfig
    model: LorenzModelConfig | CovidModelConfig
    config_sha256: str
    normalized: dict = field(repr=False)


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
    schema = _LORENZ_SCHEMA if experiment == "lorenz" else _COVID_SCHEMA
    eff = _walk(raw, schema, "", errors)
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

    if not errors:
        errors.extend(_cross_checks(experiment, eff))
    if errors:
        raise ConfigError(errors)

    base = path.parent
    out_path = Path(eff["output"])

    if experiment == "lorenz":
        d, m = eff["data"], dict(eff["model"])
        if m["weights_delay"] is None:
            m["weights_delay"] = max(m["delays"])
        data_cfg = LorenzDataConfig(
            t_transient=d["t_transient"],
            t_train=d["t_train"],
            t_val=d["t_val"],
            n_val_segments=d["n_val_segments"],
            segment_len=d["segment_len"],
            warmup=d["warmup"],
            cache=_resolve(base, d["cache"]),
        )
        model_cfg = LorenzModelConfig(**m)
    else:
        d, m = eff["data"], eff["model"]
        syn = d["synthetic"]
        if syn is not None:
            syn = CovidSyntheticConfig(
                seed=eff["seed"] if syn["seed"] is None else syn["seed"],
                n_locations=syn["n_locations"],
                n_weeks=syn["n_weeks"],
                n_models=syn["n_models"],
            )
        periods = d["periods"]
        if periods == "auto":
            periods = "split" if syn is not None else "standard"
        data_cfg = CovidDataConfig(
            forecasts=_resolve(base, d["forecasts"]),
            truth=_resolve(base, d["truth"]),
            synthetic=syn,
            periods=periods,
        )
        model_cfg = CovidModelConfig(**m)

    normalized = _jsonable(eff)
    digest = hashlib.sha256(
        json.dumps(normalized, sort_keys=True).encode()
    ).hexdigest()
    return ExperimentConfig(
        experiment=experiment,
        seed=eff["seed"],
        output=out_path,
        threads=eff["threads"],
        data=data_cfg,
        model=model_cfg,
        config_sha256=digest,
        normalized=normalized,
    )


def _cross_checks(experiment: str, eff: dict) -> list[str]:
    errors = []
    if experiment == "lorenz":
        d, m = eff["data"], eff["model"]
        n_val = round(d["t_val"] / DT_SAMPLE)
        if n_val % d["n_val_segments"] != 0:
            errors.append(
                f"data.n_val_segments: {n_val} validation samples do not split "
                f"evenly into {d['n_val_segments']} segments"
            )
        elif d["segment_len"] > n_val // d["n_val_segments"]:
            errors.append(
                f"data.segment_len: {d['segment_len']} exceeds the segment "
                f"spacing {n_val // d['n_val_segments']}"
            )
        wants_attention = any(v in m["methods"] for v in VARIANTS)
        if wants_attention and m["weights_delay"] is not None:
            if m["weights_delay"] not in m["delays"]:
                errors.append(
                    f"model.weights_delay: {m['weights_delay']} is not in "
                    f"model.delays {list(m['delays'])}"
                )
    else:
        d = eff["data"]
        has_paths = d["forecasts"] is not None or d["truth"] is not None
        if d["synthetic"] is None:
            if d["forecasts"] is None or d["truth"] is None:
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
    """Collects files under ``<output>/.partial`` until :meth:`commit`."""

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
        """Move the staged files into place, then delete the files that the
        previous run of the same ``command`` listed in its manifest and this
        run did not write. A file no such manifest lists, and any of the
        ``inputs`` this run read, is never touched."""
        written = sorted(self.partial.iterdir())
        stale = self._previous_outputs(command) - {p.name for p in written}
        keep = {p.resolve() for p in inputs}
        for p in written:
            p.replace(self.final / p.name)
        self.partial.rmdir()
        for name in sorted(stale):
            path = self.final / name
            if path.is_file() and path.resolve() not in keep:
                path.unlink()

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

    def abort(self) -> None:
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
# Lorenz experiment


def _load_cached_dataset(cfg: ExperimentConfig) -> LorenzDataset:
    d = cfg.data
    train_csv = d.cache / "train.csv"
    val_csv = d.cache / "validation.csv"
    for p in (train_csv, val_csv):
        if not p.exists():
            raise RuntimeError(
                f"dataset cache {d.cache} is missing {p.name}; run lorenz-data first"
            )
    train = load_trajectory_csv(train_csv)
    validation = load_trajectory_csv(val_csv)
    n_train = round(d.t_train / DT_SAMPLE)
    n_val = round(d.t_val / DT_SAMPLE)
    if len(train) != n_train or len(validation) != d.warmup + n_val:
        raise RuntimeError(
            f"cached dataset shape mismatch: train {len(train)} (config {n_train}), "
            f"validation {len(validation)} (config {d.warmup + n_val})"
        )
    spacing = n_val // d.n_val_segments
    starts = [d.warmup + k * spacing for k in range(d.n_val_segments)]
    return LorenzDataset(
        train=train,
        validation=validation,
        segment_starts=starts,
        segment_len=d.segment_len,
        warmup=d.warmup,
    )


def _lorenz_dataset(cfg: ExperimentConfig) -> LorenzDataset:
    d = cfg.data
    if d.cache is not None:
        return _load_cached_dataset(cfg)
    return generate_dataset(
        seed=cfg.seed,
        t_transient=d.t_transient,
        t_train=d.t_train,
        t_val=d.t_val,
        n_val_segments=d.n_val_segments,
        segment_len=d.segment_len,
        warmup=d.warmup,
    )


def run_lorenz_experiment(cfg: ExperimentConfig) -> Path:
    """Train the requested methods, score closed-loop valid times, write CSVs.

    The three attention variants share one trained model per delay length
    (they differ only at forecast time), so ``loss_curve.csv`` carries a
    single ``additive`` row set per delay. The linear pooler consumes only
    the current candidate forecasts (recorded as l=1) and the direct net
    runs at its own configured delay; both are trained once, not per delay.
    """
    started = time.perf_counter()
    m = cfg.model
    stage = _OutputStage(cfg.output)
    try:
        dataset = _lorenz_dataset(cfg)
        train_states = dataset.train.states
        val = dataset.validation
        starts = dataset.segment_starts
        horizon = dataset.segment_len
        truths = np.stack([val.states[s : s + horizon] for s in starts])
        seg_t0 = val.t0 + np.asarray(starts) * val.dt_sample
        cand_train = candidate_forecasts(train_states)

        base_train = dict(
            learning_rate=m.learning_rate,
            batch_size=m.batch_size,
            weight_decay=m.weight_decay,
            seed=cfg.seed,
        )
        vt_rows: list[tuple[str, int, list[float]]] = []
        loss_rows: list[list[str]] = []
        weight_rows: list[list[str]] = []
        forecast_rows: list[list[str]] = []

        def train(method: str, length: int):
            data = assemble_open_loop(train_states, cand_train, length)
            if method == "additive":
                return train_attention(
                    data, length, hidden=m.hidden,
                    config=TrainConfig(epochs=m.epochs, **base_train),
                )
            if method == "linear":
                return train_linear(
                    data.values.reshape(len(data.values), -1),
                    data.targets,
                    TrainConfig(epochs=m.epochs, **base_train),
                )
            return train_ffnn(
                data.queries, data.targets, length, hidden=m.ffnn_hidden,
                config=TrainConfig(epochs=m.ffnn_epochs, **base_train),
            )

        # (trained method, l, history depth, {scored method: variant}); the
        # attention variants share one model per delay length
        att_variants = {v: v for v in m.methods if v in VARIANTS}
        jobs = [("additive", l, l + 1, att_variants) for l in m.delays if att_variants]
        jobs += [
            (method, length, length, {method: "additive"})
            for method, length in (("linear", 1), ("ffnn", m.ffnn_delay))
            if method in m.methods
        ]
        for trained, length, depth, scored in jobs:
            model, curve = train(trained, length)
            loss_rows += [
                [trained, str(length), str(e), _fmt(v)] for e, v in enumerate(curve)
            ]
            histories = gather_histories(val.states, starts, depth)
            for method, variant in scored.items():
                res = closed_loop_forecast_batch(model, histories, horizon, variant=variant)
                vts = [
                    valid_time(res.predictions[b], truths[b])
                    for b in range(len(starts))
                ]
                vt_rows.append((method, length, vts))
                if method == "additive" and length == m.weights_delay:
                    weight_rows = _weight_rows(res, seg_t0, val.dt_sample)
                    if m.write_forecasts:
                        forecast_rows = _forecast_rows(res, truths, seg_t0, val.dt_sample)
            click.echo(f"[lorenz] {trained} l={length} done", err=True)

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
    except BaseException:
        stage.abort()
        raise


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
    stage = _OutputStage(cfg.output)
    try:
        dataset = generate_dataset(
            seed=cfg.seed,
            t_transient=cfg.data.t_transient,
            t_train=cfg.data.t_train,
            t_val=cfg.data.t_val,
            n_val_segments=cfg.data.n_val_segments,
            segment_len=cfg.data.segment_len,
            warmup=cfg.data.warmup,
        )
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
    except BaseException:
        stage.abort()
        raise


# ---------------------------------------------------------------------------
# COVID experiment


def _covid_tables(cfg: ExperimentConfig, stage: _OutputStage):
    d = cfg.data
    if d.synthetic is not None:
        syn = d.synthetic
        hub = covid.synthesize_hub(
            seed=syn.seed,
            n_locations=syn.n_locations,
            n_weeks=syn.n_weeks,
            n_models=syn.n_models,
        )
        hub.write_csvs(stage.path("forecasts.csv"), stage.path("truth.csv"))
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


def run_covid_experiment(cfg: ExperimentConfig) -> Path:
    """Leave-one-period-out pooling run over hub-format (or synthetic) data.

    For every validation period each trained method fits on the complement
    and is scored inside the period; the ``uniform`` and ``best_single``
    baselines need no training (``best_single`` picks its candidate per
    period by hindsight mean WIS — an oracle reference, not a forecast
    method). Evaluations are fanned out across ``threads``.
    """
    started = time.perf_counter()
    m = cfg.model
    stage = _OutputStage(cfg.output)
    try:
        table, truth, report = _covid_tables(cfg, stage)
        full, log = covid.impute_missing(table)
        _write_csv(
            stage.path("imputation_log.csv"),
            ["model", "location", "week", "rule"],
            ([e.model_id, e.location, e.week.isoformat(), e.rule] for e in log),
        )
        samples = covid.assemble_samples(truth, full, delay=m.delay)
        periods = _covid_periods(cfg, samples)

        trained_kinds = [k for k in m.methods if k in covid.POOLER_KINDS]
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

        poolers: dict[tuple[int, str], covid.QuantilePooler] = {}
        training_info: dict[str, dict] = {}
        for pi, period in enumerate(periods):
            for kind in trained_kinds:
                result = covid.train_pooler(kind, samples, holdout=period, config=train_cfg)
                poolers[(pi, kind)] = result.pooler
                training_info[f"period{pi}/{kind}"] = {
                    "first_train_wis": float(result.curve[0]) if len(result.curve) else None,
                    "final_train_wis": float(result.curve[-1]) if len(result.curve) else None,
                    "sort_repairs": result.sort_repairs,
                }
                click.echo(f"[covid] trained {kind} holding out period {pi}", err=True)

        def score(pi_kind):
            pi, kind = pi_kind
            return covid.evaluate_period(poolers[(pi, kind)], samples, periods[pi])

        jobs = [(pi, kind) for pi in range(len(periods)) for kind in trained_kinds]
        if cfg.threads > 1 and jobs:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                scored = dict(zip(jobs, pool.map(score, jobs)))
        else:
            scored = {job: score(job) for job in jobs}

        levels = np.asarray(covid.QUANTILE_LEVELS)
        best_single_ids: dict[str, str] = {}
        wis_rows: list[list[str]] = []
        summary_rows: list[list[str]] = []
        for method in m.methods:
            for pi, period in enumerate(periods):
                rows = covid.period_rows(samples, period)
                if method in covid.POOLER_KINDS:
                    ev = scored[(pi, method)]
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
    except BaseException:
        stage.abort()
        raise


def write_synthetic_hub(cfg: ExperimentConfig) -> Path:
    """Generate the synthetic hub CSVs plus a listing of the injected gaps."""
    started = time.perf_counter()
    if cfg.data.synthetic is None:
        raise RuntimeError("covid-synth needs a data.synthetic section in the config")
    stage = _OutputStage(cfg.output)
    try:
        syn = cfg.data.synthetic
        hub = covid.synthesize_hub(
            seed=syn.seed,
            n_locations=syn.n_locations,
            n_weeks=syn.n_weeks,
            n_models=syn.n_models,
        )
        hub.write_csvs(stage.path("forecasts.csv"), stage.path("truth.csv"))
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
    except BaseException:
        stage.abort()
        raise


# ---------------------------------------------------------------------------
# command-line interface


def _config_options(fn):
    for opt in (
        click.option("--config", "config_path", required=True, type=click.Path(), help="YAML experiment config."),
        click.option("--output", "output_override", default=None, help="Override the config's output directory."),
        click.option("--threads", "threads_override", default=None, type=int, help="Worker threads for hub period scoring (covid-run)."),
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
