"""Pooling weekly quantile forecasts from a public forecast hub.

This module covers the full path from hub-style CSV files to scored pooled
forecasts of weekly incident deaths:

  ingest            read + validate long-format forecast/truth CSVs
  impute_missing    fill gaps in the forecast record with three rules
  assemble_samples  build query/key/value arrays for the pooling models
  train_pooler      fit a pooler (additive / multi-head attention, linear)
                    by minimizing the mean weighted interval score
  evaluate_period   score one-week-ahead pooled forecasts per location/week
  synthesize_hub    generate a seeded synthetic hub data set for testing

Each candidate model contributes a 21-quantile forecast per location and
week. Attention poolers combine the M candidate quantile vectors through a
convex combination whose weights are recomputed every week from recent
evidence: a candidate's key starts with the error of its previous median
forecast, so the score network can read which models have been tracking the
truth lately. The linear pooler regresses the pooled quantiles directly on
the stacked candidate forecasts of the most recent weeks.

Training follows a leave-one-period-out discipline: samples whose target
week falls inside the held-out validation period never enter a minibatch
(asserted in the loop). All poolers minimize the same weighted interval
score used for evaluation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .attention import (
    MultiHeadParams,
    SingleHeadParams,
    init_single_head,
    multi_head_backward,
    multi_head_forward,
    single_head_backward,
    single_head_forward,
)
from .evaluation import WISConfig, wis_batch, wis_gradient_batch
from .forecasting import (
    LinearPooler,
    Standardizer,
    check_finite_loss,
    epoch_batches,
)
from .numerics import AdamState, Array, adam_step, spawn_rng

# ---------------------------------------------------------------------------
# quantile grid

# The 21 quantile levels carried per forecast: the endpoints of the ten
# scored central intervals plus the median. Input files may additionally
# carry 0.1 and 0.9; no scored interval uses those two, so they are accepted
# and dropped with a counted warning.
QUANTILE_LEVELS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
    0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.95, 0.975, 0.99,
)
TOLERATED_LEVELS: tuple[float, ...] = (0.1, 0.9)
MEDIAN_INDEX: int = QUANTILE_LEVELS.index(0.5)
N_LEVELS: int = len(QUANTILE_LEVELS)

FORECAST_HEADER = ("model", "location", "target_end_date", "quantile", "value")
TRUTH_HEADER = ("location", "week_ending", "inc_death")


def _match_level(raw: float) -> int | None:
    """Index into QUANTILE_LEVELS, -1 for a tolerated level, None otherwise."""
    for i, lv in enumerate(QUANTILE_LEVELS):
        if abs(raw - lv) < 1e-9:
            return i
    for lv in TOLERATED_LEVELS:
        if abs(raw - lv) < 1e-9:
            return -1
    return None


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class TruthTable:
    """Observed weekly incident deaths on a complete (location, week) grid.

    Weeks are ascending and exactly seven days apart; ``deaths`` is
    (n_locations, n_weeks).
    """

    locations: tuple[str, ...]
    weeks: tuple[date, ...]
    deaths: Array

    def __post_init__(self):
        object.__setattr__(self, "deaths", np.asarray(self.deaths, dtype=np.float64))
        if self.deaths.shape != (len(self.locations), len(self.weeks)):
            raise ValueError(
                f"deaths array {self.deaths.shape} does not match "
                f"{len(self.locations)} locations x {len(self.weeks)} weeks"
            )


@dataclass(frozen=True)
class ForecastTable:
    """Candidate quantile forecasts on the truth grid.

    ``values`` is (n_models, n_locations, n_weeks, 21) in ascending level
    order with NaN marking missing cells; a cell is missing as a whole (all
    21 entries NaN) or present as a whole.
    """

    models: tuple[str, ...]
    locations: tuple[str, ...]
    weeks: tuple[date, ...]
    values: Array

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        expect = (len(self.models), len(self.locations), len(self.weeks), N_LEVELS)
        if self.values.shape != expect:
            raise ValueError(f"values array {self.values.shape}, expected {expect}")
        cell_nan = np.isnan(self.values)
        partial = cell_nan.any(axis=3) & ~cell_nan.all(axis=3)
        if partial.any():
            m, l, w = (int(i[0]) for i in np.nonzero(partial))
            raise ValueError(
                f"cell ({self.models[m]}, {self.locations[l]}, {self.weeks[w]}) "
                f"is only partially filled"
            )

    def missing_mask(self) -> Array:
        """(n_models, n_locations, n_weeks) boolean mask of absent cells."""
        return np.isnan(self.values).all(axis=3)


@dataclass
class IngestReport:
    """What ingestion repaired or discarded, for the experiment log."""

    dropped_level_rows: int = 0
    repaired_cells: list[tuple[str, str, date]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _read_rows(path: str | Path, header: tuple[str, ...]):
    """Yield (row_number, fields) for data rows; validates the header.

    Row numbers are 1-based physical CSV rows, so the first data row is 2.
    An entirely empty file yields nothing.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for rownum, fields in enumerate(reader, start=1):
            if rownum == 1:
                if tuple(f.strip() for f in fields) != header:
                    raise ValueError(
                        f"{path} row 1: header {fields!r} does not match "
                        f"expected {','.join(header)!r}"
                    )
                continue
            if not fields:
                continue
            if len(fields) != len(header):
                raise ValueError(
                    f"{path} row {rownum}: expected {len(header)} fields, "
                    f"got {len(fields)}"
                )
            yield rownum, fields


def _parse_date(path, rownum, text: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise ValueError(f"{path} row {rownum}: bad date {text!r}") from None


def _parse_float(path, rownum, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path} row {rownum}: bad {what} {text!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"{path} row {rownum}: non-finite {what} {text!r}")
    return value


def ingest(
    forecast_csv: str | Path, truth_csv: str | Path
) -> tuple[ForecastTable, TruthTable, IngestReport]:
    """Read and validate hub-format forecast and truth CSV files.

    The truth file must cover a complete grid of locations x consecutive
    weeks; forecast rows must land on that grid. Rows at the two tolerated
    extra quantile levels are dropped (counted in the report). Cells whose
    21 values are not non-decreasing in level are repaired by sorting, with
    one warning per cell. Unknown levels, negative values, duplicate rows,
    and off-grid rows are hard errors naming the offending CSV row.
    """
    truth_cells: dict[tuple[str, date], float] = {}
    for rownum, fields in _read_rows(truth_csv, TRUTH_HEADER):
        loc = fields[0].strip()
        week = _parse_date(truth_csv, rownum, fields[1])
        deaths = _parse_float(truth_csv, rownum, fields[2], "inc_death")
        if deaths < 0:
            raise ValueError(
                f"{truth_csv} row {rownum}: negative incident deaths {deaths}"
            )
        if (loc, week) in truth_cells:
            raise ValueError(
                f"{truth_csv} row {rownum}: duplicate truth row for "
                f"({loc}, {week})"
            )
        truth_cells[(loc, week)] = deaths

    locations = tuple(sorted({loc for loc, _ in truth_cells}))
    weeks = tuple(sorted({week for _, week in truth_cells}))
    for a, b in zip(weeks, weeks[1:]):
        if (b - a).days != 7:
            raise ValueError(
                f"{truth_csv}: truth weeks must be consecutive Saturdays "
                f"(7 days apart); gap between {a} and {b}"
            )
    deaths = np.full((len(locations), len(weeks)), np.nan)
    loc_index = {loc: i for i, loc in enumerate(locations)}
    week_index = {week: i for i, week in enumerate(weeks)}
    for (loc, week), value in truth_cells.items():
        deaths[loc_index[loc], week_index[week]] = value
    if np.isnan(deaths).any():
        l, w = (int(i[0]) for i in np.nonzero(np.isnan(deaths)))
        raise ValueError(
            f"{truth_csv}: no truth record for ({locations[l]}, {weeks[w]})"
        )
    truth = TruthTable(locations=locations, weeks=weeks, deaths=deaths)

    report = IngestReport()
    seen: set[tuple[str, str, date, float]] = set()
    cells: dict[tuple[str, str, date], dict[int, float]] = {}
    for rownum, fields in _read_rows(forecast_csv, FORECAST_HEADER):
        model = fields[0].strip()
        loc = fields[1].strip()
        week = _parse_date(forecast_csv, rownum, fields[2])
        raw_level = _parse_float(forecast_csv, rownum, fields[3], "quantile level")
        value = _parse_float(forecast_csv, rownum, fields[4], "value")
        level_idx = _match_level(raw_level)
        if level_idx is None:
            raise ValueError(
                f"{forecast_csv} row {rownum}: quantile level {raw_level} is not "
                f"one of the 21 carried levels (tolerated extras: 0.1, 0.9)"
            )
        if value < 0:
            raise ValueError(
                f"{forecast_csv} row {rownum}: negative forecast value {value}"
            )
        if loc not in loc_index:
            raise ValueError(
                f"{forecast_csv} row {rownum}: location {loc!r} has no truth data"
            )
        if week not in week_index:
            raise ValueError(
                f"{forecast_csv} row {rownum}: week {week} is outside the truth "
                f"week range"
            )
        dup_key = (model, loc, week, round(raw_level, 6))
        if dup_key in seen:
            raise ValueError(
                f"{forecast_csv} row {rownum}: duplicate forecast row for "
                f"({model}, {loc}, {week}, quantile {raw_level})"
            )
        seen.add(dup_key)
        if level_idx == -1:
            report.dropped_level_rows += 1
            continue
        cells.setdefault((model, loc, week), {})[level_idx] = value

    models = tuple(sorted({m for m, _, _ in cells}))
    model_index = {m: i for i, m in enumerate(models)}
    values = np.full((len(models), len(locations), len(weeks), N_LEVELS), np.nan)
    for (model, loc, week), levels in sorted(cells.items()):
        if len(levels) != N_LEVELS:
            raise ValueError(
                f"{forecast_csv}: forecast cell ({model}, {loc}, {week}) has "
                f"{len(levels)} of the {N_LEVELS} required quantile levels"
            )
        vec = np.array([levels[i] for i in range(N_LEVELS)])
        if np.any(np.diff(vec) < 0):
            vec = np.sort(vec)
            report.repaired_cells.append((model, loc, week))
            report.warnings.append(
                f"sorted non-monotone quantiles for ({model}, {loc}, {week})"
            )
        values[model_index[model], loc_index[loc], week_index[week]] = vec
    if report.dropped_level_rows:
        report.warnings.append(
            f"dropped {report.dropped_level_rows} rows at unused quantile "
            f"levels 0.1/0.9"
        )
    table = ForecastTable(models=models, locations=locations, weeks=weeks, values=values)
    return table, truth, report


# ---------------------------------------------------------------------------
# imputation

IMPUTATION_RULES = ("interpolation", "ensemble_mean", "nearest_value")


@dataclass(frozen=True)
class ImputationEntry:
    model_id: str
    location: str
    week: date
    rule: str


def _missing_runs(missing: Array) -> Iterable[tuple[int, int]]:
    """Maximal runs of True as (start, stop) index pairs, stop exclusive."""
    w = 0
    n = len(missing)
    while w < n:
        if missing[w]:
            start = w
            while w < n and missing[w]:
                w += 1
            yield start, w
        else:
            w += 1


def impute_missing(
    table: ForecastTable, roster: Sequence[str] | None = None
) -> tuple[ForecastTable, list[ImputationEntry]]:
    """Fill every missing forecast cell; returns the completed table + log.

    Three rules, decided per gap of consecutive missing weeks for one
    (model, location):

      1. gaps of one or two weeks with data on both sides: per-quantile
         linear interpolation between the flanking weeks;
      2. longer gaps (and gaps touching the edge of the week range) where
         at least one other candidate has original data that week: the
         per-quantile mean of the candidates present that week;
      3. otherwise: the model's own nearest original value, past preferred
         when past and future are equally distant.

    All rules read only original (pre-imputation) data, so the result does
    not depend on the order models are processed in and a second pass is a
    no-op. ``roster`` selects and validates the models that must be present
    (default: all models in the table). Every model needs at least one
    original forecast per location.
    """
    if roster is None:
        models = table.models
    else:
        missing_models = sorted(set(roster) - set(table.models))
        if missing_models:
            raise ValueError(
                f"roster models absent from the forecast table: {missing_models}"
            )
        models = tuple(sorted(roster))
    model_rows = [table.models.index(m) for m in models]
    orig = table.values[model_rows]  # (M, L, W, Q), the only data rules read
    present = ~np.isnan(orig).all(axis=3)  # (M, L, W)
    n_weeks = len(table.weeks)

    for mi, model in enumerate(models):
        for li, loc in enumerate(table.locations):
            if not present[mi, li].any():
                raise ValueError(
                    f"model {model!r} has no forecasts at all for location "
                    f"{loc!r}; imputation needs at least one"
                )

    filled = orig.copy()
    log: list[ImputationEntry] = []
    for mi, model in enumerate(models):
        for li, loc in enumerate(table.locations):
            miss = ~present[mi, li]
            own_weeks = np.nonzero(present[mi, li])[0]
            for start, stop in _missing_runs(miss):
                flanked = start > 0 and stop < n_weeks
                if flanked and stop - start <= 2:
                    left = orig[mi, li, start - 1]
                    right = orig[mi, li, stop]
                    span = stop - start + 1
                    for w in range(start, stop):
                        frac = (w - start + 1) / span
                        filled[mi, li, w] = (1.0 - frac) * left + frac * right
                        log.append(ImputationEntry(model, loc, table.weeks[w], "interpolation"))
                    continue
                for w in range(start, stop):
                    others = present[:, li, w]
                    if others.any():
                        filled[mi, li, w] = orig[others, li, w].mean(axis=0)
                        rule = "ensemble_mean"
                    else:
                        # argmin hits the past neighbor first on a tie
                        nearest = own_weeks[np.argmin(np.abs(own_weeks - w))]
                        filled[mi, li, w] = orig[mi, li, nearest]
                        rule = "nearest_value"
                    log.append(ImputationEntry(model, loc, table.weeks[w], rule))

    assert np.all(np.isfinite(filled)), (
        "imputation left missing cells; unreachable when every model has "
        "one forecast per location"
    )
    completed = ForecastTable(
        models=models, locations=table.locations, weeks=table.weeks, values=filled
    )
    return completed, log


# ---------------------------------------------------------------------------
# sample assembly


@dataclass(frozen=True)
class HubSamples:
    """Aligned training/evaluation arrays for the pooling models.

    One row per (location, target week) with enough history. For a target
    week j and delay l, the query stacks the previous l truth values newest
    first; each candidate's key stacks l blocks of [previous median forecast
    minus previous truth, the 20 other quantile values], also newest first;
    values hold the candidates' 21-quantile forecasts for week j itself, and
    ``linear_inputs`` the same forecasts for weeks j .. j-l+1 concatenated
    model-major. ``truths`` is the observed target.
    """

    models: tuple[str, ...]
    locations: tuple[str, ...]
    weeks: tuple[date, ...]
    delay: int
    queries: Array        # (N, delay)
    keys: Array           # (N, M, 21 * delay)
    values: Array         # (N, M, 21)
    linear_inputs: Array  # (N, M * 21 * delay)
    truths: Array         # (N,)
    location_idx: Array   # (N,) into locations
    week_idx: Array       # (N,) into weeks
    skipped_weeks: tuple[date, ...]  # too little history, per location

    @property
    def n_rows(self) -> int:
        return len(self.truths)

    @property
    def n_models(self) -> int:
        return len(self.models)

    def target_week(self, row: int) -> date:
        return self.weeks[int(self.week_idx[row])]

    def period_mask(self, period: "ValidationPeriod") -> Array:
        """Boolean row mask: target week inside the period (inclusive)."""
        week_in = np.array([period.contains(w) for w in self.weeks])
        return week_in[self.week_idx]


def assemble_samples(
    truth: TruthTable, forecasts: ForecastTable, delay: int = 5
) -> HubSamples:
    """Build query/key/value arrays from completed tables.

    The first ``delay`` weeks of the grid lack history and are skipped
    (reported in ``skipped_weeks``); every later week of every location
    becomes one sample row.
    """
    if delay < 1:
        raise ValueError(f"delay must be >= 1, got {delay}")
    if truth.locations != forecasts.locations or truth.weeks != forecasts.weeks:
        raise ValueError("truth and forecast tables are on different grids")
    if np.isnan(forecasts.values).any():
        raise ValueError(
            "forecast table still has missing cells; run impute_missing first"
        )
    n_weeks = len(truth.weeks)
    if n_weeks <= delay:
        raise ValueError(
            f"need more than {delay} weeks of data, got {n_weeks}"
        )

    n_models = len(forecasts.models)
    n_locs = len(truth.locations)
    # per-week key block: median error first, then the 20 other quantiles
    other_levels = [i for i in range(N_LEVELS) if i != MEDIAN_INDEX]
    blocks = np.concatenate(
        [
            (forecasts.values[:, :, :, MEDIAN_INDEX] - truth.deaths[None, :, :])[..., None],
            forecasts.values[:, :, :, other_levels],
        ],
        axis=3,
    )  # (M, L, W, 21)

    targets = np.arange(delay, n_weeks)
    queries, keys, values, linear_inputs, truths = [], [], [], [], []
    loc_rows, week_rows = [], []
    for li in range(n_locs):
        for j in targets:
            lags = [j - t for t in range(1, delay + 1)]  # newest first
            queries.append(truth.deaths[li, lags])
            keys.append(blocks[:, li, lags].reshape(n_models, delay * N_LEVELS))
            values.append(forecasts.values[:, li, j])
            current = [j - t for t in range(delay)]  # j itself, newest first
            linear_inputs.append(forecasts.values[:, li, current].reshape(-1))
            truths.append(truth.deaths[li, j])
            loc_rows.append(li)
            week_rows.append(j)

    return HubSamples(
        models=forecasts.models,
        locations=truth.locations,
        weeks=truth.weeks,
        delay=delay,
        queries=np.array(queries),
        keys=np.array(keys),
        values=np.array(values),
        linear_inputs=np.array(linear_inputs),
        truths=np.array(truths),
        location_idx=np.array(loc_rows, dtype=np.intp),
        week_idx=np.array(week_rows, dtype=np.intp),
        skipped_weeks=truth.weeks[:delay],
    )


# ---------------------------------------------------------------------------
# validation periods


@dataclass(frozen=True)
class ValidationPeriod:
    """Inclusive range of week-ending dates held out for evaluation."""

    start: date
    end: date

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"period start {self.start} is after end {self.end}")

    def contains(self, week: date) -> bool:
        return self.start <= week <= self.end


# The four on-record evaluation windows for the real death-forecast data.
DEFAULT_VALIDATION_PERIODS: tuple[ValidationPeriod, ...] = (
    ValidationPeriod(date(2020, 8, 29), date(2021, 2, 20)),
    ValidationPeriod(date(2021, 6, 5), date(2021, 10, 30)),
    ValidationPeriod(date(2021, 12, 21), date(2022, 6, 18)),
    ValidationPeriod(date(2022, 7, 9), date(2022, 11, 5)),
)


def check_periods_disjoint(periods: Sequence[ValidationPeriod]) -> None:
    for i, a in enumerate(periods):
        for b in periods[i + 1 :]:
            if a.start <= b.end and b.start <= a.end:
                raise ValueError(f"validation periods overlap: {a} and {b}")


def split_into_periods(
    weeks: Sequence[date], n_periods: int = 4, skip: int = 0
) -> tuple[ValidationPeriod, ...]:
    """Split a week grid into contiguous, disjoint validation periods.

    ``skip`` drops leading weeks (typically the delay warm-up) so the first
    period is not short-changed by weeks that can never be scored.
    """
    usable = list(weeks[skip:])
    if len(usable) < n_periods:
        raise ValueError(
            f"cannot split {len(usable)} usable weeks into {n_periods} periods"
        )
    bounds = np.linspace(0, len(usable), n_periods + 1).astype(int)
    return tuple(
        ValidationPeriod(usable[a], usable[b - 1])
        for a, b in zip(bounds, bounds[1:])
    )


def period_rows(samples: HubSamples, period: ValidationPeriod) -> Array:
    """Sample-row indices whose target week falls inside the period."""
    return np.nonzero(samples.period_mask(period))[0]


# ---------------------------------------------------------------------------
# poolers

POOLER_KINDS = ("additive", "multi_head", "linear")

# full-scale defaults per kind: (hidden units, weight decay)
_KIND_DEFAULTS = {
    "additive": (1000, 1e-4),
    "multi_head": (100, 1e-5),
    "linear": (None, 0.0),
}


@dataclass(frozen=True)
class PoolerTrainConfig:
    """Knobs for WIS training. Defaults follow the full-scale experiment:
    a small fixed learning rate over 200 epochs, single-sample updates so
    the parameters actually move, and per-kind weight decay / hidden sizes
    when left as None."""

    epochs: int = 200
    learning_rate: float = 1e-5
    batch_size: int = 1
    weight_decay: float | None = None
    hidden: int | None = None
    n_heads: int = 21
    seed: int = 0
    scale_per_location: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {self.n_heads}")


@dataclass(frozen=True)
class QuantilePooler:
    """A trained pooling model plus the input transforms it was fit under.

    ``location_scales`` is None unless per-location scaling was enabled; it
    is aligned with ``locations`` and predictions are mapped back to raw
    death counts on the way out.
    """

    kind: str
    params: SingleHeadParams | MultiHeadParams | LinearPooler
    query_scaler: Standardizer | None
    key_scaler: Standardizer | None
    delay: int
    levels: tuple[float, ...]
    locations: tuple[str, ...] | None = None
    location_scales: Array | None = None


@dataclass(frozen=True)
class PoolerTrainResult:
    pooler: QuantilePooler
    curve: Array          # epoch-mean WIS on the training rows
    sort_repairs: int     # rows whose output needed sorting during training


def _parameter_slots(params) -> dict[str, tuple[object, str]]:
    """Name -> (owner, attribute) map covering every trainable array."""
    if isinstance(params, SingleHeadParams):
        return {n: (params, n) for n in ("w_query", "w_key", "w_score", "bias")}
    if isinstance(params, MultiHeadParams):
        slots: dict[str, tuple[object, str]] = {"w_out": (params, "w_out")}
        for i, head in enumerate(params.heads):
            for n in ("w_query", "w_key", "w_score", "bias"):
                slots[f"head{i}.{n}"] = (head, n)
        return slots
    if isinstance(params, LinearPooler):
        return {"weight": (params, "weight"), "bias": (params, "bias")}
    raise TypeError(f"no trainable slots for {type(params).__name__}")


def _uniform_pool_linear(n_models: int, delay: int) -> LinearPooler:
    """Linear pooler warm-started at the uniform mean of the current-week
    forecasts; with a small fixed learning rate the start point matters."""
    weight = np.zeros((N_LEVELS, n_models * delay * N_LEVELS))
    for q in range(N_LEVELS):
        cols = (np.arange(n_models) * delay) * N_LEVELS + q
        weight[q, cols] = 1.0 / n_models
    return LinearPooler(weight=weight, bias=np.zeros(N_LEVELS))


def _head_average_mixer(n_heads: int, dim: int) -> Array:
    """Output matrix that averages the per-head pools component-wise, so the
    multi-head model starts at a sane death-count scale."""
    w = np.zeros((dim, dim * n_heads))
    for p in range(n_heads):
        w[np.arange(dim), p * dim + np.arange(dim)] = 1.0 / n_heads
    return w


def _sort_repair(preds: Array) -> tuple[Array, Array, int]:
    """Sort each output row; returns (sorted, permutation, n rows changed)."""
    perm = np.argsort(preds, axis=1, kind="stable")
    repaired = np.take_along_axis(preds, perm, axis=1)
    n_changed = int(np.sum(np.any(np.diff(preds, axis=1) < 0, axis=1)))
    return repaired, perm, n_changed


def _location_scales(samples: HubSamples, train_rows: Array) -> Array:
    """Mean training truth per location, floored at 1 (scale divisor)."""
    scales = np.ones(len(samples.locations))
    for li in range(len(samples.locations)):
        rows = train_rows[samples.location_idx[train_rows] == li]
        if rows.size:
            scales[li] = max(1.0, float(samples.truths[rows].mean()))
    return scales


def train_pooler(
    kind: str,
    samples: HubSamples,
    holdout: ValidationPeriod | None = None,
    config: PoolerTrainConfig | None = None,
) -> PoolerTrainResult:
    """Fit one pooling model by stochastic subgradient descent on mean WIS.

    Rows whose target week falls inside ``holdout`` are excluded from every
    minibatch (asserted). Multi-head and linear outputs are sort-repaired
    inside the loss, with gradients routed back through the permutation;
    additive outputs are convex combinations of sorted candidate quantiles
    and need no repair (still counted, expected zero).
    """
    if kind not in POOLER_KINDS:
        raise ValueError(f"unknown pooler kind {kind!r}; expected one of {POOLER_KINDS}")
    cfg = config or PoolerTrainConfig()
    default_hidden, default_decay = _KIND_DEFAULTS[kind]
    hidden = cfg.hidden if cfg.hidden is not None else default_hidden
    decay = cfg.weight_decay if cfg.weight_decay is not None else default_decay

    in_holdout = (
        samples.period_mask(holdout)
        if holdout is not None
        else np.zeros(samples.n_rows, dtype=bool)
    )
    train_rows = np.nonzero(~in_holdout)[0]
    if train_rows.size == 0:
        raise ValueError("holdout period leaves no training rows")

    if cfg.scale_per_location:
        loc_scales = _location_scales(samples, train_rows)
    else:
        loc_scales = None
    row_scale = (
        loc_scales[samples.location_idx] if loc_scales is not None
        else np.ones(samples.n_rows)
    )
    values = samples.values / row_scale[:, None, None]
    truths = samples.truths / row_scale

    rng = spawn_rng(cfg.seed, f"train-pooler-{kind}")
    query_scaler = key_scaler = None
    if kind == "linear":
        inputs = samples.linear_inputs / row_scale[:, None]
        params = _uniform_pool_linear(samples.n_models, samples.delay)
    else:
        queries_raw = samples.queries / row_scale[:, None]
        keys_raw = samples.keys / row_scale[:, None, None]
        query_scaler = Standardizer.fit(queries_raw[train_rows])
        key_scaler = Standardizer.fit(keys_raw[train_rows])
        queries = query_scaler.apply(queries_raw)
        keys = key_scaler.apply(keys_raw)
        key_dim = samples.delay * N_LEVELS
        if kind == "additive":
            params = init_single_head(rng, hidden, samples.delay, key_dim)
        else:
            heads = [
                init_single_head(rng, hidden, samples.delay, key_dim)
                for _ in range(cfg.n_heads)
            ]
            params = MultiHeadParams(
                heads=heads, w_out=_head_average_mixer(cfg.n_heads, N_LEVELS)
            )

    slots = _parameter_slots(params)
    opt = {
        name: AdamState.for_param(
            getattr(obj, attr), learning_rate=cfg.learning_rate, weight_decay=decay
        )
        for name, (obj, attr) in slots.items()
    }
    levels = np.array(QUANTILE_LEVELS)
    wis_cfg = WISConfig()
    curve = np.zeros(cfg.epochs)
    repairs = 0

    for epoch in range(cfg.epochs):
        for bi, batch in enumerate(epoch_batches(rng, train_rows.size, cfg.batch_size)):
            idx = train_rows[batch]
            assert not in_holdout[idx].any(), (
                "leave-one-period-out violation: held-out rows in a minibatch"
            )
            if kind == "linear":
                x = inputs[idx]
                preds = params.predict(x)
            elif kind == "additive":
                preds, _, cache = single_head_forward(
                    params, queries[idx], keys[idx], values[idx]
                )
            else:
                preds, _, cache = multi_head_forward(
                    params, queries[idx], keys[idx], values[idx]
                )
            sorted_preds, perm, changed = _sort_repair(preds)
            repairs += changed
            scores = wis_batch(levels, sorted_preds, truths[idx], wis_cfg)
            check_finite_loss(scores, epoch, bi)
            curve[epoch] += scores.sum()
            g_sorted = wis_gradient_batch(levels, sorted_preds, truths[idx], wis_cfg)
            g_sorted /= idx.size
            g_preds = np.empty_like(g_sorted)
            np.put_along_axis(g_preds, perm, g_sorted, axis=1)
            if kind == "linear":
                grads = {
                    "weight": g_preds.T @ x,
                    "bias": g_preds.sum(axis=0),
                }
            elif kind == "additive":
                grads = single_head_backward(params, cache, g_preds).names()
            else:
                grads = multi_head_backward(params, cache, g_preds).names()
            for name, (obj, attr) in slots.items():
                setattr(obj, attr, adam_step(getattr(obj, attr), grads[name], opt[name], name))
        curve[epoch] /= train_rows.size

    pooler = QuantilePooler(
        kind=kind,
        params=params,
        query_scaler=query_scaler,
        key_scaler=key_scaler,
        delay=samples.delay,
        levels=QUANTILE_LEVELS,
        locations=samples.locations if loc_scales is not None else None,
        location_scales=loc_scales,
    )
    return PoolerTrainResult(pooler=pooler, curve=curve, sort_repairs=repairs)


# ---------------------------------------------------------------------------
# prediction + evaluation


@dataclass(frozen=True)
class QuantilePredictions:
    """Sort-repaired pooled quantiles (raw death counts) for selected rows."""

    rows: Array           # indices into the samples
    quantiles: Array      # (R, 21), non-decreasing per row
    weights: Array | None  # (R, M) additive, (R, P, M) multi-head, None linear
    sort_repairs: int


def predict_quantiles(
    pooler: QuantilePooler, samples: HubSamples, rows: Array | None = None
) -> QuantilePredictions:
    if rows is None:
        rows = np.arange(samples.n_rows)
    rows = np.asarray(rows, dtype=np.intp)
    if pooler.delay != samples.delay:
        raise ValueError(
            f"pooler was trained at delay {pooler.delay}, samples use {samples.delay}"
        )
    if pooler.location_scales is not None:
        if pooler.locations != samples.locations:
            raise ValueError(
                "per-location scales do not transfer: pooler and samples "
                "disagree on the location set"
            )
        row_scale = pooler.location_scales[samples.location_idx[rows]]
    else:
        row_scale = np.ones(rows.size)

    weights = None
    if pooler.kind == "linear":
        preds = pooler.params.predict(samples.linear_inputs[rows] / row_scale[:, None])
    else:
        queries = pooler.query_scaler.apply(samples.queries[rows] / row_scale[:, None])
        keys = pooler.key_scaler.apply(samples.keys[rows] / row_scale[:, None, None])
        values = samples.values[rows] / row_scale[:, None, None]
        if pooler.kind == "additive":
            preds, weights, _ = single_head_forward(pooler.params, queries, keys, values)
        else:
            preds, weights, _ = multi_head_forward(pooler.params, queries, keys, values)
    repaired, _, changed = _sort_repair(preds)
    return QuantilePredictions(
        rows=rows,
        quantiles=repaired * row_scale[:, None],
        weights=weights,
        sort_repairs=changed,
    )


@dataclass(frozen=True)
class WeekScore:
    location: str
    week: date
    wis: float


@dataclass(frozen=True)
class PeriodScores:
    period: ValidationPeriod
    scores: tuple[WeekScore, ...]
    mean_wis: float
    sort_repairs: int


def evaluate_period(
    pooler: QuantilePooler, samples: HubSamples, period: ValidationPeriod
) -> PeriodScores:
    """Score one-week-ahead pooled forecasts for every (location, week) whose
    target week falls inside the period."""
    rows = period_rows(samples, period)
    if rows.size == 0:
        raise ValueError(f"no scored weeks fall inside {period}")
    preds = predict_quantiles(pooler, samples, rows)
    wis = wis_batch(np.array(pooler.levels), preds.quantiles, samples.truths[rows])
    scores = tuple(
        WeekScore(
            location=samples.locations[int(samples.location_idx[r])],
            week=samples.target_week(int(r)),
            wis=float(s),
        )
        for r, s in zip(rows, wis)
    )
    return PeriodScores(
        period=period,
        scores=scores,
        mean_wis=float(wis.mean()),
        sort_repairs=preds.sort_repairs,
    )


def uniform_pool_wis(samples: HubSamples, rows: Array | None = None) -> Array:
    """Per-row WIS of the plain candidate mean (the no-training baseline)."""
    if rows is None:
        rows = np.arange(samples.n_rows)
    pooled = samples.values[rows].mean(axis=1)
    return wis_batch(np.array(QUANTILE_LEVELS), pooled, samples.truths[rows])


def candidate_mean_wis(samples: HubSamples, rows: Array | None = None) -> Array:
    """Mean WIS of each candidate model alone over the selected rows; (M,)."""
    if rows is None:
        rows = np.arange(samples.n_rows)
    levels = np.array(QUANTILE_LEVELS)
    out = np.empty(samples.n_models)
    for m in range(samples.n_models):
        out[m] = wis_batch(levels, samples.values[rows, m], samples.truths[rows]).mean()
    return out


# ---------------------------------------------------------------------------
# synthetic hub data

# Per-model forecast behavior as (lag weeks, bias factor, dispersion,
# center noise) under each of the two regimes. The first two models swap
# quality at the regime boundary; pooling has to reweight to beat them.
_MODEL_PROFILES: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...] = (
    ((0, 1.00, 0.10, 0.03), (2, 1.45, 0.38, 0.16)),
    ((2, 1.45, 0.38, 0.16), (0, 1.00, 0.10, 0.03)),
    ((1, 1.12, 0.22, 0.08), (1, 1.12, 0.22, 0.08)),
    ((0, 1.00, 0.50, 0.05), (0, 1.00, 0.50, 0.05)),
    ((0, 0.72, 0.10, 0.06), (0, 0.72, 0.10, 0.06)),
    ((3, 1.00, 0.26, 0.08), (3, 1.00, 0.26, 0.08)),
    ((0, 1.00, 0.20, 0.26), (0, 1.00, 0.20, 0.26)),
    ((1, 1.30, 0.30, 0.10), (1, 1.30, 0.30, 0.10)),
    ((0, 1.05, 0.60, 0.12), (0, 1.05, 0.60, 0.12)),
)


@dataclass(frozen=True)
class GapSpec:
    """One injected run of missing weeks and the rule expected to fill it."""

    model_id: str
    location: str
    weeks: tuple[date, ...]
    expected_rule: str


@dataclass(frozen=True)
class SyntheticHub:
    """In-memory synthetic hub data set plus its injected gaps."""

    models: tuple[str, ...]
    locations: tuple[str, ...]
    weeks: tuple[date, ...]
    truth: Array      # (L, W)
    forecasts: Array  # (M, L, W, 21), NaN at injected gaps
    gaps: tuple[GapSpec, ...]

    def write_csvs(self, forecast_path: str | Path, truth_path: str | Path) -> None:
        """Emit hub-format CSVs; a fixed seed gives byte-identical files."""
        with open(truth_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRUTH_HEADER)
            for li, loc in enumerate(self.locations):
                for wi, week in enumerate(self.weeks):
                    writer.writerow([loc, week.isoformat(), f"{self.truth[li, wi]:.1f}"])
        with open(forecast_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(FORECAST_HEADER)
            for mi, model in enumerate(self.models):
                for li, loc in enumerate(self.locations):
                    for wi, week in enumerate(self.weeks):
                        cell = self.forecasts[mi, li, wi]
                        if np.isnan(cell[0]):
                            continue
                        for qi, level in enumerate(QUANTILE_LEVELS):
                            writer.writerow(
                                [model, loc, week.isoformat(), level, f"{cell[qi]:.2f}"]
                            )


def _logistic_bump(x: Array) -> Array:
    s = 1.0 / (1.0 + np.exp(-x))
    return 4.0 * s * (1.0 - s)


def synthesize_hub(
    seed: int, n_locations: int = 8, n_weeks: int = 120, n_models: int = 9
) -> SyntheticHub:
    """Seeded synthetic weekly-deaths data with two quality regimes.

    Truth per location is a baseline plus three logistic bumps plus noise.
    Candidate forecasts distort the truth with per-model lag, bias, and
    dispersion; the models' quality switches at the halfway week. Missing
    runs are injected so that all three imputation rules fire: short flanked
    gaps (interpolation), a long gap and an unflanked boundary gap with
    other candidates present (ensemble mean), and a stretch where every
    model is absent at one location (nearest own value).
    """
    if n_locations < 5:
        raise ValueError(f"need at least 5 locations for the gap layout, got {n_locations}")
    if n_weeks < 24:
        raise ValueError(f"need at least 24 weeks for the gap layout, got {n_weeks}")
    if not 6 <= n_models <= len(_MODEL_PROFILES):
        raise ValueError(
            f"n_models must be in [6, {len(_MODEL_PROFILES)}], got {n_models}"
        )

    rng = spawn_rng(seed, "synthetic-hub")
    start = date(2023, 1, 7)  # a Saturday
    weeks = tuple(start + timedelta(weeks=k) for k in range(n_weeks))
    locations = tuple(f"loc{i:02d}" for i in range(n_locations))
    models = tuple(f"model{i:02d}" for i in range(n_models))

    t = np.arange(n_weeks, dtype=np.float64)
    truth = np.empty((n_locations, n_weeks))
    for li in range(n_locations):
        series = np.full(n_weeks, rng.uniform(6.0, 18.0))
        for lo, hi in ((0.10, 0.28), (0.42, 0.60), (0.72, 0.92)):
            center = rng.uniform(lo, hi) * n_weeks
            width = rng.uniform(2.5, 5.5)
            amp = rng.uniform(220.0, 850.0)
            series += amp * _logistic_bump((t - center) / width)
        series += rng.normal(0.0, 0.03 * (series + 4.0))
        truth[li] = np.round(np.maximum(series, 0.0))

    # imported here so that importing the package does not load scipy.stats
    from scipy.stats import norm

    z = norm.ppf(QUANTILE_LEVELS)
    regime = (np.arange(n_weeks) >= n_weeks // 2).astype(int)
    forecasts = np.empty((n_models, n_locations, n_weeks, N_LEVELS))
    for mi in range(n_models):
        profile = np.array(_MODEL_PROFILES[mi])  # (2, 4)
        lag = profile[regime, 0].astype(int)
        bias = profile[regime, 1]
        disp = profile[regime, 2]
        noise = profile[regime, 3]
        for li in range(n_locations):
            lagged = truth[li, np.maximum(np.arange(n_weeks) - lag, 0)]
            center = bias * lagged * (1.0 + noise * rng.normal(size=n_weeks))
            center = np.maximum(center, 0.0)
            spread = disp * (center + 8.0)
            cell = center[:, None] + spread[:, None] * z[None, :]
            forecasts[mi, li] = np.round(np.maximum(cell, 0.0), 2)

    # gap layout: positions scale with the week count, fixed fractions
    w_interp1 = n_weeks // 5
    w_interp2 = n_weeks // 3
    w_mean = (7 * n_weeks) // 12
    w_alone = (3 * n_weeks) // 4
    gap_runs: list[tuple[int, str, range, str]] = [
        (1, "loc01", range(w_interp1, w_interp1 + 1), "interpolation"),
        (2, "loc02", range(w_interp2, w_interp2 + 2), "interpolation"),
        (3, "loc00", range(w_mean, w_mean + 4), "ensemble_mean"),
        (4, "loc04", range(0, 3), "ensemble_mean"),    # unflanked boundary run
        (5, "loc04", range(0, 1), "ensemble_mean"),
    ]
    for mi in range(n_models):  # nobody forecasts loc03 for four weeks
        gap_runs.append((mi, "loc03", range(w_alone, w_alone + 4), "nearest_value"))

    loc_pos = {loc: i for i, loc in enumerate(locations)}
    gaps = []
    for mi, loc, run, rule in gap_runs:
        forecasts[mi, loc_pos[loc], list(run)] = np.nan
        gaps.append(
            GapSpec(
                model_id=models[mi],
                location=loc,
                weeks=tuple(weeks[w] for w in run),
                expected_rule=rule,
            )
        )
    assert {g.expected_rule for g in gaps} == set(IMPUTATION_RULES)

    return SyntheticHub(
        models=models,
        locations=locations,
        weeks=weeks,
        truth=truth,
        forecasts=forecasts,
        gaps=tuple(gaps),
    )
