"""Pooling weekly quantile forecasts from a public forecast hub.

This module covers the full path from hub-style CSV files to scored pooled
forecasts of weekly incident deaths:

  ingest            read + validate long-format forecast/truth CSVs
  impute_missing    fill gaps in the forecast record with three rules
  assemble_samples  build query/key/value arrays for the pooling models
  train_pooler      fit a pooler (additive / multi-head attention, linear)
                    by minimizing the mean weighted interval score
  pooler_inputs     pick a pooler's raw input arrays from the samples
  baseline_pooler   the untrained poolers: the uniform candidate mean, and
                    the best single candidate picked in hindsight
  evaluate_period   score any pooler's one-week-ahead forecasts per
                    location/week
  synthesize_hub    generate a seeded synthetic hub data set for testing

Each candidate model contributes a 21-quantile forecast per location and
week. Attention poolers combine the M candidate quantile vectors through a
convex combination whose weights are recomputed every week from recent
evidence: a candidate's key starts with the error of its previous median
forecast, so the score network can read which models have been tracking the
truth lately. Both attention kinds hold one
:class:`attnpool.attention.AttentionParams`: ``additive`` one head,
``multi_head`` P heads and the mixer of their pooled outputs. The linear
pooler regresses the pooled quantiles directly on the stacked candidate
forecasts of the most recent weeks.

Training follows a leave-one-period-out discipline: samples whose target
week falls inside the held-out validation period never enter a minibatch
(asserted in the loop). All trained poolers minimize the same weighted
interval score used for evaluation. Every method, trained or baseline, is a
:class:`attnpool.forecasting.Pooler`, the trained-model type of the Lorenz
pipeline too; a baseline's params are its candidate index (``best_single``)
or None (``uniform``), and it has no standardizers. :func:`evaluate_period`
scores them all through one path: the pooler's raw inputs, its kind's
forward (a baseline's mean or pass-through), the sorted output, WIS.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .attention import init_heads
from .evaluation import wis_batch, wis_gradient_batch
from .forecasting import LinearPooler, Pooler, Standardizer, TrainConfig, fit, kind_functions
from .numerics import Array, spawn_rng

# ---------------------------------------------------------------------------
# quantile grid

# The 21 quantile levels carried per forecast, which are the scored
# intervals: the k-th level from each end bound the k-th of ten central
# intervals, whose alpha is twice its lower level, around the median 0.5
# (``evaluation.wis_batch`` reads them off this grid). Input files may
# additionally carry 0.1 and 0.9; no scored interval uses those two, so
# they are accepted and dropped with a counted warning.
QUANTILE_LEVELS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
    0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.95, 0.975, 0.99,
)
TOLERATED_LEVELS: tuple[float, ...] = (0.1, 0.9)
# Standard-normal quantiles of QUANTILE_LEVELS, the bits of
# scipy.stats.norm.ppf(QUANTILE_LEVELS) (asserted in the tests); scipy's
# values are not symmetric in the last digit.
NORMAL_QUANTILES: tuple[float, ...] = (
    -2.3263478740408408, -1.9599639845400545, -1.6448536269514729,
    -1.0364333894937898, -0.8416212335729142, -0.6744897501960817,
    -0.5244005127080409, -0.38532046640756773, -0.2533471031357997,
    -0.12566134685507402, 0.0, 0.12566134685507416, 0.2533471031357997,
    0.38532046640756773, 0.5244005127080407, 0.6744897501960817,
    0.8416212335729143, 1.0364333894937898, 1.6448536269514722,
    1.959963984540054, 2.3263478740408408,
)
MEDIAN_INDEX: int = QUANTILE_LEVELS.index(0.5)
N_LEVELS: int = len(QUANTILE_LEVELS)

FORECAST_HEADER = ("model", "location", "target_end_date", "quantile", "value")
TRUTH_HEADER = ("location", "week_ending", "inc_death")


def _match_level(raw: float) -> int | None:
    """Slot of a quantile level: its index into QUANTILE_LEVELS, then
    N_LEVELS + i for the i-th tolerated level, None for any other level."""
    for i, lv in enumerate(QUANTILE_LEVELS + TOLERATED_LEVELS):
        if abs(raw - lv) < 1e-9:
            return i
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


@dataclass
class IngestReport:
    """What ingestion read, repaired or discarded, for the experiment log."""

    forecast_rows: int = 0  # data rows read from each file
    truth_rows: int = 0
    dropped_level_rows: int = 0
    repaired_cells: list[tuple[str, str, date]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _read_rows(path: str | Path, header: tuple[str, ...]):
    """Yield (row_number, fields) for data rows; validates the header.

    Row numbers are 1-based physical CSV rows, so the first data row is 2.
    An entirely empty file yields nothing. A file that is not UTF-8 raises,
    naming its first row that does not decode.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for rownum, fields in enumerate(csv.reader(fh), start=1):
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
        except UnicodeDecodeError:
            with open(path, "rb") as raw:  # for the first line that does not decode
                for rownum, line in enumerate(raw, start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise ValueError(f"{path} row {rownum}: not UTF-8 text ({exc})") from None
            raise


def _parse_week(path, rownum, text: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise ValueError(f"{path} row {rownum}: bad date {text!r}") from None


def _parse_float(path, rownum, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path} row {rownum}: bad {what} {text!r}") from None
    if not math.isfinite(value):
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
    off-grid rows and incomplete cells are hard errors naming a CSV row.
    Each distinct (model, location, date) text and level text is checked
    once, on its first row; later rows look it up, and only a row's value
    is checked on every row. So the first bad occurrence is named by its row.
    """
    report = IngestReport()
    truth_cells: dict[tuple[str, date], float] = {}
    for rownum, fields in _read_rows(truth_csv, TRUTH_HEADER):
        report.truth_rows += 1
        loc = fields[0].strip()
        week = _parse_week(truth_csv, rownum, fields[1])
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
    if not truth_cells:
        raise ValueError(f"{truth_csv}: no data rows")

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
    for l, w in np.argwhere(np.isnan(deaths))[:1]:
        raise ValueError(f"{truth_csv}: no truth record for ({locations[l]}, {weeks[w]})")
    truth = TruthTable(locations=locations, weeks=weeks, deaths=deaths)

    # a cell: one slot per level (see _match_level), then its first row number
    empty = [None] * (N_LEVELS + len(TOLERATED_LEVELS))
    cells: dict[tuple[str, str, date], list] = {}
    cell_of_text: dict[tuple[str, str, str], list] = {}
    slot_of_text: dict[str, int] = {}
    for rownum, fields in _read_rows(forecast_csv, FORECAST_HEADER):
        report.forecast_rows += 1
        text = (fields[0], fields[1], fields[2])
        cell = cell_of_text.get(text)
        slot = slot_of_text.get(fields[3])
        new = cell is None or slot is None  # a new text: all checks, in one fixed order
        if new:
            model, loc = fields[0].strip(), fields[1].strip()
            week = _parse_week(forecast_csv, rownum, fields[2])
            raw_level = _parse_float(forecast_csv, rownum, fields[3], "quantile level")
            slot = _match_level(raw_level)
        value = _parse_float(forecast_csv, rownum, fields[4], "value")
        if slot is None:
            raise ValueError(
                f"{forecast_csv} row {rownum}: quantile level {raw_level} is not "
                f"one of the 21 carried levels (tolerated extras: 0.1, 0.9)"
            )
        if value < 0:
            raise ValueError(
                f"{forecast_csv} row {rownum}: negative forecast value {value}"
            )
        if new:
            if loc not in loc_index:
                raise ValueError(
                    f"{forecast_csv} row {rownum}: location {loc!r} has no truth data"
                )
            if week not in week_index:
                raise ValueError(
                    f"{forecast_csv} row {rownum}: week {week} is outside the truth "
                    f"week range"
                )
            slot_of_text[fields[3]] = slot
            cell = cell_of_text[text] = cells.setdefault((model, loc, week), empty + [rownum])
        if cell[slot] is not None:
            raise ValueError(
                f"{forecast_csv} row {rownum}: duplicate forecast row for "
                f"({fields[0].strip()}, {fields[1].strip()}, "
                f"{date.fromisoformat(fields[2].strip())}, quantile {float(fields[3])})"
            )
        cell[slot] = value

    all_models = sorted({m for m, _, _ in cells})
    model_index = {m: i for i, m in enumerate(all_models)}
    at = [(model_index[m], loc_index[loc], week_index[w]) for m, loc, w in cells]
    block = np.array(list(cells.values()), dtype=float).reshape(len(cells), len(empty) + 1)
    grid = np.full((len(all_models), len(locations), len(weeks), len(empty) + 1), np.nan)
    grid[tuple(np.array(at, dtype=int).reshape(-1, 3).T)] = block
    count = np.count_nonzero(~np.isnan(grid[..., :N_LEVELS]), axis=3)
    report.dropped_level_rows = int(np.count_nonzero(~np.isnan(grid[..., N_LEVELS:-1])))
    for m, l, w in np.argwhere((count > 0) & (count < N_LEVELS))[:1]:
        raise ValueError(
            f"{forecast_csv} row {int(grid[m, l, w, -1])}: forecast cell "
            f"({all_models[m]}, {locations[l]}, {weeks[w]}) has {count[m, l, w]} "
            f"of the {N_LEVELS} required quantile levels"
        )
    keep = count.any(axis=(1, 2))  # a model with only 0.1/0.9 rows is dropped
    if not keep.any():
        raise ValueError(
            f"{forecast_csv}: no forecast cell holds the {N_LEVELS} carried quantile levels"
        )
    models = tuple(m for m, k in zip(all_models, keep) if k)
    values = grid[keep, ..., :N_LEVELS]  # a copy: keep is a boolean index
    for m, l, w in np.argwhere((np.diff(values, axis=3) < 0).any(axis=3)):
        values[m, l, w] = np.sort(values[m, l, w])
        key = (models[m], locations[l], weeks[w])
        report.repaired_cells.append(key)
        report.warnings.append("sorted non-monotone quantiles for ({}, {}, {})".format(*key))
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


def impute_missing(table: ForecastTable) -> tuple[ForecastTable, list[ImputationEntry]]:
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
    no-op. Every model needs at least one original forecast per location.
    """
    models = table.models
    orig = table.values  # (M, L, W, Q), the only data rules read
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
    truth: TruthTable, forecasts: ForecastTable, delay: int
) -> HubSamples:
    """Build query/key/value arrays from completed tables.

    The first ``delay`` weeks of the grid lack history and are skipped;
    every later week of every location becomes one sample row.
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

    targets = np.arange(delay, n_weeks, dtype=np.intp)
    lags = targets[:, None] - np.arange(1, delay + 1)  # (T, delay), newest first
    n_locs, n_models = len(truth.locations), len(forecasts.models)
    n_rows = n_locs * len(targets)
    locs, models = np.arange(n_locs), np.arange(n_models)
    # Each gather broadcasts (location, target, model[, lag]) indices, so it
    # lands straight in row order: (L, T, M, ...) is (L * T, M, ...),
    # location-major.
    past = lags[:, None, :]                                   # (T, 1, delay)
    queries = truth.deaths[:, lags]                           # (L, T, delay)
    values = forecasts.values[models, locs[:, None, None], targets[:, None]]
    # the forecasts for weeks j .. j-delay+1 are those at lags + 1
    linear_inputs = forecasts.values[models[:, None], locs[:, None, None, None], past + 1]
    # per-week key block: median error first, then the 20 other quantiles
    key_levels = [MEDIAN_INDEX] + [i for i in range(N_LEVELS) if i != MEDIAN_INDEX]
    keys = forecasts.values[
        models[:, None, None], locs[:, None, None, None, None], past[..., None], key_levels
    ]                                                         # (L, T, M, delay, 21)
    keys[..., 0] -= queries[:, :, None, :]
    return HubSamples(
        models=forecasts.models,
        locations=truth.locations,
        weeks=truth.weeks,
        delay=delay,
        queries=queries.reshape(n_rows, delay),
        keys=keys.reshape(n_rows, n_models, -1),
        values=values.reshape(n_rows, n_models, N_LEVELS),
        linear_inputs=linear_inputs.reshape(n_rows, -1),
        truths=truth.deaths[:, targets].reshape(-1),
        location_idx=np.repeat(np.arange(n_locs, dtype=np.intp), len(targets)),
        week_idx=np.tile(targets, n_locs),
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


def split_into_periods(
    weeks: Sequence[date], n_periods: int, skip: int
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
BASELINE_KINDS = ("uniform", "best_single")

# full-scale defaults per kind: (hidden units, weight decay); the CLI
# resolves a config's null hidden and weight_decay from these
_KIND_DEFAULTS = {
    "additive": (1000, 1e-4),
    "multi_head": (100, 1e-5),
    "linear": (None, 0.0),
}


def pooler_inputs(pooler: Pooler, samples: HubSamples, rows: Array | slice) -> tuple[Array, ...]:
    """The raw inputs of ``pooler`` for the sample rows ``rows``, an index
    array or a slice (a slice reads the samples without a copy), in the
    order its kind's forward takes them: a baseline's and the linear kind's
    one array, the attention kinds' queries, keys and values."""
    if pooler.delay != samples.delay:
        raise ValueError(
            f"pooler was trained at delay {pooler.delay}, samples use {samples.delay}"
        )
    if pooler.kind in BASELINE_KINDS:
        return (samples.values[rows],)
    if pooler.kind == "linear":
        return (samples.linear_inputs[rows],)
    return samples.queries[rows], samples.keys[rows], samples.values[rows]


@dataclass(frozen=True)
class PoolerTrainResult:
    pooler: Pooler
    curve: Array          # epoch-mean WIS on the training rows


def _uniform_pool_linear(n_models: int, delay: int) -> LinearPooler:
    """Linear pooler warm-started at the uniform mean of the current-week
    forecasts; with a small fixed learning rate the start point matters."""
    weight = np.zeros((N_LEVELS, n_models * delay * N_LEVELS))
    for q in range(N_LEVELS):
        cols = (np.arange(n_models) * delay) * N_LEVELS + q
        weight[q, cols] = 1.0 / n_models
    return LinearPooler(weight=weight, bias=np.zeros(N_LEVELS))


def _sort_quantiles(preds: Array) -> tuple[Array, Array]:
    """The output layer: each row sorted; returns (sorted, permutation)."""
    perm = np.argsort(preds, axis=1, kind="stable")
    return np.take_along_axis(preds, perm, axis=1), perm


def train_pooler(
    kind: str,
    samples: HubSamples,
    holdout: ValidationPeriod,
    *,
    config: TrainConfig,
    hidden: int | None,
    n_heads: int,
) -> PoolerTrainResult:
    """Fit one pooling model by stochastic subgradient descent on mean WIS.

    ``hidden`` is the attention kinds' scoring width (the linear kind has
    none) and ``n_heads`` the multi-head kind's head count. Rows whose
    target week falls inside ``holdout`` are excluded from every minibatch
    (asserted). The loss is the WIS of the sorted output: the sort is the
    last layer of the ``multi_head`` and ``linear`` kinds, whose raw outputs
    nothing trains into order, and the gradient goes back through its
    permutation. ``additive`` outputs are convex combinations of sorted
    candidate quantiles, already in order, so the sort leaves them as they
    are.
    """
    if kind not in POOLER_KINDS:
        raise ValueError(f"unknown pooler kind {kind!r}; expected one of {POOLER_KINDS}")
    if n_heads < 1:
        raise ValueError(f"n_heads must be >= 1, got {n_heads}")

    in_holdout = samples.period_mask(holdout)
    train_rows = np.nonzero(~in_holdout)[0]
    if train_rows.size == 0:
        raise ValueError("holdout period leaves no training rows")

    rng = spawn_rng(config.seed, f"train-pooler-{kind}")
    key_dim = samples.delay * N_LEVELS
    if kind == "linear":
        pooler = Pooler(kind, _uniform_pool_linear(samples.n_models, samples.delay), samples.delay)
    else:
        heads = n_heads if kind == "multi_head" else 1
        params = init_heads(rng, heads, hidden, samples.delay, key_dim)
        if kind == "multi_head":
            # the mixer averages the heads' pools component-wise, so the
            # model starts at a sane death-count scale
            params.w_out = np.tile(np.eye(N_LEVELS) / heads, heads)
        pooler = Pooler(
            kind=kind,
            params=params,
            delay=samples.delay,
            query_scaler=Standardizer.fit(samples.queries[train_rows]),
            key_scaler=Standardizer.fit(samples.keys[train_rows]),
        )
    inputs = pooler.standardize(*pooler_inputs(pooler, samples, slice(None)))

    levels = np.array(QUANTILE_LEVELS)

    def wis_loss(preds, idx):
        sorted_preds, perm = _sort_quantiles(preds)
        truths = samples.truths[idx]
        scores = wis_batch(levels, sorted_preds, truths)
        g_sorted = wis_gradient_batch(levels, sorted_preds, truths)
        g_sorted /= idx.size
        g_preds = np.empty_like(g_sorted)
        np.put_along_axis(g_preds, perm, g_sorted, axis=1)
        return scores, g_preds

    def outside_holdout(idx):
        assert not in_holdout[idx].any(), (
            "leave-one-period-out violation: held-out rows in a minibatch"
        )

    forward, backward = kind_functions(kind)
    curve = fit(
        pooler.params, forward, backward, inputs, wis_loss, train_rows, rng, config,
        check_rows=outside_holdout,
    )
    return PoolerTrainResult(pooler=pooler, curve=curve)


# ---------------------------------------------------------------------------
# prediction + evaluation


@dataclass(frozen=True)
class QuantilePredictions:
    """Pooled quantiles (raw death counts) for selected rows: the kind's
    forward, then the sort that is the last layer of the ``multi_head`` and
    ``linear`` kinds (the other kinds' outputs are already in order)."""

    quantiles: Array      # (R, 21), non-decreasing per row
    weights: Array | None  # (R, M) additive, (R, P, M) multi-head, else None


def predict_quantiles(pooler: Pooler, samples: HubSamples, rows: Array) -> QuantilePredictions:
    rows = np.asarray(rows, dtype=np.intp)
    inputs = pooler_inputs(pooler, samples, rows)
    if pooler.kind == "uniform":
        preds, weights = inputs[0].mean(axis=1), None
    elif pooler.kind == "best_single":
        preds, weights = inputs[0][:, pooler.params], None
    else:
        preds, weights, _ = pooler.forward(*inputs)
    return QuantilePredictions(quantiles=_sort_quantiles(preds)[0], weights=weights)


@dataclass(frozen=True)
class WeekScore:
    location: str
    week: date
    wis: float


@dataclass(frozen=True)
class PeriodScores:
    scores: tuple[WeekScore, ...]
    mean_wis: float


def evaluate_period(
    pooler: Pooler, samples: HubSamples, period: ValidationPeriod
) -> PeriodScores:
    """Score one-week-ahead pooled forecasts for every (location, week) whose
    target week falls inside the period; the pooler may be of any kind,
    trained or baseline."""
    rows = period_rows(samples, period)
    if rows.size == 0:
        raise ValueError(f"no scored weeks fall inside {period}")
    preds = predict_quantiles(pooler, samples, rows)
    wis = wis_batch(np.array(QUANTILE_LEVELS), preds.quantiles, samples.truths[rows])
    scores = tuple(
        WeekScore(
            location=samples.locations[int(samples.location_idx[r])],
            week=samples.target_week(int(r)),
            wis=float(s),
        )
        for r, s in zip(rows, wis)
    )
    return PeriodScores(scores=scores, mean_wis=float(wis.mean()))


def candidate_mean_wis(samples: HubSamples, rows: Array) -> Array:
    """Mean WIS of each candidate model alone over the sample rows ``rows``; (M,)."""
    levels = np.array(QUANTILE_LEVELS)
    out = np.empty(samples.n_models)
    for m in range(samples.n_models):
        out[m] = wis_batch(levels, samples.values[rows, m], samples.truths[rows]).mean()
    return out


def baseline_pooler(kind: str, samples: HubSamples, rows: Array) -> Pooler:
    """The untrained pooler of a baseline kind. ``best_single`` passes
    through the candidate of lowest mean WIS over the sample rows ``rows``;
    scored on those same rows it is a hindsight oracle, not a forecast."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}; expected one of {BASELINE_KINDS}")
    if len(rows) == 0:
        raise ValueError("a baseline pooler needs at least one sample row")
    champion = int(np.argmin(candidate_mean_wis(samples, rows))) if kind == "best_single" else None
    return Pooler(kind=kind, params=champion, delay=samples.delay)


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
    seed: int, n_locations: int, n_weeks: int, n_models: int
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

    z = np.array(NORMAL_QUANTILES)
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
