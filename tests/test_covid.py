"""Hub-format ingestion, imputation, WIS training, and the synthetic generator."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import HEAD_FIELDS

from attnpool import cli, covid, forecasting
from attnpool.covid import (
    ForecastTable,
    GapSpec,
    ImputationEntry,
    TruthTable,
    ValidationPeriod,
)
from attnpool.evaluation import _wis_layout, wis_batch
from attnpool.forecasting import LinearPooler, Pooler, Standardizer, TrainConfig
from attnpool.numerics import spawn_rng


def week_grid(n, start=date(2024, 1, 6)):
    return tuple(start + timedelta(weeks=k) for k in range(n))


def monotone_cell(rng, center, spread=5.0):
    return np.sort(center + rng.normal(0.0, spread, covid.N_LEVELS))


# a period that holds no week of any grid here: held out, it leaves every
# row to train on
NO_WEEK = ValidationPeriod(date(1900, 1, 6), date(1900, 1, 6))


def train(kind, samples, holdout, seed=0, **model):
    """``train_pooler`` at the settings the CLI resolves from a model
    section holding the keys ``model`` (full-scale values for the rest)."""
    config, hidden, n_heads = cli._pooler_settings(cli.CovidModelConfig(**model), seed, kind)
    return covid.train_pooler(
        kind, samples, holdout, config=config, hidden=hidden, n_heads=n_heads
    )


def synthesize(seed, **shape):
    """``synthesize_hub`` at the experiment config's hub shape (8 locations,
    120 weeks, 9 models), with ``shape`` in its place."""
    return covid.synthesize_hub(**asdict(cli.CovidSyntheticConfig(seed=seed, **shape)))


def build_tables(seed=0, n_models=3, n_locations=2, n_weeks=10):
    """Small complete in-memory tables with monotone random cells."""
    rng = spawn_rng(seed, "test-tables")
    weeks = week_grid(n_weeks)
    locations = tuple(f"s{i}" for i in range(n_locations))
    models = tuple(f"m{i}" for i in range(n_models))
    truth = np.round(rng.uniform(50.0, 150.0, (n_locations, n_weeks)))
    values = np.empty((n_models, n_locations, n_weeks, covid.N_LEVELS))
    for m in range(n_models):
        for li in range(n_locations):
            for w in range(n_weeks):
                values[m, li, w] = monotone_cell(rng, truth[li, w] * rng.uniform(0.8, 1.2))
    forecasts = ForecastTable(models=models, locations=locations, weeks=weeks, values=values)
    return forecasts, TruthTable(locations=locations, weeks=weeks, deaths=truth)


# ---------------------------------------------------------------------------
# shared synthetic pipeline (module scope: generated once)


@pytest.fixture(scope="module")
def hub():
    return synthesize(11)


@pytest.fixture(scope="module")
def hub_files(hub, tmp_path_factory):
    d = tmp_path_factory.mktemp("hub")
    hub.write_csvs(d / "forecasts.csv", d / "truth.csv")
    return d / "forecasts.csv", d / "truth.csv"


@pytest.fixture(scope="module")
def ingested(hub_files):
    return covid.ingest(*hub_files)


@pytest.fixture(scope="module")
def imputed(ingested):
    table, _, _ = ingested
    return covid.impute_missing(table)


@pytest.fixture(scope="module")
def samples(ingested, imputed):
    _, truth, _ = ingested
    full, _ = imputed
    return covid.assemble_samples(truth, full, delay=5)


@pytest.fixture(scope="module")
def small_trained(samples):
    """One quickly trained pooler per kind, shared by the predict/eval tests."""
    cfg = dict(epochs=30, learning_rate=1e-3, batch_size=64, hidden=40, n_heads=3, seed=3)
    period = covid.split_into_periods(samples.weeks, 4, skip=5)[1]
    return {kind: train(kind, samples, period, **cfg) for kind in covid.POOLER_KINDS}, period


# ---------------------------------------------------------------------------
# quantile grid


class TestQuantileGrid:
    def test_the_grid_is_the_scored_intervals(self):
        """The score pairs the k-th level from each end around the median
        and reads each alpha as twice the lower level: the hub's ten
        intervals, with the bits of the alphas written out."""
        med, lowers, uppers, alphas = _wis_layout(np.array(covid.QUANTILE_LEVELS))
        assert med == covid.MEDIAN_INDEX == 10
        assert lowers.tolist() == list(range(10))
        assert uppers.tolist() == list(range(20, 10, -1))
        expected = (0.02, 0.05, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        assert alphas.tobytes() == np.array(expected).tobytes()

    def test_ascending_and_median_position(self):
        assert len(covid.QUANTILE_LEVELS) == 21
        assert list(covid.QUANTILE_LEVELS) == sorted(covid.QUANTILE_LEVELS)
        assert covid.QUANTILE_LEVELS[covid.MEDIAN_INDEX] == 0.5

    def test_tolerated_levels_not_carried(self):
        for lv in covid.TOLERATED_LEVELS:
            assert lv not in covid.QUANTILE_LEVELS

    def test_normal_quantiles_are_the_bits_of_scipys_ppf(self):
        norm = pytest.importorskip("scipy.stats").norm
        expected = norm.ppf(covid.QUANTILE_LEVELS)
        assert np.array(covid.NORMAL_QUANTILES).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# ingestion


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


TRUTH_LINES = [
    "location,week_ending,inc_death",
    "az,2024-01-06,10.0",
    "az,2024-01-13,12.0",
    "az,2024-01-20,14.0",
]


FORECAST_HEADER_LINE = "model,location,target_end_date,quantile,value"


def forecast_lines(model="m1", loc="az", week="2024-01-13", value=5.0, levels=None):
    levels = covid.QUANTILE_LEVELS if levels is None else levels
    return [f"{model},{loc},{week},{lv},{value + i}" for i, lv in enumerate(levels)]


class TestIngest:
    def test_empty_forecast_file(self, tmp_path):
        """A header-only forecast file holds no forecast: an error naming
        the file, not an empty table that fails later."""
        fpath = write_csv(tmp_path / "f.csv", ["model,location,target_end_date,quantile,value"])
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        with pytest.raises(ValueError) as err:
            covid.ingest(fpath, tpath)
        assert str(err.value) == f"{fpath}: no forecast cell holds the 21 carried quantile levels"

    def test_zero_byte_forecast_file(self, tmp_path):
        fpath = tmp_path / "f.csv"
        fpath.write_text("")
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        with pytest.raises(ValueError, match="no forecast cell holds the 21 carried"):
            covid.ingest(fpath, tpath)

    def test_unknown_quantile_level_names_row(self, tmp_path):
        fpath = write_csv(
            tmp_path / "f.csv",
            ["model,location,target_end_date,quantile,value", "m1,az,2024-01-13,0.33,5.0"],
        )
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        with pytest.raises(ValueError, match=r"row 2.*0\.33"):
            covid.ingest(fpath, tpath)

    def test_tolerated_levels_dropped_and_counted(self, tmp_path):
        lines = ["model,location,target_end_date,quantile,value"]
        lines += forecast_lines(levels=list(covid.QUANTILE_LEVELS) + [0.1, 0.9])
        fpath = write_csv(tmp_path / "f.csv", lines)
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        table, _, report = covid.ingest(fpath, tpath)
        assert report.dropped_level_rows == 2
        assert table.values.shape == (1, 1, 3, 21)
        assert any("0.1/0.9" in w for w in report.warnings)

    def test_negative_deaths_names_row(self, tmp_path):
        tpath = write_csv(
            tmp_path / "t.csv",
            ["location,week_ending,inc_death", "az,2024-01-06,5.0", "az,2024-01-13,-1.0"],
        )
        fpath = write_csv(tmp_path / "f.csv", ["model,location,target_end_date,quantile,value"])
        with pytest.raises(ValueError, match="row 3.*negative"):
            covid.ingest(fpath, tpath)

    def test_negative_forecast_value_names_row(self, tmp_path):
        fpath = write_csv(
            tmp_path / "f.csv",
            ["model,location,target_end_date,quantile,value", "m1,az,2024-01-13,0.5,-2.0"],
        )
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        with pytest.raises(ValueError, match="row 2.*negative"):
            covid.ingest(fpath, tpath)

    def test_duplicate_forecast_row_names_row(self, tmp_path):
        lines = ["model,location,target_end_date,quantile,value"]
        lines += ["m1,az,2024-01-13,0.5,5.0", "m1,az,2024-01-13,0.5,6.0"]
        fpath = write_csv(tmp_path / "f.csv", lines)
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        with pytest.raises(ValueError, match="row 3.*duplicate"):
            covid.ingest(fpath, tpath)

    def test_duplicate_truth_row_names_row(self, tmp_path):
        tpath = write_csv(
            tmp_path / "t.csv",
            ["location,week_ending,inc_death", "az,2024-01-06,5.0", "az,2024-01-06,5.0"],
        )
        fpath = write_csv(tmp_path / "f.csv", ["model,location,target_end_date,quantile,value"])
        with pytest.raises(ValueError, match="row 3.*duplicate"):
            covid.ingest(fpath, tpath)

    def test_incomplete_cell_is_an_error(self, tmp_path):
        lines = ["model,location,target_end_date,quantile,value"]
        lines += ["m1,az,2024-01-13,0.5,5.0", "m1,az,2024-01-13,0.25,4.0"]
        fpath = write_csv(tmp_path / "f.csv", lines)
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        with pytest.raises(ValueError, match=r"f\.csv row 2: .*has 2 of the 21"):
            covid.ingest(fpath, tpath)

    def test_unknown_location_and_off_grid_week(self, tmp_path):
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        bad_loc = write_csv(
            tmp_path / "f1.csv",
            ["model,location,target_end_date,quantile,value", "m1,zz,2024-01-13,0.5,5.0"],
        )
        with pytest.raises(ValueError, match="row 2.*no truth"):
            covid.ingest(bad_loc, tpath)
        bad_week = write_csv(
            tmp_path / "f2.csv",
            ["model,location,target_end_date,quantile,value", "m1,az,2025-01-04,0.5,5.0"],
        )
        with pytest.raises(ValueError, match="row 2.*outside the truth"):
            covid.ingest(bad_week, tpath)

    def test_truth_gaps_and_holes_rejected(self, tmp_path):
        fpath = write_csv(tmp_path / "f.csv", ["model,location,target_end_date,quantile,value"])
        skipped = write_csv(
            tmp_path / "t1.csv",
            ["location,week_ending,inc_death", "az,2024-01-06,5.0", "az,2024-01-27,6.0"],
        )
        with pytest.raises(ValueError, match="7 days apart"):
            covid.ingest(fpath, skipped)
        ragged = write_csv(
            tmp_path / "t2.csv",
            [
                "location,week_ending,inc_death",
                "az,2024-01-06,5.0",
                "az,2024-01-13,6.0",
                "ca,2024-01-06,7.0",
            ],
        )
        with pytest.raises(ValueError, match="no truth record"):
            covid.ingest(fpath, ragged)

    def test_bad_header_and_malformed_rows(self, tmp_path):
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        bad_header = write_csv(tmp_path / "f1.csv", ["model,location,week,quantile,value"])
        with pytest.raises(ValueError, match="row 1.*header"):
            covid.ingest(bad_header, tpath)
        bad_date = write_csv(
            tmp_path / "f2.csv",
            ["model,location,target_end_date,quantile,value", "m1,az,January 13,0.5,5.0"],
        )
        with pytest.raises(ValueError, match="row 2.*bad date"):
            covid.ingest(bad_date, tpath)
        bad_value = write_csv(
            tmp_path / "f3.csv",
            ["model,location,target_end_date,quantile,value", "m1,az,2024-01-13,0.5,oops"],
        )
        with pytest.raises(ValueError, match="row 2.*bad value"):
            covid.ingest(bad_value, tpath)

    def test_non_monotone_cell_repaired_with_warning(self, tmp_path):
        lines = ["model,location,target_end_date,quantile,value"]
        values = list(range(21))
        values[3], values[4] = values[4], values[3]  # one inversion
        lines += [
            f"m1,az,2024-01-13,{lv},{values[i]}"
            for i, lv in enumerate(covid.QUANTILE_LEVELS)
        ]
        fpath = write_csv(tmp_path / "f.csv", lines)
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        table, _, report = covid.ingest(fpath, tpath)
        assert report.repaired_cells == [("m1", "az", date(2024, 1, 13))]
        assert len(report.warnings) == 1
        np.testing.assert_array_equal(table.values[0, 0, 1], np.arange(21.0))

    def test_row_order_insensitivity(self, tmp_path):
        rng = spawn_rng(4, "shuffle")
        data = []
        for model in ("m1", "m2"):
            for week in ("2024-01-06", "2024-01-13"):
                data += forecast_lines(model=model, week=week, value=float(rng.integers(3, 9)))
        header = ["model,location,target_end_date,quantile,value"]
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        sorted_path = write_csv(tmp_path / "f1.csv", header + data)
        shuffled = data.copy()
        rng.shuffle(shuffled)
        shuffled_path = write_csv(tmp_path / "f2.csv", header + shuffled)
        t1, _, _ = covid.ingest(sorted_path, tpath)
        t2, _, _ = covid.ingest(shuffled_path, tpath)
        assert t1.models == t2.models
        np.testing.assert_array_equal(t1.values, t2.values)

    def test_duplicate_under_another_spelling_names_the_second_row(self, tmp_path):
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        lines = [FORECAST_HEADER_LINE, "m1,az,2024-01-13,0.5,5.0", "m1,az,2024-01-06,0.5,5.0",
                 " m1,az ,2024-01-13 ,0.50,6.0"]
        with pytest.raises(ValueError, match=r"row 4: duplicate .*\(m1, az, 2024-01-13"):
            covid.ingest(write_csv(tmp_path / "f1.csv", lines), tpath)
        lines = [FORECAST_HEADER_LINE, "m1,az,2024-01-13,0.1,5.0", "m1,az,2024-01-13,1e-1,5.0"]
        with pytest.raises(ValueError, match=r"row 3: duplicate .*quantile 0\.1\)"):
            covid.ingest(write_csv(tmp_path / "f2.csv", lines), tpath)

    def test_bad_text_first_seen_late_names_its_own_row(self, tmp_path):
        """Rows 2-22 fill one cell, so every later row's texts but the
        faulty one are already known."""
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        cell = [FORECAST_HEADER_LINE] + forecast_lines()
        cases = [
            ("m1,az,2024-13-06,0.5,5.0", "row 23: bad date '2024-13-06'"),
            ("m1,az,2024-01-13,0.33,5.0", "row 23: quantile level 0.33 is not"),
            ("m1,az,2024-01-06,0.5,oops", "row 23: bad value 'oops'"),
            ("m1,az,2025-01-04,0.5,5.0", "row 23: week 2025-01-04 is outside"),
        ]
        for i, (line, message) in enumerate(cases):
            fpath = write_csv(tmp_path / f"f{i}.csv", cell + [line])
            with pytest.raises(ValueError, match=message):
                covid.ingest(fpath, tpath)
        # a second cell whose texts are all known by its sixth row, row 28
        for value, message in [("-3.0", "negative forecast value -3.0"), ("x", "bad value 'x'")]:
            late = forecast_lines(week="2024-01-06")
            late[5] = late[5].rsplit(",", 1)[0] + "," + value
            fpath = write_csv(tmp_path / "f9.csv", cell + late)
            with pytest.raises(ValueError, match=f"row 28: {message}"):
                covid.ingest(fpath, tpath)

    def test_a_latin1_byte_names_its_file_and_row(self, tmp_path):
        """A latin-1 byte in a forecast row past the first read buffer, after
        rows that hold UTF-8 text beyond ASCII: the error names the file and
        that row, not an offset into a buffer."""
        tpath = write_csv(tmp_path / "t.csv", TRUTH_LINES)
        lines = [FORECAST_HEADER_LINE] + forecast_lines(model="modèle")
        for i in range(20):
            lines += forecast_lines(model=f"m{i}")
        fpath = tmp_path / "f.csv"
        fpath.write_bytes(
            "\n".join(lines).encode("utf-8") + "\nmod\xe9le,az,2024-01-06,0.5,5.0\n".encode("latin-1")
        )
        assert fpath.stat().st_size > 8192 and len(lines) == 442
        with pytest.raises(ValueError, match=re.escape(f"{fpath} row 443: not UTF-8 text (")):
            covid.ingest(fpath, tpath)

    def test_model_with_only_tolerated_levels_is_left_out(self, tmp_path):
        lines = [FORECAST_HEADER_LINE] + forecast_lines()
        lines += ["m2,az,2024-01-13,0.1,3.0", "m2,az,2024-01-13,0.9,4.0"]
        fpath = write_csv(tmp_path / "f.csv", lines)
        table, _, report = covid.ingest(fpath, write_csv(tmp_path / "t.csv", TRUTH_LINES))
        assert table.models == ("m1",)
        assert report.dropped_level_rows == 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_spelling_and_row_order_do_not_change_the_result(self, tmp_path_factory, seed):
        """A hub written canonically and the same hub with every row
        respelled (padded fields, levels as 0.5, 0.50, 5e-1 or ' 0.5') in
        shuffled order ingest, and impute, to the same bits."""
        rng = spawn_rng(seed, "spellings")
        weeks = [w.isoformat() for w in week_grid(3)]
        truth = ["location,week_ending,inc_death"]
        truth += [f"{loc},{w},{10.0 + i}" for loc in ("az", "ca") for i, w in enumerate(weeks)]
        rows, repaired, n_tolerated = [], [], 0
        for model in ("m1", "m2", "m3"):
            for loc in ("az", "ca"):
                present = rng.random(3) < 0.7
                present[rng.integers(3)] = True  # imputation needs one cell
                for w, week in enumerate(weeks):
                    cell = np.cumsum(rng.integers(0, 4, covid.N_LEVELS)) + 0.25
                    if present[w] and rng.random() < 0.3:
                        q = rng.integers(covid.N_LEVELS - 1)
                        cell[q], cell[q + 1] = cell[q + 1] + 1.0, cell[q]
                        repaired.append((model, loc, date.fromisoformat(week)))
                    if present[w]:
                        rows += [(model, loc, week, lv, v)
                                 for lv, v in zip(covid.QUANTILE_LEVELS, cell)]
                    for lv in covid.TOLERATED_LEVELS:
                        if rng.random() < 0.25:
                            rows.append((model, loc, week, lv, 1.5))
                            n_tolerated += 1

        def pad(text):
            return [text, f" {text}", f"{text} "][rng.integers(3)]

        def spell(lv):
            return [str(lv), f" {lv}", f"{lv}0", f"{lv * 10:g}e-1"][rng.integers(4)]

        canonical = [f"{m},{loc},{w},{lv},{v}" for m, loc, w, lv, v in rows]
        respelled = [f"{pad(m)},{pad(loc)},{pad(w)},{spell(lv)},{v}" for m, loc, w, lv, v in rows]
        rng.shuffle(respelled)
        d = tmp_path_factory.mktemp("spellings")
        tpath = write_csv(d / "t.csv", truth)
        a = covid.ingest(write_csv(d / "a.csv", [FORECAST_HEADER_LINE] + canonical), tpath)
        b = covid.ingest(write_csv(d / "b.csv", [FORECAST_HEADER_LINE] + respelled), tpath)

        (table, truth_table, report), (table_b, truth_b, report_b) = a, b
        assert report.dropped_level_rows == n_tolerated
        assert report.repaired_cells == sorted(repaired)  # (model, location, week) order
        assert np.all(np.diff(table.values, axis=3)[~np.isnan(table.values).all(axis=3)] >= 0)
        assert (table.models, table.locations, table.weeks) == (
            table_b.models, table_b.locations, table_b.weeks)
        assert table.values.tobytes() == table_b.values.tobytes()
        assert (truth_table.locations, truth_table.weeks) == (truth_b.locations, truth_b.weeks)
        assert truth_table.deaths.tobytes() == truth_b.deaths.tobytes()
        assert report == report_b
        (full, log), (full_b, log_b) = covid.impute_missing(table), covid.impute_missing(table_b)
        assert full.values.tobytes() == full_b.values.tobytes()
        assert log == log_b

    def test_report_counts_the_data_rows_of_each_file(self, hub_files, ingested):
        """One row read per line of each file, less its header."""
        _, _, report = ingested
        lines = [len(path.read_text().splitlines()) - 1 for path in hub_files]
        assert min(lines) > 0
        assert [report.forecast_rows, report.truth_rows] == lines

    def test_synthetic_round_trip(self, hub, ingested):
        table, truth, report = ingested
        assert table.models == hub.models
        assert table.weeks == hub.weeks
        assert report.dropped_level_rows == 0 and not report.repaired_cells
        np.testing.assert_array_equal(truth.deaths, hub.truth)
        assert np.array_equal(np.isnan(table.values), np.isnan(hub.forecasts))
        finite = ~np.isnan(hub.forecasts)
        np.testing.assert_array_equal(table.values[finite], hub.forecasts[finite])


# ---------------------------------------------------------------------------
# imputation


def blank(table, model, loc, weeks):
    """Return a copy of the table with the given cells missing."""
    values = table.values.copy()
    m = table.models.index(model)
    li = table.locations.index(loc)
    values[m, li, list(weeks)] = np.nan
    return ForecastTable(
        models=table.models, locations=table.locations, weeks=table.weeks, values=values
    )


class TestImputeMissing:
    def test_single_gap_is_the_midpoint(self):
        table, _ = build_tables(seed=1)
        base = np.arange(21.0)
        values = table.values.copy()
        values[0, 0, 3] = base + 10.0
        values[0, 0, 5] = base + 20.0
        table = ForecastTable(table.models, table.locations, table.weeks, values)
        gappy = blank(table, "m0", "s0", [4])
        full, log = covid.impute_missing(gappy)
        np.testing.assert_allclose(full.values[0, 0, 4], base + 15.0)
        assert log == [ImputationEntry("m0", "s0", table.weeks[4], "interpolation")]

    def test_two_week_gap_interpolates_at_thirds(self):
        table, _ = build_tables(seed=2)
        base = np.arange(21.0)
        values = table.values.copy()
        values[1, 0, 2] = base
        values[1, 0, 5] = base + 9.0
        table = ForecastTable(table.models, table.locations, table.weeks, values)
        gappy = blank(table, "m1", "s0", [3, 4])
        full, log = covid.impute_missing(gappy)
        np.testing.assert_allclose(full.values[1, 0, 3], base + 3.0)
        np.testing.assert_allclose(full.values[1, 0, 4], base + 6.0)
        assert [e.rule for e in log] == ["interpolation", "interpolation"]

    def test_long_gap_uses_candidate_mean(self):
        table, _ = build_tables(seed=3)
        values = table.values.copy()
        values[1, 1, 4:7] = 10.0  # ties are fine: constant vectors
        values[2, 1, 4:7] = 14.0
        table = ForecastTable(table.models, table.locations, table.weeks, values)
        gappy = blank(table, "m0", "s1", [4, 5, 6])
        full, log = covid.impute_missing(gappy)
        for w in (4, 5, 6):
            np.testing.assert_allclose(full.values[0, 1, w], 12.0)
        assert {e.rule for e in log} == {"ensemble_mean"}

    def test_sole_model_propagates_nearest(self):
        table, _ = build_tables(seed=4, n_models=1)
        gappy = blank(table, "m0", "s0", [3, 4, 5])
        full, log = covid.impute_missing(gappy)
        np.testing.assert_array_equal(full.values[0, 0, 3], table.values[0, 0, 2])
        np.testing.assert_array_equal(full.values[0, 0, 4], table.values[0, 0, 2])  # tie: past
        np.testing.assert_array_equal(full.values[0, 0, 5], table.values[0, 0, 6])
        assert {e.rule for e in log} == {"nearest_value"}

    def test_boundary_gap_falls_through_to_ensemble_mean(self):
        table, _ = build_tables(seed=5)
        gappy = blank(table, "m0", "s0", [0, 1])  # short but unflanked
        full, log = covid.impute_missing(gappy)
        expected = table.values[1:, 0, 0].mean(axis=0)
        np.testing.assert_allclose(full.values[0, 0, 0], expected)
        assert {e.rule for e in log} == {"ensemble_mean"}

    def test_completes_and_logs_each_cell_once(self, ingested, imputed, hub):
        table, _, _ = ingested
        full, log = imputed
        assert np.isfinite(full.values).all()
        missing = np.argwhere(np.isnan(table.values).all(axis=3))
        logged = {(e.model_id, e.location, e.week) for e in log}
        assert len(log) == len(logged) == len(missing)
        for m, li, w in missing:
            key = (table.models[m], table.locations[li], table.weeks[w])
            assert key in logged

    def test_rules_match_the_injected_gaps(self, imputed, hub):
        _, log = imputed
        by_cell = {(e.model_id, e.location, e.week): e.rule for e in log}
        for gap in hub.gaps:
            for week in gap.weeks:
                assert by_cell[(gap.model_id, gap.location, week)] == gap.expected_rule

    def test_idempotent(self, imputed):
        full, _ = imputed
        again, log = covid.impute_missing(full)
        assert log == []
        np.testing.assert_array_equal(again.values, full.values)

    def test_monotone_cells_stay_monotone(self, imputed):
        full, _ = imputed
        assert np.all(np.diff(full.values, axis=3) >= 0)

    def test_model_with_no_data_at_a_location_rejected(self):
        table, _ = build_tables(seed=6, n_weeks=6)
        gappy = blank(table, "m2", "s1", range(6))
        with pytest.raises(ValueError, match="m2.*no forecasts at all"):
            covid.impute_missing(gappy)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_gap_patterns_complete_once_and_idempotently(self, seed):
        table, _ = build_tables(seed=8, n_models=3, n_locations=2, n_weeks=12)
        rng = spawn_rng(seed, "gap-pattern")
        values = table.values.copy()
        miss = rng.random((3, 2, 12)) < 0.35
        for m in range(3):
            for li in range(2):
                if miss[m, li].all():
                    miss[m, li, rng.integers(12)] = False
                values[m, li, miss[m, li]] = np.nan
        gappy = ForecastTable(table.models, table.locations, table.weeks, values)
        full, log = covid.impute_missing(gappy)
        assert np.isfinite(full.values).all()
        assert len(log) == int(miss.sum())
        assert len({(e.model_id, e.location, e.week) for e in log}) == len(log)
        assert np.all(np.diff(full.values, axis=3) >= 0)
        again, log2 = covid.impute_missing(full)
        assert log2 == []
        np.testing.assert_array_equal(again.values, full.values)


# ---------------------------------------------------------------------------
# sample assembly


class TestAssembleSamples:
    def test_dimensions(self, samples):
        n = samples.n_rows
        assert samples.queries.shape == (n, 5)
        assert samples.keys.shape == (n, 9, 105)
        assert samples.values.shape == (n, 9, 21)
        assert samples.linear_inputs.shape == (n, 9 * 105)
        assert n == 8 * (120 - 5)

    def test_hand_assembled_row(self):
        """Every row, location-major and week-minor, against the row built
        by hand from the tables, on one location and on three."""
        med = covid.MEDIAN_INDEX
        others = [i for i in range(21) if i != med]
        for n_locations in (1, 3):
            forecasts, truth = build_tables(seed=9, n_models=2, n_locations=n_locations, n_weeks=8)
            s = covid.assemble_samples(truth, forecasts, delay=3)
            cells = [(li, j) for li in range(n_locations) for j in range(3, 8)]
            assert s.n_rows == len(cells)
            for row, (li, j) in enumerate(cells):
                assert (s.location_idx[row], s.week_idx[row]) == (li, j)
                np.testing.assert_array_equal(
                    s.queries[row], truth.deaths[li, [j - 1, j - 2, j - 3]]
                )
                for m in range(2):
                    expected = np.concatenate(
                        [
                            np.concatenate(
                                [
                                    [forecasts.values[m, li, j - t, med] - truth.deaths[li, j - t]],
                                    forecasts.values[m, li, j - t, others],
                                ]
                            )
                            for t in (1, 2, 3)
                        ]
                    )
                    np.testing.assert_array_equal(s.keys[row, m], expected)
                np.testing.assert_array_equal(s.values[row], forecasts.values[:, li, j])
                expected_lin = np.concatenate(
                    [forecasts.values[m, li, [j, j - 1, j - 2]].ravel() for m in range(2)]
                )
                np.testing.assert_array_equal(s.linear_inputs[row], expected_lin)
                assert s.truths[row] == truth.deaths[li, j]

    def test_perfect_median_model_has_zero_error_components(self):
        forecasts, truth = build_tables(seed=10, n_models=2, n_locations=1, n_weeks=9)
        values = forecasts.values.copy()
        z = np.linspace(-2.0, 2.0, 21)  # zero at the median position
        assert z[covid.MEDIAN_INDEX] == 0.0
        values[0] = truth.deaths[:, :, None] + 3.0 * z
        forecasts = ForecastTable(
            forecasts.models, forecasts.locations, forecasts.weeks, values
        )
        s = covid.assemble_samples(truth, forecasts, delay=4)
        error_cols = np.arange(4) * 21  # first component of each delay block
        np.testing.assert_array_equal(s.keys[:, 0, error_cols], 0.0)
        assert np.any(s.keys[:, 1, error_cols] != 0.0)

    def test_skips_warmup_weeks(self, samples):
        """The first ``delay`` weeks, ``weeks[:5]``, lack history and are
        no target; every later week is one, at every location."""
        targets = [samples.weeks[i] for i in np.unique(samples.week_idx)]
        assert targets == list(samples.weeks[5:])
        assert not set(targets) & set(samples.weeks[:5])
        assert samples.n_rows == len(samples.locations) * len(targets)

    def test_rejects_incomplete_table(self):
        forecasts, truth = build_tables(seed=11)
        gappy = blank(forecasts, "m0", "s0", [4])
        with pytest.raises(ValueError, match="missing cells"):
            covid.assemble_samples(truth, gappy, delay=3)

    def test_rejects_mismatched_grids_and_short_data(self):
        forecasts, truth = build_tables(seed=12, n_weeks=6)
        other_truth = TruthTable(
            locations=truth.locations,
            weeks=week_grid(6, start=date(2030, 1, 5)),
            deaths=truth.deaths,
        )
        with pytest.raises(ValueError, match="different grids"):
            covid.assemble_samples(other_truth, forecasts, delay=3)
        with pytest.raises(ValueError, match="need more than"):
            covid.assemble_samples(truth, forecasts, delay=6)
        with pytest.raises(ValueError, match="delay must be"):
            covid.assemble_samples(truth, forecasts, delay=0)

    def test_matches_the_per_model_gathers_bitwise(self, ingested, imputed, samples):
        """Each array has the bits of a gather in (model, location, target)
        order moved into row order by ``moveaxis`` and ``reshape``."""
        _, truth, _ = ingested
        full, _ = imputed
        n_rows, n_models, delay = samples.n_rows, samples.n_models, samples.delay
        targets = np.arange(delay, len(truth.weeks))
        lags = targets[:, None] - np.arange(1, delay + 1)
        others = [i for i in range(covid.N_LEVELS) if i != covid.MEDIAN_INDEX]
        blocks = np.concatenate(
            [
                (full.values[..., covid.MEDIAN_INDEX] - truth.deaths[None])[..., None],
                full.values[..., others],
            ],
            axis=3,
        )

        def rows_first(arr):
            return np.moveaxis(arr, 0, 2).reshape(n_rows, n_models, -1)

        np.testing.assert_array_equal(samples.keys, rows_first(blocks[:, :, lags]))
        np.testing.assert_array_equal(samples.values, rows_first(full.values[:, :, targets]))
        np.testing.assert_array_equal(
            samples.linear_inputs, rows_first(full.values[:, :, lags + 1]).reshape(n_rows, -1)
        )
        np.testing.assert_array_equal(samples.queries, truth.deaths[:, lags].reshape(n_rows, delay))

    def test_peak_memory_is_near_the_bytes_returned(self, ingested, imputed):
        """At the desk-scale hub (8 locations x 120 weeks x 9 models) each
        array is gathered once, with no full-size temporary: the traced
        peak stays within 1.2 times the bytes of the returned arrays."""
        _, truth, _ = ingested
        full, _ = imputed
        tracemalloc.start()
        try:
            s = covid.assemble_samples(truth, full, delay=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(
            a.nbytes
            for a in (s.queries, s.keys, s.values, s.linear_inputs, s.truths,
                      s.location_idx, s.week_idx)
        )
        assert peak <= 1.2 * returned, f"peak {peak} B for {returned} B returned"


# ---------------------------------------------------------------------------
# validation periods


class TestValidationPeriods:
    def test_default_periods_are_four_and_disjoint(self):
        periods = covid.DEFAULT_VALIDATION_PERIODS
        assert len(periods) == 4
        assert all(a.end < b.start for a, b in zip(periods, periods[1:]))

    def test_start_after_end_rejected(self):
        with pytest.raises(ValueError, match="after end"):
            ValidationPeriod(date(2024, 2, 3), date(2024, 1, 6))

    def test_split_covers_the_grid_disjointly(self, samples):
        periods = covid.split_into_periods(samples.weeks, 4, skip=5)
        assert all(a.end < b.start for a, b in zip(periods, periods[1:]))
        assert periods[0].start == samples.weeks[5]
        assert periods[-1].end == samples.weeks[-1]
        counts = [covid.period_rows(samples, p).size for p in periods]
        assert sum(counts) == samples.n_rows
        assert min(counts) > 0

    def test_split_needs_enough_weeks(self):
        with pytest.raises(ValueError, match="cannot split"):
            covid.split_into_periods(week_grid(3), 4, skip=0)

    def test_period_mask_matches_contains(self, samples):
        period = covid.split_into_periods(samples.weeks, 4, skip=5)[2]
        mask = samples.period_mask(period)
        for row in (0, 100, 500, samples.n_rows - 1):
            assert mask[row] == period.contains(samples.target_week(row))


# ---------------------------------------------------------------------------
# training


class TestTrainPooler:
    def test_unknown_kind_rejected(self, samples):
        config = TrainConfig(epochs=0, learning_rate=1e-5, batch_size=1, weight_decay=0.0, seed=0)
        with pytest.raises(ValueError, match="unknown pooler kind"):
            covid.train_pooler("softmax", samples, NO_WEEK, config=config, hidden=8, n_heads=1)

    @pytest.mark.parametrize(
        "knob, value, message",
        [
            ("epochs", -1, "epochs must be >= 0, got -1"),
            ("batch_size", 0, "batch_size must be >= 1, got 0"),
            ("n_heads", 0, "n_heads must be >= 1, got 0"),
        ],
    )
    def test_bad_training_knobs_are_rejected(self, samples, knob, value, message):
        """The training config (every trainer's) and train_pooler's head
        count reject what no loop can run."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            train("multi_head", samples, NO_WEEK, **{"epochs": 0, knob: value})

    def test_defaults_follow_the_experiment_scale(self, samples, tmp_path):
        """A covid config without model keys resolves each kind to its
        full-scale settings: 200 epochs of single-row updates at lr 1e-5,
        the kind's hidden size and weight decay, and 21 heads."""
        path = tmp_path / "covid.yaml"
        path.write_text("experiment: covid\noutput: out\ndata:\n  synthetic: {}\n")
        model = cli.validate_config(path).model
        expect = {"additive": (1000, 1e-4), "multi_head": (100, 1e-5), "linear": (None, 0.0)}
        resolved = {kind: cli._pooler_settings(model, 0, kind) for kind in expect}
        for kind, (hidden, decay) in expect.items():
            config, got_hidden, n_heads = resolved[kind]
            assert (config.epochs, config.learning_rate, config.batch_size) == (200, 1e-5, 1)
            assert (got_hidden, config.weight_decay, n_heads) == (hidden, decay, 21), kind

        def untrained(kind):
            config, hidden, n_heads = resolved[kind]
            return covid.train_pooler(
                kind, samples, NO_WEEK, config=replace(config, epochs=0), hidden=hidden,
                n_heads=n_heads,
            ).pooler

        single = untrained("additive")
        assert single.params.w_key.shape == (1, 105, 1000)
        assert single.params.w_out is None
        multi = untrained("multi_head")
        assert multi.params.n_heads == 21
        assert multi.params.w_key.shape == (21, 105, 100)
        # the mixer starts as the component-wise mean of the heads' pools
        mean_of_heads = np.zeros((21, 21 * 21))
        for p in range(21):
            mean_of_heads[np.arange(21), p * 21 + np.arange(21)] = 1.0 / 21
        np.testing.assert_array_equal(multi.params.w_out, mean_of_heads)

    def test_linear_starts_at_the_uniform_pool(self, samples):
        res = train("linear", samples, NO_WEEK, epochs=0)
        preds = covid.predict_quantiles(res.pooler, samples, np.arange(samples.n_rows))
        np.testing.assert_allclose(
            preds.quantiles, samples.values.mean(axis=1), atol=1e-9
        )

    def test_wis_training_beats_uniform_on_train_split(self):
        hub = synthesize(21, n_locations=5, n_weeks=60)
        table = ForecastTable(hub.models, hub.locations, hub.weeks, hub.forecasts)
        full, _ = covid.impute_missing(table)
        truth = TruthTable(hub.locations, hub.weeks, hub.truth)
        s = covid.assemble_samples(truth, full, delay=5)
        every = np.arange(s.n_rows)
        res = train("additive", s, NO_WEEK, epochs=200, learning_rate=1e-3, batch_size=64,
                    hidden=64, seed=2)
        uniform = covid.predict_quantiles(covid.baseline_pooler("uniform", s, every), s, every)
        uniform_wis = wis_batch(np.array(covid.QUANTILE_LEVELS), uniform.quantiles, s.truths)
        assert res.curve[-1] < uniform_wis.mean()
        assert res.curve[-1] < res.curve[0]

    def test_additive_outputs_monotone_without_repair(self, small_trained, samples):
        """The additive forward's raw output, with no sort applied, is in
        order: a convex combination of sorted candidate quantiles."""
        trained, _ = small_trained
        pooler = trained["additive"].pooler
        raw, _, _ = pooler.forward(*covid.pooler_inputs(pooler, samples, slice(None)))
        assert raw.shape == (samples.n_rows, covid.N_LEVELS)
        assert np.all(np.diff(raw, axis=1) >= 0)

    def test_repaired_outputs_monotone(self, small_trained, samples):
        trained, _ = small_trained
        for kind in ("multi_head", "linear"):
            every = np.arange(samples.n_rows)
            preds = covid.predict_quantiles(trained[kind].pooler, samples, every)
            assert np.all(np.diff(preds.quantiles, axis=1) >= 0)

    def test_training_is_deterministic(self, samples):
        cfg = dict(epochs=3, learning_rate=1e-3, batch_size=128, hidden=20)
        r1 = train("additive", samples, NO_WEEK, seed=9, **cfg)
        r2 = train("additive", samples, NO_WEEK, seed=9, **cfg)
        np.testing.assert_array_equal(r1.curve, r2.curve)
        for name in HEAD_FIELDS:
            np.testing.assert_array_equal(
                getattr(r1.pooler.params, name), getattr(r2.pooler.params, name)
            )
        r3 = train("additive", samples, NO_WEEK, seed=10, **cfg)
        assert not np.array_equal(r1.curve, r3.curve)

    def test_holdout_excluded_and_empty_train_rejected(self, samples):
        everything = ValidationPeriod(samples.weeks[0], samples.weeks[-1])
        with pytest.raises(ValueError, match="no training rows"):
            train("linear", samples, everything, epochs=0)

    def test_batch_hook_rejects_held_out_rows(self, samples, monkeypatch):
        """train_pooler trains on rows outside the holdout only, and the
        leave-one-period-out hook it hands the loop fires on a held-out row."""
        period = covid.split_into_periods(samples.weeks, 4, skip=samples.delay)[1]
        seen = {}
        real_fit = covid.fit

        def spy(model, forward, backward, inputs, loss, rows, rng, config, check_rows=None):
            seen.update(rows=rows, check_rows=check_rows)
            return real_fit(model, forward, backward, inputs, loss, rows, rng, config, check_rows)

        monkeypatch.setattr(covid, "fit", spy)
        train("linear", samples, period, epochs=1, batch_size=64)
        held_out = np.nonzero(samples.period_mask(period))[0]
        assert held_out.size > 0
        assert not np.isin(seen["rows"], held_out).any()
        seen["check_rows"](seen["rows"][:5])
        with pytest.raises(AssertionError, match="leave-one-period-out"):
            seen["check_rows"](np.append(seen["rows"][:5], held_out[0]))

    def test_non_finite_loss_aborts_with_context(self, samples):
        s = covid.HubSamples(
            models=samples.models,
            locations=samples.locations,
            weeks=samples.weeks,
            delay=samples.delay,
            queries=samples.queries,
            keys=samples.keys,
            values=samples.values.copy(),
            linear_inputs=samples.linear_inputs,
            truths=samples.truths,
            location_idx=samples.location_idx,
            week_idx=samples.week_idx,
        )
        s.values[:, :, :] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="epoch 0"):
                train("additive", s, NO_WEEK, epochs=1, batch_size=256, hidden=10)

    def test_weight_decay_shrinks_parameters(self, samples):
        cfg = dict(epochs=5, learning_rate=1e-3, batch_size=128, hidden=16, seed=4)
        r0 = train("additive", samples, NO_WEEK, weight_decay=0.0, **cfg)
        r1 = train("additive", samples, NO_WEEK, weight_decay=0.5, **cfg)
        n0 = np.linalg.norm(r0.pooler.params.w_key)
        n1 = np.linalg.norm(r1.pooler.params.w_key)
        assert n1 < n0

    def test_multi_head_setup_peaks_below_twice_the_keys(self, samples):
        """Before its first epoch, the multi-head pooler's standardizer fits
        and standardized inputs hold at most two key arrays' worth at once."""
        period = covid.split_into_periods(samples.weeks, 4, skip=5)[1]
        tracemalloc.start()
        try:
            train("multi_head", samples, period, epochs=0, hidden=100, n_heads=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        keys = samples.keys.nbytes
        assert peak <= 2 * keys, f"peak {peak} B for a {keys} B key array"

    @pytest.mark.parametrize("kind", ["additive", "multi_head", "linear", "ffnn"])
    def test_inputs_are_the_training_rows_standardized_bitwise(self, samples, kind):
        """The standardizers fit the training rows, and the pooler's forward
        on raw inputs, by slice and by index array, has the bits of its
        kind's forward on the inputs its standardizers give: the queries (or
        the direct net's delayed truths) and keys standardized, the rest
        raw. The ``ffnn`` kind is the Lorenz direct net, here reading the
        samples' queries."""
        period = covid.split_into_periods(samples.weeks, 4, skip=5)[2]
        train_rows = np.nonzero(~samples.period_mask(period))[0]
        if kind == "ffnn":
            config = TrainConfig(
                epochs=0, learning_rate=1e-3, batch_size=8, weight_decay=0.0, seed=1
            )
            pooler, _ = forecasting.train_ffnn(
                samples.queries[train_rows], samples.truths[train_rows, None], samples.delay,
                hidden=8, config=config,
            )
        else:
            pooler = train(kind, samples, period, epochs=0, hidden=8, n_heads=3, seed=1).pooler
        # the kind's standardized inputs, each with the array its scaler fits
        n_scaled = {"linear": 0, "ffnn": 1}.get(kind, 2)
        scalers = [(pooler.query_scaler, samples.queries), (pooler.key_scaler, samples.keys)]
        assert [s is not None for s, _ in scalers] == [i < n_scaled for i in range(2)]
        fitted = scalers[:n_scaled]
        for scaler, arr in fitted:
            expected = Standardizer.fit(arr[train_rows])
            np.testing.assert_array_equal(scaler.mean, expected.mean)
            np.testing.assert_array_equal(scaler.scale, expected.scale)
        forward, _ = forecasting.kind_functions(kind)
        for rows in (slice(None), np.arange(0, samples.n_rows, 3)):
            if kind == "ffnn":
                raw = (samples.queries[rows],)
            else:
                raw = covid.pooler_inputs(pooler, samples, rows)
            standardized = [
                (x - scaler.mean) / scaler.scale for (scaler, _), x in zip(fitted, raw)
            ] + list(raw[len(fitted):])
            got, got_weights, _ = pooler.forward(*raw)
            want, want_weights, _ = forward(pooler.params, *standardized)
            assert got.tobytes() == want.tobytes()
            if want_weights is None:
                assert got_weights is None
            else:
                assert got_weights.tobytes() == want_weights.tobytes()


# ---------------------------------------------------------------------------
# prediction + evaluation


class TestPredictEvaluate:
    def test_perfect_candidates_score_zero(self):
        forecasts, truth = build_tables(seed=13, n_models=3, n_locations=1, n_weeks=9)
        values = np.broadcast_to(
            truth.deaths[None, :, :, None], forecasts.values.shape
        ).copy()
        perfect = ForecastTable(
            forecasts.models, forecasts.locations, forecasts.weeks, values
        )
        s = covid.assemble_samples(truth, perfect, delay=3)
        res = train("additive", s, NO_WEEK, epochs=0, hidden=8)
        period = ValidationPeriod(s.weeks[3], s.weeks[-1])
        ev = covid.evaluate_period(res.pooler, s, period)
        # softmax weights sum to 1 +- one ulp, so "exact" is 1e-15 relative
        assert ev.mean_wis == pytest.approx(0.0, abs=1e-9)

    def test_single_candidate_passes_through(self):
        forecasts, truth = build_tables(seed=14, n_models=1, n_locations=2, n_weeks=10)
        s = covid.assemble_samples(truth, forecasts, delay=3)
        res = train("additive", s, NO_WEEK, epochs=0, hidden=8)
        every = np.arange(s.n_rows)
        preds = covid.predict_quantiles(res.pooler, s, every)
        np.testing.assert_allclose(preds.quantiles, s.values[:, 0], atol=1e-12)
        np.testing.assert_allclose(preds.weights, 1.0)
        pooled_wis = wis_batch(np.array(covid.QUANTILE_LEVELS), preds.quantiles, s.truths)
        np.testing.assert_allclose(pooled_wis.mean(), covid.candidate_mean_wis(s, every)[0])

    def test_pooled_quantiles_stay_in_the_candidate_hull(self, small_trained, samples):
        trained, _ = small_trained
        every = np.arange(samples.n_rows)
        preds = covid.predict_quantiles(trained["additive"].pooler, samples, every)
        low = samples.values.min(axis=1) - 1e-9
        high = samples.values.max(axis=1) + 1e-9
        assert np.all(preds.quantiles >= low) and np.all(preds.quantiles <= high)
        w = preds.weights
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w >= 0)

    def test_evaluate_restricts_to_the_period(self, small_trained, samples):
        trained, period = small_trained
        ev = covid.evaluate_period(trained["additive"].pooler, samples, period)
        assert len(ev.scores) == covid.period_rows(samples, period).size
        for s in ev.scores:
            assert period.contains(s.week)
        assert ev.mean_wis == pytest.approx(np.mean([s.wis for s in ev.scores]))

    def test_evaluate_outside_data_range_rejected(self, small_trained, samples):
        trained, _ = small_trained
        far = ValidationPeriod(date(1999, 1, 2), date(1999, 3, 6))
        with pytest.raises(ValueError, match="no scored weeks"):
            covid.evaluate_period(trained["additive"].pooler, samples, far)

    def test_delay_mismatch_rejected(self, small_trained, ingested, imputed):
        trained, _ = small_trained
        _, truth, _ = ingested
        full, _ = imputed
        short = covid.assemble_samples(truth, full, delay=3)
        with pytest.raises(ValueError, match="delay"):
            covid.predict_quantiles(trained["additive"].pooler, short, np.arange(short.n_rows))

    def test_forced_inversion_is_repaired_and_counted(self, samples):
        pooler = Pooler(
            kind="linear",
            params=LinearPooler(
                weight=-covid._uniform_pool_linear(samples.n_models, samples.delay).weight,
                bias=np.zeros(covid.N_LEVELS),
            ),
            delay=samples.delay,
        )
        raw, _, _ = pooler.forward(*covid.pooler_inputs(pooler, samples, np.arange(50)))
        assert np.any(np.diff(raw, axis=1) < 0)
        preds = covid.predict_quantiles(pooler, samples, rows=np.arange(50))
        assert np.all(np.diff(preds.quantiles, axis=1) >= 0)

    def test_uniform_and_candidate_baselines(self, samples):
        rows = np.arange(0, samples.n_rows, 7)
        uni = covid.predict_quantiles(covid.baseline_pooler("uniform", samples, rows), samples, rows)
        assert uni.quantiles.shape == (rows.size, covid.N_LEVELS)
        per_model = covid.candidate_mean_wis(samples, rows)
        assert per_model.shape == (samples.n_models,)
        assert np.isfinite(per_model).all()

    def test_baseline_poolers_keep_the_candidates_bits(self, samples):
        """The uniform pooler is the candidates' mean and the best_single
        pooler its period's champion, bit for bit."""
        period = covid.split_into_periods(samples.weeks, 4, skip=samples.delay)[2]
        rows = covid.period_rows(samples, period)
        champion = int(np.argmin(covid.candidate_mean_wis(samples, rows)))
        expect = {
            "uniform": samples.values[rows].mean(axis=1),
            "best_single": samples.values[rows, champion],
        }
        for kind, quantiles in expect.items():
            pooler = covid.baseline_pooler(kind, samples, rows)
            preds = covid.predict_quantiles(pooler, samples, rows)
            assert preds.quantiles.tobytes() == quantiles.tobytes(), kind
            assert preds.weights is None, kind
            ev = covid.evaluate_period(pooler, samples, period)
            wis = wis_batch(np.array(covid.QUANTILE_LEVELS), quantiles, samples.truths[rows])
            assert [s.wis for s in ev.scores] == wis.tolist(), kind
        assert covid.baseline_pooler("best_single", samples, rows).params == champion

    def test_baseline_pooler_rejects_unknown_kinds_and_empty_rows(self, samples):
        with pytest.raises(ValueError, match="unknown baseline kind"):
            covid.baseline_pooler("additive", samples, np.arange(3))
        with pytest.raises(ValueError, match="at least one sample row"):
            covid.baseline_pooler("best_single", samples, np.arange(0))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_untrained_additive_pooling_is_always_convex(self, seed):
        forecasts, truth = build_tables(
            seed=seed % 997, n_models=4, n_locations=1, n_weeks=8
        )
        s = covid.assemble_samples(truth, forecasts, delay=2)
        res = train("additive", s, NO_WEEK, epochs=0, hidden=6, seed=seed)
        preds = covid.predict_quantiles(res.pooler, s, np.arange(s.n_rows))
        assert np.all(np.diff(preds.quantiles, axis=1) >= 0)
        low = s.values.min(axis=1) - 1e-9
        high = s.values.max(axis=1) + 1e-9
        assert np.all(preds.quantiles >= low) and np.all(preds.quantiles <= high)


# ---------------------------------------------------------------------------
# synthetic generator


class TestSynthesizeHub:
    def test_deterministic_arrays_and_files(self, hub, tmp_path):
        again = synthesize(11)
        np.testing.assert_array_equal(hub.truth, again.truth)
        nan_match = np.isnan(hub.forecasts) == np.isnan(again.forecasts)
        assert nan_match.all()
        finite = ~np.isnan(hub.forecasts)
        np.testing.assert_array_equal(hub.forecasts[finite], again.forecasts[finite])
        hub.write_csvs(tmp_path / "f1.csv", tmp_path / "t1.csv")
        again.write_csvs(tmp_path / "f2.csv", tmp_path / "t2.csv")
        assert (tmp_path / "f1.csv").read_bytes() == (tmp_path / "f2.csv").read_bytes()
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()

    def test_synthesizing_does_not_load_scipy(self):
        code = (
            "import sys, attnpool.covid as c; c.synthesize_hub(1, 8, 120, 9); "
            "print('scipy' in sys.modules)"
        )
        src = str(Path(covid.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_seeds_differ(self, hub):
        other = synthesize(12)
        assert not np.array_equal(hub.truth, other.truth)

    def test_everything_non_negative_and_monotone(self, hub):
        assert np.all(hub.truth >= 0)
        finite = ~np.isnan(hub.forecasts)
        assert np.all(hub.forecasts[finite] >= 0)
        diffs = np.diff(hub.forecasts, axis=3)
        assert np.all(diffs[~np.isnan(diffs)] >= 0)

    def test_gaps_cover_all_three_rules(self, hub):
        assert {g.expected_rule for g in hub.gaps} == set(covid.IMPUTATION_RULES)
        mask = np.isnan(hub.forecasts).all(axis=3)
        for gap in hub.gaps:
            m = hub.models.index(gap.model_id)
            li = hub.locations.index(gap.location)
            for week in gap.weeks:
                assert mask[m, li, hub.weeks.index(week)]

    def test_size_guards(self):
        with pytest.raises(ValueError, match="locations"):
            synthesize(0, n_locations=4)
        with pytest.raises(ValueError, match="weeks"):
            synthesize(0, n_weeks=20)
        with pytest.raises(ValueError, match="n_models"):
            synthesize(0, n_models=5)

    def test_regime_swapped_models_swap_quality(self, samples):
        half = len(samples.weeks) // 2
        early = samples.week_idx < half
        levels = np.array(covid.QUANTILE_LEVELS)
        m0_early = wis_batch(levels, samples.values[early, 0], samples.truths[early]).mean()
        m0_late = wis_batch(levels, samples.values[~early, 0], samples.truths[~early]).mean()
        m1_early = wis_batch(levels, samples.values[early, 1], samples.truths[early]).mean()
        m1_late = wis_batch(levels, samples.values[~early, 1], samples.truths[~early]).mean()
        assert m0_early < m0_late / 3
        assert m1_late < m1_early / 3
