"""End-to-end acceptance gates.

Every tolerance here is pinned. The heavy shared work — the full
chaotic-forecast protocol (4000 training samples, 500 epochs, 200 validation
segments) and the synthetic hub pipeline (8 locations x 120 weeks x 9
candidates, leave-one-period-out) — runs once in session fixtures; the whole
file finishes in a few minutes single-threaded.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest
from click.testing import CliRunner

from attnpool import cli, covid
from attnpool.attention import (
    init_multi_head,
    init_single_head,
    multi_head_backward,
    multi_head_forward,
    single_head_backward,
    single_head_forward,
)
from attnpool.evaluation import (
    ValidTimeConfig,
    WISConfig,
    interval_score,
    valid_time,
    wis,
    wis_batch,
    wis_gradient_batch,
)
from attnpool.forecasting import (
    TrainConfig,
    assemble_open_loop,
    closed_loop_forecast_batch,
    ffnn_backward,
    ffnn_forward,
    gather_histories,
    init_ffnn,
    train_attention,
    train_ffnn,
    train_linear,
)
from attnpool.lorenz import (
    CANDIDATE_RHOS,
    DT_SAMPLE,
    candidate_forecasts,
    generate_dataset,
    integrate,
    nonstationary_params,
    rho_true,
    rk4_step,
)

GRADIENT_TOLERANCE = 1e-5
N_GRADIENT_SEEDS = 20
HEAD_NAMES = ("w_query", "w_key", "w_score", "bias")


def _numeric_gradient(loss_fn, param, step=1e-5):
    param = np.asarray(param, dtype=np.float64)
    grad = np.zeros_like(param)
    flat, work = grad.ravel(), param.copy()
    wflat = work.ravel()
    for i in range(wflat.size):
        orig = wflat[i]
        wflat[i] = orig + step
        up = loss_fn(work)
        wflat[i] = orig - step
        down = loss_fn(work)
        wflat[i] = orig
        flat[i] = (up - down) / (2.0 * step)
    return grad


def _check_grads(owners, loss, analytic):
    """Worst relative L2 error of analytic vs central-difference gradients."""
    worst = 0.0
    for (owner, attr), g in zip(owners, analytic):
        original = getattr(owner, attr)

        def perturbed(arr, owner=owner, attr=attr, original=original):
            setattr(owner, attr, arr)
            try:
                return loss()
            finally:
                setattr(owner, attr, original)

        numeric = _numeric_gradient(perturbed, original)
        err = np.linalg.norm(np.asarray(g) - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, err)
    return worst


class _HeadSlice:
    """Owner of one head's slice of a stacked multi-head array: ``value``
    reads a copy of the slice and writes into it."""

    def __init__(self, stacked, head):
        self.stacked, self.head = stacked, head

    @property
    def value(self):
        return self.stacked[self.head].copy()

    @value.setter
    def value(self, arr):
        self.stacked[self.head] = arr


class TestGradientSuite:
    """Analytic gradients match central finite differences to < 1e-5
    relative error on 20 random instances per model; the whole class runs
    in well under a minute."""

    def test_single_head_attention_mse(self):
        start = time.monotonic()
        for seed in range(N_GRADIENT_SEEDS):
            rng = np.random.default_rng(seed)
            params = init_single_head(rng, hidden=6, query_dim=5, key_dim=4)
            q, k = rng.normal(size=(4, 5)), rng.normal(size=(4, 3, 4))
            v, y = rng.normal(size=(4, 3, 3)), rng.normal(size=(4, 3))

            def loss():
                pooled, _, _ = single_head_forward(params, q, k, v)
                return float(np.sum((pooled - y) ** 2))

            pooled, _, cache = single_head_forward(params, q, k, v)
            grads = single_head_backward(params, cache, 2.0 * (pooled - y))
            worst = _check_grads(
                [(params, n) for n in HEAD_NAMES],
                loss,
                [getattr(grads, n) for n in HEAD_NAMES],
            )
            assert worst < GRADIENT_TOLERANCE, f"seed {seed}: rel err {worst:.2e}"
        assert time.monotonic() - start < 60.0

    def test_multi_head_attention_mse(self):
        start = time.monotonic()
        for seed in range(N_GRADIENT_SEEDS):
            rng = np.random.default_rng(100 + seed)
            params = init_multi_head(
                rng, n_heads=3, hidden=4, query_dim=5, key_dim=4, value_dim=3
            )
            q, k = rng.normal(size=(4, 5)), rng.normal(size=(4, 3, 4))
            v, y = rng.normal(size=(4, 3, 3)), rng.normal(size=(4, 3))

            def loss():
                out, _, _ = multi_head_forward(params, q, k, v)
                return float(np.sum((out - y) ** 2))

            out, _, cache = multi_head_forward(params, q, k, v)
            grads = multi_head_backward(params, cache, 2.0 * (out - y))
            owners = [(params, "w_out")] + [
                (_HeadSlice(getattr(params, n), i), "value")
                for i in range(params.n_heads) for n in HEAD_NAMES
            ]
            analytic = [grads.w_out] + [
                getattr(grads, n)[i] for i in range(params.n_heads) for n in HEAD_NAMES
            ]
            worst = _check_grads(owners, loss, analytic)
            assert worst < GRADIENT_TOLERANCE, f"seed {seed}: rel err {worst:.2e}"
        assert time.monotonic() - start < 60.0

    def test_feed_forward_mse(self):
        for seed in range(N_GRADIENT_SEEDS):
            rng = np.random.default_rng(200 + seed)
            net = init_ffnn(rng, hidden=8, in_dim=6, out_dim=3)
            x, y = rng.normal(size=(5, 6)), rng.normal(size=(5, 3))

            def loss():
                out, _ = ffnn_forward(net, x)
                return float(np.sum((out - y) ** 2))

            out, cache = ffnn_forward(net, x)
            grads = ffnn_backward(net, cache, 2.0 * (out - y))
            names = ("w1", "b1", "w2", "b2")
            worst = _check_grads(
                [(net, n) for n in names], loss, [getattr(grads, n) for n in names]
            )
            assert worst < GRADIENT_TOLERANCE, f"seed {seed}: rel err {worst:.2e}"

    def test_wis_loss_wrt_quantiles(self):
        # spaced quantiles and an observation kept away from every kink so
        # the central difference never straddles a non-smooth point
        levels = np.array(WISConfig().required_levels)
        for seed in range(N_GRADIENT_SEEDS):
            rng = np.random.default_rng(300 + seed)
            values = 5.0 + np.cumsum(0.05 + rng.uniform(0.0, 1.0, size=21))
            pos = int(rng.integers(-1, 22))
            if pos == -1:
                y = values[0] - rng.uniform(0.5, 2.0)
            elif pos >= 20:
                y = values[-1] + rng.uniform(0.5, 2.0)
            else:
                y = values[pos] + (values[pos + 1] - values[pos]) * rng.uniform(0.25, 0.75)

            analytic = wis_gradient_batch(levels, values[None], np.array([y]))[0]
            numeric = _numeric_gradient(
                lambda v: float(wis_batch(levels, v[None], np.array([y]))[0]), values
            )
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert err < GRADIENT_TOLERANCE, f"seed {seed}: rel err {err:.2e}"


class TestIntegratorSuite:
    """Fourth-order convergence, an exactly preserved fixed point, and a
    bounded long trajectory, all inside a minute."""

    def test_rk4_order_of_convergence(self):
        params = nonstationary_params()
        u0 = np.array([-6.0, 8.0, 27.0])

        def advance(dt, t_end=0.5):
            u, t = u0.copy(), 0.0
            for _ in range(int(round(t_end / dt))):
                u = rk4_step(u, t, dt, params)
                t += dt
            return u

        reference = advance(0.0003125)
        dts = np.array([0.02, 0.01, 0.005, 0.0025])
        errors = np.array([np.linalg.norm(advance(dt) - reference) for dt in dts])
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 3.7 <= slope <= 4.3, f"slope {slope:.3f}, errors {errors}"

    def test_origin_is_an_exact_fixed_point(self):
        out = rk4_step(np.zeros(3), 1.23, 0.1, nonstationary_params())
        assert np.all(out == 0.0)

    def test_long_trajectory_stays_bounded(self):
        start = time.monotonic()
        traj = integrate(np.array([-6.0, 8.0, 27.0]), 0.0, 30_000, nonstationary_params())
        assert traj.states.shape == (30_000, 3)
        assert np.max(np.abs(traj.states)) < 100.0
        assert time.monotonic() - start < 60.0


class TestScoreSuite:
    """Frozen analytic interval/weighted-score values hold exactly;
    homogeneity and translation invariance hold to 1e-12."""

    def test_observation_inside_interval_scores_the_width(self):
        assert interval_score(1.0, 3.0, 0.2, 2.0) == 2.0

    def test_observation_below_interval(self):
        assert interval_score(1.0, 3.0, 0.2, 0.0) == 12.0

    def test_observation_above_interval(self):
        assert interval_score(1.0, 3.0, 0.5, 4.0) == 6.0

    def test_single_interval_worked_example(self):
        score = wis({0.25: 1.0, 0.5: 2.0, 0.75: 3.0}, 2.0, WISConfig(alphas=(0.5,)))
        assert score == 1.0 / 3.0

    def test_perfect_forecast_scores_zero(self):
        levels = WISConfig().required_levels
        assert wis({lv: 7.0 for lv in levels}, 7.0) == 0.0

    def test_positive_homogeneity_and_translation_invariance(self):
        levels = np.array(WISConfig().required_levels)
        for seed in range(N_GRADIENT_SEEDS):
            rng = np.random.default_rng(400 + seed)
            vals = np.sort(rng.uniform(0.0, 10.0, size=21))
            y = rng.uniform(-2.0, 12.0)
            lam = rng.uniform(0.1, 10.0)
            shift = rng.uniform(-5.0, 5.0)
            base = wis_batch(levels, vals[None], np.array([y]))[0]
            scaled = wis_batch(levels, lam * vals[None], np.array([lam * y]))[0]
            shifted = wis_batch(levels, (vals + shift)[None], np.array([y + shift]))[0]
            assert abs(scaled - lam * base) <= 1e-12
            assert abs(shifted - base) <= 1e-12


# ---------------------------------------------------------------------------
# full chaotic-forecast protocol: one training run shared by two gates

PROTOCOL_SEED = 0
PROTOCOL_DELAY = 5


@dataclass
class ProtocolRun:
    medians: dict
    additive_vts: np.ndarray
    additive_weights: np.ndarray   # (B, H, M), NaN once a row truncates
    rho_at_step: np.ndarray        # (B, H) true driving parameter
    elapsed: float


@pytest.fixture(scope="session")
def protocol() -> ProtocolRun:
    start = time.monotonic()
    data = cli.LorenzDataConfig()
    ds = generate_dataset(
        seed=PROTOCOL_SEED,
        t_transient=data.t_transient,
        t_train=data.t_train,
        t_val=data.t_val,
        n_val_segments=data.n_val_segments,
        segment_len=data.segment_len,
        warmup=data.warmup,
    )
    assert len(ds.train.states) == 4000
    assert len(ds.segment_starts) == 200

    cand = candidate_forecasts(ds.train.states)
    data = assemble_open_loop(ds.train.states, cand, PROTOCOL_DELAY)
    train_cfg = TrainConfig(epochs=500, learning_rate=1e-3, batch_size=128, seed=PROTOCOL_SEED)
    pooler, _ = train_attention(data, PROTOCOL_DELAY, config=train_cfg)

    starts = np.array(ds.segment_starts)
    truths = np.stack([ds.validation.states[s:s + ds.segment_len] for s in starts])
    horizon = ds.segment_len
    vt_cfg = ValidTimeConfig(epsilon=40.0, dt=DT_SAMPLE)

    def medians_of(result):
        vts = np.array(
            [valid_time(result.predictions[i], truths[i], vt_cfg) for i in range(len(truths))]
        )
        return vts, float(np.median(vts))

    medians = {}
    histories = gather_histories(ds.validation.states, starts, PROTOCOL_DELAY + 1)
    additive = closed_loop_forecast_batch(pooler, histories, horizon, variant="additive")
    additive_vts, medians["additive"] = medians_of(additive)
    for variant in ("fixed_attention", "best_initial"):
        res = closed_loop_forecast_batch(pooler, histories, horizon, variant=variant)
        _, medians[variant] = medians_of(res)

    current = assemble_open_loop(ds.train.states, cand, 1)
    linear, _ = train_linear(
        current.values.reshape(len(current.targets), -1), current.targets, train_cfg
    )
    lin_res = closed_loop_forecast_batch(
        linear, gather_histories(ds.validation.states, starts, 1), horizon
    )
    _, medians["linear"] = medians_of(lin_res)

    net, _ = train_ffnn(
        data.queries,
        data.targets,
        PROTOCOL_DELAY,
        config=TrainConfig(epochs=800, learning_rate=1e-3, batch_size=128, seed=PROTOCOL_SEED),
    )
    ffnn_res = closed_loop_forecast_batch(
        net, gather_histories(ds.validation.states, starts, PROTOCOL_DELAY), horizon
    )
    _, medians["ffnn"] = medians_of(ffnn_res)

    seg_t = ds.validation.t0 + (starts[:, None] + np.arange(horizon)[None, :]) * DT_SAMPLE
    return ProtocolRun(
        medians=medians,
        additive_vts=additive_vts,
        additive_weights=additive.weights,
        rho_at_step=np.vectorize(rho_true)(seg_t),
        elapsed=time.monotonic() - start,
    )


class TestForecastProtocol:
    """Median valid times from the full protocol: the retrained attention
    pooler at delay 5 must beat every baseline by the pinned margins."""

    def test_attention_median_valid_time(self, protocol):
        assert protocol.medians["additive"] >= 2.0

    def test_attention_beats_linear_fourfold(self, protocol):
        assert protocol.medians["additive"] >= 4.0 * protocol.medians["linear"]

    def test_baselines_land_in_their_expected_bands(self, protocol):
        assert 0.1 <= protocol.medians["linear"] <= 0.5
        assert 0.2 <= protocol.medians["ffnn"] <= 0.8

    def test_frozen_weight_variants_do_not_track(self, protocol):
        assert protocol.medians["fixed_attention"] < 1.0
        assert protocol.medians["best_initial"] < 1.0

    def test_protocol_runtime_within_budget(self, protocol):
        assert protocol.elapsed < 1800.0


class TestWeightTracking:
    """During closed-loop forecasts the highest-weighted candidate's driving
    parameter follows the true time-varying parameter: Pearson r > 0.5 over
    the forecast window on at least 60% of segments with valid time >= 2."""

    def test_argmax_candidate_tracks_true_parameter(self, protocol):
        rhos = np.array(CANDIDATE_RHOS)
        eligible = np.nonzero(protocol.additive_vts >= 2.0)[0]
        assert len(eligible) >= 20  # enough segments for the fraction to mean something
        good = 0
        for i in eligible:
            w = protocol.additive_weights[i]
            finite = np.isfinite(w).all(axis=1)
            argmax_rho = rhos[np.argmax(np.where(np.isfinite(w), w, -np.inf), axis=1)]
            a, b = argmax_rho[finite], protocol.rho_at_step[i, finite]
            if np.std(a) == 0.0 or np.std(b) == 0.0:
                continue  # constant series cannot correlate; counts as a miss
            good += np.corrcoef(a, b)[0, 1] > 0.5
        assert good / len(eligible) >= 0.6, f"{good}/{len(eligible)} segments track"


# ---------------------------------------------------------------------------
# synthetic hub pipeline: imputation, leave-one-period-out training, scores

HUB_SEED = 11
TRAIN_KWARGS = dict(epochs=120, learning_rate=1e-3, batch_size=32, seed=5)


@dataclass
class HubRun:
    samples: covid.HubSamples
    periods: tuple
    union_rows: np.ndarray
    pooled_wis: dict            # kind -> per-row WIS on the held-out union
    imputation_log: list
    completed: covid.ForecastTable
    gaps: tuple
    elapsed: float


@pytest.fixture(scope="session")
def hub_run(tmp_path_factory) -> HubRun:
    start = time.monotonic()
    out = tmp_path_factory.mktemp("hub")
    hub = covid.synthesize_hub(HUB_SEED, n_locations=8, n_weeks=120, n_models=9)
    hub.write_csvs(out / "forecasts.csv", out / "truth.csv")
    forecasts, truth, _ = covid.ingest(out / "forecasts.csv", out / "truth.csv")

    completed, log = covid.impute_missing(forecasts)
    samples = covid.assemble_samples(truth, completed, delay=5)
    periods = covid.split_into_periods(samples.weeks, 4, skip=samples.delay)

    configs = {
        "additive": covid.PoolerTrainConfig(hidden=150, **TRAIN_KWARGS),
        "multi_head": covid.PoolerTrainConfig(hidden=60, n_heads=5, **TRAIN_KWARGS),
    }
    pooled = {kind: np.full(samples.n_rows, np.nan) for kind in configs}
    levels = np.array(covid.QUANTILE_LEVELS)
    for period in periods:
        rows = covid.period_rows(samples, period)
        for kind, cfg in configs.items():
            result = covid.train_pooler(kind, samples, holdout=period, config=cfg)
            preds = covid.predict_quantiles(result.pooler, samples, rows)
            pooled[kind][rows] = wis_batch(levels, preds.quantiles, samples.truths[rows])

    union = np.concatenate([covid.period_rows(samples, p) for p in periods])
    return HubRun(
        samples=samples,
        periods=periods,
        union_rows=np.sort(union),
        pooled_wis=pooled,
        imputation_log=log,
        completed=completed,
        gaps=hub.gaps,
        elapsed=time.monotonic() - start,
    )


class TestHubPipeline:
    """Two-regime synthetic hub data: imputation must complete the table and
    be idempotent; trained poolers must beat the untrained baselines on
    held-out weeks; the leave-one-period-out discipline is load-bearing
    (an assertion inside the minibatch loop fires on any leak, so the
    trainings completing is itself part of this gate)."""

    def test_imputation_completes_the_table(self, hub_run):
        assert not hub_run.completed.missing_mask().any()
        assert np.isfinite(hub_run.completed.values).all()

    def test_imputation_covers_all_three_rules(self, hub_run):
        exercised = {entry.rule for entry in hub_run.imputation_log}
        assert exercised == set(covid.IMPUTATION_RULES)
        assert exercised == {gap.expected_rule for gap in hub_run.gaps}

    def test_imputation_is_idempotent(self, hub_run):
        again, log = covid.impute_missing(hub_run.completed)
        assert log == []
        assert np.array_equal(again.values, hub_run.completed.values)

    def test_trained_poolers_beat_uniform_pooling(self, hub_run):
        rows = hub_run.union_rows
        uniform = float(covid.uniform_pool_wis(hub_run.samples, rows).mean())
        for kind, scores in hub_run.pooled_wis.items():
            assert np.isfinite(scores[rows]).all()
            trained = float(scores[rows].mean())
            assert trained <= uniform, f"{kind}: {trained:.3f} vs uniform {uniform:.3f}"

    def test_trained_poolers_beat_the_best_single_candidate(self, hub_run):
        rows = hub_run.union_rows
        best_single = float(covid.candidate_mean_wis(hub_run.samples, rows).min())
        for kind, scores in hub_run.pooled_wis.items():
            trained = float(scores[rows].mean())
            assert trained <= best_single, f"{kind}: {trained:.3f} vs best {best_single:.3f}"

    def test_every_scored_row_is_held_out_exactly_once(self, hub_run):
        # the periods tile all scorable rows, so "held-out union" = everything
        assert np.array_equal(hub_run.union_rows, np.arange(hub_run.samples.n_rows))

    def test_pipeline_runtime_within_budget(self, hub_run):
        assert hub_run.elapsed < 600.0


# ---------------------------------------------------------------------------
# rerun determinism

LORENZ_RERUN_CONFIG = """\
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

COVID_RERUN_CONFIG = """\
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

LORENZ_CSVS = (
    "valid_times.csv", "vt_summary.csv", "loss_curve.csv",
    "attention_weights.csv", "forecasts.csv",
)
COVID_CSVS = ("wis_by_week.csv", "period_summary.csv", "imputation_log.csv")


class TestRerunDeterminism:
    """Rerunning an experiment with an identical config must reproduce every
    metric CSV byte for byte."""

    @pytest.mark.parametrize(
        "command,template,csvs",
        [
            ("lorenz-run", LORENZ_RERUN_CONFIG, LORENZ_CSVS),
            ("covid-run", COVID_RERUN_CONFIG, COVID_CSVS),
        ],
        ids=["lorenz", "covid"],
    )
    def test_metric_csvs_are_byte_identical(self, tmp_path, command, template, csvs):
        runner = CliRunner()
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / run
            cfg = tmp_path / f"{run}.yaml"
            cfg.write_text(template.format(out=out))
            result = runner.invoke(cli.main, [command, "--config", str(cfg)])
            assert result.exit_code == 0, result.output + str(result.exception)
            outputs.append(out)
        first, second = outputs
        for name in csvs:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
