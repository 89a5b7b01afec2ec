"""Span recorder for the traced benchmark run.

``Tracer.install()`` wraps every public function of the attnpool layer modules
from outside the package. It replaces each module attribute that refers to a
wrapped function, so a call is recorded whether it resolves the name in the
defining module (``attnpool.forecasting.single_head_forward``) or in a module
that imported it (``attnpool.cli.train_attention``). Nothing under ``src/``
changes.

A span is (id, name, start, end, parent id, work). Each thread keeps its own
stack of open spans, so spans opened on pool threads nest correctly; a span
opened on a thread with an empty stack is parented to the innermost span open
on the installing thread, which is blocked waiting for that pool. Spans are
kept in memory, one buffer per thread, and reduced to per-layer metrics after
the run by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
from collections import defaultdict
from time import perf_counter

# The package modules, one layer each.
LAYERS = ("lorenz", "attention", "numerics", "forecasting", "evaluation", "covid", "cli")

CLOSED_LOOP_FORECASTS = (
    "forecasting.closed_loop_forecast_batch",
    "forecasting.ffnn_closed_loop_batch",
    "forecasting.linear_closed_loop_batch",
)
RUNNERS = ("cli.run_lorenz_experiment", "cli.run_covid_experiment")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _state_count(args, kwargs):
    """State vectors advanced one sampling step by ``candidate_one_step_batch``."""
    shape = getattr(_arg(args, kwargs, 0, "states"), "shape", ())
    n = 1
    for size in shape[:-1]:
        n *= size
    return n


def _segment_steps(args, kwargs):
    """Segments times horizon of one closed-loop forecast call."""
    return len(_arg(args, kwargs, 1, "histories")) * _arg(args, kwargs, 2, "horizon")


# Not wrapped: the driving-parameter callback is evaluated at every stage of
# every RK4 substep (over a million calls per dataset), so a span per call
# would cost more than the integration it sits in.
UNTRACED = {"lorenz.rho_true"}

# Work counted per call, computed from the arguments after the span closes.
WORK = {
    "lorenz.candidate_one_step_batch": _state_count,
    **{name: _segment_steps for name in CLOSED_LOOP_FORECASTS},
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[tuple]] = []
        self._ids = itertools.count()
        self._installer_stack: list[int] = []
        self._installer = None
        self._patched: list[tuple[object, str, object]] = []

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.buffer
        except AttributeError:
            local.stack, local.buffer = [], []
            with self._lock:
                self._buffers.append(local.buffer)
            if threading.get_ident() == self._installer:
                self._installer_stack = local.stack
            return local.stack, local.buffer

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, buffer = self._thread_state()
            parent = None
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._installer:
                try:
                    parent = self._installer_stack[-1]
                except IndexError:
                    pass
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buffer.append(
                    (sid, name, start, end, parent, work(args, kwargs) if work else 0)
                )

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer and patch every alias."""
        self._installer = threading.get_ident()
        self._thread_state()
        modules = [importlib.import_module(f"attnpool.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                    # a wrapped generator function would time only its creation
                    and not inspect.isgeneratorfunction(obj)
                    and f"{layer}.{attr}" not in UNTRACED
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans(self) -> list[tuple]:
        with self._lock:
            return [span for buffer in self._buffers for span in buffer]


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out[sid] = (end - start) - _union_length(k for k in kids if k[1] > k[0])
    return out


def _outermost_in_layer(spans) -> set[int]:
    """Ids of spans with no ancestor in their own layer (their sum is busy time)."""
    layer_of = {sid: name.split(".", 1)[0] for sid, name, *_ in spans}
    parent_of = {sid: parent for sid, _, _, _, parent, _ in spans}
    out = set()
    for sid, layer in layer_of.items():
        parent = parent_of[sid]
        while parent is not None and layer_of.get(parent) != layer:
            parent = parent_of.get(parent)
        if parent is None:
            out.add(sid)
    return out


# (function, stats) pairs reported for every workload; zero where not called.
FUNCTION_STATS = (
    ("attention.single_head_forward", ("calls", "s", "us_p50", "us_p90")),
    ("attention.single_head_backward", ("calls", "s", "us_p50", "us_p90")),
    ("attention.multi_head_forward", ("calls", "s", "us_p50", "us_p90")),
    ("attention.multi_head_backward", ("calls", "s", "us_p50", "us_p90")),
    ("numerics.adam_step", ("calls", "s", "us_p50")),
    ("lorenz.candidate_one_step_batch", ("calls", "s")),
    ("lorenz.generate_dataset", ("s",)),
    ("lorenz.candidate_forecasts", ("s",)),
    ("forecasting.train_attention", ("s", "self_s")),
    ("forecasting.train_linear", ("s", "self_s")),
    ("forecasting.train_ffnn", ("s", "self_s")),
    ("forecasting.assemble_open_loop", ("s",)),
    ("evaluation.wis_batch", ("calls", "s")),
    ("evaluation.wis_gradient_batch", ("calls", "s")),
    ("evaluation.valid_time", ("s",)),
    ("covid.ingest", ("s",)),
    ("covid.impute_missing", ("s",)),
    ("covid.assemble_samples", ("s",)),
    ("covid.train_pooler", ("self_s",)),
    ("covid.evaluate_period", ("s",)),
)

UNITS = {"calls": "count", "s": "s", "self_s": "s", "us_p50": "us", "us_p90": "us"}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans, ingest_rows: int) -> dict[str, tuple[float, str]]:
    """Reduce spans to ``{metric name: (value, unit)}``."""
    self_time = _self_times(spans)
    outermost = _outermost_in_layer(spans)
    durations = defaultdict(list)
    self_sum = defaultdict(float)
    work_sum = defaultdict(float)
    for sid, name, start, end, _, work in spans:
        durations[name].append(end - start)
        self_sum[name] += self_time[sid]
        work_sum[name] += work

    def quantile_us(name, q):
        d = durations.get(name, [])
        if len(d) < 2:
            return d[0] * 1e6 if d else 0.0
        return statistics.quantiles(d, n=100, method="inclusive")[q - 1] * 1e6

    stat = {
        "calls": lambda n: float(len(durations.get(n, ()))),
        "s": lambda n: sum(durations.get(n, ())),
        "self_s": lambda n: self_sum.get(n, 0.0),
        "us_p50": lambda n: quantile_us(n, 50),
        "us_p90": lambda n: quantile_us(n, 90),
    }
    out = {}
    for name, stats in FUNCTION_STATS:
        for key in stats:
            out[f"{name}.{key}"] = (stat[key](name), UNITS[key])

    stepper = "lorenz.candidate_one_step_batch"
    out["lorenz.rk4_state_steps_per_s"] = (
        _ratio(work_sum[stepper], stat["s"](stepper)), "1/s"
    )
    loop_spans = [(s, e) for _, n, s, e, _, _ in spans if n in CLOSED_LOOP_FORECASTS]
    loop_s = sum(e - s for s, e in loop_spans)
    loop_wall = _union_length(loop_spans)
    out["forecasting.closed_loop.s"] = (loop_s, "s")
    out["forecasting.closed_loop.self_s"] = (
        sum(self_sum[n] for n in CLOSED_LOOP_FORECASTS), "s"
    )
    out["forecasting.closed_loop.segment_steps_per_s"] = (
        _ratio(sum(work_sum[n] for n in CLOSED_LOOP_FORECASTS), loop_s), "1/s"
    )
    out["forecasting.closed_loop.overlap"] = (_ratio(loop_s, loop_wall), "ratio")
    out["covid.ingest.rows_per_s"] = (
        _ratio(ingest_rows, stat["s"]("covid.ingest")), "1/s"
    )
    out["cli.run.self_s"] = (sum(self_sum[n] for n in RUNNERS), "s")

    for layer in LAYERS:
        mine = [sp for sp in spans if sp[1].split(".", 1)[0] == layer]
        out[f"layer.{layer}.calls"] = (float(len(mine)), "count")
        out[f"layer.{layer}.s"] = (
            sum(e - s for sid, _, s, e, _, _ in mine if sid in outermost), "s"
        )
        out[f"layer.{layer}.self_s"] = (sum(self_time[sp[0]] for sp in mine), "s")
    return out
