"""Runs one workload's runner calls in a fresh process and checks each output.

    python perfbench/worker.py SPEC_JSON RESULT_JSON

``run.py`` writes the spec and starts this process with BLAS already pinned
in its environment, so the process's peak RSS is the workload's alone. Plain
mode repeats the runner until the time budget is spent (at least twice, so
repeats of one seed can be compared). Trace mode makes one untraced call and
one traced call and reduces the traced call's spans to per-layer metrics.
"""

from __future__ import annotations

import ctypes
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import spans


def blas_info() -> dict:
    """BLAS library name and the thread count it reports, where it can."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


class Runs:
    def __init__(self, spec: dict):
        from attnpool import cli

        self.cli = cli
        self.spec = spec
        self.run_dir = Path(spec["run_dir"])
        self.runner = "run_lorenz_experiment" if spec["experiment"] == "lorenz" else "run_covid_experiment"
        self.reference_hashes = None

    def call(self, tag: str, tracer: spans.Tracer | None = None) -> dict:
        """One runner call, timed from validated config to committed outputs."""
        out = self.run_dir / f"out-{tag}"
        cfg = self.cli.validate_config(self.spec["config"], output=str(out))
        if tracer is not None:
            tracer.install()
        try:
            # resolved after install, so a traced call enters through the wrapper
            runner = getattr(self.cli, self.runner)
            start = perf_counter()
            try:
                runner(cfg)
            except Exception as exc:  # a failed run is counted, not fatal
                shutil.rmtree(out, ignore_errors=True)
                return {"wall_s": perf_counter() - start, "problems": [f"runner raised {exc!r}"]}
            wall = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            return {"wall_s": wall, **self._check(out, cfg)}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, cfg) -> dict:
        model = self.spec["model"]
        problems = checks.check_manifest(out)
        hashes = checks.output_hashes(out)
        if self.reference_hashes is None:
            self.reference_hashes = hashes
        elif hashes != self.reference_hashes:
            problems.append("metric CSV hashes differ from the first run of this seed")
        if self.spec["experiment"] == "lorenz":
            problems += checks.check_lorenz(out, model, cfg.data.n_val_segments)
        else:
            problems += checks.check_hub(out, model["methods"], self.run_dir / "truth.csv")
        result = {"problems": problems}
        if self.spec["quality"]:
            result["quality"] = getattr(checks, self.spec["quality"])(out)
        return result


def plain(runs: Runs, seconds: float) -> dict:
    calls = []
    start = perf_counter()
    while True:
        calls.append(runs.call(str(len(calls))))
        elapsed = perf_counter() - start
        # stop once another call of the last one's length would overrun
        if len(calls) >= 2 and elapsed + calls[-1]["wall_s"] > seconds:
            break
    return {"calls": calls}


def traced(runs: Runs, ingest_rows: int) -> dict:
    untraced = runs.call("untraced")
    tracer = spans.Tracer()
    with_trace = runs.call("traced", tracer)
    metrics = spans.layer_metrics(tracer.spans(), ingest_rows)
    overhead = with_trace["wall_s"] - untraced["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced["wall_s"], "ratio")
    return {"calls": [untraced, with_trace], "layer_metrics": metrics}


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    runs = Runs(spec)
    if spec["trace"]:
        result = traced(runs, spec["ingest_rows"])
    else:
        result = plain(runs, spec["seconds"])
        # the low median: with two calls, the faster one, which host noise
        # inflates least
        result["walls_median_s"] = statistics.median_low(c["wall_s"] for c in result["calls"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas"] = blas_info()
    result["numpy"] = sys.modules["numpy"].__version__
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
