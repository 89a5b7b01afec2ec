"""attnpool benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the run's metadata. ``--trace 0`` reports the
end-to-end metrics from untraced runs, ``--trace 1`` the per-layer metrics of
one traced run (see ``BENCHMARK.json``). Workloads are defined in
``workloads.py``; working files go to ``.perfbench/`` and are removed.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere, here and in every
# child (they inherit the environment): OpenBLAS defaults to nproc threads,
# which oversubscribes the cores once the runner's own --threads are added.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
QUALITY_METRICS = ("median_vt", "heldout_wis")
# A quality metric a workload does not measure (the other pipeline's, or one
# its training budget makes meaningless) is reported as this constant, so
# every run prints every metric.
NOT_APPLICABLE = 1.0
# fail_ratio is reported no lower than this (one failure in a thousand runs,
# below what a run can resolve), so it is never 0.
FAIL_RATIO_FLOOR = 1e-3
WORKER_TIMEOUT_S = 170

SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import attnpool
from attnpool import cli
cli.validate_config(sys.argv[2])
print(time.perf_counter() - start)
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git`` if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_facts() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest(), "git_sha": git_sha()}


def setup_seconds(config: Path) -> list[float]:
    """``import attnpool`` plus ``validate_config``, each in a fresh process."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config)],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(spec: dict, run_dir: Path) -> dict:
    spec_path, result_path = run_dir / "spec.json", run_dir / "result.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), str(spec_path), str(result_path)],
        stdout=sys.stderr, check=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
    )
    return json.loads(result_path.read_text())


def declared_metrics(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "attnpool" / "cli.py").is_file():
        print(f"no attnpool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    threads = nproc() if workload.parallel else 1
    run_dir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        facts = workloads.write_inputs(workload, args.seed, threads, run_dir)
        spec = {
            "src": str(SRC),
            "run_dir": str(run_dir),
            "config": str(run_dir / "config.yaml"),
            "experiment": workload.experiment,
            "model": workload.model,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "ingest_rows": facts["ingest_rows"],
            "quality": workload.quality,
        }
        setup = [] if args.trace else setup_seconds(run_dir / "config.yaml")
        result = run_worker(spec, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    calls = result["calls"]
    failed = sum(1 for c in calls if c["problems"])
    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "threads": threads,
        "nproc": nproc(),
        "blas": result["blas"],
        "blas_env": BLAS_ENV,
        "python": platform.python_version(),
        "numpy": result["numpy"],
        **source_facts(),
        "call_walls_s": [c["wall_s"] for c in calls],
        "setup_samples_s": setup,
        "problems": [p for c in calls for p in c["problems"]],
    }
    if args.trace:
        metrics = result["layer_metrics"]
        declared = declared_metrics("per_layer")
    else:
        quality = dict.fromkeys(QUALITY_METRICS, NOT_APPLICABLE)
        measured = [c["quality"] for c in calls if "quality" in c]
        if measured:
            quality[workload.quality] = measured[0]
        metrics = {
            "wall_s": (result["walls_median_s"], "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "median_vt": (quality["median_vt"], "model_t"),
            "heldout_wis": (quality["heldout_wis"], "deaths"),
            "fail_ratio": (max(failed / len(calls), FAIL_RATIO_FLOOR), "ratio"),
        }
        declared = declared_metrics("end_to_end")
        metadata["not_applicable"] = [k for k in QUALITY_METRICS if k != workload.quality]
    if {(m["name"], m["unit"]) for m in declared} != {(k, u) for k, (_, u) in metrics.items()}:
        print("reported metrics or units differ from BENCHMARK.json", file=sys.stderr)
        return 2
    for m in declared:
        value, unit = metrics[m["name"]]
        print(f"{m['name']:55s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"metadata": metadata}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
