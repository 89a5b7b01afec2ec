"""Output checks and quality metrics read from a finished run directory.

Each check returns a list of problems; an empty list means the run passed.
The checks read only the committed files, never the runner's return values.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import date
from pathlib import Path


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def output_hashes(out_dir: Path) -> dict[str, str]:
    """The manifest's per-file hashes (every metric CSV of the run)."""
    return json.loads((out_dir / "manifest.json").read_text())["outputs"]


def check_manifest(out_dir: Path) -> list[str]:
    problems = []
    listed = output_hashes(out_dir)
    present = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
    if present != set(listed):
        problems.append(f"files {sorted(present)} differ from manifest {sorted(listed)}")
    for name, digest in listed.items():
        path = out_dir / name
        if path.exists() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name}: content does not match its manifest hash")
    return problems


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _expected_lorenz_series(model: dict) -> set[tuple[str, int]]:
    """(method, l) pairs ``valid_times.csv`` must hold for a Lorenz model section."""
    methods = model["methods"]
    pairs = {(m, l) for m in methods if m not in ("linear", "ffnn") for l in model["delays"]}
    if "linear" in methods:
        pairs.add(("linear", 1))
    if "ffnn" in methods:
        pairs.add(("ffnn", model.get("ffnn_delay", 5)))
    return pairs


def check_lorenz(out_dir: Path, model: dict, n_segments: int) -> list[str]:
    problems = []
    by_series: dict[tuple[str, int], list[dict]] = {}
    for row in _rows(out_dir / "valid_times.csv"):
        by_series.setdefault((row["method"], int(row["l"])), []).append(row)
    expected = _expected_lorenz_series(model)
    if set(by_series) != expected:
        problems.append(f"valid_times.csv series {sorted(by_series)} != {sorted(expected)}")
    for series, rows in by_series.items():
        ids = sorted(int(r["segment_id"]) for r in rows)
        if ids != list(range(n_segments)):
            problems.append(f"valid_times.csv {series}: segment ids are not 0..{n_segments - 1} once each")
        if not all(_finite(r["valid_time"]) for r in rows):
            problems.append(f"valid_times.csv {series}: non-finite valid time")
    for row in _rows(out_dir / "vt_summary.csv"):
        lo, med, hi = (float(row[k]) for k in ("ci_lower", "median_vt", "ci_upper"))
        if not lo <= med <= hi:
            problems.append(f"vt_summary.csv {row['method']} l={row['l']}: CI [{lo}, {hi}] excludes {med}")
    return problems


def median_vt(out_dir: Path) -> float:
    """The additive pooler's median valid time at delay 5."""
    for row in _rows(out_dir / "vt_summary.csv"):
        if row["method"] == "additive" and row["l"] == "5":
            return float(row["median_vt"])
    raise ValueError("vt_summary.csv has no additive l=5 row")


def check_hub(out_dir: Path, methods: list[str], truth_csv: Path) -> list[str]:
    """Every held-out (location, week) is scored exactly once per method."""
    problems = []
    periods = {
        (date.fromisoformat(r["period_start"]), date.fromisoformat(r["period_end"]))
        for r in _rows(out_dir / "period_summary.csv")
    }
    cells = {(r["location"], date.fromisoformat(r["week_ending"])) for r in _rows(truth_csv)}
    held_out = {(loc, week) for loc, week in cells if any(a <= week <= b for a, b in periods)}
    scored: dict[str, list[tuple[str, date]]] = {m: [] for m in methods}
    for row in _rows(out_dir / "wis_by_week.csv"):
        if row["method"] not in scored:
            problems.append(f"wis_by_week.csv: unexpected method {row['method']!r}")
            continue
        if not _finite(row["wis"]) or float(row["wis"]) < 0:
            problems.append(f"wis_by_week.csv {row['method']}: bad WIS {row['wis']!r}")
        scored[row["method"]].append((row["location"], date.fromisoformat(row["target_week"])))
    for method, keys in scored.items():
        if len(keys) != len(set(keys)) or set(keys) != held_out:
            problems.append(
                f"wis_by_week.csv {method}: {len(keys)} rows, {len(set(keys))} distinct, "
                f"{len(held_out)} held-out cells expected"
            )
    return problems


def heldout_wis(out_dir: Path) -> float:
    """Row-weighted mean WIS of the multi-head pooler over all held-out periods."""
    values = [float(r["wis"]) for r in _rows(out_dir / "wis_by_week.csv") if r["method"] == "multi_head"]
    if not values:
        raise ValueError("wis_by_week.csv has no multi_head rows")
    return sum(values) / len(values)
