"""The benchmark's workloads and the inputs each one is built from.

Every workload runs one of the two experiment runners on a config generated
from the workload seed. The seed becomes the config's ``seed`` and, for the
hub workloads, the seed of the synthetic hub whose CSVs the benchmark writes
before the run, so the runner only ever sees generated inputs. Each
workload's ``why`` records why it was chosen; the shares quoted there come
from traced runs of the unmodified code on a 2-core x86 VM.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

LORENZ_ATTENTION = ["additive", "fixed_attention", "best_initial"]
LORENZ_ALL = LORENZ_ATTENTION + ["linear", "ffnn"]
HUB_ALL = ["additive", "multi_head", "linear", "uniform", "best_single"]
HUB_LOCATIONS = 8
HUB_MODELS = 9


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str           # "lorenz" or "covid"
    why: str
    model: dict               # the config's model section
    data: dict | None = None  # the config's data section (Lorenz)
    parallel: bool = False    # threads = nproc instead of 1
    hub_weeks: int = 0        # synthetic hub length (covid workloads)
    # The quality metric of this workload's pipeline ("median_vt" or
    # "heldout_wis"), or None where the training budget is too small for it
    # to be more than seed noise.
    quality: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lorenz-train",
            "lorenz",
            "The delay-5 protocol shape at reduced epochs on the full dataset "
            "(4000 training samples, 200 x 128 validation segments), with "
            "B=128, h=120 and one thread. Attention training dominates the "
            "protocol: train_attention is most of wall and "
            "single_head_backward alone is its largest part, so the "
            "einsum/kernel rewrites of the attention pass show on this "
            "workload. Adam (a few percent) and the process fan-out (one "
            "training job) are nearly bypassed.",
            {
                "methods": LORENZ_ATTENTION,
                "delays": [5],
                "hidden": 120,
                "batch_size": 128,
                "epochs": 30,
            },
            quality="median_vt",
        ),
        Workload(
            "lorenz-sweep",
            "lorenz",
            "Delays 1-6 and all five methods with tiny training (1 attention "
            "epoch, 5 ffnn epochs) over 48 x 128 validation segments, with "
            "threads = nproc. The closed-loop forecasts and the RK4 stepper "
            "candidate_one_step_batch dominate, training kernels do not. The "
            "sweep has six independent training jobs, which a process "
            "fan-out needs, and it is the only workload that sets threads. "
            "Thread sharding of the closed loop currently makes the run "
            "slower than one thread; that is the recorded baseline. Its "
            "median_vt (0.2-0.4 in steps of 0.05) is seed noise, so it is "
            "not reported.",
            {
                "methods": LORENZ_ALL,
                "delays": [1, 2, 3, 4, 5, 6],
                "epochs": 1,
                "ffnn_epochs": 5,
                "weights_delay": 5,
            },
            data={"t_val": 614.4, "n_val_segments": 48},
            parallel=True,
        ),
        Workload(
            "hub-wis",
            "covid",
            "The desk-scale quantile pipeline, 8 locations x 120 weeks x 9 "
            "models, ingested from hub CSVs: methods additive, multi_head "
            "(P=5), linear, uniform and best_single over 4 split periods "
            "with batch 32 and hidden 100. This is the path of the "
            "acceptance gate. multi_head_backward is the largest share and "
            "its per-head Python loop shows, then the CSV ingest and WIS "
            "plus its subgradient.",
            {
                "methods": HUB_ALL,
                "delay": 5,
                "epochs": 4,
                "learning_rate": 1.0e-3,
                "batch_size": 32,
                "hidden": 100,
                "n_heads": 5,
            },
            hub_weeks=120,
            quality="heldout_wis",
        ),
        Workload(
            "hub-sgd",
            "covid",
            "The same layers at the full-scale update regime: batch size 1, "
            "learning rate 1e-5, multi_head with P=21 at default width "
            "(100 per head) and uniform, for 1 epoch, on a smaller hub "
            "(8 locations x 30 weeks x 9 models). Per-step overhead "
            "dominates and numerics.adam_step is about half of wall, so a "
            "fused Adam and a single parameter buffer show here and barely "
            "on lorenz-train. One epoch at lr 1e-5 barely moves the pooler, "
            "so its held-out WIS tracks the synthetic data's scale (28% "
            "quartile spread over 10 seeds) and is not reported.",
            {
                "methods": ["multi_head", "uniform"],
                "delay": 5,
                "epochs": 1,
                "learning_rate": 1.0e-5,
                "batch_size": 1,
                "hidden": None,
                "n_heads": 21,
            },
            hub_weeks=30,
        ),
    )
}


def write_inputs(workload: Workload, seed: int, threads: int, run_dir: Path) -> dict:
    """Write the workload's config (and hub CSVs) under ``run_dir``.

    Returns facts about the inputs that the traced run needs.
    """
    import yaml

    run_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "experiment": workload.experiment,
        "seed": seed,
        "output": str(run_dir / "out"),
        "threads": threads,
        "model": workload.model,
    }
    if workload.data:
        config["data"] = workload.data
    facts = {"ingest_rows": 0}
    if workload.experiment == "covid":
        from attnpool import covid

        hub = covid.synthesize_hub(
            seed=seed,
            n_locations=HUB_LOCATIONS,
            n_weeks=workload.hub_weeks,
            n_models=HUB_MODELS,
        )
        hub.write_csvs(run_dir / "forecasts.csv", run_dir / "truth.csv")
        config["data"] = {
            "forecasts": "forecasts.csv",
            "truth": "truth.csv",
            "periods": "split",
        }
        for name in ("forecasts.csv", "truth.csv"):
            with open(run_dir / name) as fh:
                facts["ingest_rows"] += sum(1 for _ in fh) - 1
    (run_dir / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=False))
    return facts
