"""The benchmark's workloads: each is configs/default.json with a few overrides.

A workload's inputs come from its base seed alone: run k of the experiment
uses seed ``base + k``, as everywhere in olcontrol.  The base seed is the
``--seed`` argument reduced modulo SEED_POOL, because the stored reference
(reference.json) covers exactly the run seeds that pool can reach.
"""

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

SEED_POOL = 64
DEFAULT_CONFIG = Path("configs") / "default.json"


@dataclass(frozen=True)
class Workload:
    name: str
    horizon: int
    n_runs: int
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-disturbed",
            horizon=500,
            n_runs=6,
        ),
        Workload(
            name="skewed-clean",
            horizon=125,
            n_runs=2,
            overrides={"system": {"B": [[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]]}, "disturbances_on": False},
        ),
    )
}


def base_seed(seed: int) -> int:
    return seed % SEED_POOL


def workload_config(root: Path, workload: Workload, seed: int, n_runs: int | None = None) -> dict:
    """The JSON config of ``workload`` at base seed ``seed``, built from the
    checkout's configs/default.json."""
    doc = json.loads((root / DEFAULT_CONFIG).read_text())
    for key, value in workload.overrides.items():
        if isinstance(value, dict):
            doc[key] = {**doc.get(key, {}), **copy.deepcopy(value)}
        else:
            doc[key] = value
    doc["seed"] = seed
    doc["T"] = workload.horizon
    doc["n_runs"] = workload.n_runs if n_runs is None else n_runs
    return doc


def identity(doc: dict) -> dict:
    """The parts of a workload config that the reference depends on."""
    return {k: v for k, v in doc.items() if k not in ("seed", "n_runs", "output_dir")}
