"""Correctness gate on the CSV bundle that ``olcontrol run`` writes.

Every repetition of a workload is checked: the bundle must be complete,
carry no failures.csv, be byte-identical to the other repetitions, and its
benchmarks.csv and last summary.csv row must match the stored reference to
a relative tolerance.  The tolerance admits last-digit changes from
reordered floating-point reductions but not a different optimum.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import identity

REFERENCE = Path(__file__).resolve().parent / "reference.json"
RTOL = 1e-9            # relative tolerance on values printed with 12 digits
VALUE_GAP_TOL = 1e-9   # |value - value_nominal| / max(|value|, 1), as in criterion 11
REGRET_COLUMNS = ("regret_olc_u", "regret_dac_u", "regret_olc_m", "regret_dac_m")
CLEAN_COLUMNS = ("regret_olc_x", "regret_dac_x")


def regret_columns(doc: dict) -> list[str]:
    cols = list(REGRET_COLUMNS)
    if not doc.get("disturbances_on", True):
        cols += CLEAN_COLUMNS
    return cols


def bundle_digest(bundle: Path) -> str:
    """SHA-256 over the names and bytes of every file in the bundle."""
    h = hashlib.sha256()
    for path in sorted(bundle.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def bundle_problems(bundle: Path, doc: dict) -> list[str]:
    """Structural checks: the expected files, headers and row counts."""
    n_runs, horizon = doc["n_runs"], doc["T"]
    if (bundle / "failures.csv").exists():
        return [f"failures.csv present: {(bundle / 'failures.csv').read_text().strip()!r}"]
    expected = {f"run_{k}.csv" for k in range(n_runs)} | {"summary.csv", "benchmarks.csv"}
    present = {p.name for p in bundle.iterdir()}
    if present != expected:
        return [f"bundle files {sorted(present)} differ from {sorted(expected)}"]
    header = ["t", "cost_olc", "cost_dac", "cum_olc", "cum_dac"] + regret_columns(doc)
    problems = []
    for k in range(n_runs):
        rows = _rows(bundle / f"run_{k}.csv")
        if rows[0] != header or len(rows) != horizon + 1:
            problems.append(f"run_{k}.csv has header {rows[0]} and {len(rows) - 1} rows")
    return problems


def reference_entry(reference: dict, name: str, doc: dict) -> dict:
    """The stored reference of workload ``name``; raises KeyError if it is
    missing or was made from a different workload config."""
    entry = reference[name]
    if entry["config"] != identity(doc):
        raise KeyError(f"reference for {name} was made from another config; run make_reference.py")
    return entry


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= RTOL * max(abs(want), scale, 1.0)


def reference_problems(bundle: Path, doc: dict, entry: dict) -> list[str]:
    """Compare benchmarks.csv and the last summary.csv row with the reference."""
    seeds = [doc["seed"] + k for k in range(doc["n_runs"])]
    cols = regret_columns(doc)
    try:
        stored = [[float(v) for v in entry["seeds"][str(s)]] for s in seeds]
    except KeyError as exc:
        return [f"no reference for run seed {exc}"]
    problems = []
    bench = _rows(bundle / "benchmarks.csv")
    if bench[0] != ["run", "bench_u", "bench_m"] or len(bench) != len(seeds) + 1:
        return [f"benchmarks.csv has header {bench[0]} and {len(bench) - 1} rows"]
    for k, (row, ref) in enumerate(zip(bench[1:], stored)):
        for name, got, want in zip(("bench_u", "bench_m"), row[1:], ref[:2]):
            if not _close(float(got), want, 0.0):
                problems.append(f"benchmarks.csv run {k} {name} = {got}, reference {want!r}")
    summary = _rows(bundle / "summary.csv")
    last = summary[-1]
    if last[0] != str(doc["T"]) or len(last) != 1 + 2 * len(cols):
        return problems + [f"summary.csv last row {last[:2]}... has the wrong shape"]
    finals = np.array([ref[2:] for ref in stored])
    for j, col in enumerate(cols):
        scale = float(np.max(np.abs(finals[:, j])))
        want = {"mean": finals[:, j].mean(), "std": finals[:, j].std()}
        for i, stat in enumerate(("mean", "std")):
            got = float(last[1 + 2 * j + i])
            if not _close(got, float(want[stat]), scale):
                problems.append(f"summary.csv {stat}_{col} = {got!r}, reference {float(want[stat])!r}")
    return problems


def reference_from_bundle(bundle: Path, doc: dict) -> dict:
    """Per-seed reference values (bench_u, bench_m, final regrets) read from
    a bundle whose run k used seed ``doc['seed'] + k``."""
    cols = regret_columns(doc)
    bench = _rows(bundle / "benchmarks.csv")[1:]
    seeds = {}
    for k in range(doc["n_runs"]):
        rows = _rows(bundle / f"run_{k}.csv")
        header, last = rows[0], rows[-1]
        finals = [last[header.index(col)] for col in cols]
        seeds[str(doc["seed"] + k)] = bench[k][1:3] + finals
    return {"config": identity(doc), "columns": ["bench_u", "bench_m"] + cols, "seeds": seeds}


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())
