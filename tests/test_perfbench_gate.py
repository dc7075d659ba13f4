"""The benchmark's correctness gate (perfbench/gate.py), run in-process on
both workloads at base seeds 0, 31 and 63, fixed in advance: each bundle
must be complete and match perfbench/reference.json to the gate's relative
tolerance, so a change in output digits is checked against that contract
by the test suite too, on three seeds.  The gate's other half, the value
gap that perfbench/worker.py reports, is checked here the same way."""

import importlib
from pathlib import Path

import pytest

from olcontrol.harness import config_from_dict, run_experiment

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("gate"), importlib.import_module("workloads")


GATE_CASES = [pytest.param(name, seed, id=name if seed == 0 else f"{name}-{seed}")
              for seed in (0, 31, 63) for name in ("paper-disturbed", "skewed-clean")]


@pytest.mark.parametrize(("name", "seed"), GATE_CASES)
def test_bundle_passes_the_gate(perfbench, name, seed, tmp_path):
    gate, workloads = perfbench
    doc = workloads.workload_config(ROOT, workloads.WORKLOADS[name], seed)
    exp = run_experiment(config_from_dict(doc), tmp_path)
    assert gate.bundle_problems(tmp_path, doc) == []
    entry = gate.reference_entry(gate.load_reference(), name, doc)
    assert gate.reference_problems(tmp_path, doc, entry) == []
    # the worker's value_gap: every hindsight optimum's realized cost
    # against its solver's model, relative to max(|value|, 1)
    value_gap = max(abs(b.value - b.value_nominal) / max(abs(b.value), 1.0)
                    for rec in exp.records for b in (rec.bench_u, rec.bench_m))
    assert value_gap <= gate.VALUE_GAP_TOL
