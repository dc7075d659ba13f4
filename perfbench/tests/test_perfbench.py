"""Self-test of the benchmark.

Run from the repository root (takes about a minute):

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
from run import pinned_env  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    lines = [line.split() for line in proc.stdout.splitlines()[:-1]]
    for m in wanted:
        assert any(words[:1] == [m["name"]] and m["unit"] in words for words in lines), m


def test_gate_rejects_one_corrupted_digit(tmp_path):
    workload = WORKLOADS["paper-disturbed"]
    doc = workload_config(ROOT, workload, 5)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    bundle = tmp_path / "bundle"
    subprocess.run([sys.executable, "-m", "olcontrol.cli", "run", "--config", str(cfg), "--out", str(bundle)],
                   env=pinned_env(ROOT), check=True, capture_output=True)
    entry = gate.reference_entry(gate.load_reference(), workload.name, doc)
    assert gate.bundle_problems(bundle, doc) == []
    assert gate.reference_problems(bundle, doc, entry) == []

    for column in (0, 2):  # bench_u in benchmarks.csv; a final regret behind summary.csv
        corrupted = json.loads(json.dumps(entry))
        value = corrupted["seeds"]["6"][column]
        digit = next(i for i, ch in enumerate(value) if ch.isdigit() and i > 2)
        corrupted["seeds"]["6"][column] = value[:digit] + str((int(value[digit]) + 1) % 10) + value[digit + 1:]
        assert gate.reference_problems(bundle, doc, corrupted), (column, value)


def test_tracing_a_missing_name_fails(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import olcontrol.harness  # noqa: F401
    import spans

    monkeypatch.setattr(spans, "FUNCTIONS", {"harness": ("no_such_function",)})
    with pytest.raises(AttributeError):
        spans.install(spans.Tracer())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper-disturbed", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
