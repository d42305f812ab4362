"""Self-test of the benchmark: every workload, shrunk, through the same driver."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, references: Path, *extra: str):
    """Exit code and the parsed last and second-to-last stdout lines."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "4",
         "--seconds", "0", "--trace", str(trace), "--small",
         "--references", str(references), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()[-2:]]
    return proc.returncode, lines


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_with_a_unit(workload, tmp_path):
    references = tmp_path / "references.json"
    code, (report, result) = bench(workload, 0, references, "--record")
    assert code == 0
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert json.loads(references.read_text())
    # the child loads nothing the program might import lazily before its commands
    preloaded = report["report"]["preloaded_modules"]
    assert not [m for m in preloaded if m.split(".")[0] in ("numpy", "scipy", "qens")]

    code, (_, result) = bench(workload, 1, references)
    assert code == 0
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if workload == "classify-22q":
        # three grid_correct_counts passes plus two single-query passes
        # over E models and M = 24 points: (3 M + 2) / (M + 1)
        assert result["metrics"]["model.evals_per_unique"]["value"] == 2.96


def test_corrupted_reference_hash_counts_as_failure(tmp_path):
    references = tmp_path / "references.json"
    bench("raster-8k", 0, references, "--record")
    table = json.loads(references.read_text())
    (hashes,) = table.values()
    hashes[min(hashes)] = "0" * 64
    references.write_text(json.dumps(table))
    code, lines = bench("raster-8k", 0, references)
    # no operation passed, so there is no time to report
    assert code == 1
    report = lines[-1]["report"]
    assert report["fail_frac"] == 1.0
    assert "artifacts differ from the reference" in report["failures"][0]


def test_failed_operations_are_left_out_of_the_medians(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look it up by name
    spec.loader.exec_module(run)

    def op(wall_s: float, failures: list) -> dict:
        result = {"wall_s": wall_s, "setup_s": 0.5, "maxrss_kb": 1024 * wall_s}
        return {"traced": False, "failures": failures, "result": result}

    ops = [op(2.0, []), op(3.0, []), op(0.1, ["fig6 exited 4"]), op(0.2, ["fig6 exited 6"])]
    metrics = run.end_to_end_metrics(ops, 1.0)
    assert metrics["wall_s"] == 2.5
    assert metrics["peak_rss_mb"] == 2.5
    assert metrics["ok_frac"] == 0.5
