"""Benchmark of the qens command-line interface.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--small] [--references FILE] [--record]

Run from the root of a source checkout (the directory holding src/qens).
Each operation is one fresh child process (bench/child.py) that imports
qens.cli and calls qens.cli.main once per command of the workload.  The
driver starts operations one after another, a closed loop with a single
client, until S seconds have passed, then prints one JSON report line and,
as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the
operations that passed every check.  Times are scaled to a nominal host
speed: before the first child and after each one, bench/probe.py times
fixed loops of the kinds of work the workloads do (interpreter,
quadrature, small arrays, arrays larger than the caches; none touches
qens), and wall_s and setup_s are divided by the run's median slowdown
against the loops' nominal time.  On a shared host the speed drifts by up
to 2x over minutes; the scaling cancels much of that drift but not a
change in qens.  One probe reads a fraction of a second and is noisy, so
the run's median is used rather than the probes next to each operation.
The unscaled times are in the report line.

With --trace 1 untraced and traced operations alternate; the traced ones
run with bench/tracer.py bound into the package and give the per-layer
metrics, the untraced ones the process metrics and the tracing overhead.

An operation fails if a command exits nonzero, if any check in a
command's summary is false, or if an artifact's sha256 differs from the
reference for this workload and seed in bench/references.json (recorded
with --record at seeds 0 to 9; theory takes no seed).  For a seed without
a reference, every operation of the run must write the same bytes as the
first.  Failed operations count in ok_frac but not in the other metrics;
if no operation of a needed kind passed, the driver prints only the report
line and exits with 1.  --small shrinks every workload for the benchmark's
self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
PROBE = HERE / "probe.py"
REFERENCES = HERE / "references.json"
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

# Metrics named <span>.calls and <span>.self_s come from the tracer's spans.
PER_LAYER = {
    "model.decode_all.calls": "count",
    "model.decode_all.self_s": "s",
    "model.predict_many.calls": "count",
    "model.predict_many.self_s": "s",
    "model.predict_many.evals": "count",
    "model.correct_counts.calls": "count",
    "model.correct_counts.self_s": "s",
    "model.grid_correct_counts.calls": "count",
    "model.evals_per_unique": "ratio",
    "weighting.tree_sum.calls": "count",
    "weighting.tree_sum.self_s": "s",
    "weighting.tree_sum.elements": "count",
    "weighting.vote.self_s": "s",
    "weighting.ensemble_decide.self_s": "s",
    "weighting.weights_for.self_s": "s",
    "simulator.prepare_uniform.self_s": "s",
    "simulator.rotation.self_s": "s",
    "simulator.postselect_accuracy_zero.self_s": "s",
    "simulator.apply_classifier.self_s": "s",
    "simulator.readout.self_s": "s",
    "simulator.grover_amplify_counts.self_s": "s",
    "simulator.grover.iterations": "count",
    "simulator.qubits": "count",
    "simulator.state_bytes": "bytes",
    "simulator.p_acc": "fraction",
    "simulator.rss_per_state": "ratio",
    "analytic.expectation_quadrature.calls": "count",
    "analytic.expectation_quadrature.self_s": "s",
    "analytic.expectation_closed_equal_sigma.self_s": "s",
    "analytic.decision_boundary.self_s": "s",
    "analytic.boundary_decomposition.self_s": "s",
    "committee.condorcet_error.calls": "count",
    "committee.condorcet_error.self_s": "s",
    "figures.run.self_s": "s",
    "figures.write_curve_csv.self_s": "s",
    "figures.artifact_bytes": "bytes",
    "svgplot.render_curves.self_s": "s",
    "datagen.self_s": "s",
    "proc.cpu_s": "s",
    "proc.minflt": "count",
    "proc.parallelism": "ratio",
    "trace.overhead_s": "s",
    "unattributed.self_s": "s",
}

_PAIR = {"mu_minus": -1.0, "sigma_minus": 0.5, "mu_plus": 1.0, "sigma_plus": 0.5}
_INTERVALS = [[-1.0, 1.0], [-1.0, 1.0]]


@dataclass(frozen=True)
class Workload:
    """A frozen sequence of CLI commands run by one child process.

    `commands(seed, small, nproc)` gives (command, config or None, extra
    arguments) triples.
    """

    name: str
    seeded: bool
    commands: Callable[[int, bool, int], list]


def _classify(seed: int, small: bool, nproc: int):
    # E = 2^20 models (22 qubits) against 24 training points: many models,
    # few points, so grid evaluation dominates and the simulator follows.
    cfg = {
        "grid": {"intervals": _INTERVALS, "bits": 3 if small else 10},
        "dataset": {"pair": dict(_PAIR, per_class=12, seed=seed)},
        "query": [0.2],
        "rotation": "exact",
        "seed": seed,
    }
    return [("classify", cfg, [])]


def _grover(seed: int, small: bool, nproc: int):
    # E = 2^18 models, M = 14 gives a 4-qubit count register: 24 qubits and
    # a 256 MiB statevector, so the simulator dominates time and memory.
    cfg = {
        "grid": {"intervals": _INTERVALS, "bits": 3 if small else 9},
        "dataset": {"pair": dict(_PAIR, per_class=7, seed=seed)},
    }
    return [("grover", cfg, [])]


def _raster(seed: int, small: bool, nproc: int):
    # 8000 models scored at 25921 raster points: few models and many
    # points, the opposite shape of classify-22q in the same model layer;
    # adds tree_sum, the thread pool and CSV output, bypasses the simulator.
    cfg = {"raster_step": 0.5 if small else 0.025, "seed": seed}
    return [("fig6", cfg, ["--threads", str(min(2, nproc))])]


def _theory(seed: int, small: bool, nproc: int):
    # analytic and committee do all the work; model, weighting and
    # simulator do none, so this is the control on which grid and
    # simulator changes must show no change.  fig2 keeps the paper's
    # max_size of 1001: from committee size 1609 upward fig2 fails its own
    # p05_flat check (deviation 1.02e-12 at 1609, 2.66e-12 at 4001, over
    # the 1e-12 tolerance), a known defect left for a later fix.
    return [
        ("fig2", {"max_size": 101} if small else None, []),
        ("fig5", {"points": 41 if small else 2401}, []),
        ("fig7", None, []),
        ("fig7", {"example": 2}, []),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classify-22q", True, _classify),
        Workload("grover-24q", True, _grover),
        Workload("raster-8k", True, _raster),
        Workload("theory", False, _theory),
    )
}


class Probe:
    """The bench/probe.py process of one run; it waits while a child runs."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(PROBE)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def slowdown(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment(root: Path, env: dict, nproc: int) -> dict:
    """Library versions from a warm-up child, plus the source revision."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--env"],
        cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import qens.cli: {proc.stderr.strip()}")
    info = json.loads(proc.stdout)
    info["nproc"] = nproc
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    info["commit"] = commit
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qens").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


def run_op(root: Path, opdir: Path, env: dict, commands, traced: bool) -> dict:
    """Run one operation; returns its result, artifact hashes and failures."""
    argvs = []
    for k, (command, cfg, extra) in enumerate(commands):
        argv = [command, "--out", str(opdir / "out" / str(k))] + list(extra)
        if cfg is not None:
            cfg_path = opdir / f"config_{k}.json"
            cfg_path.write_text(json.dumps(cfg))
            argv += ["--config", str(cfg_path)]
        argvs.append(argv)
    spec = opdir / "spec.json"
    result_path = opdir / "result.json"
    spec.write_text(json.dumps({"commands": argvs, "trace": traced, "result": str(result_path)}))

    op = {"traced": traced, "failures": [], "hashes": {}, "artifact_bytes": 0}
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(spec), repr(spawn)],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        op["failures"].append(f"child killed after {CHILD_TIMEOUT_S} s")
        return op
    if proc.returncode != 0 or not result_path.exists():
        op["failures"].append(f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return op
    op["result"] = json.loads(result_path.read_text())
    for k, entry in enumerate(op["result"]["commands"]):
        name = entry["command"]
        if entry["code"] != 0:
            op["failures"].append(f"{name} exited {entry['code']}")
        out = opdir / "out" / str(k)
        summary_path = out / f"{name}_summary.json"
        if not summary_path.exists():
            op["failures"].append(f"{name} wrote no summary")
        else:
            summary = json.loads(summary_path.read_text())
            failed = sorted(c for c, ok in summary["checks"].items() if not ok)
            if failed or not summary["ok"]:
                op["failures"].append(f"{name} checks failed: {failed}")
        for path in sorted(out.iterdir()) if out.is_dir() else []:
            op["hashes"][f"{k}/{path.name}"] = _sha256(path)
            op["artifact_bytes"] += path.stat().st_size
    return op


def _hash_mismatch(got: dict, want: dict) -> list[str]:
    return sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))


def verify_artifacts(ops: list[dict], reference: dict | None) -> None:
    """Record artifact mismatches as failures: against the reference if one
    exists, otherwise against the first operation of the run."""
    for i, op in enumerate(ops):
        if "result" not in op:
            continue
        want = reference if reference is not None else (ops[0]["hashes"] if i else None)
        if want is None:
            continue
        bad = _hash_mismatch(op["hashes"], want)
        if bad:
            source = "reference" if reference is not None else "first operation"
            op["failures"].append(f"artifacts differ from the {source}: {bad}")


def end_to_end_metrics(ops: list[dict], scale: float) -> dict:
    """Medians over the operations that passed, times multiplied by `scale`;
    ok_frac over all of them."""
    passed = [op for op in ops if not op["failures"]]
    return {
        "wall_s": statistics.median(op["result"]["wall_s"] for op in passed) * scale,
        "setup_s": statistics.median(op["result"]["setup_s"] for op in passed) * scale,
        "peak_rss_mb": statistics.median(op["result"]["maxrss_kb"] / 1024.0 for op in passed),
        "ok_frac": len(passed) / len(ops),
    }


def per_layer_metrics(ops: list[dict], scale: float) -> dict:
    """Medians over the traced and untraced operations that passed."""
    passed = [op for op in ops if not op["failures"]]
    plain = [op["result"] for op in passed if not op["traced"]]
    traced = [op["result"] for op in passed if op["traced"]]
    metrics = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            index = 0 if field == "calls" else 1
            metrics[name] = statistics.median(r["spans"].get(span, [0, 0.0])[index] for r in traced)
        else:
            metrics[name] = statistics.median(r["counts"].get(name, 0) for r in traced)
    unique = statistics.median(r["counts"].get("model.predict_many.unique_evals", 0) for r in traced)
    metrics["model.evals_per_unique"] = metrics["model.predict_many.evals"] / unique if unique else 0.0
    peak_rss_mb = statistics.median(r["maxrss_kb"] / 1024.0 for r in plain)
    state_mb = metrics["simulator.state_bytes"] / 2**20
    metrics["simulator.rss_per_state"] = peak_rss_mb / state_mb if state_mb else 0.0
    metrics["figures.artifact_bytes"] = statistics.median(op["artifact_bytes"] for op in passed)
    metrics["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    metrics["proc.minflt"] = statistics.median(r["minflt"] for r in plain)
    metrics["proc.parallelism"] = statistics.median(r["cpu_s"] / r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = scale * (
        statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    )
    metrics["unattributed.self_s"] = statistics.median(
        sum(c["unattributed_s"] for c in r["commands"]) for r in traced
    )
    return metrics


def _reference_key(workload: Workload, seed: int, small: bool) -> str:
    key = workload.name if not workload.seeded else f"{workload.name}/seed={seed}"
    return f"small/{key}" if small else key


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true", help="shrunk workloads (self-test)")
    parser.add_argument("--references", type=Path, default=REFERENCES)
    parser.add_argument("--record", action="store_true", help="store this run's artifact hashes")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qens" / "cli.py").is_file():
        print("error: run from the root of a qens checkout (no src/qens/cli.py)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    env = _child_env(root)
    commands = workload.commands(args.seed, args.small, nproc)
    work = root / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    ops: list[dict] = []
    probe = Probe(env)
    try:
        info = environment(root, env, nproc)
        slowdowns = [probe.slowdown()]
        start = time.monotonic()
        while True:
            traced = args.trace == 1 and len(ops) % 2 == 1
            opdir = work / f"op{len(ops)}"
            opdir.mkdir()
            t0 = time.monotonic()
            ops.append(run_op(root, opdir, env, commands, traced))
            shutil.rmtree(opdir)
            slowdowns.append(probe.slowdown())
            # stop when the next operation would end mostly past the deadline
            now = time.monotonic()
            done = now - start + (now - t0) / 2 >= args.seconds
            if done and len(ops) % (1 + args.trace) == 0:
                break
    finally:
        probe.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    key = _reference_key(workload, args.seed, args.small)
    references = json.loads(args.references.read_text()) if args.references.exists() else {}
    if args.record and "result" in ops[0] and not ops[0]["failures"]:
        references[key] = ops[0]["hashes"]
        args.references.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    verify_artifacts(ops, references.get(key))

    failed = sum(1 for op in ops if op["failures"])
    report = {
        "workload": workload.name,
        "seed": args.seed if workload.seeded else None,
        "reference": key if key in references else "first operation",
        "environment": info,
        "samples": {
            "untraced": sum(1 for op in ops if not op["traced"]),
            "traced": sum(1 for op in ops if op["traced"]),
        },
        "fail_frac": failed / len(ops),
        "failures": [f for op in ops for f in op["failures"]],
        "unscaled": {
            key: [round(op["result"][key], 6) for op in ops if "result" in op]
            for key in ("wall_s", "setup_s", "cpu_s")
        },
        "slowdown": [round(x, 6) for x in slowdowns],
        "preloaded_modules": sorted(
            {m for op in ops if "result" in op and not op["traced"] for m in op["result"]["preloaded"]}
        ),
        "unattributed_s": [
            [[c["command"], round(c["unattributed_s"], 6)] for c in op["result"]["commands"]]
            for op in ops
            if op["traced"] and "result" in op
        ],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    passed_kinds = {op["traced"] for op in ops if not op["failures"]}
    if not passed_kinds >= {False, bool(args.trace)}:
        print("error: no operation of a needed kind passed its checks", file=sys.stderr)
        return 1
    scale = 1.0 / statistics.median(slowdowns)
    if args.trace:
        metrics, units = per_layer_metrics(ops, scale), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(ops, scale), END_TO_END
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
