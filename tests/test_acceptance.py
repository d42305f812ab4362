"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single
[PASS]/[FAIL] line with the measured quantities (visible under
``pytest -s``), and fails loudly if the criterion is not met.
Tolerances and runtime budgets are pinned in the assertions.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qens import cli, figures
from qens.analytic import (
    ClassDensity,
    DecisionProblem1D,
    decision_boundary,
    expectation_closed_equal_sigma,
    expectation_quadrature,
)
from qens.committee import condorcet_curve, condorcet_error
from qens.datagen import gaussian_1d_pair, gaussian_blobs
from qens.figures import merged_config, run_fig6, run_fig7
from qens.model import (
    Dataset,
    ModelFamily,
    ParameterGrid,
    decode_all,
    grid_accuracies,
    grid_correct_counts,
    predict_many,
)
from qens.simulator import (
    RegisterLayout,
    apply_accuracy_rotation_exact,
    apply_accuracy_rotation_sequential,
    apply_classifier,
    grover_amplify_counts,
    measure_label_distribution,
    postselect_accuracy_zero,
    prepare_uniform,
)
from qens.weighting import WeightScheme, effective_expectation, ensemble_decide, tree_sum


def report(number: int, description: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description} ({detail})"
    print("\n" + line, flush=True)
    assert ok, line


def quantum_pipeline(family, grid, dataset, query):
    """Full circuit path: returns (per-model distribution, (p-, p+), p_acc)."""
    acc = grid_accuracies(family, grid, dataset)
    state = prepare_uniform(RegisterLayout(grid.total_bits))
    apply_accuracy_rotation_exact(state, acc)
    state, post = postselect_accuracy_zero(state)
    apply_classifier(state, predict_many(family, decode_all(grid), query[None, :])[:, 0])
    p_minus, p_plus = measure_label_distribution(state)
    return state.parameter_distribution(), (p_minus, p_plus), post.acceptance_probability, acc


FIXTURES = [
    (
        ModelFamily("perceptron", 1),
        ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 5),
        gaussian_1d_pair(-1.0, 0.5, 1.0, 0.5, 10, seed=3),
        [np.array([-1.2]), np.array([0.3]), np.array([2.4])],
    ),
    (
        ModelFamily("threshold1d", 1),
        ParameterGrid(((-1.0, 1.0), (-2.0, 2.0)), 6),
        gaussian_1d_pair(-1.0, 0.7, 1.0, 0.7, 8, seed=9),
        [np.array([-0.4]), np.array([1.1])],
    ),
    (
        ModelFamily("perceptron", 2),
        ParameterGrid(((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), 4),
        gaussian_blobs((-1.0, 1.0), (1.0, -1.0), sigma=0.5, per_class=6, seed=2),
        [np.array([0.1, -0.2]), np.array([-1.0, 1.0])],
    ),
]


def random_problem(rng):
    choices = [
        (ModelFamily("perceptron", 1), 2, 8),
        (ModelFamily("perceptron", 2), 3, 5),
        (ModelFamily("threshold1d", 1), 2, 8),
        (ModelFamily("mlp2", 1, (2, 2)), 8, 2),
    ]
    while True:
        family, params, max_bits = choices[rng.integers(0, len(choices))]
        bits = int(rng.integers(1, max_bits + 1))
        intervals = []
        for _ in range(params):
            lo = float(rng.uniform(-2.0, 0.0))
            intervals.append((lo, lo + float(rng.uniform(0.3, 3.0))))
        grid = ParameterGrid(tuple(intervals), bits)
        m = int(rng.integers(2, 12))
        ds = Dataset(rng.normal(size=(m, family.input_dim)), rng.choice([-1, 1], size=m))
        query = rng.normal(size=family.input_dim)
        if float(np.mean(grid_accuracies(family, grid, ds))) > 0.0:
            # a committee that is wrong everywhere has nothing to postselect
            return family, grid, ds, query


def test_criterion_1_quantum_classical_equivalence():
    t0 = time.perf_counter()
    max_dev = 0.0
    cases = 0
    for family, grid, ds, queries in FIXTURES:
        assert grid.size <= 2**12
        for q in queries:
            dist, (p_minus, p_plus), _, acc = quantum_pipeline(family, grid, ds, q)
            expected = acc / tree_sum(acc)
            dec = ensemble_decide(family, grid, ds, WeightScheme.ACCURACY, q)
            max_dev = max(
                max_dev,
                float(np.max(np.abs(dist - expected))),
                abs(p_plus - dec.p_plus),
                abs(p_minus - dec.p_minus),
            )
            cases += 1
    rng = np.random.default_rng(12345)
    for _ in range(20):
        family, grid, ds, q = random_problem(rng)
        assert grid.size <= 2**16
        dist, (p_minus, p_plus), _, acc = quantum_pipeline(family, grid, ds, q)
        expected = acc / tree_sum(acc)
        dec = ensemble_decide(family, grid, ds, WeightScheme.ACCURACY, q)
        max_dev = max(
            max_dev,
            float(np.max(np.abs(dist - expected))),
            abs(p_plus - dec.p_plus),
            abs(p_minus - dec.p_minus),
        )
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = max_dev < 1e-10 and elapsed < 60.0
    report(
        1,
        "per-model distribution and label split match the exhaustive vote",
        ok,
        f"{cases} circuits, max deviation {max_dev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_acceptance_probability_is_mean_accuracy():
    worst = 0.0
    for family, grid, ds, queries in FIXTURES:
        _, _, p_acc, acc = quantum_pipeline(family, grid, ds, queries[0])
        worst = max(worst, abs(p_acc - float(np.mean(acc))))
    report(
        2,
        "postselection acceptance equals mean model accuracy",
        worst < 1e-12,
        f"max |p_acc - mean a| = {worst:.2e}",
    )


def test_criterion_3_accurate_half_reduction():
    rng = np.random.default_rng(777)
    setups = [
        (
            ModelFamily("perceptron", 2),
            ParameterGrid(((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), 3),
            gaussian_blobs((-1.0, 1.0), (1.0, -1.0), sigma=0.6, per_class=8, seed=4),
        ),
        (
            # distinct magnitudes per layer keep the discrete +-w +-w sums
            # of sign activations away from exact zeros, where the sgn(0)
            # tie-break would spoil the antisymmetry
            ModelFamily("mlp2", 1, (2, 2)),
            ParameterGrid(
                (
                    (-1.0, 1.0),
                    (-0.7, 0.7),
                    (-0.9, 0.9),
                    (-0.55, 0.55),
                    (-0.8, 0.8),
                    (-0.35, 0.35),
                    (-1.2, 1.2),
                    (-0.45, 0.45),
                ),
                1,
            ),
            gaussian_1d_pair(-1.0, 0.5, 1.0, 0.5, 10, seed=6),
        ),
    ]
    worst = 0.0
    labels_agree = True
    for family, grid, ds in setups:
        acc = grid_accuracies(family, grid, ds)
        thetas = decode_all(grid)
        for _ in range(50):
            q = rng.normal(size=family.input_dim)
            preds = predict_many(family, thetas, q[None, :]).ravel()
            full = tree_sum(acc * preds.astype(np.float64)) / grid.size
            eff = effective_expectation(family, grid, ds, q)
            worst = max(worst, abs(full - 2.0 * eff))
            labels_agree &= (1 if full >= 0 else -1) == (1 if eff >= 0 else -1)
    ok = worst < 1e-10 and labels_agree
    report(
        3,
        "full weighted score is twice the accurate-half score on symmetric grids",
        ok,
        f"100 queries, max |full - 2*eff| = {worst:.2e}, labels agree: {labels_agree}",
    )


def test_criterion_4_analytic_boundary_and_closed_form():
    gauss = DecisionProblem1D(ClassDensity.gaussian(-1.0, 0.5), ClassDensity.gaussian(1.0, 0.5))
    b_gauss = decision_boundary(gauss)
    xs = np.linspace(-3.0, 3.0, 241)
    gap = max(
        abs(expectation_closed_equal_sigma(gauss, x) - expectation_quadrature(gauss, x))
        for x in xs
    )
    box = DecisionProblem1D(ClassDensity.box(-1.0, 0.8), ClassDensity.box(1.0, 0.8))
    lap = DecisionProblem1D(ClassDensity.laplace(-1.0, 0.5), ClassDensity.laplace(1.0, 0.5))
    b_box, b_lap = decision_boundary(box), decision_boundary(lap)
    ok = abs(b_gauss) < 1e-6 and gap < 1e-6 and abs(b_box) < 1e-6 and abs(b_lap) < 1e-6
    report(
        4,
        "matched-scale boundaries sit at the mean midpoint; closed form matches quadrature",
        ok,
        f"gauss {b_gauss:.2e}, box {b_box:.2e}, laplace {b_lap:.2e}, max closed-quad gap {gap:.2e}",
    )


def test_criterion_5_asymmetric_boundary_shift(tmp_path):
    prob = DecisionProblem1D(ClassDensity.gaussian(-1.0, 0.5), ClassDensity.gaussian(1.0, 2.0))
    b = decision_boundary(prob)
    summary = run_fig7(merged_config("fig7", {"example": 2}), tmp_path)
    asym = summary["metrics"]["accuracy_asymmetry"]
    exported = (tmp_path / "fig7_ex2_accuracy.csv").exists()
    ok = b > 0.0 and asym > 1e-3 and exported and summary["ok"]
    report(
        5,
        "unequal spreads shift the boundary toward the flatter class",
        ok,
        f"boundary {b:.6f} > 0, accuracy asymmetry {asym:.4f}, curves exported: {exported}",
    )


def test_criterion_6_majority_error_convergence():
    t0 = time.perf_counter()
    tail = condorcet_error(1001, 0.6)
    monotone = True
    for p in (0.55, 0.6, 0.7):
        _, errs = condorcet_curve(p, 1001)
        monotone &= all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    comp = max(
        abs(condorcet_error(e, p) + condorcet_error(e, 1.0 - p) - 1.0)
        for e in (1, 3, 11, 101, 1001)
        for p in (0.0, 0.25, 0.5, 0.6, 0.99)
    )
    elapsed = time.perf_counter() - t0
    ok = tail < 1e-6 and monotone and comp < 1e-12 and elapsed < 5.0
    report(
        6,
        "majority error vanishes, decreases monotonically, and respects complement symmetry",
        ok,
        f"err(1001,0.6)={tail:.2e}, monotone={monotone}, complement dev {comp:.2e}, {elapsed:.2f}s",
    )


def test_criterion_7_planar_ensemble_experiment(tmp_path):
    t0 = time.perf_counter()
    summary = run_fig6(merged_config("fig6", None), tmp_path)
    elapsed = time.perf_counter() - t0
    c = summary["checks"]
    d = summary["metrics"]["crossing_distance_to_midpoint"]
    ok = (
        summary["metrics"]["model_count"] == 8000
        and c["mean_minus_labeled"]
        and c["mean_plus_labeled"]
        and c["crossing_near_midpoint"]
        and elapsed < 60.0
    )
    report(
        7,
        "8000-model planar committee labels the means and crosses near the midpoint",
        ok,
        f"crossing at {d:.3f} <= 0.15 from midpoint, {elapsed:.1f}s",
    )


def test_criterion_8_amplitude_amplification_closed_form():
    worst = 0.0
    reached_one = None
    for e in (4, 16, 256):
        for k in sorted({1, e // 4, e // 2}):
            counts = np.zeros(e, dtype=int)
            counts[:k] = 2
            _, rep = grover_amplify_counts(counts, 2)
            want = math.sin((2 * rep.iterations + 1) * math.asin(math.sqrt(k / e))) ** 2
            worst = max(worst, abs(rep.marked_probability - want))
            if e == 4 and k == 1:
                reached_one = rep.marked_probability
    ok = worst < 1e-10 and abs(reached_one - 1.0) < 1e-10
    report(
        8,
        "amplified marked probability follows the closed form",
        ok,
        f"max |measured - closed| = {worst:.2e}, quarter-fraction run reaches {reached_one:.12f}",
    )


def test_criterion_9_sequential_rotation_fidelity():
    m = 8
    setups = [
        (
            ModelFamily("threshold1d", 1),
            ParameterGrid(((-1.0, 1.0), (-3.0, 3.0)), 3),
            Dataset(
                np.array([[-2.8], [-2.1], [-1.4], [-0.7], [0.7], [1.4], [2.1], [2.8]]),
                np.array([-1, -1, -1, -1, 1, 1, 1, 1]),
            ),
        ),
        (
            ModelFamily("perceptron", 1),
            ParameterGrid(((-1.0, 1.0), (-1.0, 1.0)), 3),
            Dataset(
                np.array([[-2.0], [-1.5], [-1.0], [-0.5], [0.5], [1.0], [1.5], [2.0]]),
                np.array([-1, -1, 1, -1, 1, -1, 1, 1]),
            ),
        ),
    ]
    delta = math.pi / (4 * m)
    worst = 0.0
    strict = True
    spreads = []
    for family, grid, ds in setups:
        assert len(ds) == m
        counts = grid_correct_counts(family, grid, ds)
        state = prepare_uniform(RegisterLayout(grid.total_bits))
        apply_accuracy_rotation_sequential(state, counts, m, delta)
        p0 = state.accuracy_zero_probabilities()
        want = np.cos(math.pi / 4 - (2 * counts - m) * delta) ** 2
        worst = max(worst, float(np.max(np.abs(p0 - want))))
        by_count = {}
        for c, p in zip(counts.tolist(), p0.tolist()):
            by_count.setdefault(c, []).append(p)
        levels = sorted(by_count)
        spreads.append(len(levels))
        means = [np.mean(by_count[c]) for c in levels]
        strict &= all(b > a for a, b in zip(means, means[1:]))
    ok = worst < 1e-12 and strict and min(spreads) >= 3
    report(
        9,
        "sequential rotation is strictly monotone in the correct count and matches cos^2",
        ok,
        f"max formula deviation {worst:.2e}, strictly monotone: {strict}, "
        f"count levels per fixture: {spreads}",
    )


# sha256 of every artifact each case writes.  A change that moves any output
# byte fails here and has to update the table and say why.
GOLDEN_SHA256 = {
    "fig2": {
        "fig2_condorcet.csv": "2210fc3d7d4ff23102b12a7e86666253ee1461322daa163ba0c53a05deac84cb",
        "fig2_condorcet.svg": "37f2268c45d2ccbd82342d5cec1b3e936f5c735246bc54958b61e146c52df136",
        "fig2_oddsratio.csv": "681b6803ad2382fa2fed559b843fd8a9eef18c62191d96a2323830b9739c8183",
        "fig2_oddsratio.svg": "148da07ce1ca4f4e1eeb066be25143e5010d6294f8fd9bcd4af0fe719419842b",
        "fig2_summary.json": "48c049686512be8a7430f720d69de7487ad22912baf968400da6e118c2fc290a",
    },
    "fig4": {
        "fig4_summary.json": "d1e60131e725952fd9364dbb361d9c54b0e4b39cf9f7c8b701003c0436ad8519",
        "fig4_weights.csv": "6b4ef6743e96f2509aa7e4b219406e2064ea4edecfa7b0d3a6d36add3a4b4183",
        "fig4_weights.svg": "065ca8f60b4df7f0faa5589361e024cd2e3736bee494fae4fb7ee387fa772d35",
    },
    "fig5": {
        "fig5_expectation.csv": "37e1bb97a13a7cd83f6a77178b800bdefaa3fc7e72ac0208a504ba6d07cb6e4b",
        "fig5_expectation.svg": "fcd11afdf396b23d03b04a24fa68b786c8a826edb13bc97a88df0523e00cceaf",
        "fig5_summary.json": "df1de1fbef61763f7032bbfad8336df8b588c9684c1a697484b09983c3e5a8f6",
    },
    "fig6": {
        "fig6_dataset.csv": "dc85a23a26f42fac8b52af84602d2ce5f9125c036508772f7f1b6e440409c1e5",
        "fig6_raster.csv": "7cd734b59c7e923b7a7e599f1ec4e164fda90cdf06ee1a59cbd81ec6942908e2",
        "fig6_summary.json": "b730aa2d54d5e4532132680ce979af230d6de0719b30d87fac36e015ed6f558b",
    },
    "fig7": {
        "fig7_ex1_accuracy.csv": "7aec7e486f6cd0311c31d1ba6c80f72943570bafb0bdade64fb872e7261a32d6",
        "fig7_ex1_classification.csv": "63db14ffd8952c373d42e5c0640f81b15bed7dc5c3bad3c5e5517da6d96e09bb",
        "fig7_ex1_densities.csv": "49386ee90d42eceff6865b64ee3677f4c2283f0be164afa6230f549194aeb4a1",
        "fig7_ex1_product.csv": "7364127cd508b88677b2a1dc5482aee7bdbe1e8a261be6dd31d0cefe5f42a5ae",
        "fig7_summary.json": "602fca5e645787f2e24c11836dae228ca0c31eb35063d20ed9af92702bab6455",
    },
    "classify": {
        "classify_report.json": "42eb85c34901858dc4b318b82b5c13b81e34291cba3fa1b1f65168783ae491c2",
        "classify_summary.json": "42eb85c34901858dc4b318b82b5c13b81e34291cba3fa1b1f65168783ae491c2",
    },
    "classify_sequential": {
        "classify_report.json": "8424313965462eff300a56f0c322d4717672b69c3f55bc89d07712ac8e4ed819",
        "classify_summary.json": "8424313965462eff300a56f0c322d4717672b69c3f55bc89d07712ac8e4ed819",
    },
    "grover": {
        "grover_report.json": "f87ad3520fdf2eae52b56d07c1c4f0fc9875c5f0c74b75a5d69fc708b5fcc06a",
        "grover_summary.json": "f87ad3520fdf2eae52b56d07c1c4f0fc9875c5f0c74b75a5d69fc708b5fcc06a",
    },
    "classify_blocks": {
        "classify_report.json": "b85ef594302a3d08915cc4bd42a6a3bbb2bd7e435cfb0eed1419b47b0eba148a",
        "classify_summary.json": "b85ef594302a3d08915cc4bd42a6a3bbb2bd7e435cfb0eed1419b47b0eba148a",
    },
    "fig6_blocks": {
        "fig6_dataset.csv": "dc85a23a26f42fac8b52af84602d2ce5f9125c036508772f7f1b6e440409c1e5",
        "fig6_raster.csv": "3e2446c153f70de61f2bf50fd47bdcfac689e08dfba58e1fcb192f53bfc2050a",
        "fig6_summary.json": "5510709b8153a58852282919f0afe0970732f2e68c706bc1570bb52533e47402",
    },
    "fig6_tail": {
        "fig6_dataset.csv": "dc85a23a26f42fac8b52af84602d2ce5f9125c036508772f7f1b6e440409c1e5",
        "fig6_raster.csv": "c0843b42f56989d98cd3540ed0d4a195c4eefcf06107c4b337b5a5dded509340",
        "fig6_summary.json": "2c24206a5c684e2812921f4be7ae919455467bf8cd8365d627879222e4692be9",
    },
    "classify_mlp2": {
        "classify_report.json": "f9a263405504cc327c9e35e3d0e6927f300565c145793c98f9f7d35853060d06",
        "classify_summary.json": "f9a263405504cc327c9e35e3d0e6927f300565c145793c98f9f7d35853060d06",
    },
    "classify_log_odds": {
        "classify_report.json": "106070fdfb228bfbb7c595d2863ff6d321d6d20966551f4f8658180dfbd4d57b",
        "classify_summary.json": "106070fdfb228bfbb7c595d2863ff6d321d6d20966551f4f8658180dfbd4d57b",
    },
    "classify_sequential_blocks": {
        "classify_report.json": "7a5990fc0d2d7174276cc47d2e97ecc77cd66bd859f052e852339b718634cdae",
        "classify_summary.json": "7a5990fc0d2d7174276cc47d2e97ecc77cd66bd859f052e852339b718634cdae",
    },
}


# overlapping classes keep every accuracy below 1, so log-odds stay finite
LOG_ODDS_OVERRIDES = {
    "scheme": "log_odds",
    "dataset": {
        "pair": {
            "mu_minus": -0.5,
            "sigma_minus": 1.0,
            "mu_plus": 0.5,
            "sigma_plus": 1.0,
            "per_class": 12,
            "seed": 5,
        }
    },
}


# each case: (command, config overrides or None)
GOLDEN_CASES = {
    "fig2": ("fig2", {"max_size": 151}),
    "fig4": ("fig4", None),
    "fig5": ("fig5", None),
    "fig6": ("fig6", None),
    "fig7": ("fig7", None),
    "classify": ("classify", None),
    "classify_sequential": ("classify", {"rotation": "sequential"}),
    "grover": ("grover", None),
    # 65,536 and 17,576 models: several predict_many row blocks each
    "classify_blocks": (
        "classify",
        {"grid": {"intervals": [[-1.0, 1.0], [-1.0, 1.0]], "bits": 8}},
    ),
    "fig6_blocks": ("fig6", {"values_per_parameter": 26, "raster_step": 0.5}),
    # 9,261 models: 1,157 packed sign groups and a tail of 5
    "fig6_tail": ("fig6", {"values_per_parameter": 21, "raster_step": 0.5}),
    # 2^16 models on an 8-parameter lattice: mlp2's tanh layers
    "classify_mlp2": (
        "classify",
        {
            "family": {"kind": "mlp2", "input_dim": 1, "hidden": [2, 2]},
            "grid": {"intervals": [[-1.0, 1.0]] * 8, "bits": 2},
        },
    ),
    "classify_log_odds": ("classify", LOG_ODDS_OVERRIDES),
    # 65,536 models: the net rotation's gathered cos and sin over a state of
    # 4 chunks, read out by the chunked sums, with counts from several
    # predict_many row blocks
    "classify_sequential_blocks": (
        "classify",
        {"rotation": "sequential", "grid": {"intervals": [[-1.0, 1.0], [-1.0, 1.0]], "bits": 8}},
    ),
}


def test_criterion_10_byte_determinism(tmp_path):
    identical = True
    golden = True
    for name, (command, overrides) in GOLDEN_CASES.items():
        argv_extra = []
        if overrides is not None:
            cfg = tmp_path / f"{name}_cfg.json"
            cfg.write_text(json.dumps(overrides))
            argv_extra = ["--config", str(cfg)]
        dirs = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{name}_{tag}"
            # fig6 is the one command that takes --threads
            threads_flag = ["--threads", threads] if command == "fig6" else []
            code = cli.main([command, "--out", str(out), *threads_flag, *argv_extra])
            assert code == 0, name
            dirs.append(out)
        blobs = [
            {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()} for d in dirs
        ]
        identical &= blobs[0] == blobs[1] == blobs[2]
        hashes = {f: hashlib.sha256(b).hexdigest() for f, b in blobs[0].items()}
        golden &= hashes == GOLDEN_SHA256[name]
    report(
        10,
        "every command reproduces its recorded artifacts byte for byte across runs and threads",
        identical and golden,
        f"{len(GOLDEN_CASES)} cases x 3 runs, identical: {identical}, match recorded sha256: {golden}",
    )


U = Fraction(1, 2**53)  # unit roundoff of float64: a rounding moves a value x by at most U * |x|


def pairwise_depth(n: int) -> int:
    """Most roundings a value meets in numpy's pairwise sum of n values:
    under 8 values one by one; up to 128 in 8 lanes, the lanes combined in
    3 rounds and the last n mod 8 values added one by one; above 128, one
    round more per halving."""
    if n < 8:
        return max(n - 1, 0)
    if n <= 128:
        return n // 8 - 1 + 3 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(pairwise_depth(half), pairwise_depth(n - half))


def exact_route_bounds(e: int) -> dict[str, int]:
    """Relative error bounds, in units of U and to first order, of the
    exact rotation's readouts at E models (no count register); each is also
    a bound in ulps, since U * |x| <= ulp(x).

    Quantum label readout: an amplitude meets c/M (of which sqrt keeps half
    the error), its sqrt, the product with 1/sqrt(E) and the product with
    the renormalisation, 3.5 U beside factors common to every amplitude,
    which cancel in p = (output-|0> mass) / total; its square has 8 U.  The
    total is one pairwise sum over the 4 E values; the output-|0> mass adds
    the pairwise sums of blocks of 8192 of its values one after another;
    then one division.  Acceptance: beside the rotation's 2.5 U, 1/sqrt(E)
    (a sqrt and a reciprocal, 2 U) cancels no longer, so a square has 10 U,
    summed pairwise over the accuracy-|0> branch's 2 E values.  Classical
    vote: each weight c/M, a fixed tree of ceil(log2 E) rounds for each of
    the two sums, one division."""
    block = min(4 * e, 2 * 8192)
    minus = 8 + pairwise_depth(block // 2) + 4 * e // block - 1
    return {
        "quantum_p_minus": minus + 8 + pairwise_depth(4 * e) + 1,
        "acceptance": 10 + pairwise_depth(2 * e),
        "classical": 2 * (1 + math.ceil(math.log2(e))) + 1,
    }


def within(x: float, exact: Fraction, error: Fraction) -> tuple[float, float]:
    """(distance of x from exact, allowed absolute error), in ulps of exact."""
    unit = Fraction(math.ulp(float(exact)))
    return float(abs(Fraction(x) - exact) / unit), float(error / unit)


@pytest.mark.parametrize(
    "name", ["classify", "classify_blocks", "classify_mlp2", "classify_log_odds"]
)
def test_exact_route_within_stated_ulps_of_the_integer_oracle(tmp_path, name):
    # with accuracies c_i / M the exact values are ratios of integer sums:
    # p(+-1) = sum over label +-1 of c_i / sum c_i, acceptance sum c_i / (M E)
    command, overrides = GOLDEN_CASES[name]
    cfg = merged_config(command, overrides)
    family, grid, dataset = figures._ensemble(cfg)
    counts = grid_correct_counts(family, grid, dataset)
    query = np.asarray(cfg["query"], dtype=np.float64)
    labels = predict_many(family, decode_all(grid), query[None, :])[:, 0]
    plus, total = int(counts[labels == 1].sum()), int(counts.sum())
    p_plus, p_minus = Fraction(plus, total), Fraction(total - plus, total)
    acceptance = Fraction(total, len(dataset) * grid.size)
    (tmp_path / "cfg.json").write_text(json.dumps(overrides or {}))
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out), "--config", str(tmp_path / "cfg.json")]) == 0
    metrics = json.loads((out / "classify_report.json").read_text())["metrics"]

    bound = exact_route_bounds(grid.size)
    q, c = metrics["quantum"], metrics["classical"]
    minus_error = bound["quantum_p_minus"] * U * p_minus
    measured = {
        "quantum p_minus": within(q["p_minus"], p_minus, minus_error),
        # p_plus = 1 - p_minus keeps p_minus's absolute error and rounds once more
        "quantum p_plus": within(
            q["p_plus"], p_plus, minus_error + Fraction(math.ulp(float(p_plus)))
        ),
        "classical p_minus": within(c["p_minus"], p_minus, bound["classical"] * U * p_minus),
        "classical p_plus": within(c["p_plus"], p_plus, bound["classical"] * U * p_plus),
        "acceptance": within(
            metrics["acceptance_probability"], acceptance, bound["acceptance"] * U * acceptance
        ),
    }
    assert all(got <= limit for got, limit in measured.values()), measured


def grover_error_bounds(e: int, t: int, p):
    """(bound on |marked probability - p|, bound on |norm - 1|), absolute
    and to first order, after t iterations at E models; p is the exact
    marked probability.

    In coordinates (sqrt(K) x_m, sqrt(E - K) x_u) the exact state is a unit
    vector and each step an orthogonal map, so an error made in one step is
    carried on without growth.  amp0 is (1 + eta)/sqrt(E), eta from its
    sqrt and division (0 when E is a power of 4), so the start is |eta|
    off.  A step uses amp0 twice where 1/sqrt(E) belongs (2 |eta|), rounds
    the two products x amp0 (U, as they weigh at most 1 together), the
    overlap (U) and 2 overlap amp0 (U), all along the prepared state, which
    the step adds twice; and it rounds the two new values (U in norm):
    2 (2 |eta| + 3 U) + U.  p = a^2 moves by at most twice the state's
    error, and its readout rounds fl(x_m^2) and the sum (2 U p); the norm
    moves by the state's error and rounds the squares, their sum and the
    sqrt (3 U).  One U more covers the second-order terms, which stay far
    below U at t <= 4096."""
    with mpmath.workdps(50):
        u = mpmath.mpf(2) ** -53
        eta = abs(mpmath.mpf(1.0 / math.sqrt(e)) * mpmath.sqrt(e) - 1)
        state = eta + t * (2 * (2 * eta + 3 * u) + u)
        return 2 * state + 2 * u * p + u, state + 3 * u + u


def grover_ulps(counts, m, iterations=None) -> dict[str, tuple[float, float]]:
    """Distance of Grover's readouts from the mpmath oracle, and the bound
    allowed, in units of U = 2^-53 (an ulp of values in [1/2, 1), so of the
    norm and of a well amplified probability): the marked probability
    against sin^2((2t + 1) asin sqrt(K/E)), with K counted here, and the
    norm against 1."""
    state, report = grover_amplify_counts(counts, m, iterations)
    e, t = counts.size, report.iterations
    k = int(np.count_nonzero(2 * np.asarray(counts) > m))
    with mpmath.workdps(50):
        u = mpmath.mpf(2) ** -53
        p = mpmath.sin((2 * t + 1) * mpmath.asin(mpmath.sqrt(mpmath.mpf(k) / e))) ** 2
        p_bound, norm_bound = grover_error_bounds(e, t, p)
        return {
            "marked_probability": (float(abs(report.marked_probability - p) / u), float(p_bound / u)),
            "norm": (float(abs(state.norm() - 1) / u), float(norm_bound / u)),
        }


def assert_within_bounds(measured: dict[str, tuple[float, float]]) -> None:
    worst = max(got for got, _ in measured.values())
    assert all(got <= limit for got, limit in measured.values()), (
        f"worst {worst:.3g} ulp from the mpmath oracle; (measured, allowed): {measured}"
    )


def _whole_register_case(e: int, m: int, marked: list[int]) -> np.ndarray:
    counts = np.zeros(e, dtype=np.int64)
    counts[marked] = m
    return counts


GROVER_ORACLE_CASES = {
    # 26 qubits, one marked model of 2^22, the default 1608 iterations
    "one_of_2^22": (lambda: _whole_register_case(1 << 22, 3, [12345]), 3, None),
    # 4 models at M = 2^21 - 1: 2^20 marked count values; the default and 31
    "m_2^21-1": (lambda: np.array([(1 << 21) - 1, 1 << 20, (1 << 20) - 1, 0]), (1 << 21) - 1, None),
    "m_2^21-1_t31": (lambda: np.array([(1 << 21) - 1, 1 << 20, (1 << 20) - 1, 0]), (1 << 21) - 1, 31),
}


@pytest.mark.parametrize(
    "name", [n for n, (command, _) in GOLDEN_CASES.items() if command == "grover"] + list(GROVER_ORACLE_CASES)
)
def test_grover_within_stated_ulps_of_the_mpmath_oracle(name):
    if name in GROVER_ORACLE_CASES:
        make, m, iterations = GROVER_ORACLE_CASES[name]
        counts = make()
    else:
        command, overrides = GOLDEN_CASES[name]
        cfg = merged_config(command, overrides)
        family, grid, dataset = figures._ensemble(cfg)
        counts, m, iterations = grid_correct_counts(family, grid, dataset), len(dataset), cfg["iterations"]
    assert_within_bounds(grover_ulps(counts, m, iterations))


@settings(max_examples=150, deadline=None)
@given(
    param_bits=st.integers(0, 12),
    m=st.integers(1, 31),
    iterations=st.one_of(st.none(), st.integers(0, 31)),
    seed=st.integers(0, 2**32 - 1),
)
def test_grover_within_stated_ulps_of_the_mpmath_oracle_on_draws(param_bits, m, iterations, seed):
    counts = np.random.default_rng(seed).integers(0, m + 1, 1 << param_bits)
    counts[0] = m  # at least one marked model
    assert_within_bounds(grover_ulps(counts, m, iterations))


# Runs golden cases in a fresh interpreter and prints their sha256 as JSON,
# with the dispatch groups numpy left enabled; argv: cases as JSON, out dir.
_GOLDEN_CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
from qens import cli
cases, root = json.loads(sys.argv[1]), Path(sys.argv[2])
hashes = {}
for name, (command, overrides) in cases.items():
    argv = [command, "--out", str(root / name)]
    if overrides is not None:
        cfg = root / (name + ".json")
        cfg.write_text(json.dumps(overrides))
        argv += ["--config", str(cfg)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, name
    hashes[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (root / name).iterdir()}
groups = [g for g in ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR") if __cpu_features__.get(g)]
print(json.dumps({"hashes": hashes, "simd": groups}))
"""

# The golden cases whose bytes already hold on other BLAS kernels, SIMD
# levels and glibc libm variants: one-input perceptrons (elementwise margins
# along the model axis), exact integer counts, a simulator that multiplies and
# copies elementwise, the log-odds weights, and the analytic figures fig4,
# fig5 and fig7 (the erf port, on the C library's exp, and the QAGS port on
# their inputs).  fig2 (log-space sums of the log-gamma table), fig6
# (two-input BLAS margins) and classify_mlp2 (einsum and tanh) still move
# under these settings, so they stay out until their arithmetic is made
# dispatch-invariant (ROADMAP item 5).
PORTABLE_CASES = (
    "classify",
    "classify_sequential",
    "classify_blocks",
    "classify_log_odds",
    "classify_sequential_blocks",
    "grover",
    "fig4",
    "fig5",
    "fig7",
)


OTHER_KERNELS = pytest.mark.parametrize(
    "env",
    [
        {"OPENBLAS_CORETYPE": "Prescott"},
        {"NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"},
        # glibc's libm without its FMA variants: np.cos/np.sin, math.exp and
        # math.log, the cexp under the erf port, and scipy.special
        {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"},
    ],
    ids=["openblas-prescott", "numpy-baseline-simd", "glibc-no-fma"],
)


@OTHER_KERNELS
def test_golden_cases_hold_on_other_kernels(tmp_path, env):
    cases = {name: GOLDEN_CASES[name] for name in PORTABLE_CASES}
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", _GOLDEN_CHILD, json.dumps(cases), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", **env),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    if "NPY_DISABLE_CPU_FEATURES" in env:
        assert result["simd"] == []  # the setting took effect
    assert result["hashes"] == {name: GOLDEN_SHA256[name] for name in PORTABLE_CASES}


# Compares the special-function ports with scipy.special, and their exp route
# with math.exp, in a fresh interpreter; prints the mismatch counts as JSON.
_SPECIAL_CHILD = """
import json, math
import numpy as np
import scipy.special as sc
from numpy._core._multiarray_umath import __cpu_features__
from qens import _special, prng
from qens.figures import FIG2_SIZE_CAP

def differ(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return int(np.sum((got.view(np.uint64) != want.view(np.uint64)) & ~(np.isnan(got) & np.isnan(want))))

rng = np.random.default_rng(11)
x = np.concatenate([rng.normal(0.0, 3.0, 200_000), 10.0 ** rng.uniform(-310.0, 2.0, 20_000)])
x = np.concatenate([x, -x])
u = prng.uniforms(prng.derive_key(8, 0), 200_000)
t = 10.0 ** -rng.uniform(0.0, 300.0, 20_000)
y = np.concatenate([u, t, 1.0 - t])
b = rng.uniform(0.0, 40.0, 100_000)
groups = [g for g in ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR") if __cpu_features__.get(g)]
print(json.dumps({
    "erf": differ(_special.erf(x), sc.erf(x)),
    "ndtri": differ(_special.ndtri(y), sc.ndtri(y)),
    "gammaln": differ(_special.log_gamma_range(FIG2_SIZE_CAP + 3), sc.gammaln(np.arange(FIG2_SIZE_CAP + 3.0))),
    "exp": differ(_special._exp_neg(b), [math.exp(-v) for v in b.tolist()]),
    "simd": groups,
}))
"""


@OTHER_KERNELS
def test_special_ports_hold_on_other_kernels(env):
    # scipy follows the C library's exp and log wherever dispatch sends them,
    # and so must the ports; numpy's own SIMD kernels must not reach them
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", _SPECIAL_CHILD],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", **env),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    simd = result.pop("simd")
    if "NPY_DISABLE_CPU_FEATURES" in env:
        assert simd == []  # the setting took effect
    assert result == {"erf": 0, "ndtri": 0, "gammaln": 0, "exp": 0}


def test_second_scheme_votes_on_the_accuracies_already_held(tmp_path, monkeypatch):
    # classify's second scheme weights the accuracies of its first training
    # walk; it used to call ensemble_decide, which walked the training set again
    import qens.model

    calls = []
    original = qens.model.correct_counts

    def counting(*args):
        calls.append(args[1].shape)
        return original(*args)

    monkeypatch.setattr(qens.model, "correct_counts", counting)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(LOG_ODDS_OVERRIDES))
    out = tmp_path / "out"
    assert cli.main(["classify", "--out", str(out), "--config", str(cfg)]) == 0
    assert len(calls) == 3, calls
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert hashes == GOLDEN_SHA256["classify_log_odds"]


def test_second_scheme_votes_on_the_query_labels_the_circuit_used(tmp_path, monkeypatch):
    # the classifier gate and the second scheme's vote share one evaluation
    # at the query; ensemble_decide's classical vote makes the other
    import qens.model
    from qens import figures, weighting

    query = np.asarray(merged_config("classify", LOG_ODDS_OVERRIDES)["query"], dtype=np.float64)
    calls = []
    original = qens.model.predict_many

    def counting(family, thetas, xs):
        if np.array_equal(np.asarray(xs).reshape(-1), query):
            calls.append(len(thetas))
        return original(family, thetas, xs)

    for module in (qens.model, figures, weighting):
        monkeypatch.setattr(module, "predict_many", counting)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(LOG_ODDS_OVERRIDES))
    out = tmp_path / "out"
    assert cli.main(["classify", "--out", str(out), "--config", str(cfg)]) == 0
    assert len(calls) == 2, calls
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert hashes == GOLDEN_SHA256["classify_log_odds"]
