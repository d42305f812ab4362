"""Experiment presets and the command-line wrapper: artifacts, exit codes,
byte determinism."""

import inspect
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qens
from qens import cli, figures, simulator, svgplot
from qens.figures import DEFAULTS, ConfigError, dataset_from_config, merged_config, run_command


def run_cli(*argv):
    return cli.main(list(argv))


def read_dir_bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


def write_config(tmp_path: Path, obj) -> Path:
    p = tmp_path / "config.json"
    p.write_text(json.dumps(obj))
    return p


# --- artifacts ---------------------------------------------------------------

def test_fig2_artifacts(tmp_path):
    assert run_cli("fig2", "--out", str(tmp_path)) == 0
    for name in ("fig2_condorcet.csv", "fig2_oddsratio.csv", "fig2_condorcet.svg",
                 "fig2_summary.json"):
        assert (tmp_path / name).exists()
    summary = json.loads((tmp_path / "fig2_summary.json").read_text())
    assert summary["ok"] is True
    header = (tmp_path / "fig2_condorcet.csv").read_text().splitlines()[0]
    assert header == "committee_size,value,series"


def test_fig4_artifacts(tmp_path):
    assert run_cli("fig4", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "fig4_weights.csv").read_text().splitlines()
    assert rows[0] == "accuracy,value,series"
    assert any(r.endswith(",log_odds") for r in rows[1:])


def test_fig5_boundary_metric(tmp_path):
    assert run_cli("fig5", "--out", str(tmp_path)) == 0
    summary = json.loads((tmp_path / "fig5_summary.json").read_text())
    assert abs(summary["metrics"]["boundary"]) < 1e-6
    assert summary["metrics"]["max_gap"] < 1e-6


def test_fig6_artifacts_and_checks(tmp_path):
    assert run_cli("fig6", "--out", str(tmp_path)) == 0
    summary = json.loads((tmp_path / "fig6_summary.json").read_text())
    assert summary["metrics"]["model_count"] == 8000
    assert summary["metrics"]["raster_points"] == 81 * 81
    assert summary["checks"]["crossing_near_midpoint"] is True
    raster = (tmp_path / "fig6_raster.csv").read_text().splitlines()
    assert raster[0] == "x1,x2,raw_score,label"
    assert len(raster) == 81 * 81 + 1
    assert (tmp_path / "fig6_dataset.csv").exists()


def test_fig7_both_examples(tmp_path):
    assert run_cli("fig7", "--out", str(tmp_path)) == 0
    cfg = write_config(tmp_path, {"example": 2})
    assert run_cli("fig7", "--out", str(tmp_path), "--config", str(cfg)) == 0
    for stem in ("densities", "classification", "accuracy", "product"):
        assert (tmp_path / f"fig7_ex1_{stem}.csv").exists()
        assert (tmp_path / f"fig7_ex2_{stem}.csv").exists()
    summary = json.loads((tmp_path / "fig7_summary.json").read_text())
    assert summary["metrics"]["boundary"] > 0.0
    assert summary["metrics"]["accuracy_asymmetry"] > 1e-3


def test_classify_report(tmp_path):
    assert run_cli("classify", "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "classify_report.json").read_text())
    m = report["metrics"]
    assert m["max_model_probability_deviation"] < 1e-10
    assert m["label_distribution_deviation"] < 1e-10
    assert m["acceptance_probability"] == pytest.approx(m["mean_accuracy"], abs=1e-12)
    assert sum(int(v) for v in m["sampled_counts"].values()) == m["shots"]


def test_classify_sequential_rotation(tmp_path):
    cfg = write_config(tmp_path, {"rotation": "sequential"})
    assert run_cli("classify", "--out", str(tmp_path), "--config", str(cfg)) == 0
    report = json.loads((tmp_path / "classify_report.json").read_text())
    assert report["metrics"]["rotation_formula_deviation"] < 1e-12
    assert "rotation_accuracy_deviation" in report["metrics"]


def test_classify_sequential_memory_bound(tmp_path, peak_bytes):
    # M = 400 points, so the correct-count walks' (E, M) int8 predict_many
    # table dominates; the rotation takes the counts and adds O(E) beside it
    overrides = {
        "rotation": "sequential",
        "grid": {"intervals": [[-1.0, 1.0], [-1.0, 1.0]], "bits": 8},
        "dataset": {"pair": dict(DEFAULTS["classify"]["dataset"]["pair"], per_class=200)},
    }
    cfg = merged_config("classify", overrides)
    layout = simulator.RegisterLayout(16)
    e, m = layout.model_count, 400
    state_bytes = 8 << layout.total_qubits
    bound = e * m + state_bytes + 64 * e + 8 * simulator._NORM_CHUNK
    assert peak_bytes(figures.run_classify, cfg, tmp_path) <= bound


@pytest.mark.parametrize("rotation", ["exact", "sequential"])
def test_classify_memory_budget(tmp_path, peak_bytes, rotation):
    # M = 24 at E = 2^18 models: the committee's grid pass runs before the
    # statevector exists and the rotation takes its angles a chunk of models
    # at a time, so beside the state's 4 E float64 values the run holds at
    # most 5 more E-sized float64 arrays: accuracies, counts, the decoded
    # grid's 2 columns, and one for the int8 query labels and predict_many's
    # fixed scratch
    overrides = {"rotation": rotation, "grid": {"intervals": [[-1.0, 1.0], [-1.0, 1.0]], "bits": 9}}
    cfg = merged_config("classify", overrides)
    e = simulator.RegisterLayout(18).model_count
    assert peak_bytes(figures.run_classify, cfg, tmp_path) <= 8 * e * (4 + 5)


def test_classify_all_models_wrong_is_domain_error(tmp_path, capsys):
    # every model labels the one point +1 against its label -1, so every
    # accuracy is 0; the classical committee, which runs first, refuses it
    cfg = write_config(
        tmp_path,
        {
            "grid": {"intervals": [[1, 2], [1, 2]], "bits": 2},
            "dataset": {"points": {"x": [[10.0]], "y": [-1]}},
        },
    )
    assert run_cli("classify", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_DOMAIN
    assert capsys.readouterr().err == "error: all model weights are zero\n"


def test_grover_report(tmp_path):
    assert run_cli("grover", "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "grover_report.json").read_text())
    m = report["metrics"]
    assert m["marked_models"] == 4 and m["models"] == 16
    assert m["iterations"] == 1
    assert m["marked_probability"] == pytest.approx(1.0, abs=1e-10)


# --- exit codes ----------------------------------------------------------------

def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, {"no_such_key": 1})
    assert run_cli("fig4", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_USAGE


def test_malformed_json_is_usage_error(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{nope")
    assert run_cli("fig4", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_USAGE


def test_undecodable_config_is_usage_error(tmp_path):
    cfg = tmp_path / "binary.json"
    cfg.write_bytes(b"\x80\x81")
    assert run_cli("fig4", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_USAGE


def test_missing_config_file_is_file_error(tmp_path):
    assert (
        run_cli("fig4", "--out", str(tmp_path), "--config", str(tmp_path / "absent.json"))
        == cli.EXIT_FILE
    )


def test_bad_label_in_dataset_is_domain_error(tmp_path):
    cfg = write_config(
        tmp_path,
        {"dataset": {"points": {"x": [[0.0]], "y": [0]}}},
    )
    assert run_cli("classify", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_DOMAIN


BAD_GAUSSIAN_CONFIGS = {
    # the dataset is refused ahead of the raster's own exit 2
    "fig6-negative-sigma-zero-step": ("fig6", {"sigma": -0.5, "raster_step": 0}),
    # and ahead of the per_class cap's exit 4
    "fig6-negative-sigma-per-class-over-cap": ("fig6", {"sigma": -0.5, "per_class": 2_000_000}),
    "classify-pair-zero-sigma": (
        "classify",
        {"dataset": {"pair": {"mu_minus": -1, "sigma_minus": 0, "mu_plus": 1,
                              "sigma_plus": 0.5, "per_class": 4, "seed": 1}}},
    ),
    "classify-blobs-unequal-means": (
        "classify",
        {"dataset": {"blobs": {"mean_minus": [-1], "mean_plus": [1, 0], "sigma": 0.5,
                               "per_class": 4, "seed": 1}}},
    ),
}


@pytest.mark.parametrize("command, override", BAD_GAUSSIAN_CONFIGS.values(), ids=BAD_GAUSSIAN_CONFIGS)
def test_bad_gaussian_dataset_is_domain_error(tmp_path, capsys, command, override):
    cfg = write_config(tmp_path, override)
    out = tmp_path / "out"
    assert run_cli(command, "--out", str(out), "--config", str(cfg)) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not out.exists() or not any(out.iterdir())


def test_oversized_grid_is_cap_error(tmp_path, monkeypatch):
    # 2^26 models and up: enumerating them would take gigabytes, so the cap
    # must come first, also where the ticks of so many bits would overflow
    def refuse(*args):
        raise AssertionError("grid enumerated before the cap check")

    monkeypatch.setattr(figures, "grid_accuracies", refuse)
    monkeypatch.setattr(figures, "grid_correct_counts", refuse)
    for bits in (13, 1024, 5000):
        cfg = write_config(tmp_path, {"grid": {"intervals": [[-1, 1], [-1, 1]], "bits": bits}})
        for command in ("classify", "grover"):
            code = run_cli(command, "--out", str(tmp_path), "--config", str(cfg))
            assert code == cli.EXIT_CAP, (bits, command)


@pytest.mark.parametrize("command", ["classify", "grover"])
def test_grid_whose_ticks_overflow_is_usage_error(tmp_path, command):
    # the ticks scale 1e308 by 2**2 - 1; classify used to vote with infinite parameters
    cfg = write_config(tmp_path, {"grid": {"intervals": [[-1e308, 1e308], [-1, 1]], "bits": 2}})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command, "--out", str(out), "--config", str(cfg)) == cli.EXIT_USAGE
    assert not out.exists() or not any(out.iterdir())


def test_grover_at_qubit_cap_under_address_space_limit(tmp_path):
    # 26 qubits, whose real statevector alone would take 512 MiB.  Grover
    # holds two values beside the E = 2^20 counts and marked mask, so it
    # completes under 320 MiB of address space
    pair = {"mu_minus": -1.0, "sigma_minus": 0.5, "mu_plus": 1.0, "sigma_plus": 0.5}
    cfg = write_config(
        tmp_path,
        {
            "grid": {"intervals": [[-1, 1], [-1, 1]], "bits": 10},
            "dataset": {"pair": dict(pair, per_class=7, seed=0)},
        },
    )
    src = str(Path(qens.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)

    def limit():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (320 << 20, 320 << 20))

    argv = ["grover", "--config", str(cfg), "--out", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, "-m", "qens.cli", *argv],
        env=env,
        preexec_fn=limit,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert json.loads((tmp_path / "out" / "grover_summary.json").read_text())["ok"]


def import_address_space(env) -> int:
    """Peak address space, in bytes, of a child that has only imported the
    command line: the interpreter, numpy and its BLAS, and glibc's mappings,
    which differ between builds and hosts."""
    probe = "import qens.cli\nprint(open('/proc/self/status').read())"
    status = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    line = next(line for line in status.splitlines() if line.startswith("VmPeak:"))
    return int(line.split()[1]) << 10


@pytest.mark.parametrize("rotation", ["exact", "sequential"])
def test_classify_under_address_space_limit(tmp_path, rotation):
    # bits 11: E = 2^22 models, 24 qubits, a 128 MiB statevector (4 E-sized
    # float64 arrays).  The committee's grid pass (decoded grid and int8
    # predictions, 8 E-sized arrays) ends before the statevector exists,
    # so above its imports the run peaks at 9 E-sized arrays (exact) or
    # 9.75 (sequential); with that pass alive beside the state it needed 13.
    # The limit grants 11 above what the imports take
    grid = {"intervals": [[-1, 1], [-1, 1]], "bits": 11}
    cfg = write_config(tmp_path, {"rotation": rotation, "grid": grid})
    src = str(Path(qens.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    cap = import_address_space(env) + 11 * 8 * simulator.RegisterLayout(22).model_count

    def limit():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    argv = ["classify", "--config", str(cfg), "--out", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, "-m", "qens.cli", *argv],
        env=env,
        preexec_fn=limit,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert json.loads((tmp_path / "out" / "classify_summary.json").read_text())["ok"]


def test_classify_at_qubit_cap_under_address_space_limit(tmp_path):
    # bits 12: 2^24 models and 26 qubits.  Under 640 MiB of address space the
    # classical tables or the 512 MiB statevector cannot be allocated; that
    # must exit 4 with a message, not 1 with a traceback or -9
    cfg = write_config(tmp_path, {"grid": {"intervals": [[-1, 1], [-1, 1]], "bits": 12}})
    src = str(Path(qens.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)

    def limit():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (640 << 20, 640 << 20))

    argv = ["classify", "--config", str(cfg), "--out", str(tmp_path / "out")]
    refused = subprocess.run(
        [sys.executable, "-m", "qens.cli", *argv],
        env=env,
        preexec_fn=limit,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert refused.returncode == cli.EXIT_CAP, refused.stderr
    assert "Traceback" not in refused.stderr
    assert "out of memory" in refused.stderr


def test_grover_iteration_cap(tmp_path, monkeypatch):
    # the default count floor(pi/4 sqrt(E/K)) is largest at K = 1 and the
    # widest parameter register the qubit cap leaves beside a 1-qubit count
    widest = simulator.DEFAULT_QUBIT_CAP - 3
    assert math.floor(math.pi / 4 * math.sqrt(1 << widest)) <= figures.GROVER_ITERATION_CAP
    cfg = write_config(tmp_path, {"iterations": figures.GROVER_ITERATION_CAP})
    assert run_cli("grover", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_OK

    def refuse(*args):
        raise AssertionError("grid enumerated before the cap check")

    monkeypatch.setattr(figures, "grid_correct_counts", refuse)
    cfg = write_config(tmp_path, {"iterations": figures.GROVER_ITERATION_CAP + 1})
    assert run_cli("grover", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_CAP


@pytest.mark.parametrize("command", ["fig4", "fig5"])
def test_curve_point_cap(tmp_path, monkeypatch, command):
    if command == "fig4":  # fast at the cap; fig5 there takes seconds
        cfg = write_config(tmp_path, {"points": figures.CURVE_POINT_CAP})
        assert run_cli(command, "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_OK

    def refuse(*args):
        raise AssertionError("curve evaluated before the cap check")

    monkeypatch.setattr(figures.analytic, "expectation_quadrature", refuse)
    monkeypatch.setattr(figures.weighting, "weights_for", refuse)
    cfg = write_config(tmp_path, {"points": figures.CURVE_POINT_CAP + 1})
    assert run_cli(command, "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_CAP


def test_importing_the_package_loads_no_module():
    # qens exposes modules, not names: the package root imports nothing
    src = str(Path(qens.__file__).resolve().parents[1])
    probe = (
        "import sys, qens; "
        "print(sorted(m for m in sys.modules if m.startswith('qens.') or m == 'numpy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_commands_load_no_scipy(tmp_path):
    # erf, ndtri and gammaln are in-repo ports and the quadrature is an
    # in-repo QAGS: no command, run or imported, loads any part of scipy
    src = str(Path(qens.__file__).resolve().parents[1])
    runs = {
        "classify": None,
        "grover": None,
        "fig2": {"max_size": 101},
        "fig4": {"points": 21},
        "fig5": {"points": 21},
        "fig6": {"raster_step": 0.5},
        "fig7": None,
    }
    probe = (
        "import contextlib, io, json, sys\n"
        "import qens.cli\n"
        f"runs, root = {runs!r}, {str(tmp_path)!r}\n"
        "for command, overrides in runs.items():\n"
        "    argv = [command, '--out', f'{root}/{command}']\n"
        "    if overrides is not None:\n"
        "        with open(f'{root}/{command}.json', 'w') as fh:\n"
        "            json.dump(overrides, fh)\n"
        "        argv += ['--config', f'{root}/{command}.json']\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert qens.cli.main(argv) == 0, command\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert all((tmp_path / command).is_dir() for command in runs)


@pytest.mark.parametrize(
    ("query", "code"),
    [
        (1e308, 3), (-1e308, 3), (math.inf, 3), (-math.inf, 3), (math.nan, 3),
        (7.5, 3), (-50.0, 3), (6.9, 0),
    ],
)
def test_fig7_query_outside_the_window_is_domain_error(tmp_path, query, code):
    # example 1's grid spans [-7, 7] in steps of 0.0125 and must hold the
    # query as a node; the step counts of the first four overflow floor and ceil
    cfg = write_config(tmp_path, {"query": query})
    assert run_cli("fig7", "--out", str(tmp_path), "--config", str(cfg)) == code


@pytest.mark.parametrize(
    ("command", "override"),
    [("fig4", {"points": 1}), ("fig5", {"points": 1}), ("fig2", {"max_size": 2})],
)
def test_single_point_curves_draw_finite_svg(tmp_path, command, override):
    # every x equal: the zero x span is widened, as a zero y span is, not divided by
    cfg = write_config(tmp_path, override)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(command, "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_OK
    svgs = sorted(tmp_path.glob("*.svg"))
    assert svgs
    for svg in svgs:
        assert "nan" not in svg.read_text()


def test_fig5_single_point_beyond_2_53_draws_finite_svg(tmp_path):
    # x +- 1 rounds back to 1e17, so the empty x span must widen by more
    cfg = write_config(tmp_path, {"x_min": 1e17, "x_max": 1e17, "points": 1})
    assert run_cli("fig5", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_OK
    assert "nan" not in (tmp_path / "fig5_expectation.svg").read_text()


@pytest.mark.parametrize(
    "override", [{"x_max": 1e308}, {"x_min": -3.0, "x_max": 1e17}], ids=["1e308", "1e17"]
)
def test_fig5_closed_form_far_outside_the_window_matches_quadrature(tmp_path, override):
    # past the window the closed form's two gamma terms cancel to 0 (at 1e17)
    # or overflow to nan (near 1e308); both routes score the window end there
    cfg = write_config(tmp_path, override)
    assert run_cli("fig5", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_OK
    summary = json.loads((tmp_path / "fig5_summary.json").read_text())
    assert summary["checks"]["closed_matches_quadrature"]
    assert "nan" not in (tmp_path / "fig5_expectation.csv").read_text()


@pytest.mark.parametrize(
    ("command", "override"),
    [
        ("fig2", {"p_list": []}),
        ("fig4", {"points": 0}),
        ("fig5", {"points": 0}),
        ("fig5", {"points": -2}),
        ("fig6", {"values_per_parameter": 0}),
        ("fig2", {"max_size": 0}),
        ("fig2", {"max_size": -3}),
        ("fig6", {"per_class": 0}),
        ("classify", {"dataset": {"pair": dict(DEFAULTS["classify"]["dataset"]["pair"], per_class=0)}}),
        ("classify", {"dataset": {"blobs": {"mean_minus": [-1.0], "mean_plus": [1.0], "sigma": 0.5, "per_class": -1, "seed": 1}}}),
    ],
    ids=[
        "fig2-no-accuracies", "fig4-no-points", "fig5-no-points", "fig5-negative-points", "fig6-no-models",
        "fig2-no-sizes", "fig2-negative-size", "fig6-no-points", "pair-no-points", "blobs-negative-points",
    ],
)
def test_empty_input_is_config_error_before_any_artifact(tmp_path, command, override):
    cfg = write_config(tmp_path, override)
    out = tmp_path / "out"
    assert run_cli(command, "--out", str(out), "--config", str(cfg)) == cli.EXIT_USAGE
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    ("x_min", "x_max"),
    [(-1e308, 1e308), (1e308, -1e308), (-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)],
)
def test_fig5_with_unbounded_width_is_config_error(tmp_path, x_min, x_max):
    # 1e308 - (-1e308) overflows: linspace would write rows at x = nan and inf
    cfg = write_config(tmp_path, {"x_min": x_min, "x_max": x_max, "points": 3})
    out = tmp_path / "out"
    assert run_cli("fig5", "--out", str(out), "--config", str(cfg)) == cli.EXIT_USAGE
    assert not list(out.glob("*.csv")) and not list(out.glob("*.svg"))


@settings(max_examples=200)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_empty_span_widens_to_a_finite_nonempty_one(v):
    lo, hi = svgplot._span(v, v)
    assert lo < hi and math.isfinite(lo) and math.isfinite(hi)
    if v - 1.0 < v + 1.0:  # where +-1 widens, the bytes of earlier plots stay
        assert (lo, hi) == (v - 1.0, v + 1.0)


@pytest.mark.parametrize("v", [2.0**53, -(2.0**53), 1e17, 1.7976931348623157e308, -1.7976931348623157e308])
def test_single_point_plot_at_huge_values_is_finite(tmp_path, v):
    svg = tmp_path / "one.svg"
    svgplot.render_curves(svg, [("one", [v], [v])])
    text = svg.read_text()
    assert "nan" not in text and "inf" not in text


def test_fig5_far_beyond_the_window_matches_the_closed_form(tmp_path):
    cfg = write_config(tmp_path, {"x_min": -1e4, "x_max": 1e4})
    # the quadrature used to integrate [window end, query] afresh and miss
    # the mass near the window end: 3.601 at every |x| >= 1e4, max_gap 0.399
    assert run_cli("fig5", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_OK
    rows = (tmp_path / "fig5_expectation.csv").read_text().splitlines()
    quadrature = [r for r in rows if r.endswith(",quadrature")]
    assert quadrature[0] == "-10000,-4,quadrature" and quadrature[-1] == "10000,4,quadrature"


@pytest.mark.parametrize(
    "override",
    [{"mu_plus": 1e300}, {"mu_minus": -1e308, "mu_plus": 1e308}],
    ids=["mu_plus-1e300", "means-1e308"],
)
def test_fig5_refused_by_the_quadrature_prints_no_overflow_warning(tmp_path, override):
    # the closed form overflows at these means; the quadrature refuses the
    # config first, so the run ends in exit 3 with only its error line
    cfg = write_config(tmp_path, override)
    src = str(Path(qens.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "qens.cli", "fig5", "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == cli.EXIT_DOMAIN, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert done.stderr.startswith("error: integrand at the truncation cutoffs")


@pytest.mark.parametrize(
    "override",
    [{"sigma": 3e307, "mu_minus": -1e307, "mu_plus": 1e307}, {"sigma": 1e308, "mu_plus": 1e308}],
    ids=["symmetric-3e307", "mu_plus-1e308"],
)
def test_fig5_with_an_overflowing_boundary_bracket_is_domain_error(tmp_path, override):
    # the boundary search brackets the means -+ 10 * sigma, which overflows
    # here; both configs used to bisect to a NaN boundary and exit 6, the
    # second after an overflow warning from the closed form
    cfg = write_config(tmp_path, override)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("fig5", "--out", str(out), "--config", str(cfg)) == cli.EXIT_DOMAIN
    assert not out.exists() or read_dir_bytes(out) == {}


@pytest.mark.parametrize(
    ("command", "override"),
    [
        ("fig6", {"per_class": 2, "sigma": 1e308}),
        ("classify", {"dataset": {"pair": {"mu_minus": -1, "sigma_minus": 1e308, "mu_plus": 1,
                                           "sigma_plus": 1e308, "per_class": 2, "seed": 0}}}),
    ],
    ids=["fig6", "classify-pair"],
)
def test_overflowing_samples_are_domain_error(tmp_path, capsys, command, override):
    # mean + sigma * z overflows to inf; the overflow used to raise a
    # RuntimeWarning before the dataset refused its non-finite features
    cfg = write_config(tmp_path, override)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command, "--out", str(out), "--config", str(cfg)) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err
    assert not out.exists() or read_dir_bytes(out) == {}


@pytest.mark.parametrize(
    ("scheme", "x"),
    [("log_odds", [[-2.0], [0.5]]), ("effective_centered", [[0.0], [0.0]])],
    ids=["log_odds_unbounded", "all_weights_zero"],
)
def test_unusable_scheme_weights_are_domain_error(tmp_path, scheme, x):
    # a model of accuracy 1 has infinite log-odds; with both points at
    # one place every model has accuracy 1/2 and centered weight 0
    cfg = write_config(tmp_path, {"scheme": scheme, "dataset": {"points": {"x": x, "y": [-1, 1]}}})
    assert run_cli("classify", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_DOMAIN


def test_log_odds_refused_before_the_statevector(tmp_path, monkeypatch):
    # a model of accuracy 1 has unbounded log-odds weight; the refusal comes
    # right after the accuracies, before any statevector is allocated
    def refuse(*args):
        raise AssertionError("statevector prepared before the scheme's weights")

    monkeypatch.setattr(figures.simulator, "prepare_uniform", refuse)
    override = {"scheme": "log_odds", "dataset": {"points": {"x": [[-2.0], [0.5]], "y": [-1, 1]}}}
    cfg = write_config(tmp_path, override)
    assert run_cli("classify", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_DOMAIN


def test_failed_consistency_check_exit_code(tmp_path):
    # two points per class drowned in overlap: the committee cannot
    # separate the blobs, so the preset's label checks fail
    cfg = write_config(tmp_path, {"sigma": 3.0, "per_class": 2, "seed": 4})
    assert run_cli("fig6", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_CHECK_FAILED


@pytest.mark.parametrize("step", [0, -0.1])
def test_nonpositive_raster_step_is_usage_error(tmp_path, step):
    cfg = write_config(tmp_path, {"raster_step": step})
    assert run_cli("fig6", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_USAGE


def test_infinite_raster_step_is_usage_error(tmp_path):
    # 1e999 parses as inf: it used to write a nan raster row, then fail in argmin
    (tmp_path / "config.json").write_text('{"raster_step": 1e999}')
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("fig6", "--out", str(out), "--config", str(tmp_path / "config.json"))
    assert code == cli.EXIT_USAGE
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "override",
    [{"raster_step": 1e-4}, {"raster_lo": -1e300, "raster_hi": 1e300}],
    ids=["tiny_step", "huge_span"],
)
def test_raster_over_point_cap_is_cap_error(tmp_path, override):
    cfg = write_config(tmp_path, override)
    assert run_cli("fig6", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_CAP


def test_fig6_lattice_over_model_cap_is_cap_error(tmp_path, monkeypatch):
    # 65^3 models: the count must come before the lattice is scored
    def refuse(*args):
        raise AssertionError("lattice enumerated before the cap check")

    monkeypatch.setattr(figures, "correct_counts", refuse)
    cfg = write_config(tmp_path, {"values_per_parameter": 65})
    assert run_cli("fig6", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_CAP


def test_fig6_per_class_over_cap_is_refused_before_drawing(tmp_path, peak_bytes):
    # 2,000,000 points of dimension 2 per class: refused before either class
    # (32 MB each) is drawn, and ahead of the raster's own cap
    cfg = write_config(tmp_path, {"per_class": 2_000_000, "raster_step": 1e-4})
    codes = []
    argv = ("fig6", "--out", str(tmp_path), "--config", str(cfg))
    peak = peak_bytes(lambda: codes.append(run_cli(*argv)))
    assert codes == [cli.EXIT_CAP]
    assert peak < 1 << 20


def test_fig2_over_size_cap_is_cap_error(tmp_path, monkeypatch):
    # the cap is checked before any curve: each is quadratic in max_size
    def refuse(*args):
        raise AssertionError("curve computed before the cap check")

    monkeypatch.setattr(figures.committee, "condorcet_curve", refuse)
    cfg = write_config(tmp_path, {"max_size": figures.FIG2_SIZE_CAP + 2})
    assert run_cli("fig2", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_CAP


@pytest.mark.parametrize(
    "override",
    [{"raster_lo": 1.0, "raster_hi": -1.0}, {"raster_hi": float("inf")}],
    ids=["inverted", "infinite"],
)
def test_inverted_or_infinite_raster_is_usage_error(tmp_path, override):
    cfg = write_config(tmp_path, override)
    assert run_cli("fig6", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_USAGE


def test_fig6_raster_far_from_the_midpoint_reports_no_near_minimum(tmp_path):
    # no raster point lies within 0.3 of the midpoint: the near-minimum
    # metrics are null, as crossing_point is when no crossing is found
    cfg = write_config(tmp_path, {"raster_lo": 10, "raster_hi": 11, "raster_step": 0.5})
    code = run_cli("fig6", "--out", str(tmp_path), "--config", str(cfg))
    summary = json.loads((tmp_path / "fig6_summary.json").read_text())
    assert code == (cli.EXIT_OK if summary["ok"] else cli.EXIT_CHECK_FAILED)
    assert summary["metrics"]["raster_points"] == 9
    assert summary["metrics"]["near_min_point"] is None
    assert summary["metrics"]["near_min_distance_to_midpoint"] is None


@pytest.mark.parametrize(
    "interval",
    ["[-Infinity, 1]", "[NaN, 1]", "[-1, Infinity]", "[-1e308, 1e308]"],
    ids=["minus_inf", "nan", "plus_inf", "overflowing_width"],
)
def test_non_finite_parameter_interval_is_usage_error(tmp_path, interval):
    # numpy's linspace used to turn these into inf/nan ticks, warn and exit 6
    cfg = tmp_path / "config.json"
    cfg.write_text(f'{{"parameter_interval": {interval}}}')
    out = tmp_path / "out"
    src = str(Path(qens.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "qens.cli", "fig6", "--config", str(cfg), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == cli.EXIT_USAGE, done.stderr
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1, done.stderr
    assert not out.exists() or not any(out.iterdir())


# every top-level key set to a string, to a numeric string (which int(),
# float() and numpy would parse) and to null (where null is not the default),
# plus a wrong type nested in family, grid, a points dataset and a list
WRONGLY_TYPED = [
    pytest.param(command, {key: value}, id=f"{command}-{key}-{value}")
    for command, defaults in DEFAULTS.items()
    for key, default in defaults.items()
    for value in ("x", "2", None)
    if not (value is None and default is None)
] + [
    pytest.param(command, override, id=f"{command}-{name}")
    for command in ("classify", "grover")
    for name, override in (
        ("family.hidden", {"family": {"kind": "mlp2", "input_dim": 1, "hidden": [2, "a"]}}),
        ("grid.intervals", {"grid": {"intervals": [[-1, "a"], [-1, 1]], "bits": 2}}),
        ("grid.intervals-numeric", {"grid": {"intervals": [[-1, "1"], [-1, 1]], "bits": 2}}),
        ("dataset.points", {"dataset": {"points": {"x": [["-2.0"], [0.5]], "y": [-1, 1]}}}),
    )
] + [
    pytest.param("classify", {"query": ["0.2"]}, id="classify-query-list"),
    pytest.param("fig6", {"mean_minus": ["-1.0", 1.0]}, id="fig6-mean_minus-list"),
]


@pytest.mark.parametrize("command,override", WRONGLY_TYPED)
def test_wrongly_typed_config_value_is_usage_error(tmp_path, command, override):
    cfg = write_config(tmp_path, override)
    assert run_cli(command, "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_USAGE


BOOL_OR_NULL_NUMBERS = {
    "fig5-sigma-true": ("fig5", {"sigma": True}),
    "fig2-p_list-true": ("fig2", {"p_list": [True]}),
    "classify-query-true": ("classify", {"query": [True]}),
    "classify-query-null": ("classify", {"query": [None]}),
    "classify-labels-true": ("classify", {"dataset": {"points": {"x": [[-2.0], [0.5]], "y": [True, -1]}}}),
    "grover-labels-null": ("grover", {"dataset": {"points": {"x": [[-2.0], [0.5]], "y": [None, 1]}}}),
}


@pytest.mark.parametrize("command,override", BOOL_OR_NULL_NUMBERS.values(), ids=BOOL_OR_NULL_NUMBERS)
def test_bool_or_null_number_is_usage_error(tmp_path, command, override):
    # numpy would read true/false as 1.0/0.0 and null as NaN; a number slot
    # refuses them before anything is computed or written
    cfg = write_config(tmp_path, override)
    out = tmp_path / "out"
    src = str(Path(qens.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "qens.cli", command, "--config", str(cfg), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == cli.EXIT_USAGE, done.stderr
    assert done.stderr.startswith("error:"), done.stderr
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("query", ["1e999", "-1e999", "NaN"])
def test_classify_non_finite_query_is_domain_error(tmp_path, monkeypatch, query):
    def refuse(*args):
        raise AssertionError("grid enumerated before the query check")

    monkeypatch.setattr(figures, "grid_accuracies", refuse)
    cfg = tmp_path / "config.json"
    cfg.write_text(f'{{"query": [{query}]}}')
    out = tmp_path / "out"
    assert run_cli("classify", "--out", str(out), "--config", str(cfg)) == cli.EXIT_DOMAIN
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("delta", ["1.0", "0.0", "-1.0", "NaN"])
def test_classify_sequential_delta_out_of_range_is_domain_error(tmp_path, monkeypatch, delta):
    def refuse(*args):
        raise AssertionError("grid enumerated before the delta check")

    monkeypatch.setattr(figures, "grid_accuracies", refuse)
    cfg = tmp_path / "config.json"
    cfg.write_text(f'{{"rotation": "sequential", "delta": {delta}}}')
    out = tmp_path / "out"
    assert run_cli("classify", "--out", str(out), "--config", str(cfg)) == cli.EXIT_DOMAIN
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("delta", [-5, 0.01])
def test_classify_delta_with_exact_rotation_is_usage_error(tmp_path, monkeypatch, delta):
    # the exact rotation takes no delta: refused, not ignored and recorded
    def refuse(*args):
        raise AssertionError("grid enumerated before the delta check")

    monkeypatch.setattr(figures, "grid_accuracies", refuse)
    cfg = write_config(tmp_path, {"rotation": "exact", "delta": delta})
    out = tmp_path / "out"
    assert run_cli("classify", "--out", str(out), "--config", str(cfg)) == cli.EXIT_USAGE
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command,override,code",
    [
        ("grover", {"iterations": 1.5}, cli.EXIT_USAGE),
        ("grover", {"iterations": True}, cli.EXIT_USAGE),
        ("grover", {"iterations": 1.0}, cli.EXIT_OK),
        ("grover", {"family": {"kind": "perceptron", "input_dim": True}}, cli.EXIT_USAGE),
        ("classify", {"shots": 1.7}, cli.EXIT_USAGE),
        ("classify", {"shots": 16.0}, cli.EXIT_OK),
        ("classify", {"grid": {"intervals": [[-1.0, 1.0]] * 2, "bits": 2.5}}, cli.EXIT_USAGE),
        ("fig4", {"points": 10.5}, cli.EXIT_USAGE),
        ("fig6", {"seed": False}, cli.EXIT_USAGE),
        ("fig7", {"example": True}, cli.EXIT_USAGE),
    ],
)
def test_integer_config_value_is_not_truncated(tmp_path, command, override, code):
    # a bool or a fractional float is refused, an integral float is taken
    cfg = write_config(tmp_path, override)
    out = tmp_path / "out"
    assert run_cli(command, "--out", str(out), "--config", str(cfg)) == code
    if code == cli.EXIT_USAGE:
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("convert", [figures._integer, figures._float, figures._float_array])
@pytest.mark.parametrize(
    "value", ["2", b"2", ["2"], [b"2"], [1.0, None, "2"], True, None, [True], [None], [[1.0], [False]]]
)
def test_number_converters_refuse_text(convert, value):
    with pytest.raises((ValueError, TypeError)):
        convert(value)


INCONSISTENT_ENSEMBLES = {
    "grid-intervals": {"grid": {"intervals": [[-1.0, 1.0]] * 3, "bits": 2}},
    "dataset-dimension": {"dataset": {"points": {"x": [[-2.0, 0.0], [0.5, 1.0]], "y": [-1, 1]}}},
}


@pytest.mark.parametrize("command", ["classify", "grover"])
@pytest.mark.parametrize("override", INCONSISTENT_ENSEMBLES.values(), ids=INCONSISTENT_ENSEMBLES)
def test_inconsistent_ensemble_is_usage_error(tmp_path, monkeypatch, command, override):
    def refuse(*args):
        raise AssertionError("grid enumerated before the consistency check")

    monkeypatch.setattr(figures, "grid_accuracies", refuse)
    monkeypatch.setattr(figures, "grid_correct_counts", refuse)
    cfg = write_config(tmp_path, override)
    out = tmp_path / "out"
    assert run_cli(command, "--out", str(out), "--config", str(cfg)) == cli.EXIT_USAGE
    assert not out.exists() or not any(out.iterdir())


def test_classify_shots_cap(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"shots": figures.SHOTS_CAP})
    assert run_cli("classify", "--out", str(tmp_path / "ok"), "--config", str(cfg)) == cli.EXIT_OK

    def refuse(*args):
        raise AssertionError("grid enumerated before the cap check")

    monkeypatch.setattr(figures, "grid_accuracies", refuse)
    cfg = write_config(tmp_path, {"shots": figures.SHOTS_CAP + 1})
    out = tmp_path / "out"
    assert run_cli("classify", "--out", str(out), "--config", str(cfg)) == cli.EXIT_CAP
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("shots", [0, -5])
def test_classify_shots_below_one_is_usage_error(tmp_path, monkeypatch, shots):
    def refuse(*args):
        raise AssertionError("grid enumerated before the shots check")

    monkeypatch.setattr(figures, "grid_accuracies", refuse)
    cfg = write_config(tmp_path, {"shots": shots})
    out = tmp_path / "out"
    assert run_cli("classify", "--out", str(out), "--config", str(cfg)) == cli.EXIT_USAGE
    assert not out.exists() or not any(out.iterdir())


def test_grover_negative_iterations_is_usage_error(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("grid enumerated before the iterations check")

    monkeypatch.setattr(figures, "grid_correct_counts", refuse)
    cfg = write_config(tmp_path, {"iterations": -1})
    out = tmp_path / "out"
    assert run_cli("grover", "--out", str(out), "--config", str(cfg)) == cli.EXIT_USAGE
    assert not out.exists() or not any(out.iterdir())


def test_query_dimension_mismatch_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, {"query": [0.1, 0.2]})
    assert run_cli("classify", "--out", str(tmp_path), "--config", str(cfg)) == cli.EXIT_USAGE


# keys whose defaults make a run slow: always drawn, as small ints, to keep the fuzz fast
_SIZE_KEYS = {
    "fig2": ("max_size",),
    "fig4": ("points",),
    "fig5": ("points",),
    "fig6": ("values_per_parameter", "per_class"),
}
_EDGE_FLOATS = st.sampled_from([0.0, -1.0, 1e308, math.inf, -math.inf, math.nan])
_SCALARS = st.one_of(st.integers(-3, 8), _EDGE_FLOATS, st.text(max_size=3), st.none())
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))


def _overrides(command):
    """The command's size keys set to small ints, then up to three of its
    keys (size keys included) set to any drawn value."""
    sizes = st.fixed_dictionaries({key: st.integers(-3, 8) for key in _SIZE_KEYS.get(command, ())})
    others = st.dictionaries(st.sampled_from(sorted(DEFAULTS[command])), _VALUES, max_size=3)
    return st.tuples(sizes, others).map(lambda parts: {**parts[0], **parts[1]})


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_fuzzed_config_ends_in_documented_exit_code(tmp_path, command):
    @settings(max_examples=100, deadline=None)
    @given(_overrides(command))
    def run(overrides):
        cfg = write_config(tmp_path, overrides)
        code = run_cli(command, "--out", str(tmp_path / "out"), "--config", str(cfg))
        assert code in (0, 2, 3, 4, 5, 6)

    run()


# --- seeds and environment -------------------------------------------------------

def test_config_seed_changes_fig6_dataset(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, seed in ((a, 1), (b, 2)):
        cfg = write_config(tmp_path, {"seed": seed})
        assert run_cli("fig6", "--out", str(out), "--config", str(cfg)) == 0
    assert (a / "fig6_dataset.csv").read_bytes() != (b / "fig6_dataset.csv").read_bytes()


def test_out_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("QENS_OUT", str(target))
    assert run_cli("fig4") == 0
    assert (target / "fig4_summary.json").exists()


def test_relative_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("QENS_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_cli("fig4") == 0
    assert (tmp_path / "out" / "fig4_summary.json").exists()


# --- determinism ------------------------------------------------------------------

def test_classify_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("classify", "--out", str(a)) == 0
    assert run_cli("classify", "--out", str(b)) == 0
    assert read_dir_bytes(a) == read_dir_bytes(b)


def test_fig6_byte_identical_across_thread_counts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("fig6", "--out", str(a), "--threads", "1") == 0
    assert run_cli("fig6", "--out", str(b), "--threads", "4") == 0
    assert read_dir_bytes(a) == read_dir_bytes(b)


def test_fig6_starts_at_most_one_worker_per_cpu(tmp_path, monkeypatch):
    workers = []
    pool = figures.ThreadPoolExecutor

    def recording(max_workers):
        workers.append(max_workers)
        return pool(max_workers=max_workers)

    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("fig6", "--out", str(a), "--threads", "1") == 0
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(figures, "ThreadPoolExecutor", recording)
    assert run_cli("fig6", "--out", str(b), "--threads", "32") == 0
    assert workers and set(workers) == {1}
    assert read_dir_bytes(a) == read_dir_bytes(b)


def test_curve_csv_12_digit_format(tmp_path):
    run_cli("fig5", "--out", str(tmp_path))
    row = (tmp_path / "fig5_expectation.csv").read_text().splitlines()[1]
    x, value, series = row.split(",")
    assert series == "closed_form"
    assert x == "-3"
    # 12 significant digits round-trip: re-formatting is a fixed point
    assert f"{float(value):.12g}" == value


# --- config plumbing -----------------------------------------------------------------

def test_merged_config_rejects_unknown_command():
    with pytest.raises(ConfigError):
        merged_config("fig9", {})


def test_dataset_from_config_variants(tmp_path):
    ds = dataset_from_config({"points": {"x": [[0.5], [-0.5]], "y": [1, -1]}})
    assert ds.x.shape == (2, 1)
    ds.to_csv(tmp_path / "d.csv")
    ds2 = dataset_from_config({"path": str(tmp_path / "d.csv")})
    assert np.array_equal(ds.x, ds2.x)
    ds3 = dataset_from_config(
        {"blobs": {"mean_minus": [-1, 1], "mean_plus": [1, -1], "sigma": 0.5,
                   "per_class": 4, "seed": 1}}
    )
    assert ds3.x.shape == (8, 2)
    bad_specs = [
        {"points": {}, "path": "x"},
        {"path": 5},
        {"points": {"x": [[0.5], [-0.5]]}},
        {"points": {"x": [[0.5], [-0.5, 1.0]], "y": [1, -1]}},
        {"points": {"x": [[0.5]], "y": ["a"]}},
        {"points": [[0.5]]},
        {"blobs": {"mean_plus": [1, -1], "sigma": 0.5, "per_class": 4, "seed": 1}},
        {"blobs": {"mean_minus": [[-1, 1]], "mean_plus": [1, -1], "sigma": 0.5,
                   "per_class": 4, "seed": 1}},
        {"pair": {"mu_minus": -1, "mu_plus": 1, "sigma_plus": 0.5, "per_class": 4, "seed": 1}},
        {"pair": {"mu_minus": -1, "sigma_minus": "wide", "mu_plus": 1, "sigma_plus": 0.5,
                  "per_class": 4, "seed": 1}},
        {"pair": {"mu_minus": -1, "sigma_minus": 0.5, "mu_plus": 1, "sigma_plus": 0.5,
                  "per_class": None, "seed": 1}},
    ]
    for spec in bad_specs:
        with pytest.raises(ConfigError):
            dataset_from_config(spec)


def test_run_command_writes_summary(tmp_path):
    summary = run_command("fig4", None, tmp_path)
    assert (tmp_path / "fig4_summary.json").exists()
    assert summary["ok"]


def test_threads_flag_validation(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("fig6", "--out", str(tmp_path), "--threads", "0")
    assert exc.value.code == cli.EXIT_USAGE
    assert "--threads: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_help_shows_each_runners_first_paragraph(command):
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    helps = {action.dest: action.help for action in subparsers._choices_actions}
    paragraph = inspect.cleandoc(figures.RUNNERS[command].__doc__).split("\n\n")[0]
    assert helps[command] == paragraph.replace("\n", " ")
    assert helps[command].endswith(".")


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_each_command_takes_only_the_flags_it_reads(tmp_path, command, capsys):
    # a seed is set in the config; --threads belongs to the one command that
    # splits its work across threads
    flags = [("--seed", "1")] + ([] if command == "fig6" else [("--threads", "2")])
    for flag, value in flags:
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--out", str(tmp_path / "out"), flag, value)
        assert exc.value.code == cli.EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
