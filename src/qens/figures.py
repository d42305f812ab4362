"""Experiment presets behind the command-line interface.

Each run_* function consumes a merged config dict, writes CSV (source of
truth), SVG renderings for the curve experiments, and a JSON summary
into the output directory, and returns the summary.  The summary's
"checks" map records the internal consistency checks; "ok" is their
conjunction and drives the process exit code.

Determinism: every artifact is a pure function of the config.  Floats in
curve CSVs carry 12 significant digits.  fig6's raster is scored in chunks
of a fixed _CHUNK points whatever the thread count.  No sum crosses a
chunk (a point's committee sum runs over the models), but the chunk sets
the shape of predict_many's BLAS blocks, and that shape can move the last
bit of a two-input perceptron's margin.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import analytic, committee, simulator, weighting
from .datagen import gaussian_1d_pair, gaussian_blobs
from .model import Dataset, ModelFamily, ParameterGrid, correct_counts, decode_all
from .model import grid_accuracies, grid_correct_counts, lattice, predict_many
from .svgplot import render_curves

_CHUNK = 256
# fig6 raster points: the default raster has 81^2, a 0.025 step 161^2
RASTER_POINT_CAP = 1 << 20
FIG6_MODEL_CAP = 1 << 18  # fig6 lattice models: 64 values per parameter, cubed
# fig2 committee size: a curve has about max_size^2 / 8 log terms, 1.0-1.3 s per accuracy at the cap
FIG2_SIZE_CAP = 1 << 14
# grover iterations: the default floor(pi/4 sqrt(E/K)) is at most 2274 under the qubit cap
GROVER_ITERATION_CAP = 1 << 12
# classify shots: all are drawn at once, as uint64 words and their float64 uniforms
SHOTS_CAP = 1 << 20
# fig4 and fig5 curve points: fig5 integrates two segments a point, about 2 s at the cap
CURVE_POINT_CAP = 1 << 16

DEFAULTS: dict[str, dict] = {
    "fig2": {"p_list": [0.45, 0.5, 0.55, 0.6, 0.7], "max_size": 1001},
    "fig4": {"points": 199},
    "fig5": {
        "mu_minus": -1.0,
        "mu_plus": 1.0,
        "sigma": 0.5,
        "x_min": -3.0,
        "x_max": 3.0,
        "points": 241,
    },
    "fig6": {
        "mean_minus": [-1.0, 1.0],
        "mean_plus": [1.0, -1.0],
        "sigma": 0.5,
        "per_class": 50,
        "seed": 117,
        "values_per_parameter": 20,
        "parameter_interval": [-1.0, 1.0],
        "raster_lo": -2.0,
        "raster_hi": 2.0,
        "raster_step": 0.05,
    },
    "fig7": {"example": 1, "query": 1.0},
    "classify": {
        "family": {"kind": "perceptron", "input_dim": 1},
        "grid": {"intervals": [[-1.0, 1.0], [-1.0, 1.0]], "bits": 3},
        "dataset": {
            "pair": {
                "mu_minus": -1.0,
                "sigma_minus": 0.5,
                "mu_plus": 1.0,
                "sigma_plus": 0.5,
                "per_class": 12,
                "seed": 5,
            }
        },
        "query": [0.2],
        "rotation": "exact",
        "delta": None,
        "shots": 4096,
        "seed": 11,
        "scheme": "accuracy",
    },
    "grover": {
        "family": {"kind": "perceptron", "input_dim": 1},
        "grid": {"intervals": [[-1.0, 1.0], [-1.0, 1.0]], "bits": 2},
        "dataset": {"points": {"x": [[-2.0], [0.5]], "y": [-1, 1]}},
        "iterations": None,
    },
}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def merged_config(command: str, overrides: dict | None) -> dict:
    if command not in DEFAULTS:
        raise ConfigError(f"unknown command {command!r}")
    cfg = dict(DEFAULTS[command])
    for key, value in (overrides or {}).items():
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r} for {command}")
        cfg[key] = value
    return cfg


def _fields(spec: dict, **converters) -> dict:
    """spec[key] passed through each keyword's converter, in keyword order; a
    missing key or a value the converter rejects is a ConfigError."""
    values = {}
    for key, convert in converters.items():
        try:
            values[key] = convert(spec[key])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad config value for {key!r}: {exc!r}") from exc
    return values


def _integer(value) -> int:
    """int(value), refusing text, a bool and a float with a fractional part
    rather than parsing or truncating them."""
    fractional = isinstance(value, float) and not value.is_integer()
    if fractional or isinstance(value, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value) -> float:
    """float(value) of an int or a float, refusing a bool, null, text or
    anything else rather than converting it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _at_least_one(value) -> int:
    n = _integer(value)
    if n < 1:
        raise ValueError(f"{n} is below 1")
    return n


def _floats(values) -> tuple[float, ...]:
    return tuple(_float(v) for v in values)


def _interval(values) -> tuple[float, float]:
    lo, hi = (_float(v) for v in values)
    if not math.isfinite(hi - lo):  # a NaN or infinite bound, or a width that overflows
        raise ValueError(f"interval [{lo}, {hi}] has no finite width")
    return lo, hi


def _float_array(values) -> np.ndarray:
    """values as a float64 array, each element taken by _float's rule."""
    raw = np.asarray(values, dtype=object)
    return np.array([_float(v) for v in raw.flat], dtype=np.float64).reshape(raw.shape)


def _curve_grid(lo: float, hi: float, points: int) -> np.ndarray:
    if not math.isfinite(hi - lo):  # also an overflowing width, which linspace turns into nan
        raise ConfigError("curve needs finite bounds with a finite width")
    if points < 1:
        raise ConfigError("curve needs at least one point")
    if points > CURVE_POINT_CAP:
        raise weighting.EnumerationCapError(f"curve has over {CURVE_POINT_CAP} points")
    return np.linspace(lo, hi, points)


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _family(d: dict) -> ModelFamily:
    hidden = tuple(_integer(h) for h in d["hidden"]) if "hidden" in d else ()  # mlp2 only
    return ModelFamily(d["kind"], _integer(d["input_dim"]), hidden)


def _grid(d: dict) -> ParameterGrid:
    intervals, bits = tuple(_interval(iv) for iv in d["intervals"]), _integer(d["bits"])
    # the qubit cap first: a grid past it is a cap error, whatever its ticks
    simulator.RegisterLayout(bits * len(intervals))
    return ParameterGrid(intervals, bits)


_BLOB_FIELDS = dict(
    mean_minus=_floats, mean_plus=_floats, sigma=_float, per_class=_at_least_one, seed=_integer
)


def dataset_from_config(d: dict) -> Dataset:
    if not isinstance(d, dict) or len(d) != 1:
        raise ConfigError("dataset config needs exactly one of path/points/blobs/pair")
    if "path" in d:
        return Dataset.read_csv(_fields(d, path=Path)["path"])
    if "points" in d:
        return Dataset(**_fields(d["points"], x=_float_array, y=_float_array))
    if "blobs" in d:
        return gaussian_blobs(**_fields(d["blobs"], **_BLOB_FIELDS))
    if "pair" in d:
        spec = _fields(
            d["pair"],
            mu_minus=_float,
            sigma_minus=_float,
            mu_plus=_float,
            sigma_plus=_float,
            per_class=_at_least_one,
            seed=_integer,
        )
        return gaussian_1d_pair(**spec)
    raise ConfigError("dataset config needs one of path/points/blobs/pair")


def _ensemble(cfg: dict) -> tuple[ModelFamily, ParameterGrid, Dataset]:
    """The family, grid and dataset of a classify or grover config, checked
    against each other before any work."""
    family, grid = _fields(cfg, family=_family, grid=_grid).values()
    dataset = dataset_from_config(cfg["dataset"])
    if grid.parameter_count != family.parameter_count:
        raise ConfigError(
            f"grid has {grid.parameter_count} parameter intervals, "
            f"the family takes {family.parameter_count}"
        )
    if dataset.dimension != family.input_dim:
        raise ConfigError(
            f"dataset has {dataset.dimension} features, the family takes {family.input_dim}"
        )
    return family, grid, dataset


def write_curve_csv(path: Path, x_name: str, series: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
    lines = [f"{x_name},value,series"]
    for label, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        # Python floats format faster than numpy scalars; a block of them at a
        # time, since a whole curve's floats would raise the peak RSS
        for start in range(0, xs.size, 4096):
            block = zip(xs[start : start + 4096].tolist(), ys[start : start + 4096].tolist())
            lines += [f"{x:.12g},{v:.12g},{label}" for x, v in block]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_curves(out: Path, stem: str, x_name: str, series: list, title: str, y_label: str):
    """stem.csv, then stem.svg drawn from the same series."""
    write_curve_csv(out / f"{stem}.csv", x_name, series)
    x_label = x_name.replace("_", " ")
    render_curves(out / f"{stem}.svg", series, title=title, x_label=x_label, y_label=y_label)


def _write_json(path: Path, obj) -> None:
    def clean(v):
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        # bool first: Python bool is an int subclass
        if isinstance(v, (bool, np.bool_)):
            return bool(v)
        if isinstance(v, (np.floating, float)):
            f = float(v)
            return f if math.isfinite(f) else None
        if isinstance(v, (np.integer, int)):
            return int(v)
        return v

    path.write_text(
        json.dumps(clean(obj), indent=2, sort_keys=True, allow_nan=False) + "\n",
        newline="\n",
    )


def _chunk_map(fn, n_items: int, threads: int) -> list:
    """Apply fn(start, stop) over fixed-size chunks, results in order.

    Chunk boundaries are independent of the worker count, so results are
    the same for any `threads` value.
    """
    ranges = [(s, min(s + _CHUNK, n_items)) for s in range(0, n_items, _CHUNK)]
    with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))


def _summary(command: str, cfg: dict, outputs: list[str], metrics: dict, checks: dict) -> dict:
    return {
        "command": command,
        "config": cfg,
        "outputs": outputs,
        "metrics": metrics,
        "checks": checks,
        "ok": all(checks.values()),
    }


def run_fig2(cfg: dict, out: Path) -> dict:
    """Majority-error curves over committee size plus the odds-ratio gain."""
    p_list, max_size = _fields(cfg, p_list=_floats, max_size=_at_least_one).values()
    if not p_list:
        raise ConfigError("p_list needs at least one accuracy")
    if max_size > FIG2_SIZE_CAP:
        raise weighting.EnumerationCapError(f"fig2 max_size is over {FIG2_SIZE_CAP}")
    curves = [committee.condorcet_curve(p, max_size) for p in p_list]
    series = [(f"p={p:g}", sizes, errs) for p, (sizes, errs) in zip(p_list, curves)]
    a_grid = np.round(np.arange(0.01, 0.995, 0.01), 10)
    odds = a_grid / (1.0 - a_grid)
    odds_series = [
        ("odds_ratio", a_grid, odds),
        ("odds_ratio_squared", a_grid, odds**2),
    ]
    _write_curves(
        out, "fig2_condorcet", "committee_size", series, "majority error vs committee size", "error"
    )
    odds_title = "odds-ratio signal of one member vs a pair"
    _write_curves(out, "fig2_oddsratio", "accuracy", odds_series, odds_title, "odds")
    by_p = {p: errs for p, (_, errs) in zip(p_list, curves)}
    checks = {}
    if 0.6 in by_p and max_size >= 1001:
        checks["p06_converges"] = by_p[0.6][-1] < 1e-6
    if 0.5 in by_p:
        checks["p05_flat"] = np.max(np.abs(by_p[0.5] - 0.5)) < 1e-12
    for p in p_list:
        if p > 0.5:
            errs = by_p[p]
            checks[f"monotone_p{p:g}"] = np.all(errs[1:] <= errs[:-1] + 1e-15)
    checks["complement_symmetry"] = all(
        abs(committee.condorcet_error(e, 0.6) + committee.condorcet_error(e, 0.4) - 1.0) < 1e-12
        for e in (3, 51, 501)
    )
    metrics = {f"final_error_p={p:g}": by_p[p][-1] for p in p_list}
    return _summary(
        "fig2",
        cfg,
        ["fig2_condorcet.csv", "fig2_oddsratio.csv", "fig2_condorcet.svg", "fig2_oddsratio.svg"],
        metrics,
        checks,
    )


def run_fig4(cfg: dict, out: Path) -> dict:
    """Centered versus log-odds weights as functions of model accuracy."""
    a_grid = _curve_grid(0.005, 0.995, _fields(cfg, points=_integer)["points"])
    centered = weighting.weights_for(weighting.WeightScheme.EFFECTIVE_CENTERED, a_grid)
    log_odds = weighting.weights_for(weighting.WeightScheme.LOG_ODDS, a_grid)
    series = [("effective_centered", a_grid, centered), ("log_odds", a_grid, log_odds)]
    _write_curves(out, "fig4_weights", "accuracy", series, "vote weight vs model accuracy", "weight")
    off_half = a_grid != 0.5
    checks = {
        "zero_at_half": bool(
            np.all(np.abs(centered[np.isclose(a_grid, 0.5)]) < 1e-15)
            and np.all(np.abs(log_odds[np.isclose(a_grid, 0.5)]) < 1e-12)
        ),
        "sign_agreement": bool(
            np.all(np.sign(centered[off_half]) == np.sign(log_odds[off_half]))
        ),
        "both_monotone": bool(
            np.all(np.diff(centered) > 0) and np.all(np.diff(log_odds) > 0)
        ),
    }
    return _summary(
        "fig4",
        cfg,
        ["fig4_weights.csv", "fig4_weights.svg"],
        {"max_abs_log_odds": float(np.max(np.abs(log_odds)))},
        checks,
    )


def run_fig5(cfg: dict, out: Path) -> dict:
    """Committee score curve for equal-variance Gaussian classes: closed
    form against quadrature, plus the located decision boundary."""
    mu_minus, mu_plus, sigma, x_min, x_max, points = _fields(
        cfg, mu_minus=_float, mu_plus=_float, sigma=_float, x_min=_float, x_max=_float, points=_integer
    ).values()
    problem = analytic.DecisionProblem1D(
        analytic.ClassDensity.gaussian(mu_minus, sigma),
        analytic.ClassDensity.gaussian(mu_plus, sigma),
    )
    xs = _curve_grid(x_min, x_max, points)
    # the quadrature and the boundary search first: a config whose tails or
    # bracket they refuse would overflow the closed form
    quadrature = analytic.expectation_quadrature(problem, xs)
    boundary = analytic.decision_boundary(problem)
    closed = analytic.expectation_closed_equal_sigma(problem, xs)
    series = [("closed_form", xs, closed), ("quadrature", xs, quadrature)]
    _write_curves(out, "fig5_expectation", "x", series, "committee score vs query point", "score")
    max_gap = float(np.max(np.abs(closed - quadrature)))
    checks = {
        "boundary_at_mean_midpoint": abs(boundary - problem.mean_midpoint) < 1e-6,
        "closed_matches_quadrature": max_gap < 1e-6,
        "negative_left": analytic.expectation_closed_equal_sigma(problem, mu_minus) < 0,
        "positive_right": analytic.expectation_closed_equal_sigma(problem, mu_plus) > 0,
    }
    return _summary(
        "fig5",
        cfg,
        ["fig5_expectation.csv", "fig5_expectation.svg"],
        {"boundary": boundary, "max_gap": max_gap},
        checks,
    )


def run_fig6(cfg: dict, out: Path, threads: int = 1) -> dict:
    """Accuracy-weighted committee of 2D linear separators on two blobs,
    rasterized over the plane."""
    values = _fields(
        cfg,
        **_BLOB_FIELDS,
        values_per_parameter=_integer,
        parameter_interval=_interval,
        raster_lo=_float,
        raster_hi=_float,
        raster_step=_float,
    )
    dataset = gaussian_blobs(**{key: values[key] for key in _BLOB_FIELDS})
    lo, hi, step = values["raster_lo"], values["raster_hi"], values["raster_step"]
    if not (0.0 < step < math.inf and 0.0 <= hi - lo < math.inf):
        raise ConfigError("raster needs finite raster_step > 0 and raster_lo <= raster_hi")
    # counted before the raster is allocated; min() keeps round() finite
    ticks_per_axis = round(min((hi - lo) / step, RASTER_POINT_CAP)) + 1
    if ticks_per_axis**2 > RASTER_POINT_CAP:
        raise weighting.EnumerationCapError(f"raster has over {RASTER_POINT_CAP} points")
    if values["values_per_parameter"] < 1:
        raise ConfigError("fig6 needs values_per_parameter >= 1")
    if values["values_per_parameter"] ** 3 > FIG6_MODEL_CAP:
        raise weighting.EnumerationCapError(f"fig6 lattice has over {FIG6_MODEL_CAP} models")
    family = ModelFamily("perceptron", 2)
    ticks = np.linspace(*values["parameter_interval"], values["values_per_parameter"])
    thetas = lattice([ticks] * family.parameter_count)
    acc = correct_counts(family, thetas, dataset) / float(len(dataset))
    table = weighting.signed_sum_table(acc)

    def scores_at(points: np.ndarray) -> np.ndarray:
        def chunk(a: int, b: int) -> np.ndarray:
            return weighting.signed_tree_sum(table, predict_many(family, thetas, points[a:b]))

        return np.concatenate(_chunk_map(chunk, points.shape[0], threads))

    raster_points = lattice([lo + step * np.arange(ticks_per_axis)] * 2)
    raster_scores = scores_at(raster_points)
    raster_labels = np.where(raster_scores >= 0, 1, -1)

    lines = ["x1,x2,raw_score,label"]
    for (x1, x2), score, label in zip(raster_points, raster_scores, raster_labels):
        lines.append(f"{x1:.12g},{x2:.12g},{score:.12g},{label}")
    (out / "fig6_raster.csv").write_text("\n".join(lines) + "\n", newline="\n")
    dataset.to_csv(out / "fig6_dataset.csv")

    mean_minus = np.asarray(values["mean_minus"])
    mean_plus = np.asarray(values["mean_plus"])
    mean_scores = scores_at(np.stack([mean_minus, mean_plus]))
    midpoint = 0.5 * (mean_minus + mean_plus)

    t = np.linspace(0.0, 1.0, 401)
    segment = mean_minus[None, :] + t[:, None] * (mean_plus - mean_minus)[None, :]
    seg_scores = scores_at(segment)
    signs = np.sign(seg_scores)
    flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    crossing_dist = math.inf
    crossing_point = None
    for i in flips:
        pt = 0.5 * (segment[i] + segment[i + 1])
        d = float(np.linalg.norm(pt - midpoint))
        if d < crossing_dist:
            crossing_dist, crossing_point = d, pt

    dist = np.linalg.norm(raster_points - midpoint[None, :], axis=1)
    near = dist <= 0.3
    near_min_point = near_min_distance = None  # no raster point within 0.3 of the midpoint
    if np.any(near):
        point = raster_points[near][np.argmin(np.abs(raster_scores[near]))]
        near_min_point, near_min_distance = point.tolist(), float(np.linalg.norm(point - midpoint))

    checks = {
        "mean_minus_labeled": mean_scores[0] < 0,
        "mean_plus_labeled": mean_scores[1] > 0,
        "crossing_near_midpoint": crossing_dist <= 0.15,
    }
    metrics = {
        "model_count": int(thetas.shape[0]),
        "raster_points": int(raster_points.shape[0]),
        "score_at_mean_minus": float(mean_scores[0]),
        "score_at_mean_plus": float(mean_scores[1]),
        "crossing_distance_to_midpoint": crossing_dist,
        "crossing_point": None if crossing_point is None else [float(v) for v in crossing_point],
        "abs_score_at_midpoint": float(np.abs(raster_scores[np.argmin(dist)])),
        "near_min_point": near_min_point,
        "near_min_distance_to_midpoint": near_min_distance,
    }
    return _summary("fig6", cfg, ["fig6_raster.csv", "fig6_dataset.csv"], metrics, checks)


_FIG7_EXAMPLES = {
    1: ((-1.0, 0.5), (1.0, 0.5)),
    2: ((-1.0, 0.5), (1.0, 2.0)),
}


def run_fig7(cfg: dict, out: Path) -> dict:
    """Per-threshold decomposition of the committee score for the two
    worked Gaussian examples (equal and unequal class spreads)."""
    example, query = _fields(cfg, example=_integer, query=_float).values()
    if example not in _FIG7_EXAMPLES:
        raise ConfigError("example must be 1 or 2")
    (mu_m, s_m), (mu_p, s_p) = _FIG7_EXAMPLES[example]
    problem = analytic.DecisionProblem1D(
        analytic.ClassDensity.gaussian(mu_m, s_m), analytic.ClassDensity.gaussian(mu_p, s_p)
    )
    dec = analytic.boundary_decomposition(problem, query)
    curves = [  # (file suffix, x name, [(series label, values at dec.w0)])
        ("densities", "x", [
            ("g_minus", problem.minus.pdf(dec.w0)),
            ("g_plus", problem.plus.pdf(dec.w0)),
        ]),
        ("classification", "w0", [
            ("f_orient_pos", dec.output_pos),
            ("f_orient_neg", dec.output_neg),
        ]),
        ("accuracy", "w0", [
            ("a_orient_pos", dec.accuracy_pos),
            ("a_orient_neg", dec.accuracy_neg),
        ]),
        ("product", "w0", [
            ("product_orient_pos", dec.product_pos),
            ("product_orient_neg", dec.product_neg),
            ("integrand", dec.integrand),
        ]),
    ]
    outputs = [f"fig7_ex{example}_{suffix}.csv" for suffix, _, _ in curves]
    for name, (_, x_name, series) in zip(outputs, curves):
        write_curve_csv(out / name, x_name, [(label, dec.w0, ys) for label, ys in series])

    expectation = analytic.expectation_quadrature(problem, query)
    integral = analytic.integrate_decomposition(dec)
    boundary = analytic.decision_boundary(problem)
    mid = problem.mean_midpoint
    d = np.linspace(0.0, 3.0 * problem.max_scale, 401)
    accuracy = analytic.accuracy_continuous
    asym = float(np.max(np.abs(accuracy(problem, mid + d) - accuracy(problem, mid - d))))
    checks = {
        "integrand_integrates_to_expectation": abs(integral - expectation) < 1e-4,
        "accuracy_pair_sums_to_one": bool(
            np.max(np.abs(dec.accuracy_pos + dec.accuracy_neg - 1.0)) < 1e-15
        ),
    }
    if example == 1:
        checks["boundary_at_midpoint"] = abs(boundary - mid) < 1e-6
        checks["accuracy_symmetric"] = asym < 1e-12
    else:
        checks["boundary_shifted_right"] = boundary > mid + 1e-3
        checks["accuracy_asymmetric"] = asym > 1e-3
    metrics = {
        "boundary": boundary,
        "expectation_at_query": expectation,
        "integrand_integral": integral,
        "integral_gap": abs(integral - expectation),
        "accuracy_asymmetry": asym,
        "query": query,
    }
    return _summary("fig7", cfg, outputs, metrics, checks)


def run_classify(cfg: dict, out: Path) -> dict:
    """Quantum-circuit path and exhaustive classical vote on one grid,
    compared model by model."""
    family, grid, dataset = _ensemble(cfg)
    query, rotation, delta, shots, seed, scheme = _fields(
        cfg,
        query=_float_array,
        rotation=str,
        delta=_optional(_float),
        shots=_at_least_one,
        seed=_integer,
        scheme=weighting.WeightScheme,
    ).values()
    if query.shape != (family.input_dim,):
        raise ConfigError("query dimension does not match the family")
    if rotation not in ("exact", "sequential"):
        raise ConfigError("rotation must be 'exact' or 'sequential'")
    if rotation == "exact" and delta is not None:
        raise ConfigError("delta applies to rotation 'sequential' only")
    if not np.all(np.isfinite(query)):
        raise ValueError("query must be finite")
    m = len(dataset)
    delta = math.pi / (4.0 * m) if delta is None else delta
    if rotation == "sequential" and not 0.0 < delta <= math.pi / (4.0 * m):
        raise ValueError(f"delta must lie in (0, pi/(4*{m})]")

    # cap checks before enumerating the grid
    layout = simulator.RegisterLayout(grid.total_bits)
    if shots > SHOTS_CAP:
        raise weighting.EnumerationCapError(f"classify shots are over {SHOTS_CAP}")
    # grid_accuracies, grid_correct_counts and ensemble_decide each walk the
    # grid: bench/selftest/test_bench.py pins model.evals_per_unique at 2.96,
    # these three walks, so merging them waits for a change to that pin
    acc = grid_accuracies(family, grid, dataset)
    alt_weights = None  # set before the statevector: log_odds refuses accuracy 0 or 1
    if scheme is not weighting.WeightScheme.ACCURACY:
        alt_weights = weighting.weights_for(scheme, acc)
    counts = grid_correct_counts(family, grid, dataset)
    state = simulator.prepare_uniform(layout)
    if rotation == "exact":
        simulator.apply_accuracy_rotation_exact(state, acc)
    else:
        simulator.apply_accuracy_rotation_sequential(
            state, predict_many(family, decode_all(grid), dataset.x), dataset.y, delta
        )
        rotation_p0 = state.accuracy_zero_probabilities()
    state, post = simulator.postselect_accuracy_zero(state)
    labels = predict_many(family, decode_all(grid), query[None, :])[:, 0]
    simulator.apply_classifier(state, labels)
    alt = None if alt_weights is None else weighting.vote(alt_weights, labels)
    del labels  # kept alive, this (E,) array would pin the heap through ensemble_decide below
    p_minus, p_plus = simulator.measure_label_distribution(state)
    sigma_z = p_minus - p_plus  # expectation_sigma_z without a second read of the state
    sample = simulator.sample_measurements(p_plus, shots, seed)

    classical = weighting.ensemble_decide(
        family, grid, dataset, weighting.WeightScheme.ACCURACY, query
    )
    per_model_quantum = state.parameter_distribution()

    metrics: dict = {
        "models": grid.size,
        "dataset_size": m,
        "rotation": rotation,
        "acceptance_probability": post.acceptance_probability,
        "expected_repetitions": post.expected_repetitions,
        "mean_accuracy": float(np.mean(acc)),
        "quantum": {"p_minus": p_minus, "p_plus": p_plus, "sigma_z": sigma_z},
        "classical": {
            "p_minus": classical.p_minus,
            "p_plus": classical.p_plus,
            "raw_score": classical.raw_score,
            "label": classical.label,
        },
        "sampled_counts": {str(k): v for k, v in sample.items()},
        "shots": shots,
    }
    checks = {
        "labels_agree": (1 if p_plus >= p_minus else -1) == classical.label
        or math.isclose(p_plus, p_minus, abs_tol=1e-12),
    }
    if rotation == "exact":
        expected_dist = acc / weighting.tree_sum(acc)
        max_dev = float(np.max(np.abs(per_model_quantum - expected_dist)))
        metrics["max_model_probability_deviation"] = max_dev
        metrics["label_distribution_deviation"] = max(
            abs(p_minus - classical.p_minus), abs(p_plus - classical.p_plus)
        )
        checks["per_model_match"] = max_dev < 1e-10
        checks["label_distribution_match"] = metrics["label_distribution_deviation"] < 1e-10
        checks["acceptance_matches_mean_accuracy"] = (
            abs(post.acceptance_probability - float(np.mean(acc))) < 1e-12
        )
    else:
        expected_p0 = np.cos(math.pi / 4.0 - (2.0 * counts - m) * delta) ** 2
        dev_formula = float(np.max(np.abs(rotation_p0 - expected_p0)))
        dev_accuracy = float(np.max(np.abs(rotation_p0 - acc)))
        metrics["delta"] = delta
        metrics["rotation_formula_deviation"] = dev_formula
        metrics["rotation_accuracy_deviation"] = dev_accuracy
        checks["rotation_matches_formula"] = dev_formula < 1e-12

    if alt is not None:
        metrics["scheme_decision"] = {
            "scheme": scheme.value,
            "raw_score": alt.raw_score,
            "label": alt.label,
            "p_plus": alt.p_plus,
            "p_minus": alt.p_minus,
        }

    summary = _summary("classify", cfg, ["classify_report.json"], metrics, checks)
    _write_json(out / "classify_report.json", summary)
    return summary


def run_grover(cfg: dict, out: Path) -> dict:
    """Amplitude amplification of the better-than-chance grid models."""
    family, grid, dataset = _ensemble(cfg)
    iterations = _fields(cfg, iterations=_optional(_integer))["iterations"]
    # cap checks before enumerating the grid
    simulator.RegisterLayout(grid.total_bits, simulator.count_bits_for(len(dataset)))
    if iterations is not None and iterations < 0:
        raise ConfigError("grover iterations must be non-negative")
    if iterations is not None and iterations > GROVER_ITERATION_CAP:
        raise weighting.EnumerationCapError(f"grover iterations are over {GROVER_ITERATION_CAP}")
    counts = grid_correct_counts(family, grid, dataset)
    state, report = simulator.grover_amplify_counts(counts, len(dataset), iterations)
    norm = state.norm()
    metrics = {
        "models": report.model_count,
        "marked_models": report.marked_count,
        "accurate_fraction": report.marked_count / report.model_count,
        "iterations": report.iterations,
        "iteration_scale": report.iteration_scale,
        "marked_probability": report.marked_probability,
        "closed_form_probability": report.closed_form_probability,
        "state_norm": norm,
    }
    checks = {
        "matches_closed_form": abs(report.marked_probability - report.closed_form_probability)
        < 1e-10,
        "norm_preserved": abs(norm - 1.0) < 1e-12,
        "amplified": report.marked_probability
        >= report.marked_count / report.model_count - 1e-12,
    }
    summary = _summary("grover", cfg, ["grover_report.json"], metrics, checks)
    _write_json(out / "grover_report.json", summary)
    return summary


RUNNERS = {
    "fig2": run_fig2,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "classify": run_classify,
    "grover": run_grover,
}


def run_command(command: str, overrides: dict | None, out: Path, **options) -> dict:
    cfg = merged_config(command, overrides)
    out.mkdir(parents=True, exist_ok=True)
    summary = RUNNERS[command](cfg, out, **options)
    _write_json(out / f"{command}_summary.json", summary)
    return summary
