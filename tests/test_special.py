"""The ports in qens._special against scipy.special, bit for bit, and their
closed-form constants against mpmath.

Cephes' minimax coefficients have no closed form; the probes pin them.  Most
1-ulp changes of one coefficient fail these tests; those that pass move no
output on any probe, and the three top terms of the log-gamma series never
do at the integers, where they fall below the last bit of every value."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sc

from qens import _special, prng
from qens.figures import FIG2_SIZE_CAP

SUBNORMALS = [5e-324, 1e-320, 2.2250738585072004e-308]


def assert_same_bits(got, want):
    """Equal bits everywhere, NaN matching NaN whatever its payload."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want).ravel()
    assert np.array_equal(np.isnan(got).ravel(), nan)
    g, w = got.ravel()[~nan], want.ravel()[~nan]
    bad = np.flatnonzero(g.view(np.uint64) != w.view(np.uint64))
    assert bad.size == 0, f"{bad.size} of {g.size} differ, first at {w[bad[0]]!r}: {g[bad[0]]!r}"


def around(x: float, ulps: int) -> np.ndarray:
    """x and the `ulps` floats on each side of it."""
    up, down = [x], [x]
    for _ in range(ulps):
        up.append(math.nextafter(up[-1], math.inf))
        down.append(math.nextafter(down[-1], -math.inf))
    return np.array(down[:0:-1] + up)


def signed(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, -x])


# --- erf ----------------------------------------------------------------------

def test_erf_random_probes():
    rng = np.random.default_rng(20261020)
    x = np.concatenate(
        [
            rng.normal(0.0, 3.0, 600_000),
            rng.uniform(-7.0, 7.0, 300_000),
            signed(10.0 ** rng.uniform(-310.0, 3.0, 100_000)),  # every binade from the subnormals up
        ]
    )
    assert x.size >= 1_000_000
    assert_same_bits(_special.erf(x), sc.erf(x))


def test_erf_at_the_branch_edges_and_specials():
    x = signed(
        np.concatenate(
            [
                [0.0, 8.0, 26.6, np.inf, *SUBNORMALS],
                around(1.0, 64),
                around(6.0, 64),
                np.linspace(5.9, 27.0, 100_001),  # where erf rounds to 1, with or without the shortcut
            ]
        )
    )
    x = np.append(x, np.nan)
    assert_same_bits(_special.erf(x), sc.erf(x))
    assert np.signbit(_special.erf(-0.0)) and not np.signbit(_special.erf(0.0))
    assert _special.erf(6.0) == 1.0 and _special.erf(-np.inf) == -1.0


def test_erf_keeps_shape_and_gives_a_numpy_scalar_at_0d():
    # analytic reads .ndim of what erf returns
    for x in (0.3, np.float64(-2.5), np.array(7.0)):
        y = _special.erf(x)
        assert isinstance(y, np.float64) and y.ndim == 0
        assert_same_bits(y, sc.erf(x))
    x = np.linspace(-4.0, 4.0, 24).reshape(2, 3, 4)
    assert_same_bits(_special.erf(x), sc.erf(x))
    assert _special.erf(np.empty((0, 3))).shape == (0, 3)


def test_exp_route_is_the_c_librarys_exp():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(0.0, 40.0, 100_000), around(1.0, 16), around(36.0, 16)])
    assert_same_bits(_special._exp_neg(x), [math.exp(-v) for v in x.tolist()])


# --- ndtri --------------------------------------------------------------------

def test_ndtri_on_prng_uniforms():
    u = prng.uniforms(prng.derive_key(3, 1), 1_000_000)
    assert_same_bits(_special.ndtri(u), sc.ndtri(u))


def test_ndtri_in_both_tails():
    t = 10.0 ** -np.random.default_rng(7).uniform(0.0, 300.0, 300_000)
    y = np.concatenate([t, 1.0 - t])
    assert_same_bits(_special.ndtri(y), sc.ndtri(y))


def test_ndtri_at_the_branch_edges_and_specials():
    e2 = _special._EXP_M2
    y = np.concatenate(
        [
            around(e2, 256),
            around(1.0 - e2, 256),
            around(math.exp(-32.0), 64),  # sqrt(-2 log y) = 8, where the tail switches rules
            around(0.5, 16),
            [0.0, 1.0, 2.0**-54, 1.0 - 2.0**-53, *SUBNORMALS, -0.0, -1.0, 2.0, np.inf, -np.inf, np.nan],
        ]
    )
    assert_same_bits(_special.ndtri(y), sc.ndtri(y))
    assert isinstance(_special.ndtri(0.25), np.float64)
    assert _special.ndtri(np.empty(0)).shape == (0,)


# --- log-gamma ----------------------------------------------------------------

def test_log_gamma_at_every_integer_fig2_reads():
    stop = FIG2_SIZE_CAP + 3  # fig2's table runs to its largest size + 1
    assert_same_bits(_special.log_gamma_range(stop), sc.gammaln(np.arange(stop, dtype=np.float64)))


@pytest.mark.parametrize("stop", [0, 1, 2, 12, 13, 14, 999, 1000, 1001])
def test_log_gamma_short_tables(stop):
    assert_same_bits(_special.log_gamma_range(stop), sc.gammaln(np.arange(stop, dtype=np.float64)))


# --- constants ----------------------------------------------------------------

def test_constants_with_a_closed_form_are_correctly_rounded():
    with mpmath.workprec(200):
        two_pi = 2 * mpmath.pi
        assert _special._SQRT_2PI == float(mpmath.sqrt(two_pi))
        assert _special._LOG_SQRT_2PI == float(mpmath.log(mpmath.sqrt(two_pi)))
        assert _special._EXP_M2 == float(mpmath.exp(-2))
        tail = [float(c) for c in _special._LGAM_TAIL]
        assert tail == [float(mpmath.mpf(1) / 1260), float(mpmath.mpf(-1) / 360), float(mpmath.mpf(1) / 12)]
        # the erf shortcut: 1 - erfc(x) rounds to exactly 1 from here out
        assert mpmath.erfc(_special._ERF_ONE) < mpmath.mpf(2) ** -54
