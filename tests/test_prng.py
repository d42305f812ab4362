"""The generator contract: pure function of (seed, lane, index), open-interval
uniforms, inverse-CDF normals.  Reference values come from a pure-integer
reimplementation kept in this file."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from qens import prng
from qens._special import ndtri

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
LANE = 0xD1342543DE82EF95


def mix64_ref(z: int) -> int:
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def word_ref(key: int, i: int) -> int:
    return mix64_ref((key + ((i + 1) * GOLDEN & MASK)) & MASK)


def derive_ref(seed: int, lane: int) -> int:
    return mix64_ref(mix64_ref((seed + ((lane + 1) * LANE & MASK)) & MASK))


def test_derive_key_frozen_value():
    assert prng.derive_key(42, 0) == 0x27375542D700992C


def test_words_frozen_values():
    ws = prng.words(prng.derive_key(42, 0), 4)
    assert [int(w) for w in ws] == [
        0x7A2389EA6B3213AD,
        0xECD80A5D5F824E66,
        0xE759CEDD26361A79,
        0x0F8E67FC4DDA234A,
    ]


@given(st.integers(0, MASK), st.integers(0, 7), st.integers(0, 200))
def test_words_match_integer_reference(seed, lane, start):
    key = prng.derive_key(seed, lane)
    assert key == derive_ref(seed, lane)
    got = prng.words(key, start + 3)[start:]
    want = [word_ref(key, start + j) for j in range(3)]
    assert [int(w) for w in got] == want


def test_lane_separation():
    a = prng.words(prng.derive_key(7, 0), 16)
    b = prng.words(prng.derive_key(7, 1), 16)
    assert not np.array_equal(a, b)


def test_negative_lane_rejected():
    with pytest.raises(ValueError):
        prng.derive_key(1, -1)


def test_uniforms_open_interval_and_frozen_first():
    u = prng.uniforms(prng.derive_key(42, 0), 1000)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert float(u[0]) == 0.4771047780333862


def test_uniform_from_word():
    key = prng.derive_key(9, 3)
    w = int(prng.words(key, 1)[0])
    expect = ((w >> 11) + 0.5) * 2.0**-53
    assert float(prng.uniforms(key, 1)[0]) == expect


def test_normals_are_inverse_cdf_of_uniforms():
    key = prng.derive_key(5, 1)
    u = prng.uniforms(key, 256)
    z = prng.normals(key, 256)
    assert np.allclose(ndtr(z), u, atol=1e-14)
    assert abs(float(np.mean(z))) < 0.2


def test_determinism_across_calls():
    assert np.array_equal(prng.normals(prng.derive_key(3, 0), 64),
                          prng.normals(prng.derive_key(3, 0), 64))


def test_mix64_fixes_zero_and_the_increment_avoids_it():
    # the finaliser maps 0 to 0; the golden increment keeps word 0 of key 0 off it
    assert prng.mix64(np.uint64(0)) == 0
    assert int(prng.words(0, 1)[0]) == word_ref(0, 0) != 0


def test_uniform_mean_quarter_million():
    u = prng.uniforms(prng.derive_key(1234, 0), 1 << 18)
    assert abs(float(np.mean(u)) - 0.5) < 2e-3
    assert math.isclose(float(np.var(u)), 1.0 / 12.0, rel_tol=2e-2)


def test_top_words_stay_below_one_with_finite_normals():
    # (k + 1/2) 2^-53 rounds half to even from 1/2 up: k = 2^53 - 1, the top
    # 2^11 words, would give exactly 1.0 and an infinite normal
    top = [MASK, MASK - (1 << 11) + 1]  # the first and last of them
    u = prng.uniforms_from_words(np.array(top, dtype=np.uint64))
    assert u.tolist() == [1.0 - 2.0**-53] * 2
    assert np.all(np.isfinite(ndtri(u)))
    below = prng.uniforms_from_words(np.array([MASK - (1 << 11)], dtype=np.uint64))
    assert below.tolist() == [1.0 - 2.0**-52]  # k = 2^53 - 2, even, keeps its bits
    assert prng.uniforms_from_words(np.array([0], dtype=np.uint64)).tolist() == [2.0**-54]


@given(st.lists(st.integers(0, MASK), min_size=1, max_size=64))
def test_uniforms_from_words_keep_the_bits_of_the_centred_expression(ws):
    # the clamp moves only the top 2^11 words; every other word keeps
    # ((w >> 11) + 0.5) * 2^-53 bit for bit
    u = prng.uniforms_from_words(np.array(ws, dtype=np.uint64)).tolist()
    for w, got in zip(ws, u):
        want = ((w >> 11) + 0.5) * 2.0**-53
        assert got == (want if want < 1.0 else 1.0 - 2.0**-53)


def test_uniforms_are_the_uniforms_of_the_words():
    key = prng.derive_key(21, 2)
    assert np.array_equal(prng.uniforms(key, 4096), prng.uniforms_from_words(prng.words(key, 4096)))
