"""Synthetic dataset generation: per-class draw lanes, fixed row order."""

import numpy as np
import pytest

from qens.datagen import gaussian_1d_pair, gaussian_blobs
from qens import prng


def test_blob_shapes_and_label_order():
    ds = gaussian_blobs((-1.0, 1.0), (1.0, -1.0), sigma=0.5, per_class=50, seed=117)
    assert ds.x.shape == (100, 2)
    assert np.array_equal(ds.y[:50], -np.ones(50))
    assert np.array_equal(ds.y[50:], np.ones(50))


def test_blob_determinism():
    spec = dict(mean_minus=(-1.0, 1.0), mean_plus=(1.0, -1.0), sigma=0.5, per_class=10, seed=3)
    a = gaussian_blobs(**spec)
    b = gaussian_blobs(**spec)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_blob_means_approached():
    ds = gaussian_blobs((-1.0, 1.0), (1.0, -1.0), sigma=0.25, per_class=4000, seed=9)
    assert np.allclose(ds.x[:4000].mean(axis=0), (-1.0, 1.0), atol=0.02)
    assert np.allclose(ds.x[4000:].mean(axis=0), (1.0, -1.0), atol=0.02)


def test_class_lanes_are_independent():
    base = gaussian_blobs((-1.0, 1.0), (1.0, -1.0), sigma=0.5, per_class=8, seed=5)
    moved = gaussian_blobs((-1.0, 1.0), (4.0, 4.0), sigma=0.5, per_class=8, seed=5)
    # moving the plus blob leaves the minus rows untouched
    assert np.array_equal(base.x[:8], moved.x[:8])
    assert not np.array_equal(base.x[8:], moved.x[8:])


def test_draw_layout_row_major_per_sample():
    ds = gaussian_blobs((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), sigma=1.0, per_class=3, seed=21)
    z = prng.normals(prng.derive_key(21, 0), 9)
    assert np.allclose(ds.x[:3], z.reshape(3, 3), atol=0)


def blobs(**bad):
    spec = dict(mean_minus=(-1.0,), mean_plus=(1.0,), sigma=0.5, per_class=10, seed=0)
    return gaussian_blobs(**{**spec, **bad})


def pair(sigma=0.5, per_class=10, sigma_minus=0.5):
    # sigma is the plus class's, so the minus class's check passes first
    return gaussian_1d_pair(-1.0, sigma_minus, 1.0, sigma, per_class, seed=0)


BAD_GAUSSIANS = {
    **{
        f"{generate.__name__}-{name}": (generate, bad)
        for generate in (blobs, pair)
        for name, bad in {
            "negative-sigma": {"sigma": -0.5},
            "zero-sigma": {"sigma": 0.0},
            "nan-sigma": {"sigma": float("nan")},
            "no-points": {"per_class": 0},
        }.items()
    },
    "pair-zero-sigma-minus": (pair, {"sigma_minus": 0.0}),
    "blobs-unequal-means": (blobs, {"mean_minus": (-1.0,), "mean_plus": (1.0, 0.0)}),
    "blobs-empty-means": (blobs, {"mean_minus": (), "mean_plus": ()}),
}


@pytest.mark.parametrize("generate, bad", BAD_GAUSSIANS.values(), ids=BAD_GAUSSIANS)
def test_invalid_gaussian_dataset_is_refused(generate, bad):
    # both generators share one check of sigma and per_class
    with pytest.raises(ValueError):
        generate(**bad)


def test_pair_shapes_and_scaling():
    ds = gaussian_1d_pair(-1.0, 0.5, 1.0, 2.0, 6, seed=5)
    assert ds.x.shape == (12, 1)
    assert ds.y.tolist() == [-1] * 6 + [1] * 6
    narrow = gaussian_1d_pair(-1.0, 0.5, 1.0, 0.5, 6, seed=5)
    # same draws, different plus-class scale
    assert np.allclose((ds.x[6:, 0] - 1.0) / 2.0, (narrow.x[6:, 0] - 1.0) / 0.5, atol=1e-15)


def test_pair_csv_stable_bytes(tmp_path):
    ds = gaussian_1d_pair(-1.0, 0.5, 1.0, 0.5, 3, seed=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ds.to_csv(p1)
    gaussian_1d_pair(-1.0, 0.5, 1.0, 0.5, 3, seed=5).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
