import re

import numpy as np
import pytest
from scipy.stats import qmc

from helpers import sobol_gray_code
from kcompress.errors import ValidationError
from kcompress.generators import (
    MAX_SOBOL_DIM,
    GaussianComponent,
    demo_mixture,
    sample_gaussian_mixture,
    sobol_lattice,
    sobol_unit,
)


# ---------------------------------------------------------------------------
# Gaussian mixture sampling
# ---------------------------------------------------------------------------

def test_standard_normal_sample_mean():
    comp = GaussianComponent([0.0, 0.0], np.eye(2))
    clouds = sample_gaussian_mixture([comp], 4000, seed=1)
    mean = clouds[0].mean(axis=0)
    assert np.all(np.abs(mean) < 4 / np.sqrt(4000))


def test_empirical_covariance_close():
    comp = GaussianComponent([0.0, 0.0], [[0.5, -0.2], [-0.2, 0.5]])
    clouds = sample_gaussian_mixture([comp], 10**5, seed=2)
    emp = np.cov(clouds[0].T)
    np.testing.assert_allclose(emp, comp.covariance, atol=0.02)


def test_same_seed_identical_clouds():
    comps = demo_mixture()
    a = sample_gaussian_mixture(comps, 50, seed=7)
    b = sample_gaussian_mixture(comps, 50, seed=7)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_different_seeds_differ():
    comps = demo_mixture()[:1]
    a = sample_gaussian_mixture(comps, 10, seed=1)
    b = sample_gaussian_mixture(comps, 10, seed=2)
    assert not np.array_equal(a[0], b[0])


def test_component_stream_isolated_from_count():
    """The first draws of a component do not depend on other components."""
    comps = demo_mixture()
    full = sample_gaussian_mixture(comps, 20, seed=3)
    only_two = sample_gaussian_mixture(comps[:2], 20, seed=3)
    np.testing.assert_array_equal(full[0], only_two[0])
    np.testing.assert_array_equal(full[1], only_two[1])


def test_covariance_shape_must_match_the_mean():
    with pytest.raises(ValidationError, match=re.escape(
            "covariance shape (3, 3) does not match mean length 2")):
        GaussianComponent([0.0, 0.0], np.eye(3))


def test_not_positive_definite_rejected():
    with pytest.raises(ValidationError,
                       match="covariance must be positive definite"):
        GaussianComponent([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValidationError, match="covariance must be symmetric"):
        GaussianComponent([0.0, 0.0], [[1.0, 0.3], [0.2, 1.0]])


def test_demo_mixture_shape():
    comps = demo_mixture()
    assert len(comps) == 5
    for comp in comps:
        assert comp.dim == 2
        np.linalg.cholesky(comp.covariance)


def test_bad_count_rejected():
    with pytest.raises(ValidationError):
        sample_gaussian_mixture(demo_mixture(), 0, seed=1)


# ---------------------------------------------------------------------------
# Sobol lattice
# ---------------------------------------------------------------------------

def test_van_der_corput_first_four():
    pts = sobol_unit(1, 4)[:, 0]
    assert set(pts) == {0.0, 0.5, 0.25, 0.75}


def test_zero_point_included():
    np.testing.assert_array_equal(sobol_unit(5, 1), np.zeros((1, 5)))


def test_stratification_permutation():
    for dim in range(1, 6):
        pts = sobol_unit(dim, 2**10)
        for d in range(dim):
            cells = np.floor(pts[:, d] * 2**10).astype(int)
            assert sorted(cells) == list(range(2**10))


def test_matches_reference_sobol_generator():
    """Agreement with scipy's unscrambled Sobol points, dimension by
    dimension, pins the direction-number table."""
    for dim in range(1, 11):
        ours = sobol_unit(dim, 256)
        ref = qmc.Sobol(d=dim, scramble=False).random(256)
        np.testing.assert_array_equal(ours, ref)


@pytest.mark.parametrize("dim", range(1, MAX_SOBOL_DIM + 1))
def test_sobol_unit_equals_gray_code_loop(dim):
    for count in (1, 2, 3, 255, 256, 257, 4097):
        ours = sobol_unit(dim, count)
        assert ours.tobytes() == sobol_gray_code(dim, count).tobytes()


def test_box_midpoint_maps_to_zero():
    pts = sobol_lattice(2, 4, ((-1.0, -1.0), (1.0, 1.0)))
    # the second Sobol point is (0.5, 0.5) -> origin
    np.testing.assert_allclose(pts[1], [0.0, 0.0])


def test_all_points_inside_box():
    low, high = np.array([-2.0, 1.0, 0.0]), np.array([3.0, 4.0, 0.5])
    pts = sobol_lattice(3, 2**8, (low, high))
    assert np.all(pts >= low) and np.all(pts < high)


def test_dim_unsupported():
    with pytest.raises(ValidationError, match="dim 11 outside supported range"):
        sobol_unit(11, 4)
    with pytest.raises(ValidationError, match="dim 0 outside supported range"):
        sobol_unit(0, 4)


def test_sobol_count_range():
    with pytest.raises(ValidationError, match="count must be >= 1"):
        sobol_unit(2, 0)
    # refused before any array of that length is made
    with pytest.raises(ValidationError,
                       match="count exceeds the 32-bit sequence length"):
        sobol_unit(1, 2**32 + 1)


def test_box_corners_must_match_dim():
    with pytest.raises(ValidationError, match="box corners must match dim"):
        sobol_lattice(2, 4, ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))


def test_degenerate_box():
    with pytest.raises(ValidationError,
                       match="box must satisfy low < high per coordinate"):
        sobol_lattice(2, 4, ((0.0, 0.0), (1.0, 0.0)))
