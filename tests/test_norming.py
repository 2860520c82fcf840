import math
import time

import numpy as np
import pytest

from conftest import random_points, small_poly_space
from norming_lab import (NotNormingError, PointSet, SpaceDescriptor,
                         certified_supnorm, cramer_bound, fekete_select,
                         interpolation_determinant, lagrange_basis,
                         lebesgue_constant, norming_constant, sandwich_check)
from norming_lab import norming
from norming_lab.norming import uniform_grid
from norming_lab.simplex import norming_lp_value

P1 = SpaceDescriptor.polynomial(1, 1)
P2 = SpaceDescriptor.polynomial(1, 2)


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0], [0.0]]))


def test_uniform_grid_spacing():
    pts, h = uniform_grid((np.array([-1.0]), np.array([1.0])), spacing=0.1)
    assert h == pytest.approx(0.1)
    assert pts.shape == (21, 1)


def test_interpolation_determinant_vandermonde():
    # classic 1-D Vandermonde on {-1, 0, 1}
    det = interpolation_determinant(P2, [[-1.0], [0.0], [1.0]])
    assert abs(det) == pytest.approx(2.0)


def test_lagrange_kronecker(rng):
    pts = random_points(rng, 3, 1)
    C = lagrange_basis(P2, pts)
    V = P2.evaluate_basis(pts)
    assert np.allclose(V @ C, np.eye(3), atol=1e-9)


def test_lebesgue_closed_form():
    # Lebesgue function of {-1, 0, 1} in degree 2 is 1 + |x| - x^2
    val = lebesgue_constant(P2, [[-1.0], [0.0], [1.0]], grid_spacing=1e-4)
    assert val == pytest.approx(1.25, abs=1e-6)


@pytest.mark.parametrize("space", [SpaceDescriptor.polynomial(1, 4),
                                   SpaceDescriptor.polynomial(2, 2)], ids=["P4", "P2-2d"])
def test_lebesgue_blocks_match_dense_formula(space, monkeypatch):
    # small blocks, so that the maximum is taken over many of them
    monkeypatch.setattr(norming, "_BLOCK_VALUES", 500)
    pts = random_points(np.random.default_rng(3), space.dimension(), space.n, min_sep=0.1)
    grid, _ = uniform_grid(space.default_box(), budget=5000)
    dense = np.max(np.abs(space.evaluate_basis(grid) @ lagrange_basis(space, pts)).sum(axis=1))
    assert lebesgue_constant(space, pts, budget=5000) == pytest.approx(dense, rel=1e-12)


def test_norming_equals_lebesgue_for_unisolvent(rng):
    for _ in range(10):
        space = small_poly_space(rng, max_n=1, max_d=3, max_dim=4)
        pts = random_points(rng, space.dimension(), 1, min_sep=0.3)
        rep = norming_constant(space, pts, budget=20001)
        leb = lebesgue_constant(space, pts, budget=20001)
        assert rep.norming
        assert rep.value == pytest.approx(leb, rel=1e-9)


def test_lp_grid_matches_simplex_oracle(rng):
    # spot-check the vectorized vertex method against per-point simplex LPs
    for _ in range(5):
        space = small_poly_space(rng, max_dim=4)
        m = space.dimension() + int(rng.integers(0, 3))
        pts = random_points(rng, m, space.n, min_sep=0.2)
        B = space.evaluate_basis(pts)
        from norming_lab.norming import _feasible_vertices

        verts = _feasible_vertices(B)
        for _ in range(8):
            x = rng.uniform(-1, 1, size=space.n)
            phi = space.evaluate_basis(x)
            assert float(np.max(np.abs(verts @ phi))) == pytest.approx(
                norming_lp_value(B, phi), rel=1e-7, abs=1e-9)


def test_not_norming_rank_deficient():
    rep = norming_constant(P2, [[-1.0], [1.0]])
    assert not rep.norming
    assert rep.reciprocal == 0.0
    w = rep.witness_coefficients
    vals = P2.evaluate_basis(np.array([[-1.0], [1.0]])) @ w
    assert np.max(np.abs(vals)) < 1e-9


def test_subbox_norming_bracket_is_sound():
    # {0, 0.05, 0.1} is the affine image of {-1, 0, 1}, so N = 1.25 on [0, 0.1].
    # The Markov constant is relative to the sup over the whole cube, so the
    # bracket on the sub-box needs the additive form.
    box = (np.array([0.0]), np.array([0.1]))
    rep = norming_constant(P2, [[0.0], [0.05], [0.1]], box=box, budget=3)
    assert rep.certified
    assert rep.lower <= 1.25 <= rep.upper


def test_coarse_grid_spacing_is_refined():
    # at spacing 1 the Markov factor 4 * 0.5 is not below 1; halving fixes it
    rep = norming_constant(P2, [[-1.0], [0.0], [1.0]], grid_spacing=1.0)
    assert rep.certified
    assert rep.grid_spacing < 1.0
    assert rep.lower <= 1.25 <= rep.upper


@pytest.mark.parametrize("space, pts", [
    (SpaceDescriptor.trigonometric(1, 12),
     np.linspace(-1.0, 1.0, 25, endpoint=False)[:, None]),
    (SpaceDescriptor.polynomial(2, 3),
     np.stack(np.meshgrid(np.linspace(-1, 1, 8), np.linspace(-1, 1, 5)), -1).reshape(-1, 2)),
], ids=["unisolvent-l25", "m40-l10"])
def test_vertex_budget_checked_before_enumeration(space, pts):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="vertex enumeration budget"):
        norming_constant(space, pts)
    assert time.perf_counter() - t0 < 1.0


def test_certified_supnorm_brackets_truth():
    # sup |x^2 - 0.5| on [-1, 1] is 0.5 exactly
    br = certified_supnorm(P2, [-0.5, 0.0, 1.0], grid_spacing=1e-3)
    assert br.lower <= 0.5 <= br.upper
    assert br.certified
    assert br.upper - br.lower < 1e-2


def test_certified_supnorm_subbox():
    # sup of x on [0, 0.5] is 0.5; sub-box certification stays sound
    br = certified_supnorm(P1, [0.0, 1.0],
                           box=(np.array([0.0]), np.array([0.5])),
                           grid_spacing=1e-3)
    assert br.lower <= 0.5 <= br.upper
    assert br.certified


def test_cramer_upper_bounds_exact(rng):
    for _ in range(5):
        space = small_poly_space(rng, max_n=1, max_d=2, max_dim=3)
        pts = random_points(rng, space.dimension(), 1, min_sep=0.3)
        exact = norming_constant(space, pts, budget=20001).value
        bound = cramer_bound(space, pts, budget=20001)
        assert bound >= exact * (1 - 1e-9)
        # one grid pass over all basis functions equals one pass per function
        l = space.dimension()
        sup = max(certified_supnorm(space, e, budget=20001).upper for e in np.eye(l))
        delta = interpolation_determinant(space, pts)
        assert bound == sup**l * l * math.factorial(l) / abs(delta)


def test_fekete_exhaustive_known():
    idx, det = fekete_select(P1, [[-1.0], [0.0], [1.0]])
    assert idx == (0, 2)
    assert det == pytest.approx(2.0)


def test_fekete_greedy_reasonable(rng):
    for _ in range(10):
        space = small_poly_space(rng, max_dim=5)
        pts = random_points(rng, space.dimension() + 3, space.n, min_sep=0.15)
        _, det_ex = fekete_select(space, pts, mode="exhaustive")
        _, det_gr = fekete_select(space, pts, mode="greedy")
        assert det_gr <= det_ex * (1 + 1e-9)
        assert det_gr > 0.0


def test_fekete_needs_enough_points():
    with pytest.raises(ValueError):
        fekete_select(P2, [[0.0], [1.0]])


def test_all_singular_subsets_not_norming():
    space = SpaceDescriptor.polynomial(2, 1)
    pts = [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]  # collinear
    with pytest.raises(NotNormingError):
        fekete_select(space, pts)


def test_sandwich_on_random_sets(rng):
    for _ in range(5):
        space = small_poly_space(rng, max_dim=4)
        pts = random_points(rng, space.dimension() + 2, space.n, min_sep=0.2)
        rep = sandwich_check(space, pts, budget=10000)
        assert rep.ok, (rep.n_full, rep.n_fekete, rep.max_abs_lagrange_on_z)
