import inspect
import math
import sys
import threading
import time
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest

from conftest import bracketed, grid_plan, random_points, small_poly_space, uniform_grid
from norming_lab import (NotNormingError, PointSet, SpaceDescriptor, audit,
                         certified_supnorm, cramer_bound, fekete_select,
                         interpolation_determinant, lagrange_basis,
                         lebesgue_constant, norming_constant, sandwich_check)
from norming_lab import norming
from norming_lab.norming import (_grid_axes, _grid_points, _half_signs, has_duplicates,
                                 linf_distances)
from norming_lab.spaces import _monomial_exponents, _trig_tuples
from norming_lab.simplex import norming_lp_value

P1 = SpaceDescriptor.polynomial(1, 1)
P2 = SpaceDescriptor.polynomial(1, 2)


def test_reversed_or_non_finite_box_is_rejected():
    # a reversed axis once read as a flat one, and gave a certified wrong bracket;
    # a point set's box is checked once, when the set is built
    pts = [[0.0], [0.2], [0.4]]
    for box in [([0.5], [-0.9]), ([0.5], [np.nan]), ([-np.inf], [0.5]),
                ([0.0, 0.0], [1.0, 1.0]), [[0.0], [0.5], [1.0]]]:
        with pytest.raises(ValueError, match="box must be"):
            certified_supnorm(P2, [0.0, 1.0, 0.0], box=box)
        with pytest.raises(ValueError, match="box must be"):
            PointSet(pts, box=box)
    # the point-set entries read the set's domain and take no box of their own
    for call in (norming_constant, lebesgue_constant, cramer_bound):
        assert "box" not in inspect.signature(call).parameters
    # a flat axis stays legal, and a set's box is frozen; on a point the
    # bracket holds |f(p)| = 0.5, padded by the rounding of T W
    flat = certified_supnorm(P2, [0.0, 1.0, 0.0], box=([0.5], [0.5]))
    assert flat.lower <= 0.5 <= flat.upper <= flat.lower + 32 * np.finfo(float).eps
    assert flat.certified
    assert not PointSet(pts, box=([0.0], [0.4])).box.flags.writeable


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0], [0.0]]))


def test_points_outside_their_box_are_rejected():
    # N_V(Z) is a sup over a domain that holds Z; rounding (1e-12) is forgiven
    with pytest.raises(ValueError, match="outside the box"):
        PointSet([[0.0], [2.0]], box=([0.0], [1.0]))
    with pytest.raises(ValueError, match="outside the box"):
        PointSet([[0.0, 0.5], [1.0, -0.1]], box=([0.0, 0.0], [1.0, 1.0]))
    z = PointSet([[-1e-13], [0.5], [1.0 + 1e-13]], box=([0.0], [1.0]))
    assert len(z) == 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_linf_distances_match_the_broadcast_formula(n):
    rng = np.random.default_rng(40 + n)
    for a, b in [(rng.normal(size=(7, n)), rng.normal(size=(5, n))),
                 (rng.normal(size=(1, n)), rng.normal(size=(1, n))),
                 (rng.normal(size=(1, n)), rng.normal(size=(4, n)))]:
        ref = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
        assert np.array_equal(linf_distances(a, b), ref)


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


@pytest.mark.parametrize("space, box", [
    (SpaceDescriptor.polynomial(1, 4), None),
    (SpaceDescriptor.polynomial(2, 2), None),
    # polynomial boxes, taken in their frame on the cube, and the additive
    # rule, which prunes with the cube bracket of the whole group
    (SpaceDescriptor.polynomial(1, 4), (np.array([-0.3]), np.array([0.45]))),
    (SpaceDescriptor.polynomial(2, 2), (np.array([-0.5, -1.0]), np.array([0.75, 0.2]))),
    (SpaceDescriptor.trigonometric(1, 2), (np.array([-1.4]), np.array([0.3]))),
], ids=["P4", "P2-2d", "P4-inside", "P2-2d-inside", "T2-edge"])
def test_lebesgue_blocks_match_dense_formula(space, box, monkeypatch):
    # small blocks, so that the maximum is taken over many of them
    monkeypatch.setattr(norming, "_BLOCK_VALUES", 500)
    pts = random_points(np.random.default_rng(3), space.dimension(), space.n, min_sep=0.1)
    box = lo, hi = space.default_box() if box is None else box
    pts = lo + (hi - lo) * (pts + 1.0) / 2.0  # in the box, where a set's points lie
    grid, _ = uniform_grid(box, budget=5000)
    dense = np.max(np.abs(space.evaluate_basis(grid) @ lagrange_basis(space, pts)).sum(axis=1))
    assert lebesgue_constant(space, PointSet(pts, box), budget=5000) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("space, zs, spacing", [
    (P2, PointSet([[-1.0], [-0.2], [0.7]]), 1e-4),
    (SpaceDescriptor.polynomial(2, 1), PointSet([[0.1, 0.2], [0.9, 0.3], [0.4, 0.95]],
                                               ([0.0, 0.0], [1.0, 1.0])), None),
    (SpaceDescriptor.trigonometric(1, 2), PointSet([[-0.9], [-0.4], [0.0], [0.3], [0.8]]), None),
    (SpaceDescriptor.trigonometric(1, 12),
     PointSet(np.linspace(-1.0, 1.0, 25, endpoint=False)[:, None]), None),
], ids=["cube", "box", "trigonometric", "T12-25"])
def test_lebesgue_constant_is_the_norming_value_bit_for_bit(space, zs, spacing):
    rep = norming_constant(space, zs, grid_spacing=spacing, budget=20001)
    assert rep.norming
    assert lebesgue_constant(space, zs, grid_spacing=spacing, budget=20001) == rep.value


def test_lebesgue_constant_needs_a_unisolvent_set():
    with pytest.raises(ValueError, match="exactly 3 points"):
        lebesgue_constant(P2, [[-1.0], [0.0], [0.5], [1.0]])
    with pytest.raises(ValueError, match="exactly 3 points"):
        lebesgue_constant(P2, [[-1.0], [1.0]])
    # three collinear points in the plane: P1 vanishes on their line
    with pytest.raises(NotNormingError):
        lebesgue_constant(SpaceDescriptor.polynomial(2, 1),
                          [[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]], budget=1600)


def test_lebesgue_constant_counts_the_dimension_of_v_on_the_sets_box():
    # on y = 0.5, P1 in 2-D is P1 in x: two points are a unisolvent set
    P1_2 = SpaceDescriptor.polynomial(2, 1)
    box = ([0.0, 0.5], [1.0, 0.5])
    assert lebesgue_constant(P1_2, PointSet([[0.0, 0.5], [1.0, 0.5]], box), budget=2001) == 1.0
    with pytest.raises(ValueError, match="exactly 2 points"):
        lebesgue_constant(P1_2, PointSet([[0.0, 0.5], [0.5, 0.5], [1.0, 0.5]], box))


def test_norming_equals_lebesgue_for_unisolvent(rng):
    for _ in range(10):
        space = small_poly_space(rng, max_n=1, max_d=3, max_dim=4)
        pts = random_points(rng, space.dimension(), 1, min_sep=0.3)
        rep = norming_constant(space, pts, budget=20001)
        leb = lebesgue_constant(space, pts, budget=20001)
        assert rep.norming
        assert rep.value == leb


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
    # The set is taken as its image on the cube, whose relative rule halves
    # the 3-point grid's spacing until M * h/2 < 1, so the bracket is certified.
    box = (np.array([0.0]), np.array([0.1]))
    rep = norming_constant(P2, PointSet([[0.0], [0.05], [0.1]], box), budget=3)
    assert rep.certified
    assert rep.lower <= 1.25 <= rep.upper


@pytest.mark.parametrize("live", [1, 2, 3])
def test_budget_gives_the_integer_root_points_per_axis(live):
    # a perfect power k^live gives k points on each axis, where the float
    # root can fall short by one (1000 ** (1 / 3) is 9.999999999999998); the
    # grid layer sees no flat axis, as a box's frame drops them
    box = (np.zeros(live), np.ones(live))
    for k in range(2, 200):
        for budget in (k**live - 1, k**live, k**live + 1):
            axes, _ = _grid_axes(box, None, budget)
            m = axes[0][2]
            assert [ax[2] for ax in axes] == [m] * live
            assert m == 2 if budget < 2**live else m**live <= budget < (m + 1) ** live
    # the default budget of 200,001
    assert _grid_axes(box, None, None)[0][0][2] == {1: 200_001, 2: 447, 3: 58}[live]


@pytest.mark.parametrize("block", [1, 69, 230, 1 << 20])
def test_duplicates_are_found_across_row_blocks(block, monkeypatch):
    # 23 points, checked 1, 3, 10 or all 23 rows at a time
    monkeypatch.setattr(norming, "_BLOCK_VALUES", block)
    pts = np.random.default_rng(44).normal(size=(23, 2))
    assert not has_duplicates(pts) and not has_duplicates(pts[:1])
    for i, j in [(0, 1), (0, 22), (21, 22), (5, 17)]:
        dup = pts.copy()
        dup[j] = dup[i] + 5e-13
        assert has_duplicates(dup)


@pytest.mark.parametrize("pts", [[[-1.0], [-0.3], [0.4], [1.0]], [[-1.0], [1.0]]],
                         ids=["norming", "rank-deficient"])
def test_norming_constant_checks_the_set_for_duplicates_once(pts, monkeypatch):
    checks = mock.Mock(wraps=has_duplicates)
    monkeypatch.setattr(norming, "has_duplicates", checks)
    from_array = norming_constant(P2, np.array(pts), budget=2001)
    assert checks.call_count == 1
    points = PointSet(np.array(pts))
    assert checks.call_count == 2  # by the constructor
    from_set = norming_constant(P2, points, budget=2001)
    assert checks.call_count == 2
    assert from_set.to_json() == from_array.to_json()
    assert from_set.norming == (len(pts) > 2)
    with pytest.raises(ValueError, match="duplicate"):
        norming_constant(P2, np.array([[0.5], [-0.2], [0.5]]))


def test_a_boxed_set_is_checked_for_duplicates_once_and_its_image_never(monkeypatch):
    # a polynomial set on a box is taken as its image on the cube, which is
    # not checked again: on a box wider than the cube the map shrinks the
    # gaps, here 5e-12 on [-10, 10] to 5e-13, below the 1e-12 the set passed
    checks = mock.Mock(wraps=has_duplicates)
    monkeypatch.setattr(norming, "has_duplicates", checks)
    near = PointSet([[-10.0], [0.0], [5e-12], [10.0]], ([-10.0], [10.0]))
    inside = PointSet([[-0.9], [-0.1], [0.3], [0.8]], ([-1.0], [0.9]))
    assert checks.call_count == 2
    rep = norming_constant(P1, near, budget=2001)
    assert rep.norming and rep.value == pytest.approx(1.0, rel=1e-12)
    assert norming_constant(P2, inside, budget=2001).norming
    lebesgue_constant(P2, PointSet(inside.points[:3], inside.box), budget=2001)
    assert checks.call_count == 3  # by the constructor of the three-point set
    report = audit(P1, near, ["cor22", "rd_span"], budget=2001)
    assert report.violations == 0
    assert checks.call_count == 3


def test_large_set_reaches_the_vertex_budget_without_an_m_by_m_array():
    # one 3,000 x 3,000 float array is 72 MB: the duplicate check runs in row
    # blocks and the rank test's SVD is thin, so neither builds one
    pts = np.linspace(-1.0, 1.0, 3000)[:, None]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex enumeration budget"):
            norming_constant(P2, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_coarse_grid_spacing_is_refined():
    # at spacing 1 the Markov factor 4 * 0.5 is not below 1; halving fixes it
    rep = norming_constant(P2, [[-1.0], [0.0], [1.0]], grid_spacing=1.0)
    assert rep.certified
    assert rep.grid_spacing < 1.0
    assert rep.lower <= 1.25 <= rep.upper


@pytest.mark.parametrize("space, pts", [
    (SpaceDescriptor.polynomial(2, 3),
     np.stack(np.meshgrid(np.linspace(-1, 1, 8), np.linspace(-1, 1, 5)), -1).reshape(-1, 2)),
], ids=["m40-l10"])
def test_vertex_budget_checked_before_enumeration(space, pts):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="vertex enumeration budget"):
        norming_constant(space, pts)
    assert time.perf_counter() - t0 < 1.0


def test_unisolvent_l25_takes_one_lebesgue_group():
    # 2^24 sign vertices would exceed the vertex budget; the Lagrange matrix
    # is one group whose value is the Lebesgue function
    space = SpaceDescriptor.trigonometric(1, 12)
    pts = np.linspace(-1.0, 1.0, 25, endpoint=False)[:, None]
    t0 = time.perf_counter()
    rep = norming_constant(space, pts)
    assert time.perf_counter() - t0 < 1.0
    assert rep.norming and rep.certified
    grid, h = uniform_grid(space.default_box())
    assert h == rep.grid_spacing
    dense = np.max(np.abs(space.evaluate_basis(grid) @ lagrange_basis(space, pts)).sum(axis=1))
    assert rep.lower == pytest.approx(dense, rel=1e-12)
    assert rep.lower <= rep.upper


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


def _cramer_closed_form(space, pts, box):
    corners = np.array(list(product(*zip(*box))))
    S = np.abs(space.evaluate_basis(corners)).max()
    l = space.dimension()
    return S**l * l * math.factorial(l) / abs(interpolation_determinant(space, pts))


def _cramer_case(space, seed, box=None):
    box = space.default_box() if box is None else box
    lo, hi = box
    pts = random_points(np.random.default_rng(seed), space.dimension(), space.n, min_sep=0.1)
    return space, lo + (hi - lo) * (pts + 1.0) / 2.0, box


CRAMER_CASES = {
    "P2-2d": _cramer_case(SpaceDescriptor.polynomial(2, 2), 1),
    "P1-3d": _cramer_case(SpaceDescriptor.polynomial(3, 1), 2),
    "P2-3d": _cramer_case(SpaceDescriptor.polynomial(3, 2), 3),
    "T1": _cramer_case(SpaceDescriptor.trigonometric(1, 1), 4),
    "T1-2d": _cramer_case(SpaceDescriptor.trigonometric(2, 1), 5),
    "fewnomial": _cramer_case(SpaceDescriptor.fewnomial_span([[0.5], [1.0], [2.5]]), 6,
                              (np.array([0.5]), np.array([2.0]))),
    "fewnomial-2d": _cramer_case(SpaceDescriptor.fewnomial_span([[0.0, 0.0], [1.5, 0.0],
                                                                 [0.5, -1.0]]), 7,
                                 (np.array([0.2, 0.5]), np.array([1.5, 3.0]))),
    "P3-inside": _cramer_case(SpaceDescriptor.polynomial(1, 3), 8,
                              (np.array([-0.5]), np.array([0.3]))),
    "P3-beyond": _cramer_case(SpaceDescriptor.polynomial(1, 3), 9,
                              (np.array([-2.0]), np.array([1.5]))),
    "P2-2d-beyond": _cramer_case(SpaceDescriptor.polynomial(2, 2), 10,
                                 (np.array([-1.5, -0.5]), np.array([1.0, 2.0]))),
}


def _check_cramer(space, pts, box, budget):
    exact = norming_constant(space, PointSet(pts, box), budget=budget).value
    bound = cramer_bound(space, PointSet(pts, box))
    assert bound >= exact * (1 - 1e-9)
    # S = max_i sup |f_i| is taken at the corners of the box, exactly; the
    # grid bracket of each basis function can only be larger
    assert bound == _cramer_closed_form(space, pts, box)
    l = space.dimension()
    sup = max(certified_supnorm(space, e, box, budget=budget).upper for e in np.eye(l))
    assert bound <= sup**l * l * math.factorial(l) / abs(interpolation_determinant(space, pts))


def test_cramer_upper_bounds_exact(rng):
    for _ in range(5):
        space = small_poly_space(rng, max_n=1, max_d=2, max_dim=3)
        pts = random_points(rng, space.dimension(), 1, min_sep=0.3)
        _check_cramer(space, pts, space.default_box(), 20001)


@pytest.mark.parametrize("case", list(CRAMER_CASES.values()), ids=list(CRAMER_CASES))
def test_cramer_bound_is_the_corner_closed_form(case):
    _check_cramer(*case, 20001)


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


def test_fekete_greedy_is_the_pivoting_of_the_markov_bound():
    # one pivot loop (spaces._greedy_pivots) serves the greedy Fekete subset and
    # the fewnomial Markov bound; the indices and |det| are pinned bit for bit
    rng = np.random.default_rng(31)
    pinned = [
        (SpaceDescriptor.polynomial(1, 4), 9, (2, 3, 5, 7, 8), 4.485237119998367e-05),
        (SpaceDescriptor.polynomial(2, 2), 10, (3, 4, 5, 6, 8, 9), 0.001694891983612037),
        (SpaceDescriptor.trigonometric(1, 2), 8, (0, 1, 3, 4, 5), 0.0975504512820253),
        (SpaceDescriptor.fewnomial_span([[0, 0], [0.5, 1], [1.5, -0.5], [-1, 2]]), 9,
         (3, 6, 7, 8), 1.908494128109125),
    ]
    for space, m, idx, det in pinned:
        pts = rng.uniform(0.1, 1.0, (m, space.n))
        with mock.patch.object(norming, "_greedy_pivots", wraps=norming._greedy_pivots) as spy:
            assert fekete_select(space, pts, mode="greedy") == (idx, det)
        assert spy.call_count == 1


def test_fekete_needs_enough_points():
    with pytest.raises(ValueError):
        fekete_select(P2, [[0.0], [1.0]])


def test_fekete_refuses_a_scan_above_the_cap_and_an_unknown_mode():
    pts = np.linspace(-1.0, 1.0, 1001)[:, None]
    assert math.comb(1001, 2) > norming.FEKETE_CAP  # P1 pairs of 1,001 points
    with pytest.raises(ValueError, match="above the configured cap"):
        fekete_select(P1, pts)
    with pytest.raises(ValueError, match="mode must be 'exhaustive' or 'greedy'"):
        fekete_select(P1, pts[::500], mode="bogus")


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


def test_sandwich_reads_the_sets_box():
    # on [0, 0.5] N({0, 0.2, 0.5}) is 1.45, where the cube gives 51
    z = PointSet([[0.0], [0.2], [0.5]], box=([0.0], [0.5]))
    rep = sandwich_check(P2, z)
    assert rep.ok and rep.n_full == norming_constant(P2, z).value
    assert rep.n_full == pytest.approx(1.45, rel=1e-9)
    # a fewnomial span has no cube; its Fekete subset keeps the set's box
    few = SpaceDescriptor.fewnomial_span([[0.0], [0.5], [1.5]])
    z = PointSet([[0.3], [0.8], [1.4], [1.9]], box=([0.2], [2.0]))
    rep = sandwich_check(few, z, budget=20001)
    assert rep.ok and rep.n_full == norming_constant(few, z, budget=20001).value


def test_sandwich_takes_the_fekete_subset_of_the_sets_image():
    # five points 0.01 wide: on the box itself the Lagrange system of P3 is
    # near-singular (its residual was 5.08e-07), on the cube image it is not
    z = PointSet(5.0 + 0.01 * np.array([[0.0], [0.2], [0.45], [0.7], [1.0]]), ([5.0], [5.01]))
    rep = sandwich_check(SpaceDescriptor.polynomial(1, 3), z)
    assert rep.ok and rep.fekete_indices == (0, 1, 3, 4)
    assert rep.n_full == norming_constant(SpaceDescriptor.polynomial(1, 3), z).value
    assert rep.n_full == pytest.approx(1.4818, abs=1e-4)


@pytest.mark.parametrize("full, sub, ok", [
    # the Fekete value lies below N(Z), but the brackets overlap
    ((1.0, 1.3), (0.95, 1.05), (True, True)),
    ((1.0, 1.3), (0.9, 0.95), (False, True)),
    # l = 3: the Fekete value lies above 3 N(Z), but the brackets overlap
    ((1.0, 1.1), (3.2, 3.4), (True, True)),
    ((1.0, 1.05), (3.2, 3.4), (True, False)),
], ids=["lower-overlap", "lower-proven", "upper-overlap", "upper-proven"])
def test_sandwich_fails_only_where_the_brackets_prove_it(full, sub, ok, monkeypatch):
    z = [[-1.0], [-0.1], [0.5], [1.0]]
    reports = {4: bracketed(*full), 3: bracketed(*sub)}
    monkeypatch.setattr(norming, "norming_constant", lambda space, pts, **_: reports[len(pts)])
    rep = sandwich_check(P2, z)
    assert (rep.n_full, rep.n_fekete) == (full[0], sub[0])
    assert rep.lower_ok is ok[0] and rep.upper_ok is ok[1]


def test_fewnomial_on_a_box_with_a_flat_axis():
    # On y = 0.7 the span {1, x^0.5 y, x^1.5 y^-0.5} is {1, x^0.5, x^1.5} with
    # rescaled coefficients, so the grid maxima match the 1-D ones.
    flat = SpaceDescriptor.fewnomial_span([[0.0, 0.0], [0.5, 1.0], [1.5, -0.5]])
    line = SpaceDescriptor.fewnomial_span([[0.0], [0.5], [1.5]])
    box = (np.array([0.3, 0.7]), np.array([1.8, 0.7]))
    box1 = (np.array([0.3]), np.array([1.8]))
    coeff = np.array([1.0, -0.5, 0.3])
    sup = certified_supnorm(flat, coeff, box, grid_spacing=1e-3)
    ref = certified_supnorm(line, coeff * [1.0, 0.7, 0.7 ** -0.5], box1, grid_spacing=1e-3)
    assert sup.lower == pytest.approx(ref.lower, rel=1e-12)
    assert sup.argmax[0] == ref.argmax[0] and sup.argmax[1] == 0.7
    assert sup.lower <= sup.upper
    xs = [0.3, 0.9, 1.4, 1.8]
    rep = norming_constant(flat, PointSet([[x, 0.7] for x in xs], box=box), grid_spacing=1e-3)
    ref = norming_constant(line, PointSet([[x] for x in xs], box=box1), grid_spacing=1e-3)
    assert rep.norming and rep.value == pytest.approx(ref.value, rel=1e-9)
    assert rep.lower <= rep.upper
    # on a point V' is the constants: the bracket holds |f(p)| = 2, padded by
    # the rounding of T W, and one point norms it
    one = SpaceDescriptor.fewnomial_span([[0.0]])
    point = (np.array([1.0]), np.array([1.0]))
    sup = certified_supnorm(one, [2.0], point)
    assert sup.lower <= 2.0 <= sup.upper <= sup.lower + 64 * np.finfo(float).eps
    assert norming_constant(one, PointSet([[1.0]], box=point)).value == 1.0


# ---------------------------------------------------------------------------
# grid plans


@pytest.mark.parametrize("box", [None, (np.array([-0.4]), np.array([0.7])),
                                 (np.array([-1.5]), np.array([0.5]))],
                         ids=["cube", "inside", "beyond"])
def test_sets_in_one_space_share_one_plan(box):
    # a polynomial set on a box is taken as its image on the cube, so the
    # cube's cached plan serves every set, on the cube or on a box
    space = SpaceDescriptor.polynomial(1, 4)
    rng = np.random.default_rng(15)
    lo, hi = (-1.0, 1.0) if box is None else (box[0][0], box[1][0])
    sets = [random_points(rng, space.dimension() + extra, 1, lo, hi, min_sep=0.1)
            for extra in (0, 2)]
    norming._grid_plan.cache_clear()
    shared = [norming_constant(space, PointSet(pts, box), budget=20001).to_json()
              for pts in sets]
    info = norming._grid_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    for pts, rep in zip(sets, shared):
        norming._grid_plan.cache_clear()
        assert norming_constant(space, PointSet(pts, box), budget=20001).to_json() == rep


def test_threads_sharing_one_plan_get_the_serial_reports():
    # a plan's tables are built on first use; threads racing to build them
    # must each see complete tables
    space = SpaceDescriptor.polynomial(2, 2)
    rng = np.random.default_rng(16)
    sets = [random_points(rng, space.dimension() + k % 3, 2, min_sep=0.1) for k in range(6)]
    serial = [norming_constant(space, pts, budget=10000).to_json() for pts in sets]
    norming._grid_plan.cache_clear()
    got = [None] * len(sets)

    def run(k):
        got[k] = norming_constant(space, sets[k], budget=10000).to_json()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(sets))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial


@pytest.mark.parametrize("spacing, budgets", [(None, (None, norming.DEFAULT_GRID_BUDGET)),
                                              (1e-3, (None, 2001))], ids=["default", "spacing"])
def test_plans_ignore_a_budget_they_do_not_use(spacing, budgets):
    # no budget is the default one, and a given spacing makes the budget moot
    space = SpaceDescriptor.polynomial(1, 3)
    coeff = np.array([0.5, -1.0, 0.25, 2.0])
    norming._grid_plan.cache_clear()
    runs = [certified_supnorm(space, coeff, grid_spacing=spacing, budget=b) for b in budgets]
    assert norming._grid_plan.cache_info().misses == 1
    a, b = ((r.lower, r.upper, r.grid_spacing, tuple(r.argmax)) for r in runs)
    assert a == b


def test_plans_are_keyed_by_space_box_spacing_and_budget():
    P4, cube = SpaceDescriptor.polynomial(1, 4), (np.array([-1.0]), np.array([1.0]))
    few_box = (np.array([0.2]), np.array([2.0]))
    keys = [(P4, cube, None, 2001), (P4, (np.array([-0.5]), np.array([1.0])), None, 2001),
            (P4, cube, 1e-3, None), (P4, cube, None, 4001),
            (SpaceDescriptor.polynomial(1, 3), cube, None, 2001),
            (SpaceDescriptor.fewnomial_span([[0.0], [0.5], [1.5]]), few_box, None, 2001),
            (SpaceDescriptor.fewnomial_span([[0.0], [0.5], [2.5]]), few_box, None, 2001)]
    norming._grid_plan.cache_clear()
    plans = [grid_plan(*key) for key in keys]
    assert len({id(plan) for plan in plans}) == len(keys)
    assert all(grid_plan(*key) is plan for key, plan in zip(keys, plans))
    info = norming._grid_plan.cache_info()
    assert (info.misses, info.hits) == (len(keys), len(keys))


def test_plan_arrays_are_read_only():
    space = SpaceDescriptor.polynomial(2, 2)
    plan = grid_plan(space, space.default_box(), None, 40000)
    few = SpaceDescriptor.fewnomial_span([[0.0], [0.5], [1.5]])
    assert [size for size, _, _ in plan.tree] == [80, 20, 5]  # 200 points per axis
    arrays = [*(rows for _, rows, _ in plan.tree),
              grid_plan(few, (np.array([0.2]), np.array([2.0])), None, 2001).lipschitz,
              _half_signs(4), _monomial_exponents(2, 3), _trig_tuples(2, 1)]
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0


@pytest.mark.parametrize("box, spacing, budget", [
    ((np.array([-1.0]), np.array([1.0])), None, None),
    ((np.array([-0.7331]), np.array([0.91234])), 1e-3, None),
    ((np.array([-1.0, 0.3]), np.array([0.4, 0.9])), None, 40000),
    ((np.array([-0.9, -0.13, 0.2]), np.array([0.77, 1.0, 0.9])), 0.031, None),
], ids=["cube", "spacing", "2d", "3d"])
def test_plan_points_are_linspace_bit_for_bit(box, spacing, budget):
    space = SpaceDescriptor.polynomial(len(box[0]), 1)
    plan = grid_plan(space, box, spacing, budget)
    refs = []
    for j, (lo, hi, m, _) in enumerate(plan.axes):
        ref = np.linspace(box[0][j], box[1][j], m)
        along = np.arange(m) * math.prod(plan.shape[j + 1:])  # every other index 0
        got = _grid_points(plan.axes, along)
        assert got[:, j].tobytes() == ref.tobytes() and got[-1, j] == box[1][j]
        refs.append(ref)
    # P1's basis is (1, x_1, ..., x_n), so column 1 + j of a level's rows is
    # coordinate j of its block centres: the grid point halfway from a
    # block's first index to its neighbour's (to the last index for the last
    # block), and r the largest distance from a centre to those two points
    assert len(plan.tree) > 1
    for size, rows, r in plan.tree:
        first = [np.arange(0, ref.size, size) for ref in refs]
        end = [np.minimum(f + size, ref.size - 1) for f, ref in zip(first, refs)]
        centre = [(f + e) // 2 for f, e in zip(first, end)]
        lattice = rows.reshape([c.size for c in centre] + [-1])
        for j, (ref, c) in enumerate(zip(refs, centre)):
            coord = np.moveaxis(lattice[..., 1 + j], j, -1)
            assert coord.tobytes() == np.broadcast_to(ref[c], coord.shape).tobytes()
        assert r == max(max(float(np.max(ref[c] - ref[f])), float(np.max(ref[e] - ref[c])))
                        for ref, f, c, e in zip(refs, first, centre, end))


def test_one_column_reads_the_root_table_with_no_gather(monkeypatch):
    space = SpaceDescriptor.polynomial(1, 3)
    box = (np.array([-0.3125]), np.array([0.6875]))
    norming._grid_plan.cache_clear()
    grid_max = mock.Mock(wraps=norming._grid_max)
    lattice_pass = mock.Mock(wraps=norming._lattice_pass)
    monkeypatch.setattr(norming, "_grid_max", grid_max)
    monkeypatch.setattr(norming, "_lattice_pass", lattice_pass)
    for b in (box, None):
        certified_supnorm(space, [0.5, -1.0, 2.0, 0.25], b, budget=20001)
    # the box in its frame and the cube: one pass each on the cube's cached
    # plan, on its root table itself
    plans = [call.args[1] for call in grid_max.call_args_list]
    assert plans == [grid_plan(space, space.default_box(), None, 20001)] * 2
    assert norming._grid_plan.cache_info().misses == 1
    assert lattice_pass.call_count == 2
    assert all(call.args[0] is plans[0].tree[-1][1] for call in lattice_pass.call_args_list)


def test_vertex_matrices_share_the_tree_of_one_plan():
    space = SpaceDescriptor.polynomial(1, 4)
    rng = np.random.default_rng(17)
    sets = [random_points(rng, space.dimension() + 2, 1, min_sep=0.1) for _ in range(2)]
    norming._grid_plan.cache_clear()
    norming_constant(space, sets[0], budget=20001)
    plan = grid_plan(space, space.default_box(), None, 20001)
    tree = plan.__dict__["tree"]
    assert len(tree) > 1
    norming_constant(space, sets[1], budget=20001)
    assert grid_plan(space, space.default_box(), None, 20001) is plan
    assert plan.tree is tree


def test_norming_constant_on_a_box_builds_no_shift_onto_the_cube(monkeypatch):
    # a set on a polynomial box is handed over as its image on the cube, so
    # its frame never builds T, the shift onto the cube; the one shift is the
    # lift of the witness back onto the box, u = (x - c) / r
    space = SpaceDescriptor.polynomial(1, 3)
    zs = PointSet([[0.2], [0.6], [1.1], [1.5], [1.7]], (np.array([0.2]), np.array([1.7])))
    shift = mock.Mock(wraps=norming._shift)
    monkeypatch.setattr(norming, "_shift", shift)
    rep = norming_constant(space, zs, budget=2001)
    c, r = np.array([0.95]), np.array([0.75])
    assert rep.norming and shift.call_count == 1
    _, at, scale = shift.call_args.args
    assert np.array_equal(at, -c / r) and np.array_equal(scale, 1.0 / r)


@pytest.mark.parametrize("n, d, sizes, budget, draws", [(1, 3, (5, 6), 2001, 12),
                                                        (2, 2, (8,), 20001, 3)],
                         ids=["1d-P3", "2d-P2"])
def test_clustered_sets_match_their_image_on_the_cube(n, d, sizes, budget, draws):
    # N_V(Z) does not change when Z and its box are mapped affinely onto the
    # cube, and the two grids are images of each other. On a box 0.02 to 0.04
    # wide, the scale of the monomials alone once made every vertex subset
    # look singular.
    space = SpaceDescriptor.polynomial(n, d)
    rng = np.random.default_rng(18)
    for _ in range(draws):
        w = rng.uniform(0.02, 0.04)
        lo = rng.uniform(-1, 1 - w, size=n)
        pts = lo + w * rng.uniform(size=(int(rng.choice(sizes)), n))
        rep = norming_constant(space, PointSet(pts, (lo, lo + w)), budget=budget)
        cube = norming_constant(space, (pts - lo) / w * 2 - 1, budget=budget)
        assert rep.norming and rep.certified and cube.certified
        assert rep.lower <= cube.upper and cube.lower <= rep.upper
        assert rep.lower == pytest.approx(cube.lower, rel=1e-9)
        # the witness is in the canonical basis: feasible on Z, the LP value at its point
        f = rep.witness_coefficients
        assert np.max(np.abs(space.evaluate_basis(pts) @ f)) <= 1.0 + 1e-6
        assert abs(space.evaluate_basis(rep.witness_point) @ f) == pytest.approx(rep.lower, rel=1e-6)


@pytest.mark.parametrize("box", [((-0.4, -0.9), (0.7, 0.2)), ((-1.5, 0.2), (0.5, 0.6)),
                                 ((4.99, -3.01), (5.01, -2.99))],
                         ids=["inside", "beyond", "narrow"])
def test_boxed_set_reads_the_bracket_of_its_image_on_the_cube(box):
    # a polynomial set on a box is its image u = (z - c) / r on the cube: the
    # same bracket under a budget, and the witness mapped back to the box
    space = SpaceDescriptor.polynomial(2, 2)
    lo, hi = (np.array(b) for b in box)
    c, r = (lo + hi) / 2, (hi - lo) / 2
    u = random_points(np.random.default_rng(24), space.dimension() + 2, 2, min_sep=0.1)
    pts = c + r * u
    rep = norming_constant(space, PointSet(pts, (lo, hi)), budget=1600)
    image = norming_constant(space, (pts - c) / r, budget=1600)
    assert (rep.lower, rep.upper, rep.certified) == (image.lower, image.upper, image.certified)
    assert np.array_equal(rep.witness_point, c + r * image.witness_point)
    f = rep.witness_coefficients
    assert abs(space.evaluate_basis(rep.witness_point) @ f) == pytest.approx(rep.lower, rel=1e-6)
    assert np.max(np.abs(space.evaluate_basis(pts) @ f)) <= 1.0 + 1e-6
    assert lebesgue_constant(space, PointSet(pts[:6], (lo, hi)), budget=1600) == \
        lebesgue_constant(space, (pts[:6] - c) / r, budget=1600)


def test_higher_degree_set_inside_the_cube_gets_a_tight_bracket():
    # P8 with 10 points in [-0.3, 0.3] at h = 1e-4: the cube's sup of the
    # vertices dwarfs their sup on the box, and a pad that scales with it
    # once kept every column and grid point, for a bracket 198 times wide
    space = SpaceDescriptor.polynomial(1, 8)
    pts = np.sort(np.random.default_rng(25).uniform(-0.3, 0.3, 10))[:, None]
    rep = norming_constant(space, PointSet(pts, ([-0.3], [0.3])), grid_spacing=1e-4)
    assert rep.norming and rep.certified
    assert rep.lower <= rep.upper <= 1.02 * rep.lower
    B = space.evaluate_basis(pts)
    assert norming_lp_value(B, space.evaluate_basis(rep.witness_point)) == pytest.approx(
        rep.lower, rel=1e-8)
