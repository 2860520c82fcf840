"""The coarse-to-fine grid maximiser against a dense oracle, and the witness
that ``norming_constant`` reports."""
import functools
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_plan, random_points, uniform_grid
from norming_lab import (IDENTITY, PointSet, SpaceDescriptor, certified_supnorm,
                         lebesgue_constant, norming_constant)
from norming_lab import norming
from norming_lab.norming import (_cell_indices, _cells, _certified_max, _coarse_prune,
                                 _cube_bracket, _every, _feasible_vertices, _grid_axes,
                                 _grid_max, _grid_plan, _grid_points, _half_signs,
                                 _with_slopes)
from norming_lab.simplex import norming_lp_value
from norming_lab.spaces import markov_constant, power_modulus

FEW = SpaceDescriptor.fewnomial_span([[0.0], [0.5], [1.5], [2.5]])
FEW_BOX = (np.array([0.2]), np.array([2.0]))
FEW2 = SpaceDescriptor.fewnomial_span([[0.0, 0.0], [0.5, 1.0], [1.5, -0.5], [2.0, 2.5]])
FEW2_BOX = (np.array([0.3, 0.5]), np.array([1.8, 2.0]))
_B = lambda lo, hi: (np.array(lo, dtype=float), np.array(hi, dtype=float))


def _dense_on(space, W, axes):
    """(value, point, column) of one dense pass over the tensor grid of
    ``axes`` (lo, hi, m, step), in row blocks: each row keeps its maximum and
    first maximising group. Group k of W, of shape (l, K, g), takes the value
    sum_j |phi @ W[:, k, j]|."""
    grid = _grid_points(axes, np.arange(np.prod([ax[2] for ax in axes])))
    l, K, g = W.shape
    rowmax, rowcol = [], []
    for start in range(0, len(grid), 4096):
        vals = np.abs(space.evaluate_basis(grid[start:start + 4096]) @ W.reshape(l, K * g))
        vals = vals.reshape(-1, K, g).sum(axis=2)
        rowmax.append(vals.max(axis=1))
        rowcol.append(np.argmax(vals, axis=1))
    gi = int(np.argmax(np.concatenate(rowmax)))
    return float(np.concatenate(rowmax)[gi]), grid[gi], int(np.concatenate(rowcol)[gi])


def _dense(space, W, box, spacing, budget):
    axes, h = _grid_axes(box, spacing, budget)
    return (*_dense_on(space, W, axes), h)


def _instance(rng, space, box, extra):
    lo, hi = box
    m = space.dimension() + extra
    pts = lo + (hi - lo) * (random_points(rng, m, space.n, min_sep=0.1) + 1.0) / 2.0
    W = _feasible_vertices(space.evaluate_basis(pts)).T
    assert W.shape[1] > 0
    return W[:, :, None]


def _handed(space, W, box, spacing, budget):
    """The bracket of ``_certified_max`` on ``box``, and the (plan, rule) it
    hands ``_grid_max`` for that box (its last call: a sub-box bracket
    brackets the cube first)."""
    with mock.patch.object(norming, "_grid_max", wraps=norming._grid_max) as spy:
        bracket, column = _certified_max(space, W, box, spacing, budget)
    _, plan, rule = spy.call_args.args
    return bracket, column, plan, rule


# (space, box or None for the cube, grid_spacing, budget, pruned?)
CASES = {
    "poly-1d": (SpaceDescriptor.polynomial(1, 5), None, None, 20001, True),
    "poly-2d": (SpaceDescriptor.polynomial(2, 2), None, None, 40000, True),
    "poly-3d": (SpaceDescriptor.polynomial(3, 1), None, None, 64000, True),
    "trig-1d": (SpaceDescriptor.trigonometric(1, 2), None, None, 20001, True),
    "spacing": (SpaceDescriptor.polynomial(2, 2), None, 0.01, None, True),
    "fewnomial": (FEW, FEW_BOX, None, 20001, True),
    "fewnomial-2d": (FEW2, FEW2_BOX, None, 40000, True),
    # the grid step needs the identity modulus's Markov constant only
    "power-modulus": (SpaceDescriptor.polynomial(1, 3, power_modulus(0.5)), None, None,
                      20001, True),
    "sub-box": (SpaceDescriptor.polynomial(2, 2),
                (np.array([-0.5, -1.0]), np.array([0.75, 0.2])), None, 40000, True),
    # the cube sup dwarfs the box sup: a first-order pad of M * sup_cube kept
    # every column and cell here, the box's own slopes drop them
    "sub-box-1d": (SpaceDescriptor.polynomial(1, 5),
                   (np.array([-0.3]), np.array([0.45])), 1e-4, None, True),
    # a polynomial box that leaves the cube takes its own Markov constant
    "beyond-cube": (SpaceDescriptor.polynomial(1, 5),
                    (np.array([-1.2]), np.array([0.3])), 1e-4, None, True),
    # Bernstein's inequality holds on all of R: a trigonometric box crossing
    # the cube's edge takes the additive rule, one covering it the
    # multiplicative rule
    "trig-edge": (SpaceDescriptor.trigonometric(1, 2),
                  (np.array([-1.4]), np.array([0.3])), None, 20001, True),
    "trig-period": (SpaceDescriptor.trigonometric(1, 3),
                    (np.array([-1.5]), np.array([1.5])), None, 20001, True),
    # 1-D grids below 182 points have a coarse stride of 1
    "s-is-one": (SpaceDescriptor.polynomial(1, 4), None, None, 150, False),
    "flat-axis": (SpaceDescriptor.polynomial(2, 2),
                  (np.array([-1.0, 0.3]), np.array([1.0, 0.3])), 1e-3, None, True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_max_matches_dense_oracle(name):
    space, box, spacing, budget, pruned = CASES[name]
    box = space.default_box() if box is None else box
    rng = np.random.default_rng(sorted(CASES).index(name))
    # on a box longer than the period, periodic copies of the maximiser tie
    periodic = space.kind == "trigonometric" and np.any(box[1] - box[0] > 2.0)
    for extra in range(3):
        # an instance needs its points inside the cube and off a flat axis
        inst_box = box if name.startswith(("sub-box", "fewnomial")) else space.default_box()
        W = _instance(rng, space, inst_box, extra)
        axes, h = _grid_axes(box, spacing, budget)
        _, _, plan, rule = _handed(space, W, box, spacing, budget)
        assert plan.axes == axes
        assert (plan.borrow is not None) == (name in ("sub-box", "sub-box-1d", "flat-axis"))
        if plan.borrow is None:
            assert plan is grid_plan(space, box, spacing, budget)
        else:
            # strictly inside the cube: the cube's cached plan lends its lattice
            assert plan.borrow[0] is grid_plan(space, space.default_box(), plan.spacing, budget)
        # pruned: the coarse lattice is evaluated; otherwise every column and
        # every cell is kept
        with mock.patch.object(norming, "_colmax", wraps=norming._colmax) as colmax:
            cols, keep = _coarse_prune(W, plan, rule)
        assert colmax.called == pruned
        assert pruned or (cols.size == W.shape[1] and keep is None)
        if name == "sub-box-1d":
            assert cols.size < W.shape[1] and keep is not None and keep.size < np.prod(plan.shape)
        value, point, col = _grid_max(W, plan, rule)
        ref_value, ref_point, ref_col, ref_h = _dense(space, W, box, spacing, budget)
        assert value == pytest.approx(ref_value, rel=1e-12)
        if periodic:
            attained = np.abs(space.evaluate_basis(point) @ W[:, col]).sum()
            assert attained == pytest.approx(value, rel=1e-12)
        else:
            assert np.array_equal(point, ref_point)
            assert col == ref_col
        assert h == ref_h


def _keeps_everything(space, W, plan, rule):
    """True when ``_coarse_prune`` keeps every column and every grid cell."""
    cols, keep = _coarse_prune(W, plan, rule)
    return cols.size == W.shape[1] and keep is None


# Real vertex matrices with hundreds of columns: (space, box or None for the
# cube, m, budget, column levels that must run, seed). A level runs where
# H * r^2 / 2 < 1: in 2-D P2 (H = 16) at 40,000 points the coarsest level has
# r = 0.40 and only the finer one runs; at the default 200,001 points both
# run, with r = 0.25 and 0.063.
WIDE = {
    "P6-1d-m10": (SpaceDescriptor.polynomial(1, 6), None, 10, 20001, 2, 1),
    "P2-2d-m10": (SpaceDescriptor.polynomial(2, 2), None, 10, 40000, 1, 0),
    "P2-2d-m10-default": (SpaceDescriptor.polynomial(2, 2), None, 10, None, 2, 4),
    "T2-1d-m9": (SpaceDescriptor.trigonometric(1, 2), None, 9, 20001, 2, 2),
    "fewnomial-m6": (FEW, FEW_BOX, 6, 20001, 2, 3),
}


@pytest.mark.parametrize("name", sorted(WIDE))
def test_grid_max_matches_dense_oracle_on_wide_vertex_matrices(name, monkeypatch):
    space, box, m, budget, levels, seed = WIDE[name]
    box = space.default_box() if box is None else box
    W = _instance(np.random.default_rng(seed), space, box, m - space.dimension())
    assert W.shape[1] > 20
    _, _, plan, rule = _handed(space, W, box, None, budget)
    # one blocked column maximum per level that runs, and one on the whole
    # coarse lattice
    colmax = mock.Mock(wraps=norming._colmax)
    monkeypatch.setattr(norming, "_colmax", colmax)
    cols, _ = _coarse_prune(W, plan, rule)
    assert colmax.call_count - 1 >= levels
    assert cols.size < W.shape[1]
    value, point, col = _grid_max(W, plan, rule)
    ref_value, ref_point, ref_col = _dense_on(space, W, plan.axes)
    assert np.array_equal(point, ref_point)
    assert col == ref_col
    assert value == pytest.approx(ref_value, rel=1e-12)


def _all_rows_vertices(B):
    """Reference enumeration: every candidate of every nonsingular l-subset,
    solved per sign vector, checked against all m rows of B."""
    m, l = B.shape
    signs = _half_signs(l)
    sub = B[np.asarray(list(combinations(range(m), l)))]
    scale = np.max(np.abs(sub), axis=(1, 2))
    ok = np.abs(np.linalg.det(sub)) > 1e-12 * np.maximum(scale, 1.0) ** l
    if not np.any(ok):
        return np.empty((0, l))
    rhs = np.broadcast_to(signs.T, (int(ok.sum()), l, signs.shape[0]))
    verts = np.swapaxes(np.linalg.solve(sub[ok], rhs), 1, 2).reshape(-1, l)
    return verts[np.max(np.abs(verts @ B.T), axis=1) <= 1.0 + 1e-9]


@pytest.mark.parametrize("l", [1, 2, 3, 5])
def test_feasible_vertices_match_the_all_rows_enumeration(l):
    rng = np.random.default_rng(30 + l)
    for m in range(l, l + 5):  # m = l: every candidate is a vertex
        B = rng.normal(size=(m, l))
        got, ref = _feasible_vertices(B), _all_rows_vertices(B)
        assert got.shape == ref.shape and got.shape[0] >= (2 ** (l - 1) if m == l else 1)
        assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max()


def test_feasible_vertices_keep_a_vertex_that_every_subset_gives():
    # |B e_0| = 1 on every row of a Vandermonde matrix: the constant function
    # is tight everywhere, so each of the C(m, l) subsets yields e_0
    m, l = 7, 4
    B = np.vander(np.linspace(-1.0, 1.0, m), l, increasing=True)
    got, ref = _feasible_vertices(B), _all_rows_vertices(B)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    copies = np.all(np.abs(got - np.eye(l)[0]) <= 1e-12, axis=1)
    assert copies.sum() == math.comb(m, l)


# (space, box or None for the cube): H bounds sum_ij sup |d_i d_j p| / sup |p|
# over the box. Seeded members, and in 1-D, where one exists, a member that
# attains the bound: T_2 mapped onto the box (Markov's inequality twice is
# exact for d = 2), and cos(d pi x) (Bernstein's inequality is exact for it).
SECOND = {
    "P2": (SpaceDescriptor.polynomial(1, 2), None),
    "P5": (SpaceDescriptor.polynomial(1, 5), None),
    "P2-beyond": (SpaceDescriptor.polynomial(1, 2), _B([-1.4], [0.3])),
    "P4-beyond": (SpaceDescriptor.polynomial(1, 4), _B([-1.3], [0.6])),
    "P3-2d": (SpaceDescriptor.polynomial(2, 3), None),
    "P2-2d-beyond": (SpaceDescriptor.polynomial(2, 2), _B([-1.4, -0.5], [0.3, 1.2])),
    "P2-3d": (SpaceDescriptor.polynomial(3, 2), None),
    "T2": (SpaceDescriptor.trigonometric(1, 2), None),
    "T1-2d": (SpaceDescriptor.trigonometric(2, 1), None),
    "T1-3d": (SpaceDescriptor.trigonometric(3, 1), None),
}


@pytest.mark.parametrize("name", sorted(SECOND))
def test_second_derivatives_are_bounded_by_H(name):
    space, box = SECOND[name]
    box = space.default_box() if box is None else box
    H = grid_plan(space, box, None, 2001).H
    grid, _ = uniform_grid(box, budget={1: 4001, 2: 40401, 3: 29791}[space.n])
    Phi, P, l = space.evaluate_basis(grid), space.basis_derivatives(), space.dimension()
    members = list(np.random.default_rng(40).normal(size=(8, l)))
    if space.n == 1 and space.kind == "trigonometric":
        members.append(np.eye(l)[2 * space.degree - 1])  # cos(d pi x)
    elif space.n == 1 and space.degree == 2:
        cheb = np.polynomial.Chebyshev.basis(2, domain=[box[0][0], box[1][0]])
        members.append(cheb.convert(kind=np.polynomial.Polynomial).coef)
    tight = 0.0
    for w in members:
        second = sum(np.abs(Phi @ (P[i] @ P[j] @ w)) for i in range(space.n)
                     for j in range(space.n))
        ratio = second.max() / np.abs(Phi @ w).max()
        assert ratio <= H * (1 + 1e-12)
        tight = max(tight, ratio)
    if len(members) > 8:
        assert tight == pytest.approx(H, rel=1e-9)


def test_one_column_runs_no_level(monkeypatch):
    space = SpaceDescriptor.polynomial(1, 6)
    plan = grid_plan(space, space.default_box(), None, 20001)
    W = np.random.default_rng(11).normal(size=(space.dimension(), 1))[:, :, None]
    colmax = mock.Mock(wraps=norming._colmax)
    monkeypatch.setattr(norming, "_colmax", colmax)
    assert _coarse_prune(W, plan, (plan.H, None)) is not None
    assert colmax.call_count == 1


# (space, box, multiplicative?, M, H): the Markov or Bernstein constant M
# and the second-derivative constant H of the rule, the box's own for a
# polynomial box that leaves the cube and the cube's otherwise. On a segment
# of width w Markov's inequality gives |p'| <= 2 d^2 / w * sup |p| and
# |p''| <= 2 (d - 1)^2 / w * sup |p'|; Bernstein's gives pi * d per derivative.
RULES = {
    "cube": (SpaceDescriptor.polynomial(1, 5), (-1.0, 1.0), True, 25.0, 25.0 * 16.0),
    "poly-beyond": (SpaceDescriptor.polynomial(1, 5), (-1.2, 0.3), True, 50.0 / 1.5,
                    (50.0 / 1.5) * (32.0 / 1.5)),
    "poly-covering": (SpaceDescriptor.polynomial(1, 5), (-1.5, 1.5), True, 50.0 / 3.0,
                      (50.0 / 3.0) * (32.0 / 3.0)),
    "poly-inside": (SpaceDescriptor.polynomial(1, 5), (-0.3, 0.45), False, 25.0, 25.0 * 16.0),
    "trig-edge": (SpaceDescriptor.trigonometric(1, 2), (-1.4, 0.3), False, 2 * np.pi,
                  (2 * np.pi) ** 2),
    "trig-covering": (SpaceDescriptor.trigonometric(1, 3), (-1.5, 1.5), True, 3 * np.pi,
                      (3 * np.pi) ** 2),
    "trig-inside": (SpaceDescriptor.trigonometric(1, 2), (-0.6, 0.4), False, 2 * np.pi,
                    (2 * np.pi) ** 2),
}


@pytest.mark.parametrize("name", sorted(RULES))
def test_every_box_gets_a_rule(name):
    space, (lo, hi), multiplicative, M, H = RULES[name]
    box = (np.array([lo]), np.array([hi]))
    W = np.random.default_rng(12).normal(size=(space.dimension(), 3))[:, :, None]
    bracket, _, plan, (h, S) = _handed(space, W, box, None, 2001)
    assert bracket.certified
    # a box strictly inside the cube borrows the cube plan's lattice
    assert (plan.borrow is not None) == (name in ("poly-inside", "trig-inside"))
    assert h == pytest.approx(H, rel=1e-15) and plan.markov.value == pytest.approx(M, rel=1e-15)
    if multiplicative:
        assert S is None
        assert markov_constant(space, box=box).value == pytest.approx(M, rel=1e-15)
    else:
        cube = _certified_max(space, W, space.default_box(), None, 2001)[0]
        assert S == cube.upper


def test_off_cube_polynomial_bracket_holds_the_sup():
    # T_20(x) * (x + 1.3) peaks on [-1.3, -1], outside the cube, where
    # the cube's Markov inequality does not apply: the bracket must use
    # the box's own constant 2 * 21^2 / 1.3
    space = SpaceDescriptor.polynomial(1, 21)
    t20 = np.polynomial.chebyshev.cheb2poly([0.0] * 20 + [1.0])
    coeff = np.polynomial.polynomial.polymul(t20, [1.3, 1.0])
    x = np.linspace(-1.3, -1.0, 300_001)
    sup = np.max(np.abs(np.polynomial.chebyshev.chebval(x, [0.0] * 20 + [1.0]) * (x + 1.3)))
    box = (np.array([-1.3]), np.array([0.0]))
    for h in np.linspace(0.5, 1.99, 25) / 21**2:
        bracket = certified_supnorm(space, coeff, box, grid_spacing=h)
        assert bracket.certified and bracket.upper >= sup


def test_flat_axis_takes_the_whole_budget():
    box = (np.array([0.3, 0.7]), np.array([1.8, 0.7]))
    space = SpaceDescriptor.polynomial(2, 2)
    plan = grid_plan(space, box, None, None)
    assert plan.shape == tuple(ax[2] for ax in _grid_axes(box)[0]) == (200_001, 1)
    # the coarse stride counts the non-flat axes only: 4,001 coarse points
    W = np.random.default_rng(13).normal(size=(space.dimension(), 1))[:, :, None]
    with mock.patch.object(norming, "_lattice_values", wraps=norming._lattice_values) as product:
        _coarse_prune(W, plan, (plan.H, None))
    assert product.call_args.args[0].shape[0] == 4001


def test_subbox_is_not_pruned_without_cube_bound():
    space, box, spacing, budget, _ = CASES["sub-box-1d"]
    W = _instance(np.random.default_rng(0), space, box, 1)
    _, _, plan, _ = _handed(space, W, box, spacing, budget)
    assert plan.borrow is not None
    # S = sup_cube, where an uncertified cube bracket has sup_cube = inf
    assert _keeps_everything(space, W, plan, (plan.H, np.nan))
    assert _keeps_everything(space, W, plan, (plan.H, np.inf))


@pytest.mark.parametrize("n", [1, 2])
def test_identity_columns_keep_every_cell(n):
    # W = I: the constant column ties with the maximum everywhere, so no cell is pruned and no index array is built
    space = SpaceDescriptor.polynomial(n, 2)
    box, budget = space.default_box(), 20001
    W = np.eye(space.dimension())[:, :, None]
    _, _, plan, rule = _handed(space, W, box, None, budget)
    cols, keep = _coarse_prune(W, plan, rule)
    assert keep is None
    value, point, col = _grid_max(W, plan, rule)
    ref_value, ref_point, ref_col, _ = _dense(space, W, box, None, budget)
    assert (value, col) == (ref_value, ref_col)
    assert np.array_equal(point, ref_point)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_cells_give_each_grid_index_to_a_nearest_lattice_point(data):
    m = data.draw(st.integers(1, 40), label="m")
    if data.draw(st.booleans(), label="own"):
        # a plan's own lattice: integer grid indices, every s-th one and the last
        i = _every(m, data.draw(st.integers(1, 12), label="s"))
        edges, near = _cells(i, m)
        assert np.array_equal(edges, np.concatenate(([0], (i[:-1] + i[1:]) // 2 + 1, [m])))
        assert not near.any()
        return
    # a borrowed window: fractional grid indices, some of them off the grid
    u = np.sort(data.draw(st.lists(st.floats(-3.0, m + 2.0), min_size=1, max_size=12),
                          label="u"))
    edges, near = _cells(u, m)
    assert edges[0] == 0 and edges[-1] == m and np.all(np.diff(edges) >= 0)
    owner = np.repeat(np.arange(u.size), np.diff(edges))
    dist = np.abs(u[:, None] - np.arange(m))
    assert np.all(dist[owner, np.arange(m)] <= dist.min(axis=0) + 1e-12)
    assert np.allclose(near, dist.min(axis=1), rtol=0, atol=1e-12)
    # a flat axis: its one grid point is one cell, at the point's distance
    edges, near = _cells(u[:1], 1)
    assert np.array_equal(edges, [0, 1]) and near[0] == abs(u[0])


def _owner_mask_indices(cell_ok, edges, shape):
    """Reference kept set: the cell of every grid index per axis, then the
    whole-grid mask of grid points whose cell is kept."""
    owner = [np.repeat(np.arange(e.size - 1), np.diff(e)) for e in edges]
    assert all(o.size == k for o, k in zip(owner, shape))
    return np.flatnonzero(cell_ok[np.ix_(*owner)])


@pytest.mark.parametrize("shape", [(1,), (2,), (101,), (37, 1), (1, 23), (40, 29),
                                   (9, 1, 14), (12, 11, 13)])
def test_cell_indices_match_owner_mask(shape):
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    for s in (1, 2, 3, 5, None):
        if s is None:
            # a borrowed lattice: cells of any size, some of them empty
            edges = [np.concatenate(([0], np.sort(rng.integers(0, k + 1, size=rng.integers(0, 6))),
                                     [k])) for k in shape]
        else:
            # an own lattice: coarse index c owns the grid indices nearest to it
            sub = [np.unique(np.append(np.arange(0, k, s), k - 1)) for k in shape]
            edges = [np.concatenate(([0], (i[:-1] + i[1:]) // 2 + 1, [k]))
                     for i, k in zip(sub, shape)]
            for e, i, k in zip(edges, sub, shape):
                nearest = np.searchsorted((i[:-1] + i[1:]) / 2.0, np.arange(k))
                assert np.array_equal(np.repeat(np.arange(i.size), np.diff(e)), nearest)
        for density in (0.0, 0.1, 0.5, 1.0):
            cell_ok = rng.random([e.size - 1 for e in edges]) < density
            cell_ok.flat[rng.integers(cell_ok.size)] = True  # the best cell is always kept
            got = _cell_indices(cell_ok, edges, shape)
            ref = _owner_mask_indices(cell_ok, edges, shape)
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("space", [SpaceDescriptor.polynomial(1, 4),
                                   SpaceDescriptor.polynomial(2, 2),
                                   SpaceDescriptor.trigonometric(1, 1)],
                         ids=["P4", "P2-2d", "T1"])
def test_norming_witness_is_feasible_and_attains_value(space):
    rng = np.random.default_rng(7)
    for extra in range(3):
        pts = random_points(rng, space.dimension() + extra, space.n, min_sep=0.1)
        rep = norming_constant(space, pts, budget=20001)
        assert rep.norming
        B = space.evaluate_basis(pts)
        a = rep.witness_coefficients
        assert np.max(np.abs(B @ a)) <= 1.0 + 1e-9
        phi = space.evaluate_basis(rep.witness_point)
        assert abs(phi @ a) == pytest.approx(rep.value, rel=1e-12)
        assert norming_lp_value(B, phi) == pytest.approx(rep.value, rel=1e-8)


# unisolvent sets: (space, {box name: box}); each set is drawn in its box
UNISOLVENT = {
    "P3": (SpaceDescriptor.polynomial(1, 3),
           {"cube": None, "inside": _B([-0.4], [0.7]), "beyond": _B([-1.3], [0.6])}),
    "P2-2d": (SpaceDescriptor.polynomial(2, 2),
              {"cube": None, "inside": _B([-0.6, -0.2], [0.5, 0.9]),
               "beyond": _B([-1.2, -1.0], [0.4, 1.3])}),
    "T2": (SpaceDescriptor.trigonometric(1, 2),
           {"cube": None, "inside": _B([-0.7], [0.2]), "beyond": _B([-1.4], [0.3])}),
    "fewnomial": (FEW,
                  {"box": FEW_BOX, "inside": _B([0.6], [1.5]), "beyond": _B([0.1], [2.6])}),
}


@pytest.mark.parametrize("name", sorted(UNISOLVENT))
def test_lebesgue_group_matches_vertex_enumeration(name):
    space, boxes = UNISOLVENT[name]
    rng = np.random.default_rng(sorted(UNISOLVENT).index(name) + 20)
    budget = 20001 if space.n == 1 else 40000
    for box in boxes.values():
        box = lo, hi = space.default_box() if box is None else box
        for _ in range(2):
            pts = lo + (hi - lo) * (random_points(rng, space.dimension(), space.n, min_sep=0.1)
                                    + 1.0) / 2.0
            B = space.evaluate_basis(pts)
            W = _feasible_vertices(B).T[:, :, None]
            with mock.patch.object(norming, "_feasible_vertices",
                                   side_effect=AssertionError("enumerated")):
                rep = norming_constant(space, PointSet(pts, box), budget=budget)
            verts, _ = _certified_max(space, W, box, None, budget)
            assert rep.norming and rep.certified == verts.certified
            assert rep.lower == pytest.approx(verts.lower, rel=1e-12)
            assert rep.upper == pytest.approx(verts.upper, rel=1e-12)
            w = rep.witness_coefficients
            assert np.max(np.abs(B @ w)) <= 1.0 + 1e-9
            attained = abs(space.evaluate_basis(rep.witness_point) @ w)
            assert attained == pytest.approx(rep.lower, rel=1e-12)


def test_grid_max_finds_a_peak_between_coarse_points():
    # Column 0 peaks midway between two coarse points, 1e-8 above column 1's
    # peak, which sits on a coarse point; at every coarse point column 0
    # stays below that peak. Only the Markov pad keeps column 0 and its cell.
    T1 = SpaceDescriptor.trigonometric(1, 1)
    box = T1.default_box()
    axes, _ = _grid_axes(box, None, 20001)
    x = uniform_grid(box, None, 20001)[0][:, 0]
    stride = 16  # round(sqrt(20001) / 9)
    x0, y0 = x[625 * stride + stride // 2], x[938 * stride]
    bump = lambda c: np.array([1.0, np.cos(np.pi * c), np.sin(np.pi * c)])
    W = np.stack([(1 + 1e-8) * bump(x0), bump(y0)], axis=1)[:, :, None]
    coarse = T1.evaluate_basis(x[::stride, None]) @ W[:, :, 0]
    assert np.max(np.abs(coarse[:, 0])) < np.max(np.abs(coarse[:, 1]))
    _, _, plan, rule = _handed(T1, W, box, None, 20001)
    assert plan.axes == axes
    assert _coarse_prune(W, plan, rule) is not None
    value, point, col = _grid_max(W, plan, rule)
    ref_value, ref_point, ref_col, _ = _dense(T1, W, box, None, 20001)
    assert (point[0], col) == (ref_point[0], ref_col) == (x0, 0)
    assert value == pytest.approx(ref_value, rel=1e-12)

    # Column 0 = A cos(pi (x - x1)) peaks 0.2 h past the edge of the cell of
    # the coarse point c = x[625 * stride], which owns the fine points up to
    # c + 8 h. Its grid maximum, A (1 - 0.02 pi^2 h^2) at c + 8 h, lies just
    # above column 1's peak of 1 on a coarse point, and its value at c + 9 h,
    # in the next cell, lies below. At c, 8.2 h from the peak, |f(c)| + q * S
    # falls short of that grid maximum by about 1.6 pi^2 h^2 (q = pi^2 r^2 / 2
    # with r = 8 h, and S the column's own bound): the slope term r * D(c)
    # keeps the cell. |cos| has period 1, so a copy of each peak lies one
    # period away in the same place relative to its cell.
    h = x[1] - x[0]
    x1 = x[625 * stride + stride // 2] + 0.2 * h
    wave = lambda c: np.array([0.0, np.cos(np.pi * c), np.sin(np.pi * c)])  # cos(pi (x - c))
    W = np.stack([(1 + 0.1 * (np.pi * h) ** 2) * wave(x1), wave(y0)], axis=1)[:, :, None]
    coarse = T1.evaluate_basis(x[::stride, None]) @ W[:, :, 0]
    assert np.max(np.abs(coarse[:, 0])) < np.max(np.abs(coarse[:, 1]))
    column0 = np.abs(T1.evaluate_basis(x[:, None]) @ W[:, 0, 0])
    assert column0[625 * stride + stride // 2 + 1] < 1.0 < column0.max()
    _, _, plan, rule = _handed(T1, W, box, None, 20001)
    value, point, col = _grid_max(W, plan, rule)
    ref_value, ref_point, ref_col, _ = _dense(T1, W, box, None, 20001)
    assert col == ref_col == 0
    assert np.array_equal(point, ref_point)
    assert value == pytest.approx(ref_value, rel=1e-12) and value == column0.max()


def test_borrowed_floor_counts_the_distance_to_the_grid():
    # On [-0.3005, 0.2] at h = 1e-4 the cube lattice point nearest the box's
    # lower end is -0.3008, 3e-4 outside the box. Column 0, 0.4 - 2x, is
    # 1.0016 there but at most 1.001 on the box's grid; column 1,
    # 1.0012 - x^2, peaks at the grid point 0 with a bound near 1.0012. A
    # floor read off the lattice value alone would drop column 1, and with
    # it the grid maximum; rho * D takes the 6e-4 back.
    space = SpaceDescriptor.polynomial(1, 2)
    box = _B([-0.3005], [0.2])
    W = np.array([[0.4, -2.0, 0.0], [1.0012, 0.0, -1.0]]).T[:, :, None]
    bracket, column, plan, _ = _handed(space, W, box, 1e-4, None)
    cube, take = plan.borrow
    c = _grid_points(cube.axes, cube.sub[0][take[0]])[:, 0]
    assert c[0] == pytest.approx(-0.3008) and plan.rho[0] == pytest.approx(3e-4)
    assert abs(space.evaluate_basis(c[:1]) @ W[:, 0, 0]) > 1.0015
    value, point, col = _dense_on(space, W, plan.axes)
    assert (bracket.lower, column) == (value, col) == (pytest.approx(1.0012), 1)
    assert np.array_equal(bracket.argmax, point) and point[0] == pytest.approx(0.0, abs=1e-12)


def test_fewnomial_grid_max_finds_a_peak_between_coarse_points():
    # As above on span{1, x, x^2}, where no Markov constant is certified:
    # column 0 peaks midway between two coarse points, column 1 on one.
    # Only the corner Lipschitz pad L_k * r keeps column 0 and its cell.
    space = SpaceDescriptor.fewnomial_span([[0.0], [1.0], [2.0]])
    box = (np.array([0.5]), np.array([1.5]))
    axes, _ = _grid_axes(box, None, 20001)
    x = uniform_grid(box, None, 20001)[0][:, 0]
    stride = 16  # round(sqrt(20001) / 9)
    x0, y0 = x[312 * stride + stride // 2], x[1000 * stride]
    bump = lambda c: np.array([1.0 - c * c, 2.0 * c, -1.0])  # 1 - (x - c)^2
    W = np.stack([(1 + 1e-8) * bump(x0), bump(y0)], axis=1)[:, :, None]
    coarse = space.evaluate_basis(x[::stride, None]) @ W[:, :, 0]
    assert np.max(np.abs(coarse[:, 0])) < np.max(np.abs(coarse[:, 1]))
    M = markov_constant(space, box=box)
    assert not M.certified
    _, _, plan, rule = _handed(space, W, box, None, 20001)
    assert plan.axes == axes
    cols, keep = _coarse_prune(W, plan, rule)
    assert list(cols) == [0, 1]
    assert keep is not None and keep.size < x.size
    value, point, col = _grid_max(W, plan, rule)
    ref_value, ref_point, ref_col, _ = _dense(space, W, box, None, 20001)
    assert (point[0], col) == (ref_point[0], ref_col) == (x0, 0)
    assert value == pytest.approx(ref_value, rel=1e-12)


def test_fewnomial_group_rule_bounds_the_group_slope():
    # Each group's second member dominates, so a rule that read the corner
    # Lipschitz bound of the first member only would fall below the slope.
    rng = np.random.default_rng(14)
    l = FEW.dimension()
    W = np.stack([1e-3 * rng.normal(size=(l, 2)), rng.normal(size=(l, 2))], axis=2)
    _, _, plan, rule = _handed(FEW, W, FEW_BOX, None, 20001)
    assert rule == (0.0, None)
    slope = _with_slopes(W, plan)[1]  # the constant D_k of each group
    x = np.linspace(FEW_BOX[0][0], FEW_BOX[1][0], 200_001)
    phi = FEW.evaluate_basis(x[:, None])
    lip = FEW.basis_lipschitz(FEW_BOX)
    for k in range(W.shape[1]):
        vals = np.abs(phi @ W[:, k]).sum(axis=1)
        steepest = np.max(np.abs(np.diff(vals)) / np.diff(x))
        assert np.abs(W[:, k, 0]) @ lip < steepest <= slope[k]


def _spy_grid_max(monkeypatch):
    """Record the (plan, rule) of every ``_grid_max`` call."""
    calls, real = [], norming._grid_max

    def spy(W, plan, rule, **values):
        calls.append((plan, rule))
        return real(W, plan, rule, **values)

    monkeypatch.setattr(norming, "_grid_max", spy)
    return calls


def _on_cube(space, plan):
    lo, hi = space.default_box()
    return all(ax[0] == a and ax[1] == b for ax, a, b in zip(plan.axes, lo, hi))


SWEEP = [(np.array([a]), np.array([b])) for a, b in ((-1.0, -0.4), (-0.2, 0.3), (0.5, 1.0))]


def _as_tuple(br):
    return (br.lower, br.upper, br.certified, br.grid_spacing, tuple(br.argmax))


def test_subinterval_sweep_makes_one_cube_pass(monkeypatch):
    space = SpaceDescriptor.polynomial(1, 5)
    coeff = np.random.default_rng(5).normal(size=space.dimension())
    _cube_bracket.cache_clear()
    _grid_plan.cache_clear()
    calls = _spy_grid_max(monkeypatch)
    certified_supnorm(space, coeff, grid_spacing=1e-4)
    with mock.patch.object(norming, "_lattice_values", wraps=norming._lattice_values) as product:
        got = [certified_supnorm(space, coeff, box, grid_spacing=1e-4) for box in SWEEP]
    assert len(calls) == 1 + len(SWEEP)
    assert sum(_on_cube(space, plan) for plan, _ in calls) == 1
    # the sub-intervals borrow the lattice of the one cached plan, the cube's
    assert all(plan.borrow[0] is calls[0][0] for plan, _ in calls[1:])
    assert _grid_plan.cache_info().currsize == 1
    # and prune on the cube pass's values of the vector there: they form no
    # product over lattice rows, and take no rows of the cube's table
    assert not product.called
    assert not any("table" in plan.__dict__ for plan, _ in calls[1:])
    for box, br in zip(SWEEP, got):
        _cube_bracket.cache_clear()
        assert _as_tuple(br) == _as_tuple(certified_supnorm(space, coeff, box,
                                                            grid_spacing=1e-4))


def test_evicted_cube_entries_give_the_brackets_of_an_empty_cache():
    # 3 x maxsize vectors: each cube call is followed by a sub-box of the same
    # vector, whose entry is cached, and by a sub-box of the vector of maxsize
    # cube calls earlier, whose entry has been evicted since
    space = SpaceDescriptor.polynomial(1, 4)
    size = _cube_bracket.cache_info().maxsize
    coeffs = np.random.default_rng(21).normal(size=(3 * size, space.dimension()))
    boxes = [_B([-0.9], [-0.2]), _B([-0.35], [0.4]), _B([0.1], [0.95])]
    calls = []
    for k, coeff in enumerate(coeffs):
        calls.append((coeff, None))
        calls.append((coeff, boxes[k % 3]))
        if k >= size:
            calls.append((coeffs[k - size], boxes[(k + 1) % 3]))
    _cube_bracket.cache_clear()
    got = [certified_supnorm(space, c, box, grid_spacing=1e-4) for c, box in calls]
    info = _cube_bracket.cache_info()
    # one miss per vector, and one more per entry that was evicted and came back
    assert info.currsize == size and info.misses == 3 * size + 2 * size
    for (c, box), br in zip(calls, got):
        _cube_bracket.cache_clear()
        assert _as_tuple(br) == _as_tuple(certified_supnorm(space, c, box, grid_spacing=1e-4))


# (space, a box strictly inside its cube, spacing, budget)
KEPT = {
    "1d": (SpaceDescriptor.polynomial(1, 5), _B([-0.3], [0.45]), 1e-4, None),
    "2d": (SpaceDescriptor.polynomial(2, 3), _B([-0.6, -0.2], [0.5, 0.9]), None, 40000),
    "3d": (SpaceDescriptor.polynomial(3, 2), _B([-0.5, -0.9, 0.1], [0.4, 0.2, 0.8]), None,
           64000),
    "trig": (SpaceDescriptor.trigonometric(1, 3), _B([-0.7], [0.2]), None, 20001),
}


@pytest.mark.parametrize("name", sorted(KEPT))
def test_cube_entry_keeps_the_values_of_the_window_product(name):
    space, box, spacing, budget = KEPT[name]
    coeff = np.random.default_rng(sorted(KEPT).index(name) + 22).normal(size=space.dimension())
    W = coeff[:, None, None]
    _cube_bracket.cache_clear()
    _, _, plan, _ = _handed(space, W, box, spacing, budget)
    cube = plan.borrow[0]
    bracket, (V, D, norms) = _cube_bracket(space, W.tobytes(),
                                           *norming._grid_key(plan.spacing, budget))
    assert _as_tuple(bracket) == _as_tuple(certified_supnorm(space, coeff, box=None,
                                                             grid_spacing=cube.spacing,
                                                             budget=budget))
    Phi = cube.table[0]
    lattice = math.prod(e.size - 1 for e in cube.edges)
    for a in (V, D):
        assert not a.flags.writeable and a.shape == (lattice,) == Phi.shape[:1]
    # V = |p| and D = sum_i |d_i p| at the lattice points
    P = space.basis_derivatives()
    assert np.allclose(V, np.abs(Phi @ coeff), rtol=1e-12, atol=1e-12)
    assert np.allclose(D, sum(np.abs(Phi @ (Pi @ coeff)) for Pi in P), rtol=1e-12, atol=1e-12)
    # on the box's window, exactly what the product of its table rows gives
    rows = plan.table[0]
    assert rows.shape[0] == plan.rho.size < lattice
    Wv, D0 = _with_slopes(W, plan)
    window = [np.hstack(a)[0] for a in zip(*norming._lattice_values(rows, Wv, 1, D0))]
    assert np.array_equal(plan.window(V), window[0])
    assert np.array_equal(plan.window(D), window[1])
    assert norms == norming._slack_norms(Wv, 1)


def test_subbox_prunes_with_the_cube_upper_bound(monkeypatch):
    # the second-order pad needs a bound on the sup over the cube: the cube
    # bracket's upper end, not its grid value
    space = SpaceDescriptor.polynomial(1, 4)
    H = 4.0**2 * 3.0**2  # the cube's n^2 d^2 (d - 1)^2
    coeff = np.random.default_rng(6).normal(size=space.dimension())
    cube = certified_supnorm(space, coeff, budget=2001)
    assert cube.certified and cube.upper > cube.lower
    for memo in (False, True):
        if not memo:
            _cube_bracket.cache_clear()
        calls = _spy_grid_max(monkeypatch)
        certified_supnorm(space, coeff, SWEEP[1], budget=2001)
        monkeypatch.undo()
        assert [rule for plan, rule in calls if not _on_cube(space, plan)] == [(H, cube.upper)]
        assert calls[-1][0].borrow[0] is grid_plan(space, space.default_box(), None, 2001)


def test_cube_memo_keeps_single_coefficient_vectors_only():
    space = SpaceDescriptor.polynomial(1, 2)
    _cube_bracket.cache_clear()
    box = (np.array([0.0]), np.array([0.1]))
    rep = norming_constant(space, PointSet([[0.0], [0.02], [0.05], [0.1]], box), budget=2001)
    assert rep.norming and rep.lower <= rep.upper
    # one Lebesgue group, W of shape (3, 1, 3), on the same sub-box
    three = PointSet([[0.0], [0.05], [0.1]], box)
    rep = norming_constant(space, three, budget=2001)
    assert rep.norming and rep.lower == pytest.approx(1.25, rel=1e-12)
    assert 1.25 <= rep.upper
    assert lebesgue_constant(space, three, budget=2001) == rep.lower
    assert _cube_bracket.cache_info().currsize == 0
    rng = np.random.default_rng(8)
    size = _cube_bracket.cache_info().maxsize
    for _ in range(3 * size):
        certified_supnorm(space, rng.normal(size=3), budget=2001)
    info = _cube_bracket.cache_info()
    assert 0 < info.currsize <= size
    # every entry ever stored came from one of the single-vector calls
    assert info.misses == 3 * size


def test_cube_memo_ignores_boxes_beyond_the_cube():
    space = SpaceDescriptor.polynomial(1, 3)
    coeff = np.array([0.5, -1.0, 0.25, 2.0])
    _cube_bracket.cache_clear()
    fresh = certified_supnorm(space, coeff, SWEEP[1], budget=2001)
    _cube_bracket.cache_clear()
    certified_supnorm(space, coeff, (np.array([-1.5]), np.array([1.5])), budget=2001)
    assert _cube_bracket.cache_info().currsize == 0
    assert _as_tuple(certified_supnorm(space, coeff, SWEEP[1], budget=2001)) == _as_tuple(fresh)


def test_equal_cube_calls_share_one_pass_and_own_their_argmax(monkeypatch):
    space = SpaceDescriptor.polynomial(1, 4)
    coeff = np.random.default_rng(9).normal(size=space.dimension())
    _cube_bracket.cache_clear()
    calls = _spy_grid_max(monkeypatch)
    first = certified_supnorm(space, coeff, budget=2001)
    second = certified_supnorm(space, coeff, budget=2001)
    assert len(calls) == 1
    assert _as_tuple(first) == _as_tuple(second)
    assert first.argmax is not second.argmax
    assert first.argmax.flags.writeable and second.argmax.flags.writeable
    first.argmax[:] = np.nan
    assert _as_tuple(certified_supnorm(space, coeff, budget=2001)) == _as_tuple(second)


def _spy_grid_axes(monkeypatch):
    calls, real = [], norming._grid_axes

    def spy(box, spacing=None, budget=None):
        calls.append(spacing)
        return real(box, spacing, budget)

    monkeypatch.setattr(norming, "_grid_axes", spy)
    return calls


@pytest.mark.parametrize("spacing, budget, refined", [(None, 2001, False), (1e-3, None, False),
                                                      (None, 11, True), (0.1, None, True)])
def test_certified_max_makes_one_plan_and_halves_inside_it(monkeypatch, spacing, budget,
                                                           refined):
    # P5 has M = 25: spacing 0.1 (or 11 points on [-1, 1]) gives M * h / 2 >= 1
    space = SpaceDescriptor.polynomial(1, 5)
    rng = np.random.default_rng(10)
    _grid_plan.cache_clear()
    calls = _spy_grid_axes(monkeypatch)
    for _ in range(2):
        W = rng.normal(size=(space.dimension(), 2))[:, :, None]
        bracket, _ = _certified_max(space, W, space.default_box(), spacing, budget)
        assert bracket.certified
    info = _grid_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the plan builds its grid once, and once more where it halves the spacing
    assert len(calls) == (2 if refined else 1)
    plan = grid_plan(space, space.default_box(), spacing, budget)
    assert plan.h_eff == bracket.grid_spacing
    h0 = spacing if spacing is not None else 2.0 / (budget - 1)
    assert (plan.h_eff < h0) == refined
    if refined:
        assert plan.h_eff <= plan.spacing < h0
    else:
        assert plan.spacing == spacing


@st.composite
def _certified_max_case(draw, family, power, where):
    """A space of ``family``, a box placed as ``where`` says and coefficient
    groups W of shape (l, K, g): 1 to 40 random columns, up to 300 near-tied
    copies of a few (groups of one each), or 1 to 3 Lebesgue groups of
    g >= 2 members."""
    n = draw(st.integers(1, 2))
    floats = lambda a, b: st.lists(st.floats(a, b), min_size=n, max_size=n).map(np.array)
    if family == "fewnomial":
        # half-integer exponents: nearly equal ones make the sampled Markov
        # estimate's Gram matrix singular (RankDeficiencyError); on a flat
        # axis j they must differ off axis j for the same reason
        j = draw(st.integers(0, n - 1))
        alpha = st.tuples(*[st.integers(-4, 6).map(lambda k: k / 2.0) for _ in range(n)])
        off_flat = (lambda a: a[:j] + a[j + 1:]) if where == "flat" else (lambda a: a)
        space = SpaceDescriptor.fewnomial_span(
            draw(st.lists(alpha, min_size=1, max_size=4, unique_by=off_flat)))
        lo = draw(floats(0.1, 1.5))
        hi = lo + draw(floats(0.05, 1.5))
        if where == "flat":
            hi[j] = lo[j]
        box = (lo, hi)
    else:
        modulus = power_modulus(draw(st.floats(0.3, 0.9))) if power else IDENTITY
        top = (4, 2) if family == "polynomial" else (2, 1)
        space = getattr(SpaceDescriptor, family)(n, draw(st.integers(1, top[n - 1])), modulus)
        if where == "cube":
            box = space.default_box()
        elif where == "outside":
            lo = draw(floats(-1.5, 0.5))
            lo[0] = draw(st.floats(-1.5, -1.05))  # reaches below the cube
            box = (lo, lo + draw(floats(0.2, 2.6)))
        else:
            lo = draw(floats(-1.0, 0.9))
            hi = np.minimum(lo + draw(floats(0.05, 2.0)), 1.0)
            if where == "flat":
                j = draw(st.integers(0, n - 1))
                hi[j] = lo[j]
            box = (lo, hi)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    l = space.dimension()
    kind = draw(st.sampled_from(["random", "tied", "groups"]))
    if kind == "random":
        W = rng.normal(size=(l, draw(st.integers(1, 40))))[:, :, None]
    elif kind == "tied":
        # perturbed copies of a few base columns: maxima tied within ~1e-9
        base = rng.normal(size=(l, draw(st.integers(1, 4))))
        W = base[:, rng.integers(base.shape[1], size=draw(st.integers(2, 300)))]
        W = W * (1.0 + draw(st.sampled_from([0.0, 1e-12, 1e-9]))
                 * rng.uniform(-1.0, 1.0, size=W.shape))
        W = W[:, :, None]
    else:
        # the Lagrange matrices of random sets of l points in the cube (in
        # [lo, lo + 1] for a fewnomial span), whose values are Lebesgue
        # functions, or random members: where l = 1, on a coin flip, or where
        # a draw is ill-conditioned
        K = draw(st.integers(1, 3))
        W = rng.normal(size=(l, K, draw(st.integers(2, 6))))
        if l >= 2 and draw(st.booleans()):
            at = (lambda p: box[0] + (p + 1.0) / 2.0) if family == "fewnomial" else (lambda p: p)
            sets = [at(rng.uniform(-1.0, 1.0, size=(l, n))) for _ in range(K)]
            B = [space.evaluate_basis(z) for z in sets]
            if all(np.linalg.cond(b) < 1e8 for b in B):
                W = np.stack([np.linalg.solve(b, np.eye(l)) for b in B], axis=1)
    return space, box, W


PROPERTY_CASES = [("fewnomial", False, "box"), ("fewnomial", False, "flat")] + [
    (family, power, where) for family in ("polynomial", "trigonometric")
    for power in (False, True) for where in ("cube", "inside", "flat", "outside")]


@pytest.mark.parametrize("family, power, where", PROPERTY_CASES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_certified_max_matches_dense_pass_and_brackets_a_finer_grid(family, power, where,
                                                                     data):
    space, box, W = data.draw(_certified_max_case(family, power, where))
    budget = 2001 if space.n == 1 else 1600
    bracket, column, plan, rule = _handed(space, W, box, None, budget)
    value, point, col = _dense_on(space, W, plan.axes)
    assert bracket.lower == pytest.approx(value, rel=1e-12)
    assert np.array_equal(bracket.argmax, point)
    # tied groups can round differently in the dense product, so the returned
    # group need not be the oracle's first; it attains the grid maximum to
    # one group evaluation's rounding, l * eps * sum_j ||w_j||_1 * vmax
    group = W[:, column]
    attained = np.abs(space.evaluate_basis(bracket.argmax) @ group).sum()
    vmax = max(1.0, space.basis_sup(box))
    tol = W.shape[0] * np.finfo(float).eps * np.abs(group).sum() * vmax
    assert abs(attained - bracket.lower) <= tol
    if bracket.certified:
        # both sides are rounded: allow one group evaluation's rounding,
        # l * eps * sum_j ||w_j||_1 * max |phi| (a one-point box has upper == lower)
        eps = 4 * W.shape[0] * np.finfo(float).eps * np.abs(W).sum(axis=(0, 2)).max()
        fine, _ = _grid_axes(box, bracket.grid_spacing / 4)
        assert bracket.upper >= _dense_on(space, W, fine)[0] - eps * max(1.0, space.basis_sup(box))


# Boxes strictly inside the cube, which borrow the lattice of the cube's plan:
# (space, box, grid_spacing, budget, vertex matrices?). At h = 1e-4 the 1-D
# cube lattice keeps every 16th grid point, a gap of 1.6e-3, and the narrow
# boxes lie within one or two of its cells.
INSIDE = {
    "1d-vector": (SpaceDescriptor.polynomial(1, 5), _B([-0.3], [0.45]), 1e-4, None, False),
    "1d-vertices": (SpaceDescriptor.polynomial(1, 4), _B([-0.8], [0.1]), None, 20001, True),
    "1d-narrow": (SpaceDescriptor.polynomial(1, 5), _B([0.1203], [0.1213]), 1e-4, None, False),
    "1d-narrow-vertices": (SpaceDescriptor.polynomial(1, 3), _B([-0.5009], [-0.4999]), 1e-4,
                           None, True),
    "2d-vector": (SpaceDescriptor.polynomial(2, 2), _B([-0.6, -0.2], [0.5, 0.9]), None, 40000,
                  False),
    "2d-vertices": (SpaceDescriptor.polynomial(2, 2), _B([-0.9, -0.4], [0.2, 1.0]), None, 40000,
                    True),
    "2d-narrow": (SpaceDescriptor.polynomial(2, 2), _B([0.1, -0.3], [0.11, 0.2]), 4e-3, None,
                  True),
    "3d-vector": (SpaceDescriptor.polynomial(3, 2), _B([-0.5, -0.9, 0.1], [0.4, 0.2, 0.8]), None,
                  64000, False),
    "3d-vertices": (SpaceDescriptor.polynomial(3, 1), _B([-1.0, -0.3, -0.6], [0.7, 0.5, 1.0]),
                    None, 64000, True),
    "flat-axis": (SpaceDescriptor.polynomial(2, 2), _B([-0.7, 0.3], [0.6, 0.3]), 1e-3, None, True),
    "trig-1d": (SpaceDescriptor.trigonometric(1, 2), _B([-0.7], [0.2]), None, 20001, True),
    "trig-2d": (SpaceDescriptor.trigonometric(2, 1), _B([-0.5, -0.6], [0.3, 0.1]), None, 40000,
                False),
}


@pytest.mark.parametrize("name", sorted(INSIDE))
def test_inside_boxes_match_a_dense_pass(name):
    space, box, spacing, budget, vertices = INSIDE[name]
    rng = np.random.default_rng(50 + sorted(INSIDE).index(name))
    l = space.dimension()
    for extra in range(3):
        if vertices:  # vertex matrices of sets in the cube
            W = _instance(rng, space, space.default_box(), extra)
        else:
            W = rng.normal(size=(l, 1, 1))
        bracket, column, plan, rule = _handed(space, W, box, spacing, budget)
        assert plan.borrow is not None
        value, point, _ = _dense_on(space, W, plan.axes)
        assert bracket.lower == pytest.approx(value, rel=1e-12)
        assert np.array_equal(bracket.argmax, point)
        # the group returned attains the maximum to one group's rounding
        group = W[:, column]
        attained = np.abs(space.evaluate_basis(bracket.argmax) @ group).sum()
        tol = l * np.finfo(float).eps * np.abs(group).sum() * max(1.0, space.basis_sup(box))
        assert abs(attained - bracket.lower) <= tol


@pytest.mark.parametrize("name", ["1d-vector", "1d-narrow", "2d-narrow", "3d-vector",
                                  "flat-axis"])
def test_borrowed_lattice_covers_the_box_grid(name):
    # every grid point lies within r of the lattice point whose cell owns it,
    # and rho is each lattice point's distance to the nearest grid point
    space, box, spacing, budget, _ = INSIDE[name]
    W = np.ones((space.dimension(), 1, 1))
    _, _, plan, _ = _handed(space, W, box, spacing, budget)
    cube, take = plan.borrow
    near = []
    for ax, cax, i, edge, cut in zip(plan.axes, cube.axes, cube.sub, plan.edges, take):
        grid, c = (_grid_points((a,), j)[:, 0] for a, j in ((ax, np.arange(ax[2])), (cax, i[cut])))
        assert edge[0] == 0 and edge[-1] == ax[2] and np.all(np.diff(edge) >= 0)
        owner = np.repeat(np.arange(c.size), np.diff(edge))
        assert np.abs(grid - c[owner]).max() <= plan.r * (1 + 1e-12)
        near.append(np.abs(c[:, None] - grid[None, :]).min(axis=1))
    rho = functools.reduce(np.maximum, np.ix_(*near))
    assert np.allclose(plan.rho, np.ravel(rho), rtol=0, atol=1e-15)
    assert plan.table[0].shape == (plan.rho.size, space.dimension())


def test_inside_plans_stay_out_of_the_plan_cache():
    space = SpaceDescriptor.polynomial(1, 5)
    coeff = np.random.default_rng(19).normal(size=space.dimension())
    _grid_plan.cache_clear()
    for lo in np.linspace(-0.9, 0.4, 12):
        certified_supnorm(space, coeff, (np.array([lo]), np.array([lo + 0.5])), grid_spacing=1e-4)
    info = _grid_plan.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (1, 1, 8)


@pytest.mark.parametrize("family", ["polynomial", "trigonometric"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_norming_upper_bounds_the_lp_value_at_random_points(family, data):
    # the certified upper end of N bounds the per-point LP value at every
    # point of the box, not only at grid points
    n = data.draw(st.integers(1, 2))
    top = (4, 2) if family == "polynomial" else (2, 1)
    space = getattr(SpaceDescriptor, family)(n, data.draw(st.integers(1, top[n - 1])))
    if data.draw(st.booleans()):
        lo, hi = space.default_box()
    else:
        lo = np.array(data.draw(st.lists(st.floats(-1.0, 0.6), min_size=n, max_size=n)))
        hi = np.minimum(lo + data.draw(st.floats(0.3, 1.5)), 1.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = space.dimension() + data.draw(st.integers(0, 2))
    pts = lo + (hi - lo) * (random_points(rng, m, n, min_sep=0.1) + 1.0) / 2.0
    rep = norming_constant(space, PointSet(pts, (lo, hi)), budget=2001 if n == 1 else 1600)
    assert rep.norming
    B = space.evaluate_basis(pts)
    for x in lo + (hi - lo) * rng.uniform(size=(20, n)):
        assert norming_lp_value(B, space.evaluate_basis(x)) <= rep.upper * (1 + 1e-9)
