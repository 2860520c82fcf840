"""The coarse-to-fine grid maximiser against a dense oracle, and the witness
that ``norming_constant`` reports."""
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import grid_plan, random_points, uniform_grid
from norming_lab import (IDENTITY, PointSet, SpaceDescriptor, certified_supnorm,
                         lebesgue_constant, norming_constant)
from norming_lab import norming
from norming_lab.norming import (_Frame, _certified_max, _coarse_prune, _feasible_vertices,
                                 _grid_axes, _grid_max, _grid_plan, _grid_points, _half_signs,
                                 _shift, _sub_blocks, _with_slopes)
from norming_lab.simplex import norming_lp_value
from norming_lab.spaces import _monomial_exponents, markov_constant, power_modulus

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
    """The bracket of ``_certified_max`` on ``box``, and the (W, plan, rule) it
    hands ``_grid_max`` for that box (its last call: an additive box brackets
    the cube first). A polynomial box other than the cube and a point hands
    T W, its coefficients in the box's frame, on a cube's plan."""
    with mock.patch.object(norming, "_grid_max", wraps=norming._grid_max) as spy:
        bracket, column = _certified_max(space, W, box, spacing, budget)
    return (bracket, column, *spy.call_args.args)


def _in_frame(space, W, box):
    """(T W, frame) of a box in its frame (``_Frame``): T W, coefficients in
    V', where the frame has a T, and W itself on the identity frame."""
    frame = _Frame(space, np.asarray(box, dtype=float))
    if frame.T is None:
        return W, frame
    l, K, g = W.shape
    return (frame.T @ W.reshape(l, K * g)).reshape(-1, K, g), frame


def _frame_key(frame, spacing):
    """A spacing h on the box as the frame's grid takes it, h * min(1, 1 / max r)."""
    return None if spacing is None else spacing * min(1.0, 1.0 / float(frame.r.max()))


def _frame_pad(frame, W):
    """T W's rounding pad, by which both ends of a framed bracket move out;
    0 on the identity frame, which is handed W."""
    return 0.0 if frame.T is None else frame.pad(W)


def _to_box(frame, u):
    """A point u of V''s box on the box: c + r * u on the live axes, and the
    box's centre on the flat ones."""
    x = frame.centre.copy()
    x[frame.live] = frame.c + frame.r * u
    return x


def _box_grid(box, spacing):
    """The points of a grid of about the given spacing on a box, built here
    from np.linspace, with the one point lo on a flat axis."""
    axes = [np.linspace(a, b, int(math.ceil((b - a) / spacing)) + 1) if b > a else np.array([a])
            for a, b in zip(*box)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


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
    # polynomial boxes, certified in their frame on the cube's plan
    "sub-box": (SpaceDescriptor.polynomial(2, 2),
                (np.array([-0.5, -1.0]), np.array([0.75, 0.2])), None, 40000, True),
    "sub-box-1d": (SpaceDescriptor.polynomial(1, 5),
                   (np.array([-0.3]), np.array([0.45])), 1e-4, None, True),
    "beyond-cube": (SpaceDescriptor.polynomial(1, 5),
                    (np.array([-1.2]), np.array([0.3])), 1e-4, None, True),
    # Bernstein's inequality holds on all of R: a trigonometric box crossing
    # the cube's edge takes the additive rule, one covering it the
    # multiplicative rule
    "trig-edge": (SpaceDescriptor.trigonometric(1, 2),
                  (np.array([-1.4]), np.array([0.3])), None, 20001, True),
    "trig-period": (SpaceDescriptor.trigonometric(1, 3),
                    (np.array([-1.5]), np.array([1.5])), None, 20001, True),
    # 1-D grids below 182 points have S = 1, so no tree of blocks
    "s-is-one": (SpaceDescriptor.polynomial(1, 4), None, None, 150, False),
    # a polynomial box with a flat axis, whose live axis spans the cube's: V'
    # on its own cube, handed R W
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
        bracket, _, Wh, plan, rule = _handed(space, W, box, spacing, budget)
        TW, frame = _in_frame(space, W, box)
        assert np.array_equal(Wh, TW)
        key = _frame_key(frame, spacing)
        axes, h = _grid_axes(frame.box, key, budget)
        assert plan is grid_plan(frame.space, frame.box, key, budget)
        assert plan.axes == axes
        assert bracket.grid_spacing == h * float(frame.r.max())
        # pruned: a level of the tree is evaluated; otherwise every column
        # and every block is kept
        with mock.patch.object(norming, "_lattice_pass", wraps=norming._lattice_pass) as lattice_pass:
            cols, keep = _coarse_prune(Wh, plan, rule)
        assert lattice_pass.called == pruned
        assert pruned or (cols.size == W.shape[1] and keep is None)
        if name == "sub-box-1d":
            assert cols.size < W.shape[1] and keep is not None and keep.size < np.prod(plan.shape)
        value, point, col = _grid_max(Wh, plan, rule)
        ref_value, ref_point, ref_col, ref_h = _dense(plan.space, Wh, frame.box, key, budget)
        assert value == pytest.approx(ref_value, rel=1e-12)
        if periodic:
            attained = np.abs(space.evaluate_basis(point) @ Wh[:, col]).sum()
            assert attained == pytest.approx(value, rel=1e-12)
        else:
            assert np.array_equal(point, ref_point)
            assert col == ref_col
        assert h == ref_h


def _keeps_everything(space, W, plan, rule):
    """True when ``_coarse_prune`` keeps every column and every block."""
    cols, keep = _coarse_prune(W, plan, rule)
    return cols.size == W.shape[1] and keep is None


@st.composite
def _ragged_case(draw, family):
    """A space of ``family``, a box and a budget of m^n points whose grid is
    ragged: no axis's point count a multiple of the root block size S, so of
    no level's S * 4^j, and the last block on every axis shorter. W is the
    vertex matrix of a set of dim V + 0..2 points in the cube (the box of a
    fewnomial span), or a vector."""
    n = draw(st.integers(1, 3 if family == "polynomial" else 2))
    if family == "fewnomial":
        space, box = (FEW, FEW_BOX) if n == 1 else (FEW2, FEW2_BOX)
    else:
        top = {"polynomial": (5, 2, 1), "trigonometric": (3, 1)}[family][n - 1]
        space = getattr(SpaceDescriptor, family)(n, draw(st.integers(1, top)))
        box = space.default_box()
        if family == "trigonometric" or draw(st.booleans()):
            # inside the cube: a trigonometric box then takes the additive
            # rule, and no maxima tie one period apart
            lo = np.array(draw(st.lists(st.floats(-1.0, 0.4), min_size=n, max_size=n)))
            box = (lo, lo + np.array(draw(st.lists(st.floats(0.3, 0.6), min_size=n,
                                                    max_size=n))))
    m = draw(st.integers(*{1: (200, 3000), 2: (40, 120), 3: (15, 30)}[n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return space, box, m, rng.normal(size=(space.dimension(), 1, 1))
    inst_box = box if family == "fewnomial" else space.default_box()
    return space, box, m, _instance(rng, space, inst_box, draw(st.integers(0, 2)))


@pytest.mark.parametrize("family", ["polynomial", "trigonometric", "fewnomial"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_block_tree_matches_a_dense_pass_on_ragged_grids(family, data):
    space, box, m, W = data.draw(_ragged_case(family))
    frame = _Frame(space, np.asarray(box, dtype=float))
    plan = grid_plan(frame.space, frame.box, None, m**space.n)
    assume(plan.tree and any(k % plan.tree[-1][0] for k in plan.shape))
    _, _, Wh, handed, rule = _handed(space, W, box, None, m**space.n)
    assert handed is plan
    value, point, col = _grid_max(Wh, plan, rule)
    ref_value, ref_point, ref_col = _dense_on(plan.space, Wh, plan.axes)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert np.array_equal(point, ref_point) and col == ref_col


# Real vertex matrices with hundreds of columns: (space, box or None for the
# cube, m, budget, levels above the root that must run, seed). A level runs
# where H * r^2 / 2 < 1: in 2-D P2 (H = 16) at 40,000 points the level above
# the root has r = 0.10 and the one above it r = 0.40, so only the first
# runs; at the default 200,001 points two run, with r = 0.063 and 0.25.
WIDE = {
    "P6-1d-m10": (SpaceDescriptor.polynomial(1, 6), None, 10, 20001, 2, 1),
    "P2-2d-m10": (SpaceDescriptor.polynomial(2, 2), None, 10, 40000, 1, 0),
    "P2-2d-m10-default": (SpaceDescriptor.polynomial(2, 2), None, 10, None, 2, 4),
    "T2-1d-m9": (SpaceDescriptor.trigonometric(1, 2), None, 9, 20001, 2, 2),
    "fewnomial-m8": (FEW, FEW_BOX, 8, 20001, 2, 3),
}


@pytest.mark.parametrize("name", sorted(WIDE))
def test_grid_max_matches_dense_oracle_on_wide_vertex_matrices(name, monkeypatch):
    space, box, m, budget, levels, seed = WIDE[name]
    box = space.default_box() if box is None else box
    W = _instance(np.random.default_rng(seed), space, box, m - space.dimension())
    assert W.shape[1] > 20
    _, _, _, plan, rule = _handed(space, W, box, None, budget)
    # one lattice pass per level that runs, the root included
    lattice_pass = mock.Mock(wraps=norming._lattice_pass)
    monkeypatch.setattr(norming, "_lattice_pass", lattice_pass)
    cols, _ = _coarse_prune(W, plan, rule)
    assert lattice_pass.call_count - 1 >= levels
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


def _distinct(B, verts):
    """The rows of ``verts`` whose values on the rows of B differ, up to
    sign, from every earlier row's by more than 1e-9, in order."""
    vals = verts @ B.T
    keep = [i for i in range(len(verts))
            if i == 0 or min(np.abs(vals[:i] - vals[i]).max(axis=1).min(),
                             np.abs(vals[:i] + vals[i]).max(axis=1).min()) > 1e-9]
    return verts[keep]


def test_feasible_vertices_list_a_vertex_that_every_subset_gives_once():
    # |B e_0| = 1 on every row of a Vandermonde matrix: the constant function
    # is tight everywhere, so each of the C(m, l) subsets yields e_0, and it
    # is listed once, where the first subset gives it
    m, l = 7, 4
    B = np.vander(np.linspace(-1.0, 1.0, m), l, increasing=True)
    got, ref = _feasible_vertices(B), _all_rows_vertices(B)
    copies = np.flatnonzero(np.all(np.abs(ref - np.eye(l)[0]) <= 1e-12, axis=1))
    assert len(copies) == math.comb(m, l)
    once = np.flatnonzero(np.all(np.abs(got - np.eye(l)[0]) <= 1e-12, axis=1))
    assert len(once) == 1 and once[0] == copies[0]
    ref = _distinct(B, ref)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_vertex_budget_counts_every_candidate_and_refuses_first(monkeypatch):
    # C(6, 3) * 4 = 80 candidates are within a budget of 80, C(7, 3) * 4 = 140 not
    monkeypatch.setattr(norming, "VERTEX_BUDGET", 80)
    rng = np.random.default_rng(8)
    assert _feasible_vertices(rng.normal(size=(6, 3))).shape[0] > 0
    with pytest.raises(ValueError, match="budget exceeded"):
        _feasible_vertices(rng.normal(size=(7, 3)))
    # refused before the 2^59 sign vectors are built
    with pytest.raises(ValueError, match="budget exceeded"):
        _feasible_vertices(np.ones((61, 60)))


def _vertex_set(kind, m, rng):
    """B of a set of m points: random rows, an equispaced Vandermonde matrix,
    1-D P3 on three clusters, or 1-D T1."""
    if kind == "random":
        return rng.normal(size=(m, 4))
    if kind == "vandermonde":
        return np.vander(np.linspace(-1.0, 1.0, m), 4, increasing=True)
    if kind == "clustered":
        pts = rng.choice([-0.9, 0.1, 0.8], m) + rng.uniform(-0.05, 0.05, m)
        return SpaceDescriptor.polynomial(1, 3).evaluate_basis(pts[:, None])
    return SpaceDescriptor.trigonometric(1, 1).evaluate_basis(rng.uniform(-1.0, 1.0, (m, 1)))


@pytest.mark.parametrize("block", [1, 100, 1 << 20])
@pytest.mark.parametrize("kind", ["random", "vandermonde", "clustered", "trigonometric"])
def test_feasible_vertices_are_the_distinct_all_rows_vertices(kind, block, monkeypatch):
    # one subset per chunk, a few per chunk, and every subset in one chunk
    monkeypatch.setattr(norming, "_BLOCK_VALUES", block)
    rng = np.random.default_rng(40)
    for extra in range(7):
        B = _vertex_set(kind, (3 if kind == "trigonometric" else 4) + extra, rng)
        got, ref = _feasible_vertices(B), _distinct(B, _all_rows_vertices(B))
        assert got.shape == ref.shape and got.shape[0] > 0
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


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


def test_one_column_reads_the_root_table_alone(monkeypatch):
    # a one-column call starts at the root level and reads its whole table
    # as the plan holds it, with no gather
    space = SpaceDescriptor.polynomial(1, 6)
    plan = grid_plan(space, space.default_box(), None, 20001)
    W = np.random.default_rng(11).normal(size=(space.dimension(), 1))[:, :, None]
    lattice_pass = mock.Mock(wraps=norming._lattice_pass)
    monkeypatch.setattr(norming, "_lattice_pass", lattice_pass)
    cols, keep = _coarse_prune(W, plan, (plan.H, None))
    assert len(plan.tree) > 1 and lattice_pass.call_count == 1
    assert lattice_pass.call_args.args[0] is plan.tree[-1][1]
    assert list(cols) == [0] and keep is not None and keep.size < np.prod(plan.shape)


def test_many_columns_drop_blocks_above_the_root(monkeypatch):
    # the levels above the root drop blocks as well as columns, so the root
    # level reads fewer rows than its table holds
    space, _, m, budget, _, seed = WIDE["P2-2d-m10-default"]
    W = _instance(np.random.default_rng(seed), space, space.default_box(), m - space.dimension())
    _, _, _, plan, rule = _handed(space, W, space.default_box(), None, budget)
    lattice_pass = mock.Mock(wraps=norming._lattice_pass)
    monkeypatch.setattr(norming, "_lattice_pass", lattice_pass)
    _coarse_prune(W, plan, rule)
    rows = [call.args[0].shape[0] for call in lattice_pass.call_args_list]
    assert rows[-1] < plan.tree[-1][1].shape[0]


# (space, box, rule, M, H): the Markov or Bernstein constant M and the
# second-derivative constant H of the rule. A polynomial box with no flat
# axis takes the cube's in its frame, as T W on the cube's plan; a
# trigonometric box its own plan, the relative rule where it covers the cube
# and the additive one with the cube's constants elsewhere. On the cube,
# Markov's inequality gives |p'| <= d^2 * sup |p| and |p''| <= (d - 1)^2 *
# sup |p'|; Bernstein's gives pi * d per derivative.
RULES = {
    "cube": (SpaceDescriptor.polynomial(1, 5), (-1.0, 1.0), "frame", 25.0, 25.0 * 16.0),
    "poly-beyond": (SpaceDescriptor.polynomial(1, 5), (-1.2, 0.3), "frame", 25.0, 25.0 * 16.0),
    "poly-covering": (SpaceDescriptor.polynomial(1, 5), (-1.5, 1.5), "frame", 25.0,
                      25.0 * 16.0),
    "poly-inside": (SpaceDescriptor.polynomial(1, 5), (-0.3, 0.45), "frame", 25.0, 25.0 * 16.0),
    "trig-edge": (SpaceDescriptor.trigonometric(1, 2), (-1.4, 0.3), "additive", 2 * np.pi,
                  (2 * np.pi) ** 2),
    "trig-covering": (SpaceDescriptor.trigonometric(1, 3), (-1.5, 1.5), "relative", 3 * np.pi,
                      (3 * np.pi) ** 2),
    "trig-inside": (SpaceDescriptor.trigonometric(1, 2), (-0.6, 0.4), "additive", 2 * np.pi,
                    (2 * np.pi) ** 2),
}


@pytest.mark.parametrize("name", sorted(RULES))
def test_every_box_gets_a_rule(name):
    space, (lo, hi), kind, M, H = RULES[name]
    box = (np.array([lo]), np.array([hi]))
    W = np.random.default_rng(12).normal(size=(space.dimension(), 3))[:, :, None]
    bracket, _, _, plan, (h, S) = _handed(space, W, box, None, 2001)
    assert bracket.certified and plan.markov.certified
    assert h == pytest.approx(H, rel=1e-15) and plan.markov.value == pytest.approx(M, rel=1e-15)
    cube = grid_plan(space, space.default_box(), None, 2001)
    assert (plan is cube) == (kind == "frame")
    if kind == "additive":
        assert plan.additive and S == _certified_max(space, W, space.default_box(), None,
                                                     2001)[0].upper
    else:
        assert not plan.additive and S is None


def test_trigonometric_sub_box_is_certified_and_holds_a_dense_maximum():
    # Bernstein's constant is not certified on [0, 0.1], but the additive
    # rule reads it relative to the sup over the cube, a whole period
    space = SpaceDescriptor.trigonometric(1, 1)
    box = _B([0.0], [0.1])
    assert not markov_constant(space, box=box).certified
    for coeff in ([0.0, 0.0, 1.0], np.random.default_rng(23).normal(size=3)):
        bracket = certified_supnorm(space, coeff, box, grid_spacing=1e-3)
        fine, _ = uniform_grid(box, 1e-3 / 4)
        dense = np.abs(space.evaluate_basis(fine) @ coeff).max()
        assert bracket.certified and bracket.lower <= dense <= bracket.upper


def test_off_cube_polynomial_bracket_holds_the_sup():
    # T_20(x) * (x + 1.3) peaks on [-1.3, -1], outside the cube, where
    # the cube's Markov inequality does not apply to it: the bracket must
    # take it in the box's frame, where it does
    space = SpaceDescriptor.polynomial(1, 21)
    t20 = np.polynomial.chebyshev.cheb2poly([0.0] * 20 + [1.0])
    coeff = np.polynomial.polynomial.polymul(t20, [1.3, 1.0])
    x = np.linspace(-1.3, -1.0, 300_001)
    sup = np.max(np.abs(np.polynomial.chebyshev.chebval(x, [0.0] * 20 + [1.0]) * (x + 1.3)))
    box = (np.array([-1.3]), np.array([0.0]))
    for h in np.linspace(0.5, 1.99, 25) / 21**2:
        bracket = certified_supnorm(space, coeff, box, grid_spacing=h)
        assert bracket.certified and bracket.upper >= sup


@pytest.mark.parametrize("space", [SpaceDescriptor.polynomial(2, 2),
                                   SpaceDescriptor.trigonometric(2, 1),
                                   SpaceDescriptor.fewnomial_span([[0.0, 0.0], [0.5, 1.0],
                                                                   [1.5, -0.5]])],
                         ids=["P2", "T1", "fewnomial"])
def test_flat_axis_takes_the_whole_budget(space):
    # the frame hands the grid layer V' in the one live variable, whose grid
    # takes the whole budget, and whose root level the 4,001 blocks of a
    # 1-D one: the grid layer never sees the flat axis
    box = (np.array([0.3, 0.7]), np.array([1.8, 0.7]))
    W = np.random.default_rng(13).normal(size=(space.dimension(), 1))[:, :, None]
    _, _, Wh, plan, rule = _handed(space, W, box, None, None)
    assert plan.space.n == 1 and plan.shape == (200_001,)
    with mock.patch.object(norming, "_lattice_pass", wraps=norming._lattice_pass) as product:
        _coarse_prune(Wh, plan, rule)
    assert product.call_args.args[0].shape[0] == 4001


def test_subbox_is_not_pruned_without_cube_bound():
    space, box, spacing, budget, _ = CASES["trig-edge"]
    W = _instance(np.random.default_rng(0), space, space.default_box(), 1)
    _, _, _, plan, _ = _handed(space, W, box, spacing, budget)
    assert plan.additive
    # S = sup_cube, where an uncertified cube bracket has sup_cube = inf
    assert _keeps_everything(space, W, plan, (plan.H, np.nan))
    assert _keeps_everything(space, W, plan, (plan.H, np.inf))


@pytest.mark.parametrize("n", [1, 2])
def test_identity_columns_keep_every_block(n):
    # W = I: the constant column ties with the maximum everywhere, so no
    # block is dropped and no index array is built
    space = SpaceDescriptor.polynomial(n, 2)
    box, budget = space.default_box(), 20001
    W = np.eye(space.dimension())[:, :, None]
    _, _, _, plan, rule = _handed(space, W, box, None, budget)
    cols, keep = _coarse_prune(W, plan, rule)
    assert keep is None
    value, point, col = _grid_max(W, plan, rule)
    ref_value, ref_point, ref_col, _ = _dense(space, W, box, None, budget)
    assert (value, col) == (ref_value, ref_col)
    assert np.array_equal(point, ref_point)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_tree_blocks_nest_and_their_centres_reach_every_point(data):
    # a plan's tree on a ragged grid: P1's basis is (1, x_1, ..., x_n), so
    # column 1 + j of a level's rows is coordinate j of its block centres
    n = data.draw(st.integers(1, 3), label="n")
    m = data.draw(st.lists(st.integers(2, {1: 3000, 2: 120, 3: 40}[n]), min_size=n, max_size=n),
                  label="m")
    lo = np.array(data.draw(st.lists(st.floats(-2.0, 1.0), min_size=n, max_size=n)))
    box = (lo, lo + np.array(data.draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))))
    plan = grid_plan(SpaceDescriptor.polynomial(n, 1), box, None, math.prod(m))
    s = round((math.sqrt(math.prod(plan.shape)) / 9.0) ** (1.0 / n))
    assert len(plan.tree) == 0 if s < 2 else plan.tree[-1][0] == s
    for j, (size, rows, r) in enumerate(reversed(plan.tree)):
        assert size == s * 4**j and (j == 0 or size < max(plan.shape))
        counts = [-(-k // size) for k in plan.shape]
        centres = rows[:, 1:].reshape(*counts, n)
        for axis, (ax, k) in enumerate(zip(plan.axes, counts)):
            x = np.linspace(ax[0], ax[1], ax[2])
            c = np.moveaxis(centres[..., axis], axis, -1).reshape(-1, k)
            assert np.all(c == c[0])  # a tensor grid of centres
            # block b holds grid indices size * b .. size * (b + 1) - 1 and
            # reaches the next block's first point: all within r of its centre
            for b in range(k):
                first, end = size * b, min(size * (b + 1), ax[2] - 1)
                assert c[0, b] in x[first:first + size]
                assert max(c[0, b] - x[first], x[end] - c[0, b]) <= r
        # the children of every block of the level above tile it
        if j + 1 < len(plan.tree):
            above = [-(-k // (4 * size)) for k in plan.shape]
            kids = [_sub_blocks(np.array([b]), 4 * size, size, plan.shape)
                    for b in range(math.prod(above))]
            assert np.array_equal(np.sort(np.concatenate(kids)), np.arange(math.prod(counts)))


def _owner_mask_blocks(kept, size, sub, shape):
    """Reference sub-blocks: the owner at ``size`` of every block at ``sub``,
    then the mask of those whose owner is kept."""
    counts = [-(-m // sub) for m in shape]
    owner = np.ix_(*[np.arange(k) * sub // size for k in counts])
    mask = np.isin(np.ravel_multi_index(owner, [-(-m // size) for m in shape]), kept)
    return np.flatnonzero(mask)


@pytest.mark.parametrize("shape", [(1,), (2,), (101,), (37, 1), (1, 23), (40, 29),
                                   (9, 1, 14), (12, 11, 13)])
def test_sub_blocks_match_owner_mask(shape):
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    for sub, size in ((1, 1), (1, 3), (1, 5), (2, 8), (3, 12), (1, 64)):
        count = math.prod(-(-m // size) for m in shape)
        for density in (0.0, 0.1, 0.5, 1.0):
            kept = rng.random(count) < density
            kept[rng.integers(count)] = True  # the best block is always kept
            kept = np.flatnonzero(kept)
            got = _sub_blocks(kept, size, sub, shape)
            assert np.array_equal(np.sort(got), _owner_mask_blocks(kept, size, sub, shape))
            if len(shape) == 1:
                assert np.all(np.diff(got) > 0)


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
        assert np.max(np.abs(B @ a)) <= 1.0 + 1e-12
        phi = space.evaluate_basis(rep.witness_point)
        assert abs(phi @ a) == pytest.approx(rep.value, rel=1e-12)
        assert norming_lp_value(B, phi) == pytest.approx(rep.value, rel=1e-8)


def test_a_vertex_infeasible_within_the_tolerance_is_scaled_onto_z():
    # for P1 on {-1, 1 - 5e-10, 1} the vertex through the first two points
    # reaches 1 + 5e-10 at 1, within the enumeration's 1e-9: divided by
    # that, its value there is N = 1, since Z holds both ends of the cube
    space = SpaceDescriptor.polynomial(1, 1)
    pts = [[-1.0], [1.0 - 5e-10], [1.0]]
    rep = norming_constant(space, pts, budget=2001)
    assert rep.value == rep.lower == pytest.approx(1.0, rel=1e-15) and rep.upper >= 1.0
    assert np.max(np.abs(space.evaluate_basis(np.array(pts)) @ rep.witness_coefficients)) <= 1 + 1e-15


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
            # the witness is divided by max_Z |f|, 1 to B^-1's rounding, and
            # lower with it: by at most the 1e-9 that vertices may exceed 1 by
            assert verts.lower * (1 - 1e-9) <= rep.lower <= verts.lower * (1 + 1e-12)
            assert rep.upper == pytest.approx(verts.upper, rel=1e-12)
            w = rep.witness_coefficients
            assert np.max(np.abs(B @ w)) <= 1.0 + 1e-9
            attained = abs(space.evaluate_basis(rep.witness_point) @ w)
            assert attained == pytest.approx(rep.lower, rel=1e-12)


def test_grid_max_finds_a_peak_between_block_centres():
    # Column 0 peaks midway between two root block centres, on the edge of
    # their blocks, 1e-8 above column 1's peak, which sits on a centre; at
    # every centre column 0 stays below that peak. Only the Markov pad keeps
    # column 0 and its block.
    T1 = SpaceDescriptor.trigonometric(1, 1)
    box = T1.default_box()
    axes, _ = _grid_axes(box, None, 20001)
    x = uniform_grid(box, None, 20001)[0][:, 0]
    S = 16  # round(sqrt(20001) / 9): root blocks of 16 points, centred on 16 b + 8
    x0, y0 = x[625 * S], x[938 * S + S // 2]
    bump = lambda c: np.array([1.0, np.cos(np.pi * c), np.sin(np.pi * c)])
    W = np.stack([(1 + 1e-8) * bump(x0), bump(y0)], axis=1)[:, :, None]
    coarse = T1.evaluate_basis(x[S // 2::S, None]) @ W[:, :, 0]
    assert np.max(np.abs(coarse[:, 0])) < np.max(np.abs(coarse[:, 1]))
    _, _, _, plan, rule = _handed(T1, W, box, None, 20001)
    assert plan.axes == axes
    assert _coarse_prune(W, plan, rule) is not None
    value, point, col = _grid_max(W, plan, rule)
    ref_value, ref_point, ref_col, _ = _dense(T1, W, box, None, 20001)
    assert (point[0], col) == (ref_point[0], ref_col) == (x0, 0)
    assert value == pytest.approx(ref_value, rel=1e-12)

    # Column 0 = A cos(pi (x - x1)) peaks 0.2 h before the first point of the
    # root block centred on c = x[625 * S + 8], which holds the grid points
    # from c - 8 h to c + 7 h. Its grid maximum, A (1 - 0.02 pi^2 h^2) at
    # c - 8 h, lies just above column 1's peak of 1 on a centre, and its
    # value at c - 9 h, in the block before, lies below. At c, 8.2 h from
    # the peak, |f(c)| + q * S_0 falls short of that grid maximum by about
    # 1.6 pi^2 h^2 (q = pi^2 r^2 / 2 with r = 8 h, and S_0 the column's own
    # bound): the slope term r * D(c) keeps the block. |cos| has period 1,
    # so a copy of each peak lies one period away in the same place
    # relative to its block.
    h = x[1] - x[0]
    x1 = x[625 * S] - 0.2 * h
    wave = lambda c: np.array([0.0, np.cos(np.pi * c), np.sin(np.pi * c)])  # cos(pi (x - c))
    W = np.stack([(1 + 0.1 * (np.pi * h) ** 2) * wave(x1), wave(y0)], axis=1)[:, :, None]
    coarse = T1.evaluate_basis(x[S // 2::S, None]) @ W[:, :, 0]
    assert np.max(np.abs(coarse[:, 0])) < np.max(np.abs(coarse[:, 1]))
    column0 = np.abs(T1.evaluate_basis(x[:, None]) @ W[:, 0, 0])
    assert column0[625 * S - 1] < 1.0 < column0.max()
    _, _, _, plan, rule = _handed(T1, W, box, None, 20001)
    value, point, col = _grid_max(W, plan, rule)
    ref_value, ref_point, ref_col, _ = _dense(T1, W, box, None, 20001)
    assert col == ref_col == 0
    assert np.array_equal(point, ref_point)
    assert value == pytest.approx(ref_value, rel=1e-12) and value == column0.max()


def test_box_edge_maximiser_matches_a_dense_pass():
    # On [-0.3005, 0.2] column 0, 0.4 - 2x, is 1.0016 at -0.3008, just
    # outside the box, but at most 1.001 on it; column 1, 1.0012 - x^2,
    # peaks at 0. The box's frame grid ends at the box's ends, and the
    # maximum is column 1's, as a dense pass on that grid finds it.
    space = SpaceDescriptor.polynomial(1, 2)
    box = _B([-0.3005], [0.2])
    W = np.array([[0.4, -2.0, 0.0], [1.0012, 0.0, -1.0]]).T[:, :, None]
    bracket, column, Wh, plan, _ = _handed(space, W, box, 1e-4, None)
    value, point, col = _dense_on(space, Wh, plan.axes)
    assert (column, col) == (1, 1) and value == pytest.approx(1.0012, rel=1e-9)
    assert bracket.lower == pytest.approx(value, rel=1e-12) and bracket.upper >= 1.0012
    assert np.array_equal(bracket.argmax, _to_box(_in_frame(space, W, box)[1], point))
    assert abs(bracket.argmax[0]) < 2e-5


def test_fewnomial_grid_max_finds_a_peak_between_block_centres():
    # As above on span{1, x, x^2}, where no Markov constant is certified:
    # column 0 peaks midway between two block centres, column 1 on one.
    # Only the corner Lipschitz pad L_k * r keeps column 0 and its block.
    space = SpaceDescriptor.fewnomial_span([[0.0], [1.0], [2.0]])
    box = (np.array([0.5]), np.array([1.5]))
    axes, _ = _grid_axes(box, None, 20001)
    x = uniform_grid(box, None, 20001)[0][:, 0]
    S = 16  # round(sqrt(20001) / 9)
    x0, y0 = x[312 * S], x[1000 * S + S // 2]
    bump = lambda c: np.array([1.0 - c * c, 2.0 * c, -1.0])  # 1 - (x - c)^2
    W = np.stack([(1 + 1e-8) * bump(x0), bump(y0)], axis=1)[:, :, None]
    coarse = space.evaluate_basis(x[S // 2::S, None]) @ W[:, :, 0]
    assert np.max(np.abs(coarse[:, 0])) < np.max(np.abs(coarse[:, 1]))
    M = markov_constant(space, box=box)
    assert not M.certified
    _, _, _, plan, rule = _handed(space, W, box, None, 20001)
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
    _, _, _, plan, rule = _handed(FEW, W, FEW_BOX, None, 20001)
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

    def spy(W, plan, rule):
        calls.append((plan, rule))
        return real(W, plan, rule)

    monkeypatch.setattr(norming, "_grid_max", spy)
    return calls


SWEEP = [(np.array([a]), np.array([b])) for a, b in ((-1.0, -0.4), (-0.2, 0.3), (0.5, 1.0))]


def _as_tuple(br):
    return (br.lower, br.upper, br.certified, br.grid_spacing, tuple(br.argmax))


def _holds_dense_max(space, coeff, box, bracket, spacing):
    """True when the bracket holds the dense maximum of |f| on a grid of the
    box 4 times finer than ``spacing``, to one evaluation's rounding."""
    grid, _ = uniform_grid(box, spacing / 4)
    dense = np.abs(space.evaluate_basis(grid) @ coeff).max()
    tol = 4 * space.dimension() * np.finfo(float).eps * np.abs(coeff).sum() * max(
        1.0, space.basis_sup(box))
    return bracket.lower <= dense + tol and dense <= bracket.upper + tol


def test_subinterval_sweep_shares_the_cube_plan(monkeypatch):
    space = SpaceDescriptor.polynomial(1, 5)
    coeff = np.random.default_rng(5).normal(size=space.dimension())
    _grid_plan.cache_clear()
    calls = _spy_grid_max(monkeypatch)
    certified_supnorm(space, coeff, grid_spacing=1e-4)
    rows, real = [0], SpaceDescriptor.evaluate_basis

    def counted(self, points):
        out = real(self, points)
        rows[0] += out.shape[0] if out.ndim == 2 else 1
        return out

    got = []
    for box in SWEEP:
        rows[0] = 0
        with mock.patch.object(SpaceDescriptor, "evaluate_basis", counted):
            got.append(certified_supnorm(space, coeff, box, grid_spacing=1e-4))
        # its frame's grid is the cube's 20,001 points: the fine pass keeps a
        # few of its blocks, and the root table is the cube call's
        assert rows[0] < 0.05 * 20001
    # every sub-interval takes its frame on the one cached plan, the cube's
    assert len(calls) == 1 + len(SWEEP) and all(plan is calls[0][0] for plan, _ in calls)
    assert _grid_plan.cache_info().currsize == 1
    for box, br in zip(SWEEP, got):
        assert br.certified and _holds_dense_max(space, coeff, box, br, 1e-4)
        _grid_plan.cache_clear()
        assert _as_tuple(br) == _as_tuple(certified_supnorm(space, coeff, box,
                                                            grid_spacing=1e-4))


def test_evicted_plans_give_the_brackets_of_an_empty_cache():
    # more spacings than the plan cache holds: each cube plan is evicted and
    # built again between the calls that read it, boxes beyond the cube too
    space = SpaceDescriptor.polynomial(1, 4)
    size = _grid_plan.cache_info().maxsize
    coeffs = np.random.default_rng(21).normal(size=(2 * size, space.dimension()))
    boxes = [None, _B([-0.9], [-0.2]), _B([-0.35], [0.4]), _B([-1.5], [1.5]), _B([0.1], [2.5])]
    calls = [(coeff, boxes[k % len(boxes)], 1e-3 * (1 + k % (size + 1)))
             for k, coeff in enumerate(coeffs)]
    _grid_plan.cache_clear()
    got = [certified_supnorm(space, c, box, grid_spacing=h) for c, box, h in calls]
    assert _grid_plan.cache_info().misses > size + 1
    for (c, box, h), br in zip(calls, got):
        _grid_plan.cache_clear()
        assert _as_tuple(br) == _as_tuple(certified_supnorm(space, c, box, grid_spacing=h))


def test_subbox_prunes_with_the_cube_upper_bound(monkeypatch):
    # the additive rule of a trigonometric sub-box needs a bound on the sup
    # over the cube: the cube bracket's upper end, not its grid value
    space = SpaceDescriptor.trigonometric(1, 2)
    H = (2 * np.pi) ** 2  # Bernstein's inequality twice
    coeff = np.random.default_rng(6).normal(size=space.dimension())
    cube = certified_supnorm(space, coeff, budget=2001)
    assert cube.certified and cube.upper > cube.lower
    calls = _spy_grid_max(monkeypatch)
    certified_supnorm(space, coeff, SWEEP[1], budget=2001)
    assert [plan for plan, _ in calls] == [grid_plan(space, space.default_box(), None, 2001),
                                           grid_plan(space, SWEEP[1], None, 2001)]
    assert [rule for _, rule in calls] == [(H, None), (H, cube.upper)]


def test_three_points_on_a_tenth_have_the_lebesgue_constant_of_their_image():
    # {0, 0.05, 0.1} on [0, 0.1] is the image of {-1, 0, 1}, whose Lebesgue
    # constant is 5/4
    space = SpaceDescriptor.polynomial(1, 2)
    box = (np.array([0.0]), np.array([0.1]))
    rep = norming_constant(space, PointSet([[0.0], [0.02], [0.05], [0.1]], box), budget=2001)
    assert rep.norming and rep.lower <= rep.upper
    three = PointSet([[0.0], [0.05], [0.1]], box)
    rep = norming_constant(space, three, budget=2001)
    assert rep.norming and rep.lower == pytest.approx(1.25, rel=1e-12)
    assert 1.25 <= rep.upper
    assert lebesgue_constant(space, three, budget=2001) == rep.lower


def test_equal_cube_calls_own_their_argmax(monkeypatch):
    space = SpaceDescriptor.polynomial(1, 4)
    coeff = np.random.default_rng(9).normal(size=space.dimension())
    calls = _spy_grid_max(monkeypatch)
    first = certified_supnorm(space, coeff, budget=2001)
    second = certified_supnorm(space, coeff, budget=2001)
    assert len(calls) == 2
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
        # half-integer exponents: nearly equal ones leave the Markov
        # constant's pivoting no nonsingular subset (RankDeficiencyError);
        # on a flat axis, exponents equal off it are one function of V'
        alpha = st.tuples(*[st.integers(-4, 6).map(lambda k: k / 2.0) for _ in range(n)])
        space = SpaceDescriptor.fewnomial_span(draw(st.lists(alpha, min_size=1, max_size=4,
                                                             unique=True)))
        lo = draw(floats(0.1, 1.5))
        hi = lo + draw(floats(0.05, 1.5))
        if where == "flat":  # a point where n = 1
            j = draw(st.integers(0, n - 1))
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
            if where == "flat":  # a point where n = 1
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
    TW, frame = _in_frame(space, W, box)
    if frame.space.n == 0:  # a point: no grid, and sup |f| = |f(p)|
        bracket, column = _certified_max(space, W, box, None, budget)
        assert np.array_equal(bracket.argmax, box[0]) and bracket.grid_spacing == 0.0
    else:
        bracket, column, Wh, plan, rule = _handed(space, W, box, None, budget)
        assert np.array_equal(Wh, TW)
        value, point, col = _dense_on(plan.space, Wh, plan.axes)
        assert bracket.lower == pytest.approx(value, rel=1e-12)
        assert np.array_equal(bracket.argmax, _to_box(frame, point))
    # tied groups can round differently in the dense product, so the returned
    # group need not be the oracle's first; it attains the grid maximum to
    # one group evaluation's rounding, l * eps * sum_j ||w_j||_1 * vmax, and
    # twice T W's rounding pad in a frame (``_frame_pad``)
    group = W[:, column]
    attained = np.abs(space.evaluate_basis(bracket.argmax) @ group).sum()
    vmax = max(1.0, space.basis_sup(box))
    tol = W.shape[0] * np.finfo(float).eps * np.abs(group).sum() * vmax
    assert abs(attained - bracket.lower) <= tol + 2 * _frame_pad(frame, W)
    if bracket.certified:
        # both sides are rounded: allow one group evaluation's rounding,
        # l * eps * sum_j ||w_j||_1 * max |phi|
        eps = 4 * W.shape[0] * np.finfo(float).eps * np.abs(W).sum(axis=(0, 2)).max()
        fine = _box_grid(box, bracket.grid_spacing / 4)
        assert bracket.upper >= _group_values_max(space, W, fine) - eps * vmax


@st.composite
def _polynomial_box_case(draw, where):
    """A polynomial space, a box placed as ``where`` says, and W: a single
    coefficient vector, or the vertex matrix of a set of dim V + 0..2 points."""
    n = 2 if where == "flat" else draw(st.integers(1, 2))
    # far from the origin the monomial coefficients of a function of sup 1
    # grow like (|c| / r)^d, and T W's rounding with them
    top = (3, 2) if where == "narrow" else (6, 3)
    space = SpaceDescriptor.polynomial(n, draw(st.integers(1, top[n - 1])))
    floats = lambda a, b: np.array(draw(st.lists(st.floats(a, b), min_size=n, max_size=n)))
    if where == "narrow":  # 0.02 wide, far from the origin
        c = floats(-5.0, 5.0)
        lo, hi = c - 0.01, c + 0.01
    elif where == "straddling":
        lo = floats(-1.6, 0.5)
        lo[0] = draw(st.floats(-1.6, -1.05))
        hi = lo + floats(0.3, 1.2)
        hi[0] = draw(st.floats(-0.95, 1.5))
    elif where == "beyond":
        lo = floats(1.1, 3.0)
        hi = lo + floats(0.1, 2.5)
    else:
        lo = floats(-1.0, 0.9)
        hi = np.minimum(lo + floats(0.05, 1.5), 1.0)
        if where == "flat":
            j = draw(st.integers(0, n - 1))
            hi[j] = lo[j]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    l = space.dimension()
    if draw(st.booleans()):
        return space, (lo, hi), rng.normal(size=(l, 1, 1))
    u = random_points(rng, l + draw(st.integers(0, 2)), n, min_sep=0.1)
    V = _feasible_vertices(space.evaluate_basis(u)).T
    # the vertices of a set u in the cube, mapped to the set c + r u on the
    # box; on a flat axis no set on the box spans V, so they stay the cube's
    if where != "flat":
        c, r = (lo + hi) / 2.0, (hi - lo) / 2.0
        V = _shift(space, -c / r, 1.0 / r) @ V
    return space, (lo, hi), V[:, :, None]


@pytest.mark.parametrize("where", ["inside", "straddling", "beyond", "flat", "narrow"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_polynomial_box_brackets_hold_a_finer_dense_max_and_match_the_frame(where, data):
    space, box, W = data.draw(_polynomial_box_case(where))
    spacing = data.draw(st.sampled_from([None, {1: 1e-3, 2: 2e-2}[space.n]]))
    budget = None if spacing else {1: 2001, 2: 1600}[space.n]
    bracket, column = _certified_max(space, W, box, spacing, budget)
    assert bracket.certified
    group = W[:, column]
    # the rounding of f, and of T W: a few times l * eps * sum_j ||w_j||_1 * vmax
    vmax = max(1.0, space.basis_sup(box))
    mass = np.abs(W).sum(axis=(0, 2)).max()
    tol = 3 * (W.shape[0] + 4 * space.n) * np.finfo(float).eps * mass * vmax
    # the dense maximum on a grid 4 times finer lies below the upper end
    dense = _group_values_max(space, W, _box_grid(box, bracket.grid_spacing / 4))
    assert dense <= bracket.upper + tol
    # the argmax attains the lower end, to the rounding of f and of T W
    attained = np.abs(space.evaluate_basis(bracket.argmax) @ group).sum()
    assert attained >= bracket.lower - tol
    # the bracket of T W on the cube (of the live variables on a flat axis),
    # widened by T W's rounding, mapped back
    TW, frame = _in_frame(space, W, box)
    assert frame.space == SpaceDescriptor.polynomial(space.n - (where == "flat"), space.degree)
    assert np.array_equal(frame.box, frame.space.default_box())
    cube, k = _certified_max(frame.space, TW, frame.box, _frame_key(frame, spacing), budget)
    assert k == column and np.array_equal(bracket.argmax, _to_box(frame, cube.argmax))
    pad = bracket.upper - cube.upper  # T W's rounding pad, to the rounding of upper + pad
    assert abs(pad - frame.pad(W)) <= np.spacing(bracket.upper) and 0.0 < pad <= tol
    assert bracket.lower == pytest.approx(max(cube.lower - pad, 0.0), rel=1e-12, abs=tol * 1e-3)


def _group_values_max(space, W, grid):
    """The largest group value sum_j |phi(x) @ W[:, k, j]| over the rows of ``grid``."""
    l, K, g = W.shape
    vals = np.abs(space.evaluate_basis(grid) @ W.reshape(l, K * g))
    return float(vals.reshape(-1, K, g).sum(axis=2).max())


@st.composite
def _flat_box_case(draw, family):
    """A space of ``family``, a box with at least one flat axis (a point when
    all are), W of 1 to 3 random columns, and a set of dim V' + 0..2 points
    on the box (one on a point), with V' built here: the space of the live
    variables, or the span of a fewnomial's distinct live exponents, whose
    exponents may coincide on them."""
    n = draw(st.integers(1, 2 if family == "fewnomial" else 3))
    flat = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any)))
    floats = lambda a, b: np.array(draw(st.lists(st.floats(a, b), min_size=n, max_size=n)))
    k = int(np.sum(~flat))
    if family == "fewnomial":
        alpha = st.tuples(*[st.integers(-4, 6).map(lambda j: j / 2.0) for _ in range(n)])
        exps = draw(st.lists(alpha, min_size=1, max_size=4, unique=True))
        space = SpaceDescriptor.fewnomial_span(exps)
        live = list(dict.fromkeys(tuple(a[j] for j in np.flatnonzero(~flat)) for a in exps))
        sub = SpaceDescriptor.fewnomial_span(live) if k else None
        lo = floats(0.1, 1.5)
    else:
        d = draw(st.integers(1, {"polynomial": (4, 2, 1), "trigonometric": (2, 1, 1)}[family][n - 1]))
        space = getattr(SpaceDescriptor, family)(n, d)
        sub = getattr(SpaceDescriptor, family)(k, d) if k else None
        lo = floats(-1.5, 1.0)
    hi = np.where(flat, lo, lo + floats(0.05, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.normal(size=(space.dimension(), draw(st.integers(1, 3)), 1))
    m = sub.dimension() + draw(st.integers(0, 2)) if k else 1
    pts = np.tile(lo, (m, 1))
    pts[:, ~flat] = lo[~flat] + (hi - lo)[~flat] * (random_points(rng, m, k, min_sep=0.1) + 1) / 2
    return space, (lo, hi), W, PointSet(pts, (lo, hi)), sub


@pytest.mark.parametrize("family", ["polynomial", "trigonometric", "fewnomial"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_flat_and_point_boxes_are_measured_in_their_live_variables(family, data):
    space, box, W, zs, sub = data.draw(_flat_box_case(family))
    budget = 2001 if sub is None or sub.n == 1 else 1600
    bracket, column = _certified_max(space, W, box, None, budget)
    assert bracket.certified == (family != "fewnomial" or sub is None)
    # the upper end holds a dense maximum on a grid 4 times finer, and the
    # argmax attains the lower end: to one evaluation's rounding and twice T W's pad
    vmax = max(1.0, space.basis_sup(box))
    tol = 4 * space.dimension() * np.finfo(float).eps * np.abs(W).sum(axis=0).max() * vmax
    if bracket.certified:
        fine = _box_grid(box, bracket.grid_spacing / 4)
        assert _group_values_max(space, W, fine) <= bracket.upper + tol
    attained = np.abs(space.evaluate_basis(bracket.argmax) @ W[:, column]).sum()
    frame = _Frame(space, np.asarray(box))
    assert abs(attained - bracket.lower) <= tol + 2 * frame.pad(W)
    # a set on the box reads the report of its live-variable set bit for bit:
    # for a polynomial space, of its image on the cube
    rep = norming_constant(space, zs, budget=budget)
    if sub is None:  # a point: one point norms the constants
        assert (rep.value, rep.lower, rep.upper, rep.grid_spacing) == (1.0, 1.0, 1.0, 0.0)
        return
    lo, hi = (np.asarray(b)[frame.live] for b in box)
    u = zs.points[:, frame.live]
    if family == "polynomial" and not (np.all(lo == -1.0) and np.all(hi == 1.0)):
        u, r = (u - (lo + hi) / 2.0) / ((hi - lo) / 2.0), float(np.max((hi - lo) / 2.0))
        ref = norming_constant(sub, PointSet(u), budget=budget)
    else:
        r = 1.0
        ref = norming_constant(sub, PointSet(u, (lo, hi)), budget=budget)
    for key in ("norming", "value", "lower", "upper", "certified", "method"):
        assert getattr(rep, key) == getattr(ref, key)
    assert rep.grid_spacing == ref.grid_spacing * r
    # the lifted witness is the same function on the set, to the rounding of
    # its coefficients (large on a small box)
    got = space.evaluate_basis(zs.points) @ rep.witness_coefficients
    want = sub.evaluate_basis(u) @ ref.witness_coefficients
    mass = np.abs(ref.witness_coefficients).sum() * max(1.0, sub.basis_sup(frame.box))
    assert np.abs(got - want).max() <= 1e-12 * mass


# Boxes inside the cube: (space, box, grid_spacing, budget, vertex matrices?).
# Polynomial boxes are taken in their frame on the cube's plan (of the live
# variables, on a flat axis), trigonometric ones on their own plan. At
# h = 1e-4 the 1-D cube lattice keeps every 16th grid point, and the narrow
# boxes' frames take that grid.
INSIDE = {
    "1d-vector": (SpaceDescriptor.polynomial(1, 5), _B([-0.3], [0.45]), 1e-4, None, False),
    "1d-vertices": (SpaceDescriptor.polynomial(1, 4), _B([-0.8], [0.1]), None, 20001, True),
    "1d-narrow": (SpaceDescriptor.polynomial(1, 5), _B([0.1203], [0.1213]), 1e-4, None, False),
    "1d-narrow-vertices": (SpaceDescriptor.polynomial(1, 3), _B([-0.5009], [-0.4999]), 1e-4,
                           None, True),
    "2d-vector": (SpaceDescriptor.polynomial(2, 2), _B([-0.6, -0.2], [0.5, 0.9]), None, 40000,
                  False),
    "2d-P3-vector": (SpaceDescriptor.polynomial(2, 3), _B([-0.6, -0.2], [0.5, 0.9]), None,
                     40000, False),
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
    "trig-T3-vector": (SpaceDescriptor.trigonometric(1, 3), _B([-0.7], [0.2]), None, 20001,
                       False),
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
        bracket, column, Wh, plan, _ = _handed(space, W, box, spacing, budget)
        TW, frame = _in_frame(space, W, box)
        assert plan is grid_plan(frame.space, frame.box, _frame_key(frame, spacing), budget)
        assert np.array_equal(Wh, TW) and (Wh is W) == (space.kind == "trigonometric")
        value, point, _ = _dense_on(plan.space, Wh, plan.axes)
        assert bracket.lower == pytest.approx(value, rel=1e-12)
        assert np.array_equal(bracket.argmax, _to_box(frame, point))
        # the group returned attains the maximum to one group's rounding, and
        # twice T W's rounding pad in a frame
        group = W[:, column]
        attained = np.abs(space.evaluate_basis(bracket.argmax) @ group).sum()
        tol = l * np.finfo(float).eps * np.abs(group).sum() * max(1.0, space.basis_sup(box))
        assert abs(attained - bracket.lower) <= tol + 2 * _frame_pad(frame, W)


def test_sub_intervals_share_the_cube_plan_in_their_frames():
    # sub-intervals share the cube's plan, in their frames
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
