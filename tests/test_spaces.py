import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import uniform_grid
from norming_lab import (IDENTITY, ModulusOfContinuity, PointSet, SpaceDescriptor,
                         certified_supnorm, markov_constant, norming_constant,
                         power_modulus, space_from_json)
from norming_lab import spaces
from norming_lab.spaces import DomainError, _monomial_exponents, _trig_tuples


def test_polynomial_dimension():
    assert SpaceDescriptor.polynomial(1, 3).dimension() == 4
    assert SpaceDescriptor.polynomial(2, 2).dimension() == 6
    assert SpaceDescriptor.polynomial(3, 2).dimension() == 10


def test_trigonometric_dimension():
    assert SpaceDescriptor.trigonometric(1, 2).dimension() == 5
    assert SpaceDescriptor.trigonometric(2, 1).dimension() == 9


def test_monomial_order_graded_lex():
    exps = [tuple(e) for e in _monomial_exponents(2, 2)]
    assert exps[0] == (0, 0)
    assert set(exps[1:3]) == {(1, 0), (0, 1)}
    # within a degree block x1 comes first
    assert exps[1] == (1, 0)
    assert exps[3] == (2, 0)
    assert len(exps) == 6


def _scalar_basis(space):
    """The basis as one scalar function per element, in canonical order."""
    if space.kind == "polynomial":
        return [lambda x, e=e: float(np.prod(x ** np.asarray(e)))
                for e in _monomial_exponents(space.n, space.degree)]
    if space.kind == "trigonometric":
        # per-axis factor k: 0 -> 1; 2j-1 -> cos(j pi x); 2j -> sin(j pi x)
        def factor(k, xi):
            if k == 0:
                return 1.0
            f = math.cos if k % 2 == 1 else math.sin
            return f((k + 1) // 2 * math.pi * xi)
        return [lambda x, t=t: math.prod(factor(k, xi) for k, xi in zip(t, x))
                for t in _trig_tuples(space.n, space.degree)]
    return [lambda x, a=a: float(np.exp(np.log(x) @ np.asarray(a)))
            for a in space.exponents]


def test_vectorized_matches_scalar_basis(rng):
    for space in (SpaceDescriptor.polynomial(2, 3),
                  SpaceDescriptor.trigonometric(2, 1),
                  SpaceDescriptor.fewnomial_span([(0.5, 1.0), (2.0, 0.0)])):
        lo = 0.1 if space.kind == "fewnomial" else -1.0
        pts = rng.uniform(lo, 1.0, size=(20, space.n))
        V = space.evaluate_basis(pts)
        funcs = _scalar_basis(space)
        assert len(funcs) == space.dimension()
        for j, f in enumerate(funcs):
            for i in range(20):
                assert V[i, j] == pytest.approx(f(pts[i]), abs=1e-12)


@pytest.mark.parametrize("d", range(13))
def test_power_table_matches_pow(d):
    # x^k is built by k - 1 products, so it is within k rounding errors of pow
    x = np.concatenate([[0.0, 1.0, -1.0, -0.0],
                        np.random.default_rng(d).uniform(-1.5, 1.5, 60)])
    V = SpaceDescriptor.polynomial(1, d).evaluate_basis(x[:, None])
    for k in range(d + 1):
        ref = x ** float(k)
        assert np.all(np.abs(V[:, k] - ref) <= k * np.finfo(float).eps * np.abs(ref))


_SIDE = st.one_of(st.just(0.0), st.floats(1e-3, 1.5))


@st.composite
def _space_and_box(draw):
    kind = draw(st.sampled_from(["polynomial", "trigonometric", "fewnomial"]))
    if kind == "fewnomial":
        n = draw(st.integers(1, 2))
        alpha = st.tuples(*[st.floats(-3.0, 3.0) for _ in range(n)])
        space = SpaceDescriptor.fewnomial_span(
            draw(st.lists(alpha, min_size=1, max_size=4, unique=True)))
        lo = np.array(draw(st.lists(st.floats(0.1, 1.5), min_size=n, max_size=n)))
    else:
        n = draw(st.integers(1, 3 if kind == "polynomial" else 2))
        d = draw(st.integers(0, 4 if kind == "polynomial" else 2))
        space = (SpaceDescriptor.polynomial(n, d) if kind == "polynomial"
                 else SpaceDescriptor.trigonometric(n, d))
        lo = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    hi = lo + np.array(draw(st.lists(_SIDE, min_size=n, max_size=n)))
    return space, (lo, hi)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_space_and_box())
def test_basis_sup_is_the_dense_grid_maximum(case):
    # the grid holds every corner, and no grid point may exceed them
    space, box = case
    grid, _ = uniform_grid(box, budget=3000)
    corners = np.array(list(product(*zip(*box))))
    assert np.all((grid[:, None, :] == corners[None]).all(axis=2).any(axis=0))
    dense = np.abs(space.evaluate_basis(grid) @ np.eye(space.dimension())).max()
    if space.kind == "fewnomial" and space.n > 1:
        # log(x) @ alpha is a BLAS product, whose rounding at one point may
        # depend on how many rows are evaluated with it
        assert space.basis_sup(box) == pytest.approx(dense, rel=4 * np.finfo(float).eps)
    else:
        assert space.basis_sup(box) == dense


_EXPONENT = st.one_of(st.just(0.0), st.just(1.0), st.floats(-3.0, 3.0))


@st.composite
def _fewnomial_and_box(draw, n):
    alpha = st.tuples(*[_EXPONENT for _ in range(n)])
    space = SpaceDescriptor.fewnomial_span(
        draw(st.lists(alpha, min_size=1, max_size=4, unique=True)))
    lo = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n)))
    hi = lo + np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    return space, (lo, hi)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_fewnomial_and_box(1))
def test_basis_lipschitz_is_the_dense_derivative_maximum(case):
    space, box = case
    grid, _ = uniform_grid(box, budget=2001)
    assert grid[0, 0] == box[0][0] and grid[-1, 0] == box[1][0]
    alpha = np.array(space.exponents)[:, 0]
    deriv = np.abs(alpha * grid ** (alpha - 1.0))  # |f_i'| on the grid, one column each
    assert space.basis_lipschitz(box) == pytest.approx(deriv.max(axis=0), rel=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_fewnomial_and_box(2), st.integers(0, 2**32 - 1))
def test_basis_lipschitz_bounds_every_difference_quotient(case, seed):
    space, (lo, hi) = case
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, size=(200, 2))
    # far pairs, near pairs, and pairs along a single axis
    y = np.concatenate([rng.uniform(lo, hi, size=(200, 2)),
                        np.clip(x + rng.uniform(-1e-3, 1e-3, size=x.shape), lo, hi),
                        np.where(rng.random(x.shape) < 0.5, x, rng.uniform(lo, hi, x.shape))])
    x = np.tile(x, (3, 1))
    dist = np.max(np.abs(x - y), axis=1)
    ok = dist > 1e-6
    fx, fy, dist = space.evaluate_basis(x[ok]), space.evaluate_basis(y[ok]), dist[ok, None]
    # the evaluated values carry a relative error of a few ulp each
    rounding = 64 * np.finfo(float).eps * (np.abs(fx) + np.abs(fy)) / dist
    lip = space.basis_lipschitz((lo, hi))
    assert np.all(np.abs(fx - fy) / dist <= lip * (1 + 1e-12) + rounding)


def test_basis_lipschitz_needs_a_fewnomial_span_in_the_orthant():
    with pytest.raises(ValueError):
        SpaceDescriptor.polynomial(1, 2).basis_lipschitz((np.array([-1.0]), np.array([1.0])))
    with pytest.raises(DomainError):
        SpaceDescriptor.fewnomial_span([(1.5,)]).basis_lipschitz((np.array([0.0]),
                                                                  np.array([1.0])))


@pytest.mark.parametrize("space", [
    SpaceDescriptor.polynomial(1, 6), SpaceDescriptor.polynomial(2, 3),
    SpaceDescriptor.polynomial(3, 2), SpaceDescriptor.polynomial(2, 0),
    SpaceDescriptor.trigonometric(1, 3), SpaceDescriptor.trigonometric(2, 2)],
    ids=["P6", "P3-2d", "P2-3d", "P0-2d", "T3", "T2-2d"])
def test_basis_derivatives_match_central_differences(space):
    rng = np.random.default_rng(3)
    P = space.basis_derivatives()
    l = space.dimension()
    assert P.shape == (space.n, l, l) and not P.flags.writeable
    assert np.all(np.count_nonzero(P, axis=1) <= 1)  # at most one entry per column
    x = rng.uniform(-0.9, 0.9, size=(50, space.n))
    step = 1e-5
    for j in range(space.n):
        e = np.zeros(space.n)
        e[j] = step
        central = (space.evaluate_basis(x + e) - space.evaluate_basis(x - e)) / (2 * step)
        exact = space.evaluate_basis(x) @ P[j]  # column i holds d_j f_i
        assert np.allclose(exact, central, rtol=1e-6, atol=1e-6)


def test_basis_derivatives_need_a_polynomial_or_trigonometric_space():
    with pytest.raises(ValueError):
        SpaceDescriptor.fewnomial_span([(0.5,), (1.5,)]).basis_derivatives()


def test_single_point_shape():
    space = SpaceDescriptor.polynomial(2, 1)
    v = space.evaluate_basis(np.array([0.5, -0.5]))
    assert v.shape == (3,)


def test_fewnomial_domain_guard():
    space = SpaceDescriptor.fewnomial_span([(1.5,)])
    with pytest.raises(DomainError):
        space.evaluate_basis(np.array([[-1.0]]))


def test_modulus_validation():
    with pytest.raises(ValueError):
        power_modulus(0.0)
    with pytest.raises(ValueError):
        power_modulus(1.5)
    with pytest.raises(ValueError):
        ModulusOfContinuity("identity", 0.5)
    assert IDENTITY(0.25) == 0.25
    assert power_modulus(0.5)(0.25) == pytest.approx(0.5)


def test_power_modulus_one_is_the_identity():
    assert power_modulus(1.0) == IDENTITY
    space = SpaceDescriptor.polynomial(1, 3, power_modulus(1.0))
    assert space == SpaceDescriptor.polynomial(1, 3)
    assert markov_constant(space) == markov_constant(SpaceDescriptor.polynomial(1, 3))
    for mod in ("power:1", {"kind": "power", "gamma": 1.0}):
        obj = {"kind": "polynomial", "vars": 1, "degree": 3, "modulus": mod}
        assert space_from_json(obj).to_json()["modulus"] == "identity"
    pts = [[-1.0], [-0.4], [0.1], [0.5], [1.0]]
    reports = [norming_constant(s, pts, budget=20001).to_json()
               for s in (space, SpaceDescriptor.polynomial(1, 3))]
    assert reports[0] == reports[1] and reports[0]["certified"]


def test_markov_certified_values():
    assert markov_constant(SpaceDescriptor.polynomial(1, 3)).value == 9.0
    assert markov_constant(SpaceDescriptor.polynomial(2, 2)).value == 8.0
    assert markov_constant(SpaceDescriptor.polynomial(1, 3)).certified
    M = markov_constant(SpaceDescriptor.trigonometric(2, 3))
    assert M.value == pytest.approx(6 * math.pi)
    assert M.certified
    # a polynomial box: 2 d^2 / width summed over its non-flat axes
    box = (np.array([-1.5, 0.2]), np.array([0.5, 0.2]))
    M = markov_constant(SpaceDescriptor.polynomial(2, 3), box=box)
    assert M.value == 9.0 and M.certified


def test_markov_power_modulus_closed_form():
    # M_1 * min(D, 2 / M_1)^(1 - gamma), D the box's largest side
    M = markov_constant(SpaceDescriptor.polynomial(1, 2, power_modulus(0.5)))
    assert M.value == pytest.approx(2 * math.sqrt(2), rel=1e-15) and M.certified
    M = markov_constant(SpaceDescriptor.trigonometric(1, 2, power_modulus(0.5)))
    assert M.value == pytest.approx(math.sqrt(4 * math.pi), rel=1e-15) and M.certified
    # a trigonometric box narrower than 2 / M_1 keeps the slope M_1 * D^(1 - gamma),
    # relative to the sup over a period, so not certified on the box
    box = (np.array([0.0, 0.3]), np.array([0.1, 0.35]))
    M = markov_constant(SpaceDescriptor.trigonometric(2, 1, power_modulus(0.5)), box=box)
    assert M.value == pytest.approx(2 * math.pi * math.sqrt(0.1), rel=1e-15) and not M.certified
    for space in (SpaceDescriptor.polynomial(2, 0, power_modulus(0.5)),
                  SpaceDescriptor.trigonometric(1, 0, power_modulus(0.3))):
        assert markov_constant(space) == spaces.MarkovConstant(0.0, True)


def test_markov_pivots_only_for_fewnomial_spans():
    box = (np.array([0.5, 0.2]), np.array([2.0, 0.2]))
    with mock.patch.object(spaces, "_greedy_pivots", wraps=spaces._greedy_pivots) as spy:
        for mod in (IDENTITY, power_modulus(0.3), power_modulus(0.7)):
            for space in (SpaceDescriptor.polynomial(2, 3, mod),
                          SpaceDescriptor.trigonometric(2, 1, mod)):
                assert markov_constant(space).certified
                # Bernstein's constant is certified only where the box covers the cube
                assert markov_constant(space, box=box).certified == (space.kind == "polynomial")
        assert spy.call_count == 0
        few = SpaceDescriptor.fewnomial_span([(1.0, 0.0), (2.5, 1.0)], power_modulus(0.5))
        assert not markov_constant(few, box=box).certified
        assert spy.call_count == 1


def test_bernstein_constant_is_certified_only_on_boxes_covering_the_cube():
    # sin(pi x) moves by its sup 0.309 across [0, 0.1], far above pi * 0.309 * 0.1
    T1 = SpaceDescriptor.trigonometric(1, 1)
    M = markov_constant(T1, box=(np.array([0.0]), np.array([0.1])))
    assert M.value == math.pi and not M.certified
    x = np.linspace(0.0, 0.1, 1001)
    f = np.abs(np.sin(np.pi * x))
    assert f.max() - f.min() > M.value * f.max() * 0.1
    for lo, hi in ((-1.0, 1.0), (-1.5, 1.2), (-3.0, 3.0)):
        assert markov_constant(T1, box=(np.array([lo]), np.array([hi]))).certified
    box = (np.array([-1.0, -0.5]), np.array([1.0, 1.0]))
    assert not markov_constant(SpaceDescriptor.trigonometric(2, 1), box=box).certified


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([("polynomial", 1, 1), ("polynomial", 1, 4), ("polynomial", 2, 2),
                        ("trigonometric", 1, 2), ("trigonometric", 2, 1)]),
       st.sampled_from([0.3, 0.5, 0.8, 1.0]), st.integers(0, 2**32 - 1))
def test_markov_constant_bounds_every_modulus_quotient(case, gamma, seed):
    # |f(x) - f(y)| <= M * sup|f| * |x - y|_inf^gamma, with sup|f| the certified
    # upper end, at l-inf distances from 1e-4 to the cube's side
    kind, n, d = case
    space = getattr(SpaceDescriptor, kind)(n, d, power_modulus(gamma))
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=space.dimension())
    sup = certified_supnorm(space, coeff, budget=20001)
    assert sup.certified
    x = rng.uniform(-1.0, 1.0, size=(600, n))
    step = rng.uniform(-1.0, 1.0, size=x.shape) * 10.0 ** rng.uniform(-4.0, 0.3, size=(600, 1))
    y = np.clip(x + step, -1.0, 1.0)
    t = np.max(np.abs(x - y), axis=1)
    ok = t > 0
    lhs = np.abs((space.evaluate_basis(x[ok]) - space.evaluate_basis(y[ok])) @ coeff)
    M = markov_constant(space)
    assert M.certified
    assert np.all(lhs <= M.value * sup.upper * t[ok] ** gamma * (1 + 1e-9))


def test_bernstein_constant_counts_the_live_axes():
    # on y = 0.5 V is T1 in x: pi, certified where x covers the cube
    T1 = SpaceDescriptor.trigonometric(2, 1)
    M = markov_constant(T1, box=(np.array([-1.0, 0.5]), np.array([1.0, 0.5])))
    assert M == spaces.MarkovConstant(math.pi, True)
    M = markov_constant(T1, box=(np.array([-0.5, 0.5]), np.array([1.0, 0.5])))
    assert M == spaces.MarkovConstant(math.pi, False)
    # a point: V' holds the constants, of every kind
    point = (np.array([0.2, 0.5]), np.array([0.2, 0.5]))
    for space in (T1, SpaceDescriptor.polynomial(2, 3),
                  SpaceDescriptor.fewnomial_span([[0.0, 0.0], [0.5, 1.0]])):
        assert markov_constant(space, box=point) == spaces.MarkovConstant(0.0, True)


RESTRICTED = [
    (SpaceDescriptor.polynomial(3, 3), [0.2, 0.5, -0.4], [0.9, 0.5, 0.3],
     SpaceDescriptor.polynomial(2, 3)),
    (SpaceDescriptor.polynomial(2, 2), [-0.3, 0.5], [-0.3, 0.5], None),
    (SpaceDescriptor.trigonometric(3, 1), [0.7, -1.0, 0.3], [0.7, 0.4, 0.3],
     SpaceDescriptor.trigonometric(1, 1)),
    (SpaceDescriptor.trigonometric(2, 2), [0.3, -0.6], [0.3, -0.6], None),
    (SpaceDescriptor.fewnomial_span([[0.0, 0.0], [0.5, 1.0], [0.5, -0.5], [1.5, 2.0]]),
     [0.3, 0.7], [1.8, 0.7], SpaceDescriptor.fewnomial_span([[0.0], [0.5], [1.5]])),
    (SpaceDescriptor.fewnomial_span([[1.0, 0.0], [0.5, 1.0]]), [0.3, 0.7], [0.3, 0.7], None),
]


@pytest.mark.parametrize("space, lo, hi, sub", RESTRICTED,
                         ids=["P3-3d", "P2-point", "T1-3d", "T2-point", "fewnomial",
                              "fewnomial-point"])
def test_restriction_fixes_the_flat_coordinates_at_the_centre(space, lo, hi, sub):
    lo, hi = np.array(lo), np.array(hi)
    got, live, R, L = space.restrict((lo, hi))
    assert np.array_equal(live, hi > lo)
    if sub is None:  # a point: V' holds the constants
        assert (got.n, got.dimension(), got.kind) == (0, 1, space.kind)
    else:
        assert got == sub
    assert np.array_equal(R @ L, np.eye(got.dimension()))
    rng = np.random.default_rng(17)
    x = lo + (hi - lo) * rng.uniform(size=(50, space.n))
    w = rng.normal(size=(space.dimension(), 4))
    V = space.evaluate_basis(x) @ w
    assert np.allclose(got.evaluate_basis(x[:, live]) @ (R @ w), V, rtol=1e-12, atol=1e-12)
    assert np.allclose(space.evaluate_basis(x) @ (L @ w[:got.dimension()]),
                       got.evaluate_basis(x[:, live]) @ w[:got.dimension()], rtol=1e-12,
                       atol=1e-12)
    # a box with no flat axis is V itself
    same, live, R, L = space.restrict((lo, lo + 0.5))
    assert same is space and live == slice(None) and R is None and L is None


def test_markov_sampled_estimate_flagged():
    space = SpaceDescriptor.fewnomial_span([(1.0,), (2.5,)])
    M = markov_constant(space, box=(np.array([0.5]), np.array([2.0])))
    assert not M.certified
    assert M.value > 0.0 and math.isfinite(M.value)


@pytest.mark.parametrize("alpha, a, b", [(1.0, 0.3, 0.5), (-2.0, 0.01, 1.0), (0.5, 0.2, 2.0),
                                         (-0.3, 1.5, 4.0), (2.5, 0.1, 0.9)])
def test_lagrange_markov_bound_is_exact_on_two_term_spans(alpha, a, b):
    # span{1, x^alpha} on [a, b]: f = c0 + c1 x^alpha has Lip = |c1| max |alpha x^(alpha - 1)|
    # and sup|f| >= |c1| |b^alpha - a^alpha| / 2, with equality for the centred f,
    # which the Lagrange functions of the pivots {a, b} give; {1, x} is P_1 on the
    # box, whose Markov constant is 2 / (b - a)
    box = (np.array([a]), np.array([b]))
    M = markov_constant(SpaceDescriptor.fewnomial_span([[0.0], [alpha]]), box=box)
    slope = max(abs(alpha) * a ** (alpha - 1), abs(alpha) * b ** (alpha - 1))
    assert not M.certified
    assert M.value == pytest.approx(2.0 * slope / abs(b**alpha - a**alpha), rel=1e-12)
    if alpha == 1.0:
        P1 = markov_constant(SpaceDescriptor.polynomial(1, 1), box=box)
        assert M.value == pytest.approx(P1.value, rel=1e-12)


@pytest.mark.parametrize("seed", range(24))
def test_lagrange_markov_bound_holds_every_dense_difference_quotient(seed):
    # random 1-D and 2-D spans with negative and fractional exponents, on random
    # boxes, a third of the 2-D ones with a flat axis: every difference quotient
    # of a random member on a dense grid is at most M * sup|f|, sup|f| bounded by
    # the grid maximum plus its corner Lipschitz bound times half the spacing
    rng = np.random.default_rng(seed)
    n = 1 + seed % 2
    grid = np.arange(-8, 13) / 4.0  # exponents -2, -1.75, ..., 3
    l = int(rng.integers(2, 5))
    space = SpaceDescriptor.fewnomial_span(
        dict.fromkeys(tuple(e) for e in rng.choice(grid, size=(l, n))))
    lo = rng.uniform(0.1, 1.5, n)
    hi = lo + rng.uniform(0.1, 2.0, n)
    if n == 2 and seed % 3 == 1:
        hi[seed // 2 % 2] = lo[seed // 2 % 2]
    M = markov_constant(space, box=(lo, hi))
    assert not M.certified and np.isfinite(M.value)
    k = 20001 if n == 1 else 201
    axes = [np.linspace(a, b, k) for a, b in zip(lo, hi)]
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    w = rng.normal(size=space.dimension())
    f = (space.evaluate_basis(x.reshape(-1, n)) @ w).reshape(x.shape[:-1])
    h = float(max(b - a for a, b in zip(lo, hi))) / (k - 1)
    sup = np.abs(f).max() + np.abs(w) @ space.basis_lipschitz((lo, hi)) * h / 2
    quotients = [0.0]
    for j in range(n):
        if hi[j] > lo[j]:
            step = (hi[j] - lo[j]) / (k - 1)
            quotients.append(np.abs(np.diff(f, axis=j)).max() / step)
    flat = x.reshape(-1, n)
    pairs = rng.integers(0, flat.shape[0], size=(4000, 2))
    t = np.abs(flat[pairs[:, 0]] - flat[pairs[:, 1]]).max(axis=1)
    ok = t > 0
    df = np.abs(f.ravel()[pairs[ok, 0]] - f.ravel()[pairs[ok, 1]])
    quotients.append(float((df / t[ok]).max()))
    assert max(quotients) > 0
    assert max(quotients) <= M.value * sup * (1 + 1e-9)


@pytest.mark.parametrize("exps", [[[8.0], [9.0]], [[-8.0], [-9.0]]], ids=["tiny", "huge"])
def test_lagrange_markov_bound_pivots_on_columns_scaled_to_max_one(exps):
    # x -> x / 100 maps the span on [1, 2] onto itself on [0.01, 0.02], where its
    # basis is about 1e-16 (or 1e16): the pivots, taken on columns scaled as the
    # rank test scales them, are the same, so M is 100 times that on [1, 2]
    # and the two points that pass the rank test are a norming set
    space = SpaceDescriptor.fewnomial_span(exps)
    small, unit = (np.array([0.01]), np.array([0.02])), (np.array([1.0]), np.array([2.0]))
    M = markov_constant(space, box=small)
    assert not M.certified
    assert M.value == pytest.approx(100.0 * markov_constant(space, box=unit).value, rel=1e-9)
    assert norming_constant(space, PointSet([[0.01], [0.02]], small), budget=2001).norming


def test_lagrange_markov_bound_on_a_flat_box_is_that_of_the_live_span():
    # the bound pivots on a sample of V' on the live axes, so a flat axis
    # takes no node: on y = 0.7, span{1, x^0.5 y, x^1.5 y^-0.5} is
    # span{1, x^0.5, x^1.5}, and span{1, x^0.5 y, x^0.5 y^-0.5} is span{1, x^0.5}
    box, line = (np.array([0.3, 0.7]), np.array([1.8, 0.7])), (np.array([0.3]), np.array([1.8]))
    for exps, live in [([[0.0, 0.0], [0.5, 1.0], [1.5, -0.5]], [[0.0], [0.5], [1.5]]),
                       ([[0.0, 0.0], [0.5, 1.0], [0.5, -0.5]], [[0.0], [0.5]])]:
        few = SpaceDescriptor.fewnomial_span(exps)
        with mock.patch.object(spaces, "_greedy_pivots", wraps=spaces._greedy_pivots) as spy:
            assert markov_constant(few, box) == markov_constant(
                SpaceDescriptor.fewnomial_span(live), line)
        # one 1-D sample of 513 points each, with one column per function of V'
        assert [call.args[0].shape for call in spy.call_args_list] == [(513, len(live))] * 2


def test_json_roundtrip():
    for space in (SpaceDescriptor.polynomial(2, 3),
                  SpaceDescriptor.trigonometric(1, 2),
                  SpaceDescriptor.fewnomial_span([(1.0, 0.0), (0.0, 2.5)],
                                                 power_modulus(0.5))):
        back = space_from_json(space.to_json())
        assert back == space
