"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced (pytest captures stdout otherwise and shows it per-test).
"""
import functools
import math
from itertools import combinations

import mpmath
import numpy as np

import norming_lab as nl
from norming_lab.entropy import _EPS_TOL
from norming_lab.fewnomial import (minimal_c_for_instance, sample_tn_instance,
                                   sup_abs_on_interval, sup_abs_on_union)


def criterion(k, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"\ncriterion {k:2d} ({desc}): FAIL")
                raise
            print(f"\ncriterion {k:2d} ({desc}): PASS")

        return wrapper

    return deco


P1 = nl.SpaceDescriptor.polynomial(1, 1)
P2 = nl.SpaceDescriptor.polynomial(1, 2)


@criterion(1, "exact norming constants")
def test_exact_norming_constants():
    nodes = [[-1.0], [0.0], [1.0]]
    lp = nl.norming_constant(P2, nodes, grid_spacing=1e-5)
    assert lp.method == "lp_grid"
    assert abs(lp.value - 1.25) <= 1e-6
    leb = nl.lebesgue_constant(P2, nodes, grid_spacing=1e-5)
    assert abs(leb - 1.25) <= 1e-6
    rep = nl.norming_constant(P1, [[-0.9], [0.9]], grid_spacing=1e-5)
    assert abs(rep.value - 10.0 / 9.0) <= 1e-6


@criterion(2, "not-norming detection with witness")
def test_not_norming_witness():
    Z = np.array([[-1.0], [1.0]])
    rep = nl.norming_constant(P2, Z)
    assert not rep.norming
    assert rep.reciprocal == 0.0
    w = rep.witness_coefficients
    on_z = np.max(np.abs(P2.evaluate_basis(Z) @ w))
    assert on_z <= 1e-10
    grid = np.linspace(-1, 1, 20001)[:, None]
    sup_q = np.max(np.abs(P2.evaluate_basis(grid) @ w))
    assert sup_q >= 0.5


@criterion(3, "monotonicity under set growth, 200 nested pairs")
def test_monotonicity():
    rng = np.random.default_rng(42)
    spaces = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
    done = 0
    while done < 200:
        n, d = spaces[int(rng.integers(0, len(spaces)))]
        space = nl.SpaceDescriptor.polynomial(n, d)
        l = space.dimension()
        budget = 20001 if n == 1 else 10000
        m1 = l + int(rng.integers(0, 3))
        extra = 1 + int(rng.integers(0, 3))
        pts = _separated(rng, m1 + extra, n, 0.12)
        z_small, z_big = pts[:m1], pts
        r_small = nl.norming_constant(space, z_small, budget=budget)
        if not r_small.norming:
            continue
        r_big = nl.norming_constant(space, z_big, budget=budget)
        assert r_big.norming
        assert r_big.value <= r_small.value + 1e-9, (n, d, done)
        done += 1


def _separated(rng, m, n, min_sep):
    pts = []
    while len(pts) < m:
        cand = rng.uniform(-1, 1, size=n)
        if all(np.max(np.abs(cand - p)) > min_sep for p in pts):
            pts.append(cand)
    return np.array(pts)


@criterion(4, "sandwich inequality via exhaustive Fekete, 100 sets")
def test_sandwich():
    rng = np.random.default_rng(7)
    spaces = [(1, 1), (1, 2), (1, 3), (2, 1)]  # all with dim <= 4
    for trial in range(100):
        n, d = spaces[trial % len(spaces)]
        space = nl.SpaceDescriptor.polynomial(n, d)
        l = space.dimension()
        m = int(rng.integers(l, 9))
        pts = _separated(rng, m, n, 0.15)
        budget = 20001 if n == 1 else 10000
        rep = nl.sandwich_check(space, pts, budget=budget)
        assert rep.lower_ok and rep.upper_ok, (trial, rep.n_full, rep.n_fekete)
        assert rep.lagrange_ok and rep.max_abs_lagrange_on_z <= 1 + 1e-9


@criterion(5, "interval-union growth bound, 500 random instances")
def test_remez_desk_scale():
    rng = np.random.default_rng(11)
    for _ in range(500):
        d = int(rng.integers(0, 6))
        space = nl.SpaceDescriptor.polynomial(1, d)
        coeff = rng.standard_normal(d + 1)
        k = int(rng.integers(1, 5))
        cuts = np.sort(rng.uniform(-1, 1, 2 * k))
        intervals = [(cuts[2 * j], cuts[2 * j + 1]) for j in range(k)
                     if cuts[2 * j + 1] - cuts[2 * j] > 1e-3]
        if not intervals:
            continue
        mu = sum(b - a for a, b in intervals)
        sup_q_lower = nl.certified_supnorm(space, coeff, grid_spacing=1e-4).lower
        sup_z_upper = max(
            nl.certified_supnorm(space, coeff, box=(np.array([a]), np.array([b])),
                                 grid_spacing=1e-4).upper
            for a, b in intervals)
        bound = nl.remez_bound(d, mu).value
        assert sup_q_lower <= bound * sup_z_upper * (1 + 1e-6), (d, mu)


@criterion(6, "measure-ratio reduction identity and envelope domination")
def test_bg_reduction():
    for d in range(0, 11):
        for mu in np.arange(0.1, 2.0001, 0.1):
            lhs = nl.bg_bound(1, d, float(mu) / 2).value
            rhs = nl.remez_bound(d, float(mu)).value
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 9))
        lam = float(rng.uniform(1e-3, 1.0))
        assert nl.bg_bound(n, d, lam).value < nl.bg_upper_envelope(n, d, lam).value


@criterion(7, "Chebyshev evaluator vs trig identity and 256-bit recurrence")
def test_chebyshev_machinery():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        d = int(rng.integers(0, 31))
        theta = float(rng.uniform(0, math.pi))
        assert abs(nl.chebyshev(d, math.cos(theta)) - math.cos(d * theta)) <= 1e-12
    with mpmath.workprec(256):
        for x in np.linspace(1.0, 10.0, 19):
            t0, t1 = mpmath.mpf(1), mpmath.mpf(float(x))
            xs = mpmath.mpf(float(x))
            for d in range(2, 61):
                t0, t1 = t1, 2 * xs * t1 - t0
                ours = nl.chebyshev(d, float(x))
                rel = abs(ours - float(t1)) / float(t1)
                assert rel <= 1e-12, (d, x, rel)


@criterion(8, "metric span oracle values and exact covering numbers")
def test_metric_span():
    pts = np.array([[-1.0], [0.0], [1.0]])
    s2 = nl.metric_span(pts, 2)
    s1 = nl.metric_span(pts, 1)
    assert abs(s2.span - 1.0) <= 1e-12
    assert abs(s1.span - 2.0) <= 1e-12
    # brute eps-grid oracle, 2000 values
    for d, target in ((2, 1.0), (1, 2.0)):
        eps_grid = np.linspace(1e-4, 1.2, 2000)
        brute = max(e * (nl.covering_number(pts, float(e))
                         - nl.universal_polynomial(1, d, float(e)))
                    for e in eps_grid)
        assert abs(brute - target) <= 1e-3, (d, brute)
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(2, 13))
        planar = rng.uniform(-1, 1, size=(m, 2))
        D = np.max(np.abs(planar[:, None, :] - planar[None, :, :]), axis=2)
        eps = float(rng.uniform(0.1, 1.5))
        assert nl.covering_number(planar, eps) == _brute_cover(planar, D, eps)


def _brute_cover(pts, D, eps):
    m = len(pts)
    for k in range(1, m + 1):
        for centers in combinations(range(m), k):
            if np.all(np.min(D[list(centers)], axis=0) <= eps + _EPS_TOL):
                return k
    return m


@criterion(9, "documented min-gap bound violation finding")
def test_documented_violation():
    report = nl.audit(P2, [[-1.0], [0.0], [1.0]], ["cor22"], budget=20001)
    assert report.violations == 1
    f = report.findings[0]
    assert f.name == "cor22" and f.violation
    assert abs(f.bound.value - 1.0) <= 1e-12
    assert abs(f.exact - 1.25) <= 1e-6


@criterion(10, "empirical exponential-sum constant holds on fresh instances")
def test_turan_nazarov_empirical():
    est = nl.estimate_c(1000, m_max=3, rate_box=2.0, seed=21)
    assert math.isfinite(est.value) and est.value > 0.0
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(1000):
        p, (a, b), zs = sample_tn_instance(rng, 3, 2.0)
        m = p.term_count - 1
        meas = sum(bb - aa for aa, bb in zs)
        sup_i = sup_abs_on_interval(p, a, b)
        sup_z = sup_abs_on_union(p, zs)
        bound = nl.tn_bound_1d(m, p.max_abs_re_rate, b - a, meas, c=est.value)
        if sup_i > bound * sup_z * (1 + 1e-9):
            violations += 1
    assert violations == 0, violations
    # single-term instances need no constant at all
    rng0 = np.random.default_rng(303)
    for _ in range(50):
        lam = complex(rng0.uniform(-2, 2), rng0.uniform(-2, 2))
        p = nl.ExpPoly.univariate([1.0 + 0.5j], [lam])
        L = float(rng0.uniform(0.5, 2.0))
        z0, z1 = np.sort(rng0.uniform(0, L, 2))
        if z1 - z0 < 1e-3:
            continue
        bound = nl.tn_bound_1d(0, p.max_abs_re_rate, L, z1 - z0)
        assert sup_abs_on_interval(p, 0.0, L) <= bound * sup_abs_on_interval(
            p, z0, z1) * (1 + 1e-6)


@criterion(11, "single-monomial tightness and distortion-constant laws")
def test_fewnomial_tightness():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = float(rng.uniform(0.1, 1.5))
        b = a + float(rng.uniform(0.1, 2.0))
        k = int(rng.integers(0, 9))
        actual = b**k / a**k  # sup over [a,b] of x^k against Z = {a}
        bound = nl.discrete_fewnomial_bound(a, b, [k], span=1.0)
        assert abs(actual - bound) <= 1e-12 * bound, (a, b, k)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        lo = rng.uniform(0.1, 2.0, size=n)
        hi = lo + rng.uniform(0.05, 3.0, size=n)
        body = nl.LogBody.box(lo, hi)
        k1 = nl.kd_constant(body, 1)
        d = int(rng.integers(2, n + 1))
        assert nl.kd_constant(body, d) <= k1**d * (1 + 1e-9)
        t = float(rng.uniform(0.25, 4.0))
        scaled = nl.LogBody.box(t * lo, t * hi)
        rel = abs(nl.kd_constant(scaled, d) - nl.kd_constant(body, d))
        assert rel <= 1e-9 * nl.kd_constant(body, d)


@criterion(12, "Lipschitz stability: equality case, 500 pairs, ball tightness")
def test_lipschitz_stability():
    # exact equality case
    rep = nl.lipschitz_audit(P1, [[-1.0], [1.0]], [[-0.9], [0.9]], budget=20001)
    assert abs(rep.lhs - 0.1) <= 1e-9
    assert abs(rep.rhs - 0.1) <= 1e-9
    assert rep.satisfied and rep.markov_certified

    # 500 random perturbation pairs with certified constants
    rng = np.random.default_rng(29)
    spaces = [(1, 1), (1, 2), (2, 1)]
    pairs = 0
    while pairs < 500:
        n, d = spaces[int(rng.integers(0, len(spaces)))]
        space = nl.SpaceDescriptor.polynomial(n, d)
        M = nl.markov_constant(space)
        assert M.certified and M.value == d * d * n
        l = space.dimension()
        budget = 40001 if n == 1 else 10000
        base_pts = _separated(rng, l + int(rng.integers(0, 3)), n, 0.28)
        r1 = nl.norming_constant(space, base_pts, budget=budget)
        if not r1.norming:
            continue
        for _ in range(5):
            mag = float(rng.uniform(0.05, 0.2))
            pert = np.clip(base_pts + rng.uniform(-mag, mag, base_pts.shape),
                           -1.0, 1.0)
            try:
                r2 = nl.norming_constant(space, pert, budget=budget)
            except ValueError:
                continue
            dh = nl.hausdorff_distance(base_pts, pert)
            if dh <= 0 or not r2.norming:
                continue
            rhs = M.value * space.modulus(dh)
            # certified reciprocal intervals: a violation must separate them
            i1 = (1.0 / r1.upper, 1.0 / r1.lower)
            i2 = (1.0 / r2.upper, 1.0 / r2.lower)
            gap = max(i1[0] - i2[1], i2[0] - i1[1], 0.0)
            assert gap <= rhs * (1 + 1e-9), (n, d, gap, rhs)
            pairs += 1

    # ball bound tight on the {-0.9, 0.9} example
    ball = nl.stability_ball(P1, [[-1.0], [1.0]], budget=20001)
    predicted = ball.bound_for([[-0.9], [0.9]])
    actual = nl.norming_constant(P1, [[-0.9], [0.9]], budget=20001).value
    assert abs(predicted - actual) <= 1e-6 * actual
