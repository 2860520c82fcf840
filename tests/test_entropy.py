from itertools import combinations

import numpy as np
import pytest

from norming_lab import covering_number, metric_span, min_gap, universal_polynomial
from norming_lab.entropy import CoverCapExceeded, _EPS_TOL


def brute_cover(pts, eps):
    """Exhaustive minimal cover by closed eps-balls centered at points."""
    m = len(pts)
    D = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
    for k in range(1, m + 1):
        for centers in combinations(range(m), k):
            if np.all(np.min(D[list(centers)], axis=0) <= eps + _EPS_TOL):
                return k
    return m


def test_cover_1d_matches_brute(rng):
    for _ in range(30):
        m = int(rng.integers(2, 10))
        pts = rng.uniform(-1, 1, size=(m, 1))
        eps = float(rng.uniform(0.05, 1.0))
        assert covering_number(pts, eps) == brute_cover(pts, eps)


def test_cover_2d_matches_brute(rng):
    for _ in range(15):
        m = int(rng.integers(2, 9))
        pts = rng.uniform(-1, 1, size=(m, 2))
        eps = float(rng.uniform(0.1, 1.2))
        assert covering_number(pts, eps) == brute_cover(pts, eps)


def test_cover_cap_raises():
    pts = np.random.default_rng(0).uniform(-1, 1, size=(30, 2))
    with pytest.raises(CoverCapExceeded):
        covering_number(pts, 0.1, exact_cap=25)
    # the heuristic path still answers, upper-bounding the optimum
    h = covering_number(pts, 0.1, heuristic=True)
    assert h >= 1


def test_eps_validation():
    with pytest.raises(ValueError):
        covering_number([[0.0]], 0.0)


def test_min_gap():
    assert min_gap([[-1.0], [0.25], [1.0]]) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        min_gap([[0.0, 0.0], [1.0, 1.0]])


def test_universal_polynomial_values():
    assert universal_polynomial(1, 3, 0.5) == 3.0
    assert universal_polynomial(2, 2, 0.5) == pytest.approx(9 + 32.0)
    assert universal_polynomial(3, 2, 0.5, coefficients=[1.0, 2.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        universal_polynomial(3, 2, 0.5)


def brute_span(pts, d, eps_grid):
    n = pts.shape[1]
    vals = [e**n * (covering_number(pts, e) - universal_polynomial(n, d, e))
            for e in eps_grid]
    return max(vals)


def test_span_oracle_set():
    pts = np.array([[-1.0], [0.0], [1.0]])
    assert metric_span(pts, 2).span == pytest.approx(1.0)
    assert metric_span(pts, 1).span == pytest.approx(2.0)
    # neither sup is attained: both are left limits at the jump at eps = 1
    assert not metric_span(pts, 2).attained
    assert metric_span(pts, 2).argmax_eps == pytest.approx(1.0)


def test_span_matches_grid_oracle_1d(rng):
    eps_grid = np.linspace(1e-4, 2.0, 1500)
    for _ in range(8):
        m = int(rng.integers(2, 7))
        pts = rng.uniform(-1, 1, size=(m, 1))
        d = int(rng.integers(1, 4))
        exact = metric_span(pts, d).span
        approx = brute_span(pts, d, eps_grid)
        assert approx <= exact + 1e-9
        assert exact - approx < 2e-2


def test_span_matches_grid_oracle_2d(rng):
    eps_grid = np.linspace(1e-3, 2.5, 1200)
    for _ in range(5):
        m = int(rng.integers(2, 7))
        pts = rng.uniform(-1, 1, size=(m, 2))
        d = int(rng.integers(1, 3))
        exact = metric_span(pts, d).span
        approx = brute_span(pts, d, eps_grid)
        assert approx <= exact + 1e-9


def test_span_counts_match_covering_number():
    # metric_span counts every piece from one distance matrix; each count
    # must equal a standalone covering_number call at that breakpoint
    for seed in range(4):
        pts = np.random.default_rng(seed).uniform(-1, 1, size=(8 + 3 * seed, 2))
        profile = metric_span(pts, 2)
        assert len(profile.breakpoints) > 0
        assert profile.cover_counts == (len(pts),) + tuple(
            covering_number(pts, b) for b in profile.breakpoints)


def test_span_rejects_degree_zero():
    with pytest.raises(ValueError):
        metric_span([[0.0]], 0)
