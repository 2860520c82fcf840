"""l-inf covering numbers and the metric (d,n)-span of finite point sets.

Covering balls are closed cubes of sidelength 2*eps centered at points of
the set itself. In one dimension the optimal cover is a greedy sweep; in
higher dimensions an exact branch-and-bound set cover is used (capped, with
an explicitly non-certified greedy fallback).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .norming import as_points, linf_distances

DEFAULT_COVER_CAP = 25
_EPS_TOL = 1e-12


class CoverCapExceeded(RuntimeError):
    """Exact set cover refused; rerun with the heuristic flag for a non-certified count."""


# ---------------------------------------------------------------------------
# covering numbers


def covering_number(points, eps: float, *, exact_cap: int = DEFAULT_COVER_CAP,
                    heuristic: bool = False) -> int:
    """Minimal number of closed eps-balls centered at points of Z covering Z."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts = as_points(points)
    D = linf_distances(pts, pts) if pts.shape[0] > 1 and pts.shape[1] > 1 else None
    return _cover_count(pts, D, eps, exact_cap, heuristic)


def _cover_count(pts: np.ndarray, D: Optional[np.ndarray], eps: float, exact_cap: int,
                 heuristic: bool) -> int:
    """``covering_number`` of ``pts`` given their l-inf distance matrix ``D``
    (not read for a single point or in one dimension)."""
    m = pts.shape[0]
    if m == 1:
        return 1
    if pts.shape[1] == 1:
        return _cover_1d(np.sort(pts[:, 0]), eps)
    masks = []
    for j in range(m):
        mask = 0
        for i in np.nonzero(D[j] <= eps + _EPS_TOL)[0]:
            mask |= 1 << int(i)
        masks.append(mask)
    if heuristic:
        return _greedy_cover(masks, m)
    if m > exact_cap:
        raise CoverCapExceeded(
            f"{m} points exceed the exact set-cover cap {exact_cap}")
    return _exact_cover(masks, m)


def _cover_1d(xs: np.ndarray, eps: float) -> int:
    """Optimal greedy sweep: cover the leftmost uncovered point with the
    rightmost admissible center."""
    count = 0
    i = 0
    m = xs.size
    while i < m:
        # rightmost point usable as a center for xs[i]
        j = int(np.searchsorted(xs, xs[i] + eps + _EPS_TOL, side="right")) - 1
        reach = xs[j] + eps + _EPS_TOL
        count += 1
        while i < m and xs[i] <= reach:
            i += 1
    return count


def _greedy_cover(masks: Sequence[int], m: int) -> int:
    full = (1 << m) - 1
    covered = 0
    count = 0
    while covered != full:
        best = max(masks, key=lambda s: bin(s & ~covered).count("1"))
        if best & ~covered == 0:
            raise RuntimeError("greedy cover stalled")
        covered |= best
        count += 1
    return count


def _exact_cover(masks: Sequence[int], m: int) -> int:
    full = (1 << m) - 1
    coverers = [[j for j, s in enumerate(masks) if (s >> i) & 1] for i in range(m)]
    best = [_greedy_cover(masks, m)]

    def lower_bound(uncovered: int) -> int:
        # greedy pack of points no two of which fit in one ball
        lb = 0
        blocked = 0
        for i in range(m):
            if (uncovered >> i) & 1 and not (blocked >> i) & 1:
                lb += 1
                for j in coverers[i]:
                    blocked |= masks[j]
        return lb

    def dfs(uncovered: int, used: int):
        if uncovered == 0:
            best[0] = min(best[0], used)
            return
        if used + lower_bound(uncovered) >= best[0]:
            return
        # branch on the uncovered point with fewest candidate balls
        pick = -1
        fewest = m + 1
        for i in range(m):
            if (uncovered >> i) & 1:
                k = len(coverers[i])
                if k < fewest:
                    fewest, pick = k, i
        for j in sorted(coverers[pick], key=lambda j: -bin(masks[j] & uncovered).count("1")):
            dfs(uncovered & ~masks[j], used + 1)

    dfs(full, 0)
    return best[0]


def min_gap(points) -> float:
    """Minimal distance between distinct points of a 1-D set."""
    pts = as_points(points)
    if pts.shape[1] != 1:
        raise ValueError("min_gap is defined for 1-D point sets")
    if pts.shape[0] < 2:
        raise ValueError("need at least two points")
    xs = np.sort(pts[:, 0])
    return float(np.min(np.diff(xs)))


# ---------------------------------------------------------------------------
# universal polynomials and the span


def universal_polynomial(n: int, d: int, eps: float,
                         coefficients: Optional[Sequence[float]] = None) -> float:
    """M_{n,d}(eps): the covering-number comparison polynomial in 1/eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if coefficients is not None:
        return float(sum(c * (1.0 / eps) ** i for i, c in enumerate(coefficients)))
    if n == 1:
        return float(d)
    if n == 2:
        return (2 * d - 1) ** 2 + 8.0 * d / eps
    raise ValueError("coefficients required for n >= 3")


@dataclass(frozen=True)
class SpanProfile:
    breakpoints: tuple[float, ...]
    cover_counts: tuple[int, ...]  # one count per piece; len = len(breakpoints)+1
    span: float
    argmax_eps: float
    attained: bool
    degree: int
    dim: int

    def to_json(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "cover_counts": list(self.cover_counts),
            "span": self.span,
            "argmax_eps": self.argmax_eps,
            "attained": self.attained,
            "degree": self.degree,
            "dim": self.dim,
        }


def metric_span(points, d: int, *, coefficients=None,
                exact_cap: int = DEFAULT_COVER_CAP, heuristic: bool = False) -> SpanProfile:
    """sup over eps > 0 of eps^n * (M(eps, Z) - M_{n,d}(eps)).

    The covering number is piecewise constant with breakpoints at pairwise
    l-inf distances, so the sup reduces to finitely many candidates: each
    piece's left endpoint (attained), the left limit at its right endpoint,
    and for n = 2 the single interior stationary point of the piece.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    pts = as_points(points)
    n = pts.shape[1]
    m = pts.shape[0]
    D = linf_distances(pts, pts)
    bps = np.unique(D[np.triu_indices(m, 1)])
    bps = bps[bps > _EPS_TOL]
    counts = [m] + [_cover_count(pts, D, float(b), exact_cap, heuristic) for b in bps]

    def phi(eps: float, K: int) -> float:
        return eps**n * (K - universal_polynomial(n, d, eps, coefficients))

    candidates: list[tuple[float, float, bool]] = []  # (value, eps, attained)
    edges = [0.0] + [float(b) for b in bps]
    for i, K in enumerate(counts):
        lo = edges[i]
        hi = edges[i + 1] if i + 1 < len(edges) else None
        if lo > 0.0:
            candidates.append((phi(lo, K), lo, True))
        else:
            candidates.append((0.0, 0.0, False))  # limit as eps -> 0+
        if hi is not None:
            candidates.append((phi(hi, K), hi, False))  # left limit at the jump
        if n == 2 and coefficients is None:
            a = K - (2 * d - 1) ** 2
            if a != 0:
                stat = 4.0 * d / a
                if lo < stat and (hi is None or stat < hi):
                    candidates.append((phi(stat, K), stat, True))
    best = max(candidates, key=lambda c: (c[0], c[2]))
    return SpanProfile(tuple(float(b) for b in bps), tuple(counts),
                       best[0], best[1], best[2], d, n)
