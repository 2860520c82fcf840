"""Turan-Nazarov bounds for exponential sums, log-geometry of the positive
orthant, K_d distortion constants, and the fewnomial Remez-type bounds.

One convex body carries every width: ``ConvexBody.re_width(rate)`` is max -
min of Re<rate, .> over its vertices. A ``LogBody`` B in the orthant holds
its image log B as a ``ConvexBody``, plus the measure of B itself; a
fewnomial x^alpha on B is exp<alpha, u> on log B, so each first factor
sup over x, y in B of (x/y)^alpha is exp of the log-image's width in alpha,
which reads |alpha|. Every bound is ``first * (c * ratio)^m`` with m + 1
competing terms (``_tn_form``).

The absolute constant c appearing in every Turan-Nazarov-style bound is not
specified by the theory; it is therefore a required explicit argument
everywhere (except in the single-term case m = 0, where it cancels), and
``estimate_c`` quantifies it empirically from seeded random instances: the
largest c its instances need, a lower estimate of the constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .spaces import _box_corners, report_json

# sample sizes and stop rule of sup_abs_on_interval
SUP_START = 257
SUP_REL_TOL = 1e-6
SUP_CAP = 1 << 14


# ---------------------------------------------------------------------------
# exponential polynomials


@dataclass(frozen=True, eq=False)
class ExpPoly:
    """p(x) = sum_k c_k * exp(f_k(x)) with complex coefficients and rates."""

    coefficients: tuple
    rates: tuple  # tuple of complex n-vectors

    def __post_init__(self):
        coefs = tuple(complex(c) for c in self.coefficients)
        rates = tuple(tuple(complex(r) for r in rate) for rate in self.rates)
        if not coefs or len(coefs) != len(rates):
            raise ValueError("need matching, nonempty coefficient and rate lists")
        if len(set(rates)) != len(rates):
            raise ValueError("rates must be pairwise distinct")
        object.__setattr__(self, "coefficients", coefs)
        object.__setattr__(self, "rates", rates)

    @staticmethod
    def univariate(coefficients, lambdas) -> "ExpPoly":
        return ExpPoly(tuple(coefficients), tuple((lam,) for lam in lambdas))

    @property
    def term_count(self) -> int:
        return len(self.coefficients)

    @property
    def nvars(self) -> int:
        return len(self.rates[0])

    @property
    def max_abs_re_rate(self) -> float:
        return max(abs(r.real) for rate in self.rates for r in rate)

    def __call__(self, x):
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 0 if self.nvars == 1 else pts.ndim == 1
        pts = np.atleast_1d(pts)
        if self.nvars == 1 and pts.ndim == 1:
            pts = pts[:, None]
        R = np.asarray(self.rates, dtype=complex)  # (terms, n)
        C = np.asarray(self.coefficients, dtype=complex)
        vals = np.exp(pts @ R.T) @ C
        return vals[0] if single else vals


def sup_abs_on_interval(p: ExpPoly, a: float, b: float) -> float:
    """Dense-sampling estimate of sup |p| on [a, b]: the sample starts at
    ``SUP_START`` points and doubles until the relative change drops below
    ``SUP_REL_TOL`` or it reaches ``SUP_CAP`` points. Uncertified: no Markov
    constant is available for exponential sums here."""
    if b < a:
        raise ValueError("empty interval")
    m, prev = SUP_START, -math.inf
    while True:
        cur = float(np.max(np.abs(p(np.linspace(a, b, m)))))
        if cur - prev <= SUP_REL_TOL * max(cur, 1e-300) or m >= SUP_CAP:
            return cur
        prev, m = cur, 2 * m - 1


def sup_abs_on_union(p: ExpPoly, intervals) -> float:
    return max(sup_abs_on_interval(p, a, b) for a, b in intervals)


# ---------------------------------------------------------------------------
# log-geometry of the positive orthant


def en_map(u):
    """Componentwise exponential R^n -> positive orthant."""
    return np.exp(np.asarray(u, dtype=float))


def log_map(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("log_map needs positive coordinates")
    return np.log(x)


def geodesic_point(x, y, t: float):
    """(x_1^t y_1^(1-t), ..., x_n^t y_n^(1-t)): the log-segment between x and y."""
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    return en_map(t * log_map(x) + (1.0 - t) * log_map(y))


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """A convex body in R^n: the hull of ``verts``, of dimension ``dim`` and
    Hausdorff measure ``measure`` (None where it is not known)."""

    verts: np.ndarray
    dim: int = 0
    measure: Optional[float] = None

    @staticmethod
    def box(a, b) -> "ConvexBody":
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if np.any(b < a):
            raise ValueError("need a <= b componentwise")
        sides = b - a
        dim = int(np.sum(sides > 0))
        measure = float(np.prod(sides[sides > 0])) if dim else None
        return ConvexBody(_box_corners(a, b), dim, measure)

    @staticmethod
    def polytope(vertices, dim: int, measure: Optional[float] = None) -> "ConvexBody":
        return ConvexBody(np.atleast_2d(np.asarray(vertices, dtype=float)), dim, measure)

    def vertices(self) -> np.ndarray:
        return self.verts

    def re_width(self, rate) -> float:
        """sup over x, y in the body of Re f(x - y), f linear with the given rate;
        exact at the vertices."""
        vals = self.verts @ np.real(np.asarray(rate, dtype=complex))
        return float(np.max(vals) - np.min(vals))


@dataclass(frozen=True, eq=False)
class LogBody:
    """A compact logarithmically convex region B in the positive orthant: its
    image log B, a convex body, with the Hausdorff measure of B itself.

    ``box(a, b)`` has a computed measure (the product of its positive side
    lengths). General log-polytopes require a user-supplied measure, echoed
    in reports as user-asserted; the one computed exception is a two-vertex
    log-segment along a single coordinate axis, whose image is a straight
    segment of known length.
    """

    log_image: ConvexBody
    measure: float
    measure_source: str = "computed"

    @property
    def dim(self) -> int:
        return self.log_image.dim

    @staticmethod
    def box(a, b) -> "LogBody":
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if np.any(a <= 0) or np.any(b < a):
            raise ValueError("need 0 < a <= b componentwise")
        # dim and measure from the orthant sides: a log side can round to 0
        sides = b - a
        dim = int(np.sum(sides > 0))
        measure = float(np.prod(sides[sides > 0])) if dim else 0.0
        if measure <= 0:
            raise ValueError("box must have positive measure")
        return LogBody(ConvexBody.polytope(_box_corners(np.log(a), np.log(b)), dim), measure)

    @staticmethod
    def log_polytope(log_vertices, dim: int, measure: Optional[float] = None) -> "LogBody":
        V = np.atleast_2d(np.asarray(log_vertices, dtype=float))
        if not (1 <= dim <= V.shape[1]):
            raise ValueError(f"need 1 <= dim <= n = {V.shape[1]}, got dim = {dim}")
        source = "user"
        if measure is None:
            if V.shape[0] == 2 and np.sum(np.abs(V[1] - V[0]) > 1e-15) == 1:
                # axis-aligned log-segment: the image is a straight segment
                j = int(np.argmax(np.abs(V[1] - V[0])))
                measure = abs(math.exp(V[1, j]) - math.exp(V[0, j]))
                source = "computed"
            else:
                raise ValueError("measure must be supplied for general log-polytopes")
        if measure <= 0:
            raise ValueError("measure must be positive")
        return LogBody(ConvexBody.polytope(V, dim), float(measure), source)

    def vertices(self) -> np.ndarray:
        """Vertices in orthant coordinates."""
        return en_map(self.log_image.verts)


def kd_constant(body, d: int) -> float:
    """K_d: ratio of max to min d-fold coordinate products over the set.

    Accepts a LogBody or a finite array of positive points. Coordinate
    products are log-linear, so K_d is exp of max - min of the d-fold sums
    of log-coordinates over the log-vertices / sample points.
    """
    if isinstance(body, LogBody):
        L = body.log_image.verts
    else:
        pts = np.atleast_2d(np.asarray(body, dtype=float))
        if np.any(pts <= 0):
            raise ValueError("points must have positive coordinates")
        L = np.log(pts)
    n = L.shape[1]
    if not (1 <= d <= n):
        raise ValueError("need 1 <= d <= n")
    sums = np.stack([L[:, idx].sum(axis=1) for idx in combinations(range(n), d)])
    return math.exp(float(np.max(sums) - np.min(sums)))


# ---------------------------------------------------------------------------
# the bounds: each is first * (c * ratio)^m


def _tn_form(first: float, m: int, c: Optional[float], ratio: float) -> float:
    """first * (c * ratio)^m, where m + 1 terms compete; c cancels at m = 0."""
    if m < 0:
        raise ValueError("need m >= 0")
    if m == 0:
        return first
    if c is None:
        raise ValueError("the absolute constant c must be supplied "
                         "(see estimate_c for an empirical value)")
    return first * (c * ratio) ** m


def _exponents(exponents) -> np.ndarray:
    """The exponent vectors alpha_k, one per row, pairwise distinct."""
    A = np.asarray(exponents, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("need a nonempty list of exponent vectors of one length")
    if len(np.unique(A, axis=0)) != len(A):
        raise ValueError("exponents must be pairwise distinct")
    return A


def _sup_ratio(exponents, body: LogBody) -> float:
    """max_k sup over x, y in the body of (x/y)^alpha_k."""
    return math.exp(max(body.log_image.re_width(alpha) for alpha in exponents))


def tn_bound_1d(m: int, max_re_rate: float, len_I: float, meas_Z: float,
                c: Optional[float] = None) -> float:
    """exp(len_I * max|Re rate|) * (c * len_I / meas_Z)^m."""
    if not (0.0 < meas_Z <= len_I):
        raise ValueError("need 0 < meas_Z <= len_I")
    if max_re_rate < 0:
        raise ValueError("max|Re rate| must be nonnegative")
    return _tn_form(math.exp(len_I * max_re_rate), m, c, len_I / meas_Z)


def tn_bound_multi(p: ExpPoly, body: ConvexBody, meas_Z: float,
                   c: Optional[float] = None, meas_B: Optional[float] = None) -> float:
    """Multivariate bound exp(max_k width_k(B)) * (c * d * meas_B / meas_Z)^m."""
    if meas_B is None:
        meas_B = body.measure
    if meas_B is None:
        raise ValueError("the body's Hausdorff measure must be supplied")
    if not (0.0 < meas_Z <= meas_B):
        raise ValueError("need 0 < meas_Z <= meas_B")
    width = max(body.re_width(rate) for rate in p.rates)
    return _tn_form(math.exp(width), p.term_count - 1, c, body.dim * meas_B / meas_Z)


def fewnomial_bound(exponents, body: LogBody, meas_Z: float,
                    c: Optional[float] = None) -> float:
    """max_k sup(x/y)^alpha_k * (c * d * K_d(B) * H_d(B) / meas_Z)^m."""
    alphas = _exponents(exponents)
    if not (0.0 < meas_Z <= body.measure):
        raise ValueError("need 0 < meas_Z <= the body's measure")
    d = body.dim
    return _tn_form(_sup_ratio(alphas, body), len(alphas) - 1, c,
                    d * kd_constant(body, d) * body.measure / meas_Z)


def rectangle_fewnomial_bound(a, b, exponents, meas_Z: float,
                              c: Optional[float] = None) -> float:
    """Refined bound for full-dimensional rectangles [a, b] in the orthant:
    max_k sup(x/y)^alpha_k * (c * n * prod_j b_j ln(b_j/a_j) / meas_Z)^m."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0) or np.any(b <= a):
        raise ValueError("need 0 < a < b componentwise")
    alphas = _exponents(exponents)
    if not (0.0 < meas_Z <= float(np.prod(b - a))):
        raise ValueError("need 0 < meas_Z <= vol(box)")
    return _tn_form(_sup_ratio(alphas, LogBody.box(a, b)), len(alphas) - 1, c,
                    a.size * float(np.prod(b * np.log(b / a))) / meas_Z)


def cor31_bound(exponents, body: LogBody, meas_Z: float,
                c: Optional[float] = None) -> float:
    """K_1(B)^(m + max_k |alpha_k|) * (c * d * H_d(B) / meas_Z)^m, with
    |alpha| = sum_j |alpha_j|; K_1^|alpha| bounds sup(x/y)^alpha."""
    alphas = _exponents(exponents)
    if not (0.0 < meas_Z <= body.measure):
        raise ValueError("need 0 < meas_Z <= the body's measure")
    k1 = kd_constant(body, 1)
    deg = float(np.max(np.sum(np.abs(alphas), axis=1)))
    return _tn_form(k1**deg, len(alphas) - 1, c, k1 * body.dim * body.measure / meas_Z)


def discrete_fewnomial_bound(a: float, b: float, exponents, span: float,
                             c: Optional[float] = None) -> float:
    """(b/a)^n_m * (c * b * ln(b/a) / span)^m for sparse integer-exponent polynomials."""
    if not (0.0 < a < b):
        raise ValueError("need 0 < a < b")
    exps = sorted(float(e) for e in exponents)
    if not all(e.is_integer() for e in exps) or len(set(exps)) != len(exps) or exps[0] < 0:
        raise ValueError("exponents must be distinct nonnegative integers")
    if span <= 0:
        raise ValueError("span must be positive")
    return _tn_form((b / a) ** exps[-1], len(exps) - 1, c, b * math.log(b / a) / span)


def nested_fewnomial_bound(R: float, rho: float, N: float, m: int, delta: float,
                           c: Optional[float] = None) -> float:
    """(R/rho)^N * (c * R * ln(R/rho) / delta)^m for nested hypersurface families."""
    if not (0.0 < rho < R):
        raise ValueError("need 0 < rho < R")
    if N < 0:
        raise ValueError("the degree N must be nonnegative")
    if delta <= 0:
        raise ValueError("delta must be positive")
    return _tn_form((R / rho) ** N, m, c, R * math.log(R / rho) / delta)


# ---------------------------------------------------------------------------
# empirical constant estimation


@dataclass(frozen=True)
class CEstimate:
    value: float
    trials: int
    m_max: int
    rate_box: float
    seed: int
    argmax_trial: int

    to_json = report_json


def sample_tn_instance(rng: np.random.Generator, m_max: int, rate_box: float):
    """One random 1-D Turan-Nazarov instance: (p, I=(0, L), Z intervals)."""
    m = int(rng.integers(1, m_max + 1)) if m_max >= 1 else 0
    coefs = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
    lambdas = (rng.uniform(-rate_box, rate_box, m + 1)
               + 1j * rng.uniform(-rate_box, rate_box, m + 1))
    p = ExpPoly.univariate(coefs, lambdas)
    L = float(rng.uniform(0.5, 2.0))
    k = int(rng.integers(1, 4))
    cuts = np.sort(rng.uniform(0.0, L, 2 * k))
    intervals = [(float(cuts[2 * j]), float(cuts[2 * j + 1])) for j in range(k)]
    intervals = [(a, b) for a, b in intervals if b > a + 1e-9]
    if not intervals:
        mid = L / 2
        intervals = [(mid - L / 8, mid + L / 8)]
    return p, (0.0, L), intervals


def minimal_c_for_instance(p: ExpPoly, interval, z_intervals) -> float:
    """Smallest c making the 1-D bound hold for one instance (sampled sups)."""
    m = p.term_count - 1
    if m == 0:
        return 0.0
    a, b = interval
    len_I = b - a
    meas_Z = _union_length(z_intervals)
    sup_I = sup_abs_on_interval(p, a, b)
    sup_Z = sup_abs_on_union(p, z_intervals)
    if sup_Z <= 0.0:
        return math.inf
    ratio = sup_I / (math.exp(len_I * p.max_abs_re_rate) * sup_Z)
    return max(ratio, 0.0) ** (1.0 / m) * meas_Z / len_I


def _union_length(intervals) -> float:
    """The measure of a union of intervals (a, b): overlaps count once."""
    total, reach = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def estimate_c(trials: int, m_max: int = 3, rate_box: float = 2.0,
               seed: int = 0) -> CEstimate:
    """Empirical minimal c over seeded random instances (a running maximum).

    With only single-term instances possible (m_max = 0) the exponent is
    zero and c is irrelevant; the 0-marker is returned.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if m_max == 0:
        return CEstimate(0.0, trials, m_max, rate_box, seed, -1)
    rng = np.random.default_rng(seed)
    best = 0.0
    arg = -1
    for t in range(trials):
        p, interval, zs = sample_tn_instance(rng, m_max, rate_box)
        ct = minimal_c_for_instance(p, interval, zs)
        if math.isfinite(ct) and ct > best:
            best, arg = ct, t
    return CEstimate(best, trials, m_max, rate_box, seed, arg)
