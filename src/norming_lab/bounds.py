"""Stable Chebyshev machinery, the closed-form Remez-type bounds, and the
auditor that compares each bound against the exact norming constant.

All bound evaluators return a :class:`BoundResult`; inapplicable inputs that
the theory itself anticipates (span outside the bound domain, too few
points, lacunarity violated) are reported as ``applicable=False`` rather
than raised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import entropy
from .norming import (NotNormingError, PointSet, _Frame, as_point_set, cramer_bound,
                      fekete_select, norming_constant)
from .spaces import SpaceDescriptor, report_json


def chebyshev(d: int, x: float) -> float:
    """T_d(x); trigonometric form on [-1, 1], E-function form outside."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if x < -1.0:
        return (-1.0) ** d * chebyshev(d, -x)
    if x <= 1.0:
        return math.cos(d * math.acos(x))
    e = e_function(x)
    return 0.5 * (e**d + e ** (-d))


def e_function(x: float) -> float:
    """E(x) = x + sqrt(x^2 - 1) for x >= 1."""
    if x < 1.0:
        raise ValueError("E(x) requires x >= 1")
    return x + math.sqrt(x * x - 1.0)


@dataclass(frozen=True)
class BoundResult:
    name: str
    value: float
    inputs: dict
    applicable: bool = True
    reason: Optional[str] = None

    to_json = report_json


def bg_bound(n: int, d: int, lam: float) -> BoundResult:
    """Measure-ratio bound T_d((1 + (1-lam)^(1/n)) / (1 - (1-lam)^(1/n)))."""
    if not (0.0 < lam <= 1.0):
        raise ValueError("lambda must lie in (0, 1]")
    s = (1.0 - lam) ** (1.0 / n)
    value = 1.0 if s >= 1.0 - 1e-300 else chebyshev(d, (1.0 + s) / (1.0 - s))
    return BoundResult("bg", value, {"n": n, "d": d, "lam": lam})


def remez_bound(d: int, mu: float) -> BoundResult:
    """Interval bound T_d((4 - mu)/mu) for measurable Z of measure mu."""
    if not (0.0 < mu <= 2.0):
        raise ValueError("mu must lie in (0, 2]")
    inner = bg_bound(1, d, mu / 2.0)  # identical for n = 1
    return BoundResult("remez", inner.value, {"d": d, "mu": mu})


def bg_upper_envelope(n: int, d: int, lam: float) -> BoundResult:
    """The strictly dominating envelope (4n/lam)^d."""
    if not (0.0 < lam <= 1.0):
        raise ValueError("lambda must lie in (0, 1]")
    return BoundResult("bg_envelope", (4.0 * n / lam) ** d,
                       {"n": n, "d": d, "lam": lam})


def analytic_bound(n: int, lam: float, C: float) -> BoundResult:
    """E(...)^C bound for finite-dimensional analytic spaces; C is user-supplied."""
    if C is None:
        raise ValueError("the analytic-space constant C must be supplied")
    if not (0.0 < lam <= 1.0):
        raise ValueError("lambda must lie in (0, 1]")
    if C <= 0:
        raise ValueError("C must be positive")
    s = (1.0 - lam) ** (1.0 / n)
    value = 1.0 if s >= 1.0 else e_function((1.0 + s) / (1.0 - s)) ** C
    return BoundResult("analytic", value, {"n": n, "lam": lam, "C": C})


def rd_span_bound(n: int, d: int, omega: float) -> BoundResult:
    """R_d(omega): the metric-span bound; spans above 1 are outside its domain."""
    if omega <= 0.0:
        raise ValueError("span must be positive")
    if omega > 1.0:
        return BoundResult("rd_span", math.inf, {"n": n, "d": d, "omega": omega},
                           applicable=False, reason="span outside bound domain")
    # the measure-ratio formula with lambda = omega
    return BoundResult("rd_span", bg_bound(n, d, omega).value, {"n": n, "d": d, "omega": omega})


def cor22_bound(points, d: int) -> BoundResult:
    """Min-gap bound T_d((2 - delta)/delta) for finite 1-D sets with m >= d+1."""
    zs = as_point_set(points)
    if zs.points.shape[1] != 1:
        raise ValueError("this bound applies to 1-D point sets")
    m = len(zs)
    if m <= d:
        return BoundResult("cor22", math.inf, {"d": d, "m": m},
                           applicable=False, reason="fewer than d+1 points: not norming")
    delta = entropy.min_gap(zs)
    return BoundResult("cor22", chebyshev(d, (2.0 - delta) / delta),
                       {"d": d, "m": m, "delta": delta})


def curve_bound(n: int, d: int, exponents) -> BoundResult:
    """Lacunary-curve bound 2^(d*d_n) * C(n+d, d).

    The trailing monomial-count factor is read as dim P_d(R^n) = C(n+d, d),
    since each coefficient is bounded by 2^(d*d_n) and the proof sums over
    all monomials; the reading is flagged in the inputs echo.
    """
    ds = [int(e) for e in exponents]
    if len(ds) != n:
        raise ValueError("need one exponent per coordinate")
    inputs = {"n": n, "d": d, "exponents": ds,
              "monomial_count": math.comb(n + d, d)}
    if ds[0] < 1 or any(ds[j] <= d * ds[j - 1] for j in range(1, n)):
        return BoundResult("curve", math.inf, inputs, applicable=False,
                           reason="lacunarity condition violated")
    return BoundResult("curve", 2.0 ** (d * ds[-1]) * math.comb(n + d, d), inputs)


def nested_bound(d: int, delta: float) -> BoundResult:
    """Nested-hypersurface bound T_{2d}((2 - delta)/delta)."""
    if not (0.0 < delta <= 2.0):
        raise ValueError("delta must lie in (0, 2]")
    return BoundResult("nested", chebyshev(2 * d, (2.0 - delta) / delta),
                       {"d": d, "delta": delta})


# ---------------------------------------------------------------------------
# the auditor


@dataclass(frozen=True)
class Finding:
    name: str
    bound: BoundResult
    exact: float
    ratio: Optional[float]
    violation: bool
    repro: str

    to_json = report_json


@dataclass(frozen=True)
class AuditReport:
    exact: float
    findings: tuple
    violations: int

    to_json = report_json

    def summary(self) -> str:
        lines = [f"exact norming constant: {self.exact:.9g}"]
        for f in self.findings:
            status = "VIOLATION" if f.violation else (
                "n/a" if not f.bound.applicable else "ok")
            val = f"{f.bound.value:.6g}" if math.isfinite(f.bound.value) else "inf"
            lines.append(f"{f.name:<12} bound={val:<14} ratio="
                         f"{'-' if f.ratio is None else format(f.ratio, '.6g'):<12} {status}")
        return "\n".join(lines)


VIOLATION_TOL = 1e-6


def audit(space: SpaceDescriptor, points, bounds, *, mu=None, lam=None,
          delta=None, grid_spacing=None, budget=None) -> AuditReport:
    """Tightness/violation audit of selected bounds against the exact constant.

    A ratio bound/exact below 1 - 1e-6 is flagged as a VIOLATION finding
    (a reportable discrepancy, not a crash). Findings are ordered by name.
    Every bound reads the set's image in V' on V''s box, with n and d those
    of V' (``norming._Frame``): V on the set's domain.
    """
    points = as_point_set(points, space.n)
    rep = norming_constant(space, points, grid_spacing=grid_spacing, budget=budget)
    if not rep.norming:
        raise NotNormingError("exact constant unavailable: Z is not norming")
    exact, frame = rep.value, _Frame(space, points.domain(space))
    if frame.space.n == 0:  # V on a point is the constants, for which no bound is stated
        raise ValueError("the bounds need a box with a live axis, not a point")
    findings = []
    for name in sorted(set(bounds)):
        br = _evaluate_named(frame.space, frame.image(points), name, mu=mu, lam=lam, delta=delta)
        ratio = br.value / exact if br.applicable and math.isfinite(br.value) else None
        violation = br.applicable and ratio is not None and ratio < 1.0 - VIOLATION_TOL
        repro = (f"norming-lab audit --bounds {name} on the echoed space/points "
                 f"reproduces ratio {ratio}")
        findings.append(Finding(name, br, exact, ratio, violation, repro))
    return AuditReport(exact, tuple(findings), sum(f.violation for f in findings))


def _evaluate_named(space, points, name, *, mu, lam, delta) -> BoundResult:
    d, n = space.degree, space.n
    if name == "remez":
        if mu is None:
            raise ValueError("the remez bound needs the declared measure mu")
        return remez_bound(d, mu)
    if name == "bg":
        if lam is None:
            raise ValueError("the bg bound needs the declared ratio lam")
        return bg_bound(n, d, lam)
    if name == "cor22":
        return cor22_bound(points, d)
    if name == "cramer":
        idx, _ = fekete_select(space, points, mode="exhaustive")
        value = cramer_bound(space, PointSet._unchecked(points.points[list(idx)], points.box))
        return BoundResult("cramer", value, {"fekete_indices": list(idx)})
    if name == "rd_span":
        profile = entropy.metric_span(points, d)
        if profile.span <= 0.0:
            return BoundResult("rd_span", math.inf, {"span": profile.span},
                               applicable=False, reason="span not positive")
        return rd_span_bound(n, d, profile.span)
    if name == "nested":
        if delta is None:
            raise ValueError("the nested bound needs delta")
        return nested_bound(d // 2, delta)
    raise ValueError(f"unknown bound {name!r}")
