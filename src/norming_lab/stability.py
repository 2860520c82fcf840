"""Hausdorff-metric machinery and the Lipschitz stability of 1/N_V(Z).

The modulus of continuity lives on the space descriptor, so the Markov
constant and the omega-Hausdorff distance always share one modulus. N, M_V
and the perturbations of an audit live on the domain its sets share
(``PointSet.domain``). Sets on different domains raise, and so does a domain
whose constant is not certified or not known (``markov_constant``). 1/N is 0
if not norming.

A violation is reported only where the certified brackets prove it: the
reciprocal intervals [1/upper, 1/lower] of the two sets lie further apart
than the bound (``_gap``). The point values 1/N still give ``lhs`` and
``max_ratio``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .norming import NormingReport, PointSet, as_point_set, linf_distances, norming_constant
from .spaces import SpaceDescriptor, markov_constant, report_json


def _domain(space: SpaceDescriptor, z: PointSet, y: PointSet) -> np.ndarray:
    """The domain (``PointSet.domain``) that two sets share."""
    if not np.array_equal(y.domain(space), z.domain(space)):
        raise ValueError("point sets must share one domain")
    return z.domain(space)


def _markov(space: SpaceDescriptor, box: np.ndarray) -> float:
    """M_V on the box, refused where not certified."""
    M = markov_constant(space, box)
    if not M.certified:
        raise ValueError(f"the Markov constant of a {space.kind} span is not certified "
                         "on this domain")
    return M.value


def _gap(r1: NormingReport, r2: NormingReport) -> float:
    """Distance between the certified intervals [1/upper, 1/lower] of 1/N of
    two reports, 0 where they meet; a set that is not norming has [0, 0]."""
    (a1, b1), (a2, b2) = ((1.0 / r.upper, 1.0 / r.lower) for r in (r1, r2))
    return float(max(a1 - b2, a2 - b1, 0.0))


def hausdorff_distance(z1, z2) -> float:
    """l-inf Hausdorff distance between finite nonempty sets."""
    a = as_point_set(z1).points
    b = as_point_set(z2).points
    if a.shape[1] != b.shape[1]:
        raise ValueError("point sets must share one dimension")
    D = linf_distances(a, b)
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


@dataclass(frozen=True)
class LipschitzReport:
    d_h: float
    d_omega_h: float
    inv_n1: float
    inv_n2: float
    lhs: float
    rhs: float
    satisfied: bool
    markov: float
    markov_certified: bool
    json_extra = ("status",)

    @property
    def status(self) -> str:
        return "satisfied" if self.satisfied else "violated"

    to_json = report_json


def lipschitz_audit(space: SpaceDescriptor, z1, z2, *, grid_spacing=None,
                    budget=None) -> LipschitzReport:
    """Check |1/N(Z1) - 1/N(Z2)| <= M_V * omega(d_H(Z1, Z2)), violated only
    where the certified reciprocal intervals lie further apart (``_gap``)."""
    z1, z2 = as_point_set(z1, space.n), as_point_set(z2, space.n)
    M = _markov(space, _domain(space, z1, z2))
    r1 = norming_constant(space, z1, grid_spacing=grid_spacing, budget=budget)
    r2 = norming_constant(space, z2, grid_spacing=grid_spacing, budget=budget)
    dh = hausdorff_distance(z1, z2)
    dwh = float(space.modulus(dh))
    lhs = abs(r1.reciprocal - r2.reciprocal)
    rhs = M * dwh
    satisfied = _gap(r1, r2) <= rhs * (1.0 + 1e-9) + 1e-12
    return LipschitzReport(dh, dwh, r1.reciprocal, r2.reciprocal, lhs, rhs,
                           satisfied, M, True)


@dataclass(frozen=True, eq=False)
class StabilityBall:
    space: SpaceDescriptor
    center: PointSet
    center_report: NormingReport
    radius: float
    markov: float

    def bound_for(self, y):
        """Guaranteed upper bound on N(Y) for Y on the center's domain inside the open
        ball, else None."""
        y = as_point_set(y, self.space.n)
        _domain(self.space, self.center, y)
        dwh = float(self.space.modulus(hausdorff_distance(self.center, y)))
        if dwh >= self.radius:
            return None
        n = self.center_report.value
        return n / (1.0 - self.markov * n * dwh)


def stability_ball(space: SpaceDescriptor, z, *, grid_spacing=None,
                   budget=None) -> StabilityBall:
    """Open d_omegaH-ball of radius 1/(M_V * N_V(Z)) of guaranteed norming sets."""
    z = as_point_set(z, space.n)
    M = _markov(space, z.domain(space))
    rep = norming_constant(space, z, grid_spacing=grid_spacing, budget=budget)
    if not rep.norming:
        raise ValueError("the center set must be norming")
    return StabilityBall(space, z, rep, 1.0 / (M * rep.value), M)


@dataclass(frozen=True)
class PerturbationRow:
    magnitude: float
    trials: int
    skipped: int
    max_ratio: float
    within_markov: bool
    non_norming: int

    to_json = report_json


def perturbation_experiment(space: SpaceDescriptor, z, magnitudes: Sequence[float],
                            trials: int, seed: int, *, grid_spacing=None,
                            budget=None) -> list[PerturbationRow]:
    """Empirical sharpness study of the Lipschitz bound.

    For each magnitude, points of Z are perturbed uniformly and clamped to
    its domain (so Z stays admissible); the max observed ratio lhs/omega(d_H)
    is reported, and ``within_markov`` holds unless some trial's certified
    gap (``_gap``) over omega(d_H) exceeds the Markov constant. Deterministic
    given the seed.
    A trial whose clamped set has merged points counts as skipped; any
    other error propagates.
    """
    z = as_point_set(z, space.n)
    M = _markov(space, z.domain(space))
    base = norming_constant(space, z, grid_spacing=grid_spacing, budget=budget)
    if not base.norming:
        raise ValueError("Z must be norming")
    rng = np.random.default_rng(seed)
    rows = []
    for mag in magnitudes:
        max_ratio = max_gap = 0.0
        skipped = 0
        non_norming = 0
        for _ in range(trials):
            shift = rng.uniform(-mag, mag, size=z.points.shape)
            try:
                pert = PointSet(np.clip(z.points + shift, *z.domain(space)), z.box)
            except ValueError:  # clamping merged points; the set is no longer admissible
                skipped += 1
                continue
            dh = hausdorff_distance(z, pert)
            if dh <= 0.0:
                skipped += 1
                continue
            rep = norming_constant(space, pert, grid_spacing=grid_spacing,
                                   budget=budget)
            if not rep.norming:
                non_norming += 1
            omega = float(space.modulus(dh))
            max_ratio = max(max_ratio, abs(base.reciprocal - rep.reciprocal) / omega)
            max_gap = max(max_gap, _gap(base, rep) / omega)
        rows.append(PerturbationRow(mag, trials, skipped, max_ratio,
                                    max_gap <= M * (1 + 1e-9), non_norming))
    return rows
