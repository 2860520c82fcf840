"""Function-space descriptors: bases, evaluation, and Markov constants.

Supported families:

* ``polynomial(n, d)`` -- real polynomials of total degree <= d on the
  closed cube [-1, 1]^n, monomial basis in graded-lexicographic order.
* ``trigonometric(n, d)`` -- tensor products of {1, cos(k*pi*x_i),
  sin(k*pi*x_i), k <= d}, period 2 in each coordinate, dimension (2d+1)^n.
  The tensor (rather than total-degree) convention is deliberate: it makes
  the Bernstein constant pi*d*n exact coordinate-wise.
* ``fewnomial_span(exponents)`` -- the linear span of monomials x^alpha
  with real exponent vectors, defined on the open positive orthant.

Markov constants (``markov_constant``): Markov's and Bernstein's in closed
form; none is known for a fewnomial span.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from itertools import product

import numpy as np


class DomainError(ValueError):
    """A point lies outside the declared domain of the space."""


# ---------------------------------------------------------------------------
# moduli of continuity


@dataclass(frozen=True)
class ModulusOfContinuity:
    """omega(t): increasing concave, omega(0) = 0, omega(t) -> infinity.

    Built-ins: ``identity`` (omega(t) = t) and ``power`` (omega(t) = t**gamma,
    0 < gamma <= 1). A power modulus with gamma = 1 is the identity.
    """

    kind: str = "identity"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("identity", "power"):
            raise ValueError(f"unknown modulus kind {self.kind!r}")
        if not 0.0 < self.gamma <= 1.0 or (self.kind == "identity" and self.gamma != 1.0):
            raise ValueError("a power modulus needs gamma in (0, 1], the identity gamma = 1")
        if self.kind == "power" and self.gamma == 1.0:
            object.__setattr__(self, "kind", "identity")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("modulus argument must be nonnegative")
        out = t if self.kind == "identity" else t**self.gamma
        return float(out) if out.ndim == 0 else out


IDENTITY = ModulusOfContinuity("identity")


def power_modulus(gamma: float) -> ModulusOfContinuity:
    return ModulusOfContinuity("power", gamma)


# ---------------------------------------------------------------------------
# basis functions


@functools.lru_cache(maxsize=None)
def _monomial_exponents(n: int, d: int) -> np.ndarray:
    """Exponents of the monomial basis, one read-only row each."""
    exps = [a for a in product(range(d + 1), repeat=n) if sum(a) <= d]
    # graded lexicographic: by total degree, then x1 before x2 before ...
    exps.sort(key=lambda a: (sum(a), tuple(-ai for ai in a)))
    return _read_only(np.array(exps, dtype=int).reshape(len(exps), n))


@functools.lru_cache(maxsize=None)
def _trig_tuples(n: int, d: int) -> np.ndarray:
    """Per-axis factors of the trigonometric basis, one read-only row each."""
    # per-axis factor k: 0 -> 1; 2j-1 -> cos(j pi x); 2j -> sin(j pi x)
    tuples = list(product(range(2 * d + 1), repeat=n))
    freq = lambda t: sum((k + 1) // 2 for k in t)
    tuples.sort(key=lambda t: (freq(t), t))
    return _read_only(np.array(tuples, dtype=int).reshape(len(tuples), n))


@functools.lru_cache(maxsize=None)
def _basis_derivatives(kind: str, n: int, d: int) -> np.ndarray:
    """d_j maps the basis into itself: x^alpha -> alpha_j x^(alpha - e_j), and
    on axis j cos(k pi x) -> -k pi sin(k pi x), sin(k pi x) -> k pi cos(k pi x).
    Each column of P[j] holds at most one nonzero entry."""
    table = (_monomial_exponents if kind == "polynomial" else _trig_tuples)(n, d).tolist()
    index = {tuple(t): i for i, t in enumerate(table)}
    P = np.zeros((n, len(table), len(table)))
    for i, t in enumerate(table):
        for j, k in enumerate(t):
            if k == 0:
                continue
            if kind == "polynomial":
                u, c = k - 1, float(k)
            else:  # factor 2f - 1 is cos(f pi x), 2f is sin(f pi x)
                f = (k + 1) // 2
                u, c = (k + 1, -f * math.pi) if k % 2 else (k - 1, f * math.pi)
            P[j, index[(*t[:j], u, *t[j + 1:])], i] = c
    return _read_only(P)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def report_json(obj):
    """A report as JSON: a dataclass is the dict of its fields plus the names
    in its class-level ``json_extra``; arrays and tuples become lists, and
    nested reports dicts, recursively. Every report's ``to_json`` is this."""
    if is_dataclass(obj):
        names = [f.name for f in fields(obj)] + list(getattr(obj, "json_extra", ()))
        return {name: report_json(getattr(obj, name)) for name in names}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [report_json(v) for v in obj]
    return obj


def _box_corners(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distinct corners of the box [a, b], one per row, in lexicographic order."""
    return np.array(list(product(*(sorted({x, y}) for x, y in zip(a, b)))), dtype=float)


# ---------------------------------------------------------------------------
# space descriptors


@dataclass(frozen=True)
class SpaceDescriptor:
    kind: str  # "polynomial" | "trigonometric" | "fewnomial"
    n: int
    degree: int = 0
    exponents: tuple[tuple[float, ...], ...] = ()
    modulus: ModulusOfContinuity = IDENTITY

    @staticmethod
    def polynomial(n: int, d: int, modulus: ModulusOfContinuity = IDENTITY):
        if n < 1 or d < 0:
            raise ValueError("need n >= 1 and d >= 0")
        return SpaceDescriptor("polynomial", n, d, (), modulus)

    @staticmethod
    def trigonometric(n: int, d: int, modulus: ModulusOfContinuity = IDENTITY):
        if n < 1 or d < 0:
            raise ValueError("need n >= 1 and d >= 0")
        return SpaceDescriptor("trigonometric", n, d, (), modulus)

    @staticmethod
    def fewnomial_span(exponents, modulus: ModulusOfContinuity = IDENTITY):
        exps = tuple(tuple(float(a) for a in alpha) for alpha in exponents)
        if not exps:
            raise ValueError("fewnomial exponent list must be nonempty")
        if len(set(exps)) != len(exps):
            raise ValueError("fewnomial exponents must be duplicate-free")
        n = len(exps[0])
        if any(len(a) != n for a in exps):
            raise ValueError("exponent vectors must share one length")
        return SpaceDescriptor("fewnomial", n, 0, exps, modulus)

    # -- structure ---------------------------------------------------------

    def dimension(self) -> int:
        if self.kind == "polynomial":
            return math.comb(self.n + self.degree, self.degree)
        if self.kind == "trigonometric":
            return (2 * self.degree + 1) ** self.n
        return len(self.exponents)

    def evaluate_basis(self, points) -> np.ndarray:
        """Basis values at one point (returns (l,)) or many ((m, l))."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.n:
            raise ValueError(f"points must have {self.n} coordinates")
        if self.kind == "polynomial":
            V = self._eval_poly(pts)
        elif self.kind == "trigonometric":
            V = self._eval_trig(pts)
        else:
            V = self._eval_fewnomial(pts)
        return V[0] if single else V

    def _eval_poly(self, pts):
        exps = _monomial_exponents(self.n, self.degree)
        m = pts.shape[0]
        V = np.ones((m, exps.shape[0]))
        powers = np.ones((m, self.degree + 1))
        for j in range(self.n):
            # x^k as x^(k-1) * x: k - 1 roundings at most, and far cheaper than pow
            for k in range(1, self.degree + 1):
                np.multiply(powers[:, k - 1], pts[:, j], out=powers[:, k])
            V *= powers[:, exps[:, j]]
        return V

    def _eval_trig(self, pts):
        d = self.degree
        m = pts.shape[0]
        tables = []
        for j in range(self.n):
            t = np.empty((m, 2 * d + 1))
            t[:, 0] = 1.0
            for k in range(1, d + 1):
                t[:, 2 * k - 1] = np.cos(k * np.pi * pts[:, j])
                if 2 * k <= 2 * d:
                    t[:, 2 * k] = np.sin(k * np.pi * pts[:, j])
            tables.append(t)
        tuples = _trig_tuples(self.n, d)
        V = np.ones((m, tuples.shape[0]))
        for j in range(self.n):
            V *= tables[j][:, tuples[:, j]]
        return V

    def _eval_fewnomial(self, pts):
        if np.any(pts <= 0):
            raise DomainError("fewnomial evaluation needs positive coordinates")
        alphas = np.asarray(self.exponents)
        return np.exp(np.log(pts) @ alphas.T)

    def default_box(self):
        """Natural evaluation box: the unit cube, or None for fewnomials."""
        if self.kind == "fewnomial":
            return None
        return (-np.ones(self.n), np.ones(self.n))

    def restrict(self, box):
        """V on a box as (V', live, R, L); the one test of which axes are flat.

        An axis is live where hi > lo + 1e-15, and flat otherwise, with x
        fixed at the box's centre; ``live`` indexes the live axes, as a mask,
        or as the full slice where none is flat. V' is the span of the basis
        with the flat coordinates fixed, a space in the live ones: polynomials
        or trigonometric polynomials of the same degree, the distinct live
        exponents of a fewnomial span, and the constants (n = 0) on a point.
        Its basis phi' gives phi(x) @ w = phi'(x[live]) @ (R @ w), and L
        lifts coefficients back into V, R @ L = I, through the first basis
        function of each live part. R and L are None where no axis is flat.
        """
        lo, hi = np.asarray(box, dtype=float)
        live = [b > a + 1e-15 for a, b in zip(lo.tolist(), hi.tolist())]  # lists: a few floats
        if all(live):
            return self, slice(None), None, None
        live = np.array(live)
        x = np.where(live, 1.0, (lo + hi) / 2.0)  # the box's centre on the flat axes
        table = np.asarray(self.exponents) if self.kind == "fewnomial" else (
            _monomial_exponents if self.kind == "polynomial" else _trig_tuples)(self.n, self.degree)
        parts = list(map(tuple, table[:, live].tolist()))
        # V''s basis, in V's order: a polynomial or trigonometric space's own,
        # as each part first appears with 0 on the flat axes, and a fewnomial
        # span's exponents
        keys = list(dict.fromkeys(parts))
        sub = replace(self, n=int(live.sum()), exponents=self.exponents and tuple(keys))
        if self.kind == "trigonometric":  # the product of each function's flat factors
            axis = SpaceDescriptor.trigonometric(1, self.degree)
            factor = np.prod([axis.evaluate_basis(x[j:j + 1])[table[:, j]]
                              for j in np.flatnonzero(~live)], axis=0)
        else:  # x^alpha with the live coordinates at 1
            factor = self.evaluate_basis(x)
        rows = np.array([keys.index(part) for part in parts])
        first = np.unique(rows, return_index=True)[1]
        R = np.eye(len(keys))[:, rows] * factor
        L = np.eye(len(table))[:, first] / factor[first]
        return sub, live, R, L

    def basis_sup(self, box) -> float:
        """max_i sup |f_i| over a box, exactly: the largest |f_i| at its corners.

        Every basis function is a product of per-axis factors, and each
        factor's modulus is largest at an end of its interval: |x_j|^k grows
        with |x_j|, and x_j^alpha (x_j > 0) is monotone in x_j. A product of
        nonnegative factors is then largest at a corner of the box. For
        trigonometric spaces every factor is bounded by 1 and the constant
        function 1 is in the basis, so the sup is 1, attained at every point.
        """
        lo, hi = (np.asarray(b, dtype=float) for b in box)
        return float(np.max(np.abs(self.evaluate_basis(_box_corners(lo, hi)))))

    def basis_lipschitz(self, box) -> np.ndarray:
        """Per basis function phi_i, G_i >= sum_j sup |d_j phi_i| over a box, so
        |phi_i(x) - phi_i(y)| <= G_i * |x - y|_inf there. For a fewnomial span
        it is exact, the largest |alpha_j| * x^(alpha - e_j) at the box's
        corners: each partial derivative is a product of per-axis factors
        x_k^beta, monotone in x_k > 0 (as in ``basis_sup``). For a
        trigonometric space it is pi times the sum of phi_i's factor
        frequencies on any box (exact in 1-D): d_j turns a factor of frequency
        k into one of modulus at most k * pi, and the others are at most 1.
        """
        if self.kind == "trigonometric":
            return math.pi * ((_trig_tuples(self.n, self.degree) + 1) // 2).sum(axis=1)
        if self.kind != "fewnomial":
            raise ValueError("basis_lipschitz is defined for fewnomial and trigonometric spaces")
        lo, hi = (np.asarray(b, dtype=float) for b in box)
        corners = _box_corners(lo, hi)
        if np.any(corners <= 0):
            raise DomainError("fewnomial evaluation needs positive coordinates")
        logc, alphas = np.log(corners), np.asarray(self.exponents)
        out = np.zeros(len(alphas))
        for j, e in enumerate(np.eye(self.n)):
            out += np.abs(alphas[:, j]) * np.exp(logc @ (alphas - e).T).max(axis=0)
        return out

    def basis_derivatives(self) -> np.ndarray:
        """Read-only matrices P of shape (n, l, l) with
        d_j (phi @ w) = phi @ (P[j] @ w), phi the row of basis values, for
        polynomial and trigonometric spaces (see ``_basis_derivatives``)."""
        if self.kind == "fewnomial":
            raise ValueError("basis_derivatives is defined for polynomial and "
                             "trigonometric spaces")
        return _basis_derivatives(self.kind, self.n, self.degree)

    def to_json(self) -> dict:
        mod = "identity" if self.modulus.kind == "identity" else {
            "kind": "power", "gamma": self.modulus.gamma}
        if self.kind == "fewnomial":
            return {"kind": "fewnomial", "exponents": [list(a) for a in self.exponents],
                    "modulus": mod}
        return {"kind": self.kind, "vars": self.n, "degree": self.degree, "modulus": mod}


def space_from_json(obj: dict) -> SpaceDescriptor:
    mod = obj.get("modulus", "identity")
    if isinstance(mod, str):
        if mod == "identity":
            modulus = IDENTITY
        elif mod.startswith("power:"):
            modulus = power_modulus(float(mod.split(":", 1)[1]))
        else:
            raise ValueError(f"unknown modulus {mod!r}")
    else:
        modulus = power_modulus(float(mod["gamma"]))
    kind = obj["kind"]
    if kind == "polynomial":
        return SpaceDescriptor.polynomial(int(obj["vars"]), int(obj["degree"]), modulus)
    if kind == "trigonometric":
        return SpaceDescriptor.trigonometric(int(obj["vars"]), int(obj["degree"]), modulus)
    if kind == "fewnomial":
        return SpaceDescriptor.fewnomial_span(obj["exponents"], modulus)
    raise ValueError(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# Markov constants


@dataclass(frozen=True)
class MarkovConstant:
    value: float
    certified: bool


def markov_constant(space: SpaceDescriptor, box=None) -> MarkovConstant:
    """Least M with |f(x) - f(y)| <= M * sup|f| * omega(|x - y|_inf) on a box (the
    cube when none is given), omega the space's modulus, or a bound on it: that
    of V' on the box's k live axes (``SpaceDescriptor.restrict``). The identity
    constant M_1 is exact for polynomial spaces, sum_j 2 d^2 / (hi_j - lo_j)
    over those axes by Markov, for the constants, 0, and for trigonometric
    ones, pi * d * k by Bernstein, which holds relative to the sup over a
    whole period, so is certified only where those axes cover the cube. No
    constant is known for a fewnomial span with a live axis, which raises.
    As |f(x) - f(y)| <= min(M_1 t, 2) sup|f| at l-inf distance t <= D, the
    box's largest side, omega(t) = t^gamma gives M_1 * min(D, 2 / M_1)^(1 - gamma),
    and gamma = 1 for the identity.
    """
    box = space.default_box() if box is None else box
    if box is None:
        raise ValueError("fewnomial Markov constants need an explicit box")
    sub, live = space.restrict(box)[:2]
    lo, hi = (np.asarray(b, dtype=float)[live] for b in box)
    if space.kind == "trigonometric":
        M, certified = math.pi * sub.degree * sub.n, bool(np.all(lo <= -1.0) and np.all(hi >= 1.0))
    elif space.kind == "polynomial" or sub.n == 0:  # on a point, V' holds the constants
        M, certified = float(np.sum(2.0 * sub.degree**2 / (hi - lo))), True
    else:
        raise ValueError("no Markov constant is known for a fewnomial span on a box "
                         "with a live axis")
    if M > 0:
        M *= min(float(np.max(hi - lo)), 2.0 / M) ** (1.0 - space.modulus.gamma)
    return MarkovConstant(M, certified)
