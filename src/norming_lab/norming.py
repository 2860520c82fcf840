"""Exact norming constants of finite sets over their domain (``PointSet.domain``).

The norming constant of a finite set Z is computed as the certified sup,
over a uniform grid on its domain, of the per-point linear program

    maximize  sum_i a_i f_i(x)   s.t.  |sum_i a_i f_i(z_j)| <= 1  for all j.

The LP optimum is attained at a vertex of the feasible polytope, and the
polytope does not depend on x, so we enumerate its vertices, each once and
in chunks of bounded memory (``_feasible_vertices``, in U of the rank test's
SVD B / colmax = U diag(s) Vh, mapped back), and take the grid-wise maximum
of |f_v(x)| over vertices v. This is exactly the per-grid-point LP value.
``simplex.norming_lp_value`` solves individual LPs directly as a cross-check.

The maximiser takes one kind of column, a group: W has shape (l, K, g) and
column k's value is sum_j |phi(x) @ W[:, k, j]|. Vertices and single
coefficient vectors are groups of one. A unisolvent set (|Z| = dim V = l)
takes one Lebesgue column in place of its 2^(l-1) vertices: its Lagrange
matrix, one group of l, whose value is the LP value sum_i |L_i(x)|, so its
norming constant is its Lebesgue constant (``lebesgue_constant``). Every
rule of the maximiser holds for a group as for one function, because
sum_j |p_j| = max_s |sum_j s_j p_j| and each sum_j s_j p_j lies in V.

Placement (``_Frame``). N_V(Z) is a sup over the compact set that holds Z,
so on a box with a flat axis (lo = hi) V is V' = V restricted to the live
axes: the one frame rule is that every box, and every set on it, is taken
as V' on a box with no flat axis, through x = c + r * u (r = 0 on a flat
axis), and only the frame reads which axes are flat. For V = P_d, N_V(Z)
does not change when a box and its set are mapped affinely onto the cube,
so a polynomial box is taken on the cube's plan in its live variables.
Every other box takes its own plan (``_GridPlan``); a point needs no grid.
A vector W is handed over as T W, with both ends moved out by its
rounding; a set is handed over as its image in V', and its witness is
lifted back into V.

Certificate. The grid maximum is the lower bound: a dense pass's value,
point and column, found on a tree of blocks of grid points by one rule that
drops, level by level, each column and block whose Taylor bound stays below
the level's best value (``_coarse_prune``). Every point of the box lies
within h/2 of a grid point in l-inf, so the upper bound needs only an
l-inf Lipschitz bound: M * sup|f| where the box has a certified Markov
constant M of the identity modulus (``markov_constant``), giving
lower / (1 - M * h/2), with h halved while M * h/2 >= 1; elsewhere (a
fewnomial span, a trigonometric box whose live axes do not cover the
cube) column k's own D_k = sum_j |W[:, k, j]| . G, G the basis's
(``SpaceDescriptor.basis_lipschitz``), giving lower + h/2 * max_k D_k. In
a box's frame a given spacing h becomes h * min(1, 1 / max r), and a
budget stays the cube's.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import combinations, islice
from typing import Optional

import numpy as np

from .spaces import (IDENTITY, MarkovConstant, SpaceDescriptor, _monomial_exponents,
                     _read_only, markov_constant, report_json)

DEFAULT_RANK_THRESHOLD = 1e-10
DEFAULT_GRID_BUDGET = 200_001
VERTEX_BUDGET = 4_000_000
FEKETE_CAP = 500_000
# grid maximiser: values per evaluated chunk, and the relative slack that
# keeps rounding from pruning a maximiser
_BLOCK_VALUES = 1 << 20
_PRUNE_RTOL = 1e-9
# relative slack of the Fekete sandwich inequalities
SANDWICH_REL_TOL = 1e-6


class NotNormingError(RuntimeError):
    """The supplied subset cannot certify a finite norming constant."""


class IllConditionedError(RuntimeError):
    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


# ---------------------------------------------------------------------------
# point sets


@dataclass(frozen=True, eq=False)
class PointSet:
    """Finite n-vectors (a flat list holds 1-D points), nonempty and duplicate-free
    within 1e-12 in l-inf, and the box that holds them (within 1e-12), checked and
    frozen here."""

    points: np.ndarray
    box: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts = pts.reshape(-1, 1) if pts.ndim < 2 else pts
        if not np.all(np.isfinite(pts)):
            raise ValueError("a coordinate is not finite")
        if pts.shape[0] < 1:
            raise ValueError("point set must be nonempty")
        if has_duplicates(pts):
            raise ValueError("duplicate points (within 1e-12 in l-inf)")
        object.__setattr__(self, "points", pts)
        if self.box is not None:
            box = _checked_box(self.box, pts.shape[1])
            if np.any(pts < box[0] - 1e-12) or np.any(pts > box[1] + 1e-12):
                raise ValueError("a point lies outside the box (by more than 1e-12)")
            object.__setattr__(self, "box", box)

    @classmethod
    def _unchecked(cls, points: np.ndarray, box: Optional[np.ndarray] = None) -> "PointSet":
        """The image of a checked set in a frame (``_Frame.image``), or a subset of
        it, built without the checks: the map rescales the gaps they test."""
        zs = object.__new__(cls)
        object.__setattr__(zs, "points", points)
        object.__setattr__(zs, "box", box)
        return zs

    def __len__(self):
        return self.points.shape[0]

    def domain(self, space: SpaceDescriptor) -> np.ndarray:
        """The set's box, else the space's cube, as one array of rows (lo, hi)."""
        return _domain_box(space) if self.box is None else self.box


def linf_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of l-inf distances between the rows of ``a`` and the rows of ``b``,
    built one axis at a time, so no (m, k, n) array is formed."""
    D = np.abs(a[:, :1] - b[:, 0])
    for j in range(1, a.shape[1]):
        np.maximum(D, np.abs(a[:, j:j + 1] - b[:, j]), out=D)
    return D


def has_duplicates(pts: np.ndarray) -> bool:
    """True when two rows of ``pts`` lie within 1e-12 of each other in l-inf;
    checked in row blocks of at most ``_BLOCK_VALUES`` distances."""
    step = max(1, _BLOCK_VALUES // max(len(pts), 1))
    for start in range(0, len(pts), step):
        diff = linf_distances(pts[start:start + step], pts)
        np.fill_diagonal(diff[:, start:], np.inf)
        if np.min(diff) < 1e-12:
            return True
    return False


def as_point_set(points, n: Optional[int] = None) -> PointSet:
    """``points`` as a ``PointSet``, so checked once, with n coordinates when given."""
    zs = points if isinstance(points, PointSet) else PointSet(points)
    if n is not None and zs.points.shape[1] != n:
        raise ValueError(f"points must have {n} coordinates")
    return zs


def _checked_box(box, n: int) -> np.ndarray:
    """A box as one read-only array of rows (lo, hi): n finite coordinates
    each, lo <= hi (a flat axis is legal)."""
    try:
        box = np.array(box, dtype=float)
    except (TypeError, ValueError):
        box = np.empty(0)
    if box.shape != (2, n) or not all(
            -math.inf < a <= b < math.inf for a, b in zip(*box.tolist())):
        raise ValueError(f"box must be [lo, hi], {n} finite coordinates each, lo <= hi")
    box.flags.writeable = False
    return box


def _domain_box(space: SpaceDescriptor, box=None) -> np.ndarray:
    """The given box, checked, else the space's cube."""
    box = _cube(space) if box is None else _checked_box(box, space.n)
    if box is None:
        raise ValueError("fewnomial spaces need an explicit bounding box")
    return box


@functools.lru_cache(maxsize=8)
def _cube(space: SpaceDescriptor) -> Optional[np.ndarray]:
    """The space's cube, made once, as one read-only array of rows (lo, hi);
    None for a fewnomial span."""
    cube = space.default_box()
    return None if cube is None else _read_only(np.array(cube))


def _grid_axes(box, spacing=None, budget=None):
    """Axes (lo, hi, m, step) of the uniform grid on a box with no flat axis;
    returns (axes, effective_spacing)."""
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    if spacing is None:
        budget = DEFAULT_GRID_BUDGET if budget is None else budget
        per_axis = int(budget ** (1.0 / lo.size))  # the float root may fall short by one
        while (per_axis + 1) ** lo.size <= budget:
            per_axis += 1
    axes = []
    for a, b in zip(lo, hi):
        m = max(2, per_axis) if spacing is None else int(math.ceil((b - a) / spacing)) + 1
        axes.append((a, b, m, (b - a) / (m - 1)))
    if math.prod(ax[2] for ax in axes) > 50_000_000:
        raise ValueError("grid exceeds the hard point budget; coarsen spacing")
    return tuple(axes), max(ax[3] for ax in axes)


def _axis_points(axis, i: np.ndarray) -> np.ndarray:
    """Points i of a grid axis (lo, hi, m, step): i * step + lo, and hi at
    i = m - 1, bit for bit those of np.linspace(lo, hi, m)."""
    lo, hi, m, step = axis
    x = i * step + lo
    x[i == m - 1] = hi
    return x


def _grid_points(axes, flat: np.ndarray) -> np.ndarray:
    """Points of the tensor grid at the given flat (last axis fastest) indices."""
    multi = np.unravel_index(flat, [ax[2] for ax in axes])
    return np.stack([_axis_points(ax, i) for ax, i in zip(axes, multi)], axis=1)


# ---------------------------------------------------------------------------
# interpolation machinery


def interpolation_matrix(space: SpaceDescriptor, points) -> np.ndarray:
    """Matrix (f_i(x^j))_{j,i} in canonical basis order."""
    pts = as_point_set(points, space.n).points
    return space.evaluate_basis(pts)


def interpolation_determinant(space: SpaceDescriptor, points) -> float:
    pts = as_point_set(points, space.n).points
    l = space.dimension()
    if pts.shape[0] != l:
        raise ValueError(f"need exactly {l} points, got {pts.shape[0]}")
    return float(np.linalg.det(space.evaluate_basis(pts)))


def lagrange_basis(space: SpaceDescriptor, points) -> np.ndarray:
    """Coefficient vectors of the Lagrange functions, as columns.

    Column i holds the coefficients of L_i with L_i(x^j) = delta_ij.
    Computed by a linear solve; the Kronecker property is verified to 1e-10.
    """
    B = interpolation_matrix(space, points)
    l = space.dimension()
    if B.shape[0] != l:
        raise ValueError(f"need exactly {l} points")
    try:
        C = np.linalg.solve(B, np.eye(l))
    except np.linalg.LinAlgError as exc:
        raise NotNormingError("interpolation system is singular") from exc
    resid = np.max(np.abs(B @ C - np.eye(l)))
    if resid > 1e-10:
        raise IllConditionedError(
            f"Lagrange residual {resid:.2e} exceeds 1e-10; system is near-singular")
    return C


def cramer_bound(space: SpaceDescriptor, points) -> float:
    """Cramer-rule upper bound S^l * l * l! / |det| on the norming constant.

    ``points`` is a unisolvent set of l = dim V points and S = max_i sup |f_i|
    over the set's domain (``PointSet.domain``). S is exact, not a grid
    bracket: every basis function attains its sup modulus at a corner of the
    box (``SpaceDescriptor.basis_sup``), so only the corners are evaluated.
    """
    zs = as_point_set(points, space.n)
    l = space.dimension()
    delta = interpolation_determinant(space, zs)  # raises unless |Z| = l
    if delta == 0.0:
        raise NotNormingError("zero interpolation determinant: not norming via this subset")
    sup = space.basis_sup(zs.domain(space))
    return sup**l * l * math.factorial(l) / abs(delta)


# ---------------------------------------------------------------------------
# certified sup-norms


@dataclass(frozen=True)
class SupBracket:
    lower: float
    upper: float
    certified: bool
    grid_spacing: float
    argmax: np.ndarray


def certified_supnorm(space: SpaceDescriptor, coefficients, box=None, *,
                      grid_spacing=None, budget=None) -> SupBracket:
    """Bracket [lower, upper] containing sup |f| over a box (see ``_certified_max``),
    f given by dim V finite coefficients."""
    w = np.asarray(coefficients, dtype=float)
    if w.shape != (space.dimension(),) or not np.all(np.isfinite(w)):
        raise ValueError(f"coefficients must be a vector of dim V = {space.dimension()} "
                         f"finite numbers, got shape {w.shape}")
    return _certified_max(space, w[:, None, None], _domain_box(space, box), grid_spacing,
                          budget)[0]


def _grid_key(spacing, budget):
    """(spacing, budget) as grids are keyed: a given spacing makes the budget
    irrelevant, and no budget means the default one."""
    if spacing is not None:
        return spacing, None
    return None, DEFAULT_GRID_BUDGET if budget is None else budget


@dataclass(frozen=True, eq=False)
class _GridPlan:
    """What a bracket on one (space, box, spacing, budget) needs that does not
    depend on W: M or the basis's Lipschitz bound, the halved spacing, the
    axes in place of O(G) points, and the tree, H and P, built on first use.
    Made by ``_grid_plan``, an ``lru_cache`` of 8, so every set in one space
    shares the cube's plan, as does every polynomial box in its frame. Its
    arrays are read-only."""

    space: SpaceDescriptor
    markov: Optional[MarkovConstant]  # certified, of the identity modulus; None if none is
    spacing: Optional[float]  # after halving; None where the budget sets it
    h_eff: float
    axes: tuple  # (lo, hi, m, step) per axis, see ``_axis_points``
    shape: tuple
    lipschitz: Optional[np.ndarray]  # ``basis_lipschitz`` on the box, where markov is None
    vmax: float  # max(1, sup of the basis on the box), for ``_coarse_prune``'s slack

    @functools.cached_property
    def H(self) -> float:
        """Bound on sum_ij sup |d_i d_j f| / sup |f| over the box that M is
        relative to: n^2 d^2 (d - 1)^2 on the cube (Markov's inequality
        applied to f and to d_i f), (pi d n)^2 for a trigonometric space
        (Bernstein's twice, relative to the sup over a period), and 0 where
        the box has no M: that pruning reads no second derivative."""
        if self.markov is None:
            return 0.0
        d, M = self.space.degree, self.markov.value
        if self.space.kind == "polynomial":
            return (M * (d - 1) / d) ** 2 if d > 1 else 0.0
        return M * M

    @functools.cached_property
    def P(self) -> np.ndarray:
        """``SpaceDescriptor.basis_derivatives`` stacked as (n * l, l)."""
        P = self.space.basis_derivatives()
        return _read_only(P.reshape(-1, P.shape[2]))

    @functools.cached_property
    def tree(self) -> tuple:
        """((size, rows, r), ...) per level of blocks, coarsest first, () where S < 2.

        Level j tiles the grid from index 0 with blocks of size = S * 4^j
        indices per axis (the last on an axis may be shorter), up while a
        block is shorter than the longest axis; S makes the root (j = 0) about
        9 * sqrt(G) blocks, as costly as some 80 kept blocks. A block reaches
        from its first grid point to its neighbour's (to hi for the last);
        rows holds the basis at the block centres, in C order, and r the
        largest centre-to-end distance."""
        s = int(round((math.sqrt(math.prod(self.shape)) / 9.0) ** (1.0 / len(self.shape))))
        if s < 2:
            return ()
        levels, size = [], s
        while not levels or size < max(self.shape):
            centres, r = [], 0.0
            for ax in self.axes:
                first = np.arange(0, ax[2], size)
                end = np.minimum(first + size, ax[2] - 1)
                x0, xc, x1 = _axis_points(ax, np.stack((first, (first + end) // 2, end)))
                r = max(r, float(np.max(xc - x0)), float(np.max(x1 - xc)))
                centres.append(xc)
            grid = np.stack(np.meshgrid(*centres, indexing="ij"), axis=-1).reshape(-1, len(centres))
            levels.append((size, _read_only(self.space.evaluate_basis(grid)), r))
            size *= 4
        return tuple(reversed(levels))


def _halved_grid(M: float, box, spacing, budget):
    """(spacing, axes, h_eff) of the grid on a box, its spacing halved while
    M * h/2 >= 1, at most 20 times; the spacing stays None where the budget
    sets it and no halving is needed."""
    axes, h_eff = _grid_axes(box, spacing, budget)
    h0 = h = h_eff if spacing is None else spacing
    while M * (h / 2) >= 1.0 and h > h0 / 2**20:
        h /= 2.0
    if h < h0:
        spacing = h
        axes, h_eff = _grid_axes(box, spacing, budget)
    return spacing, axes, h_eff


@functools.lru_cache(maxsize=8)
def _grid_plan(space: SpaceDescriptor, box_bytes: bytes, spacing, budget) -> _GridPlan:
    """The grid plan of a box, given as the float64 bytes of its rows (lo, hi),
    and the grid fixed: with the box's own M, where it is certified, and the
    spacing halved while M * h/2 >= 1; elsewhere (a fewnomial span, or a
    trigonometric box that does not cover the cube) with the basis's
    Lipschitz bound and the spacing as given, as that rule has no pole."""
    box = tuple(np.frombuffer(box_bytes).reshape(2, -1))
    M = lipschitz = None
    if space.kind != "fewnomial":
        M = markov_constant(replace(space, modulus=IDENTITY), box=box)
    if M is None or not M.certified:
        M, lipschitz = None, _read_only(space.basis_lipschitz(box))
    spacing, axes, h_eff = _halved_grid(0.0 if M is None else M.value, box, spacing, budget)
    return _GridPlan(space, M, spacing, h_eff, axes, tuple(ax[2] for ax in axes), lipschitz,
                     max(1.0, space.basis_sup(box)))


@functools.lru_cache(maxsize=8)
def _shift_terms(n: int, d: int):
    """(binom, up, down) of ``_shift`` for the basis exponents: over the pairs
    (beta, alpha), the product over axes of C(alpha_j, beta_j) (0 unless
    beta <= alpha), and per axis the powers alpha_j - beta_j of c_j (clipped
    at 0) and beta_j of r_j, as (n, l, l) arrays. All read-only."""
    k = np.arange(d + 1)
    comb = np.array([[math.comb(a, b) for a in k] for b in k], dtype=float)  # [b, a]
    exps = _monomial_exponents(n, d)
    alpha, beta = np.broadcast_arrays(exps[None, :, :], exps[:, None, :])  # (l, l, n)
    binom = np.prod(comb[beta, alpha], axis=2)
    up = np.maximum(alpha - beta, 0).transpose(2, 0, 1).copy()
    return _read_only(binom), _read_only(up), _read_only(beta.transpose(2, 0, 1).copy())


def _shift(space: SpaceDescriptor, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The l x l matrix T with phi(c + r * u) = phi(u) @ T for the monomial
    basis phi: x^a = (c + r u)^a = sum_b C(a, b) c^(a - b) r^b u^b per axis,
    and T[beta, alpha] the product of those terms over the axes. An entry
    takes at most 4 n roundings."""
    binom, up, down = _shift_terms(space.n, space.degree)
    k = np.arange(space.degree + 1)
    T = binom
    for j in range(space.n):
        T = T * (c[j] ** k)[up[j]] * (r[j] ** k)[down[j]]
    return T


class _Frame:
    """V on a box as V' on a box with no flat axis: the one frame of a box.

    V' is V restricted to the box's live axes, by R with lift L
    (``SpaceDescriptor.restrict``). On those axes x = c + r * u maps V''s box
    onto the box, and x is the box's centre on the flat ones, so that
    phi(x) @ w = phi'(u) @ (T @ w), and T @ lift = I. A polynomial box whose
    live axes are not the cube's is affine: V''s box is the cube, T is
    ``_shift`` @ R and the lift L @ its inverse shift. Elsewhere u = x[live]
    (c = 0, r = 1) on the box's live rows, and T = R: None, with the lift,
    where no axis is flat. T and the lift are made on first use.
    """

    def __init__(self, space: SpaceDescriptor, box: np.ndarray):
        self.space, self.live, self.R, self.L = space.restrict(box)
        lo, hi = self.box = box[:, self.live]
        self.centre = (box[0] + box[1]) / 2.0
        cube = _cube(self.space) if space.kind == "polynomial" else None
        self.affine = cube is not None and self.box.tobytes() != cube.tobytes()
        if self.affine:  # V''s box is the cube
            self.box, self.c, self.r = cube, self.centre[self.live], (hi - lo) / 2.0
        else:
            self.c, self.r = np.zeros(lo.size), np.ones(lo.size)

    @functools.cached_property
    def T(self) -> Optional[np.ndarray]:
        if not self.affine:
            return self.R
        S = _shift(self.space, self.c, self.r)  # the shift onto the cube, after R
        return S if self.R is None else S @ self.R

    @functools.cached_property
    def lift(self) -> Optional[np.ndarray]:
        if not self.affine:
            return self.L
        S = _shift(self.space, -self.c / self.r, 1.0 / self.r)  # on u = (x - c) / r
        return S if self.L is None else self.L @ S

    def image(self, zs: PointSet) -> PointSet:
        """A set on the box as a set in V' on V''s box."""
        return PointSet._unchecked((zs.points[:, self.live] - self.c) / self.r, self.box)

    def lifted(self, w: np.ndarray) -> np.ndarray:
        return w if self.lift is None else self.lift @ w

    def to_box(self, bracket: SupBracket, pad: float = 0.0) -> SupBracket:
        """A bracket in V''s frame as one on the box, both ends moved out by pad."""
        x = self.centre.copy()
        x[self.live] = self.c + self.r * bracket.argmax
        return SupBracket(max(bracket.lower - pad, 0.0), bracket.upper + pad, bracket.certified,
                          bracket.grid_spacing * max(self.r.tolist(), default=0.0), x)

    def pad(self, W: np.ndarray) -> float:
        """T W's rounding: gamma * eps * |T| @ |W| summed over a group's members
        and basis rows, times the sup of V''s basis on its box, where gamma
        doubles the l roundings of a product row and the at most 4 n of an
        entry of T. For a polynomial space that sup is 1 on the cube, and the
        sum over rows of column alpha of |T| is x^alpha at the point x with
        |c| + r on the live axes and the centre's modulus on the flat ones."""
        l, K, g = W.shape
        if self.space.kind == "polynomial":
            x = np.abs(self.centre)
            x[self.live] = np.abs(self.c) + self.r
            rows = np.prod(x ** _monomial_exponents(x.size, self.space.degree), axis=1)
        else:
            rows = np.abs(self.T).sum(axis=0) * self.space.basis_sup(self.box)
        size = float((rows @ np.abs(W).reshape(l, K * g)).reshape(K, g).sum(axis=1).max())
        return 2 * (l + 4 * self.centre.size) * float(np.finfo(float).eps) * size

    def sup(self, W: np.ndarray, spacing, budget):
        """``_certified_max`` of W, coefficients in V', on V''s box and in its
        coordinates, placed as the module docstring says (a point reads
        |f(p)|: V' holds the constants); a spacing h becomes h * min(1, 1 / max r)."""
        if self.space.n == 0:
            vals = np.abs(W[0]).sum(axis=1)
            k = int(np.argmax(vals))
            return SupBracket(float(vals[k]), float(vals[k]), True, 0.0, np.empty(0)), k
        spacing, budget = _grid_key(spacing, budget)
        spacing = None if spacing is None else spacing * min(1.0, 1.0 / max(self.r.tolist()))
        return _bracket(W, _grid_plan(self.space, self.box.tobytes(), spacing, budget))


def _certified_max(space: SpaceDescriptor, W: np.ndarray, box, spacing, budget):
    """Bracket on sup over ``box`` of max_k sum_j |phi(x) @ W[:, k, j]|, by the
    rule in the module docstring. Returns (SupBracket, group of W at the
    argmax). The box's frame takes T W, and both ends move out by its
    rounding (``_Frame.pad``)."""
    frame = _Frame(space, np.asarray(box, dtype=float))
    if frame.T is None:
        return frame.sup(W, spacing, budget)
    l, K, g = W.shape
    bracket, column = frame.sup((frame.T @ W.reshape(l, K * g)).reshape(-1, K, g), spacing, budget)
    return frame.to_box(bracket, frame.pad(W)), column


def _bracket(W: np.ndarray, plan: _GridPlan):
    """``_certified_max`` once the plan is picked, by the plan's rule (the
    module docstring); a bracket whose upper end is not finite is not certified."""
    lower, point, column = _grid_max(W, plan)
    if plan.markov is None:
        upper = lower + plan.h_eff / 2 * float(_with_slopes(W, plan)[1].max())
        # a trigonometric G is pi times integers; a fewnomial span's corner values
        # carry only a relative margin for their exp/log rounding, not a proven bound
        certified = plan.space.kind == "trigonometric"
    else:
        pad = plan.markov.value * (plan.h_eff / 2)
        upper, certified = (lower / (1.0 - pad), True) if pad < 1.0 else (math.inf, False)
    return SupBracket(lower, upper, certified and math.isfinite(upper), plan.h_eff, point), column


# ---------------------------------------------------------------------------
# the norming constant


@dataclass(frozen=True)
class NormingReport:
    norming: bool
    value: Optional[float]
    lower: float
    upper: float
    grid_spacing: float
    witness_coefficients: np.ndarray
    witness_point: Optional[np.ndarray]
    method: str
    certified: bool = True
    json_extra = ("reciprocal",)

    @property
    def reciprocal(self) -> float:
        return 0.0 if not self.norming else 1.0 / self.value

    to_json = report_json


def _feasible_vertices(B: np.ndarray) -> np.ndarray:
    """Vertices of {a : |Ba| <= 1}, one per +/- pair and each once, subset by
    subset in combination order and, within a subset, in the row order of
    ``_half_signs``.

    A nonsingular l-subset of the rows of B, with inverse A, gives the
    candidates A s for the S = 2^(l-1) sign vectors s; only the m - l rows off
    the subset are tested, in chunks of at most ``_BLOCK_VALUES // (m S)``
    subsets. A vertex tight on more than l rows (the constant, where V holds
    it, on all of Z) comes from each subset of them: ``_first_copies``."""
    m, l = B.shape
    if math.comb(m, l) * 2 ** (l - 1) > VERTEX_BUDGET:
        raise ValueError("vertex enumeration budget exceeded; reduce |Z| or dim V")
    signs = _half_signs(l).T  # (l, S)
    subsets = combinations(range(m), l)
    step = max(1, _BLOCK_VALUES // (m * signs.shape[1]))
    out, seen = [np.empty((0, l))], []
    while chunk := list(islice(subsets, step)):
        combos = np.array(chunk, dtype=np.intp)
        sub = B[combos]  # (c, l, l)
        scale = np.max(np.abs(sub), axis=(1, 2))
        ok = np.abs(np.linalg.det(sub)) > 1e-12 * np.maximum(scale, 1.0) ** l
        combos, verts = combos[ok], np.linalg.inv(sub[ok]) @ signs  # (c, l, S)
        off = np.ones((len(combos), m), dtype=bool)
        off[np.arange(len(combos))[:, None], combos] = False
        rest = B[np.nonzero(off)[1].reshape(len(combos), m - l)]  # (c, m - l, l)
        top = np.max(np.abs(rest @ verts), axis=1, initial=0.0)  # (c, S)
        feas = top <= 1.0 + 1e-9
        i, j = np.nonzero(feas & (top >= 1.0 - 1e-9))
        feas[i, j] = _first_copies(verts[i, :, j] @ B.T, seen)
        out.append(np.swapaxes(verts, 1, 2)[feas])
    return np.concatenate(out)


def _first_copies(vals: np.ndarray, seen: list) -> np.ndarray:
    """Which rows of ``vals`` (values on Z of candidates tight on more than l
    rows) are first copies: signed so its first tight row reads +1, a row within
    1e-9 of an earlier vertex's (``seen``) is that vertex, as Z norms V."""
    tight = np.abs(vals) >= 1.0 - 1e-9
    vals = vals * np.sign(vals[np.arange(len(vals)), np.argmax(tight, axis=1)])[:, None]
    keep = np.ones(len(vals), dtype=bool)
    for first in seen:
        keep &= np.max(np.abs(vals - first), axis=1) > 1e-9
    rows = np.flatnonzero(keep)
    while rows.size:
        seen.append(vals[rows[0]])
        rows = rows[1:]
        same = np.max(np.abs(vals[rows] - seen[-1]), axis=1) <= 1e-9
        keep[rows[same]] = False
        rows = rows[~same]
    return keep


@functools.lru_cache(maxsize=8)
def _half_signs(l: int) -> np.ndarray:
    """The 2^(l-1) sign vectors with s_0 = +1, one read-only row each; row
    ``bits`` has s_(k+1) = +1 where bit k of ``bits`` is set."""
    bits = np.arange(2 ** max(l - 1, 0))[:, None] >> np.arange(l - 1) & 1
    return _read_only(np.hstack([np.ones((bits.shape[0], 1)), np.where(bits, 1.0, -1.0)]))


def _grid_max(W: np.ndarray, plan: _GridPlan):
    """(value, point, column): the maximum of sum_j |phi(x) @ W[:, k, j]| over
    the grid of ``plan`` and all groups k, and its first maximiser in grid
    order and column order, as one dense ``_group_values(Phi, W)`` gives.
    ``_coarse_prune`` skips the columns and blocks that cannot reach it,
    exactly; the grid points it keeps are evaluated in chunks of bounded size."""
    cols, keep = _coarse_prune(W, plan)
    Wk, total = W[:, cols], math.prod(plan.shape)
    top, point, col = -math.inf, None, 0
    step = _block_rows(Wk)
    for start in range(0, total if keep is None else keep.size, step):
        flat = (np.arange(start, min(total, start + step)) if keep is None
                else keep[start:start + step])
        pts = _grid_points(plan.axes, flat)
        vals = _group_values(plan.space.evaluate_basis(pts), Wk)
        rowmax = vals.max(axis=1)
        j = int(np.argmax(rowmax))
        if not rowmax[j] <= top:  # strictly larger, or NaN
            top, point, col = float(rowmax[j]), pts[j].copy(), int(cols[np.argmax(vals[j])])
            if not math.isfinite(top):
                break
    return top, point, col


def _coarse_prune(W: np.ndarray, plan: _GridPlan):
    """Groups of W and flat grid indices that can still attain the grid maximum.

    One loop over the plan's tree (``_GridPlan.tree``), coarsest level first:
    each level runs ``_lattice_pass`` on its kept blocks' rows of the plan's
    tables, drops columns and blocks by one rule, and hands the kept blocks'
    children on; the kept root blocks give the grid indices. Levels above
    the root run while two or more columns are left, to drop columns. Every
    point of a block lies within r (the level's) of its centre c on every
    axis, so Taylor's theorem bounds column k, of value V_k, on the block by

        V_k(c) + r * D_k(c) + q * S_k,   q = H * r^2 / 2,

    with H = ``_GridPlan.H`` (0 where the box has no M), D_k the slope of
    ``_with_slopes`` and S_k = max_c (V_k + r * D_k) / (1 - q) over the kept
    blocks where q < 1, a bound on sup V_k.

    The floor is the level's largest V_k(c), a grid value, less a rounding
    slack. A column goes where its bound stays below the floor on every kept
    block, and a block where the largest V_k(c) + r * D_k(c) over the columns
    tested, plus the largest kept q * S_k, does. Neither holds the dense
    pass's first maximiser, point x* and column k*: level by level, V_k*
    stays below the floor on the blocks dropped so far and reaches every
    floor at x*, so its sup lies in the kept blocks, S_k* bounds it, and x*'s
    block and k* pass. A level with q >= 1 or a bound that is not finite (a
    value included) prunes nothing and descends.

    The slack: one computed |phi @ w| is off by at most l * eps * ||w||_1 *
    vmax (``_GridPlan.vmax``), a value and its reach by the sum of that over
    the group's members and, r times, its derivative members, and a bound
    by 1 / (1 - q) times that, once for the bound and once for the floor.

    Returns (columns, ascending flat indices; None where every block is kept).
    """
    cols = np.arange(W.shape[1])
    H, g = plan.H, W.shape[2]
    Wv, D0 = _with_slopes(W, plan)
    norms = np.abs(Wv).sum(axis=0)
    wnorm, dnorm = float(norms[:g].sum(axis=0).max()), float(norms[g:].sum(axis=0).max())
    unit = 2 * W.shape[0] * float(np.finfo(float).eps) * plan.vmax
    kept, at = None, 0  # the kept blocks, of size at; None while every one is
    for size, rows, r in plan.tree:
        q = 0.5 * H * r * r
        if not q < 1.0 or (cols.size == 1 and size > plan.tree[-1][0]):
            continue
        if kept is not None and at > size:
            kept, at = _sub_blocks(kept, at, size, plan.shape), size
        low, reach, rowreach = _lattice_pass(rows if kept is None else rows[kept],
                                             Wv[:, :, cols], g, D0[cols], r)
        bound = reach / (1.0 - q)  # max_c (V_k + r D_k) + q S_k, which is S_k itself
        if not np.isfinite(bound).all():
            continue
        floor = float(low.max()) * (1.0 - _PRUNE_RTOL) - unit * (wnorm + r * dnorm) / (1.0 - q)
        keep = bound >= floor
        cols = cols[keep]
        ok = rowreach + float((bound - reach)[keep].max()) >= floor  # the largest kept q S_k
        if not ok.all():
            kept, at = np.flatnonzero(ok) if kept is None else kept[ok], size
    if kept is None:
        return cols, None
    flat = _sub_blocks(kept, at, 1, plan.shape)
    return cols, flat if len(plan.shape) == 1 else np.sort(flat)


def _sub_blocks(kept: np.ndarray, size: int, sub: int, shape) -> np.ndarray:
    """Flat indices of the blocks of ``sub`` indices per axis (1: grid points)
    that tile the blocks ``kept`` of ``size``, a multiple of ``sub``, on a grid
    of ``shape``: ascending per block, and overall in 1-D where ``kept`` is."""
    n, f, counts = len(shape), size // sub, [-(-m // sub) for m in shape]
    parents = np.array(np.unravel_index(kept, [-(-m // size) for m in shape]))
    multi = (parents[:, :, None] * f + np.indices((f,) * n).reshape(n, 1, -1)).reshape(n, -1)
    return np.ravel_multi_index(multi[:, np.all(multi < np.array(counts)[:, None], axis=0)], counts)


def _with_slopes(W: np.ndarray, plan: _GridPlan):
    """(Wv, D0), the members of W and of their slopes as ``_lattice_pass`` takes them.

    The slope of group k at c is D_k(c) = sum_j sum_i |d_i (phi(c) @ W[:, k, j])|
    (``_coarse_prune``). For a polynomial or trigonometric space d_i maps
    the basis into itself (``SpaceDescriptor.basis_derivatives``), and Wv, of
    shape (l, (n + 1) * g, K), holds the g members of every group followed by
    their n * g derivative members P_i @ W[:, :, j], so D_k(c) is the exact
    group value of the latter at c, and D0 = 0. A plan with no M has Wv =
    the members alone and the constant D0_k = sum_j |W[:, k, j]| . G, which
    ``_bracket`` reads too, G = ``SpaceDescriptor.basis_lipschitz`` on the
    box, with a relative margin for the exp/log rounding of corner values."""
    l, K, g = W.shape
    Wv = W.transpose(0, 2, 1)  # (l, g, K)
    if plan.lipschitz is not None:
        return Wv, (1.0 + _PRUNE_RTOL) * (np.abs(W).sum(axis=2).T @ plan.lipschitz)
    dW = (plan.P @ Wv.reshape(l, g * K)).reshape(-1, l, g * K)  # (n, l, g * K)
    return np.concatenate([Wv, dW.transpose(1, 0, 2).reshape(l, -1, K)], axis=1), np.zeros(K)


def _lattice_pass(rows, Wv, g, D0, r):
    """(low, reach, rowreach) on the basis ``rows`` at block centres, for the
    (Wv, D0) of ``_with_slopes``: per row the max over groups of the group
    value V, per group the max over rows of V + r * D, D its slope, and per
    row the max over groups of V + r * D. Rows run in chunks of bounded
    size, groups along the first axis, so member sums read contiguous memory."""
    l, members, K = Wv.shape
    low, rowreach, reach = [], [], 0.0
    step = _block_rows(Wv)
    for start in range(0, rows.shape[0], step):
        vals = Wv.reshape(l, members * K).T @ rows[start:start + step].T
        vals = np.abs(vals, out=vals).reshape(members, K, -1)
        V = vals[:g].sum(axis=0)
        low.append(V.max(axis=0))
        U = vals[g:].sum(axis=0)
        U += D0[:, None]
        U *= r
        U += V
        reach = np.maximum(reach, U.max(axis=1))
        rowreach.append(U.max(axis=0))
    return np.concatenate(low), reach, np.concatenate(rowreach)


def _group_values(Phi, W) -> np.ndarray:
    """sum_j |Phi @ W[:, k, j]| per row and group k; a group of one is |Phi @ W[:, k, 0]|."""
    if W.shape[2] == 1:
        return np.abs(Phi @ W[:, :, 0])
    l, K, g = W.shape
    return np.abs(Phi @ W.reshape(l, K * g)).reshape(-1, K, g).sum(axis=2)


def _block_rows(W: np.ndarray) -> int:
    """Rows per block of Phi (l values a row) and of Phi @ W (K * g values a row)."""
    return max(1, _BLOCK_VALUES // max(W.shape[0], W.shape[1] * W.shape[2], 1))


def norming_constant(space: SpaceDescriptor, points, *, grid_spacing=None,
                     budget=None, rank_threshold=DEFAULT_RANK_THRESHOLD) -> NormingReport:
    """Exact-at-desk-scale norming constant of a finite set, with certificate.

    Not-norming detection: smallest singular value of the column-scaled
    interpolation matrix below ``rank_threshold``; the witness is the
    corresponding null direction (an f in V vanishing on Z), normalized to
    unit grid sup over the set's domain (``PointSet.domain``).

    The witness is W[:, k] @ s for the maximising group k, with s_j the sign
    of member j at the witness point relative to member 0 (-1 where it
    vanishes): the vertex itself, or the vertex sum_j s_j L_j of a unisolvent
    set, divided by max(1, max_Z |f|) (a vertex meets |f| <= 1 on Z to 1e-9);
    value and lower are |f(x*)| of the scaled witness, a feasible LP value.

    A set is taken in the frame of its domain (``_Frame``), as its image in
    V' on V''s box, where N is the same; its witness is lifted back into V,
    and its witness point and grid spacing are mapped back to the domain.
    """
    zs = as_point_set(points, space.n)
    frame = _Frame(space, zs.domain(space))
    B = frame.space.evaluate_basis(frame.image(zs).points)
    l = frame.space.dimension()

    colmax = np.maximum(np.max(np.abs(B), axis=0), 1e-300)
    Bs = B / colmax
    # thin unless m < l, where the null vector needs the full Vh
    U, s, Vh = np.linalg.svd(Bs, full_matrices=B.shape[0] < l)
    smin = s[-1] if B.shape[0] >= l else 0.0
    if B.shape[0] < l or smin < rank_threshold:
        null = Vh[-1] / colmax
        bracket = frame.sup(null[:, None, None], grid_spacing, budget)[0]
        if bracket.lower > 0:
            null = null / bracket.lower
        return NormingReport(
            norming=False, value=None, lower=math.inf, upper=math.inf,
            grid_spacing=frame.to_box(bracket).grid_spacing,
            witness_coefficients=frame.lifted(null), witness_point=None,
            method="rank_deficient", certified=True)

    if B.shape[0] == l:
        W = np.linalg.solve(B, np.eye(l))[:, None, :]
    else:
        # the vertices c of {c : |Uc| <= 1} give Vh^T diag(1/s) c / colmax for
        # {a : |Ba| <= 1}; U's orthonormal columns let the subset test judge
        # the subsets, not the scale of the basis on a small box
        verts = _feasible_vertices(U)
        if verts.shape[0] == 0:
            raise IllConditionedError("no feasible LP vertex despite full rank",
                                      direction=frame.lifted(Vh[-1] / colmax))
        W = (Vh.T / s / colmax[:, None] @ verts.T)[:, :, None]
    bracket, k = frame.sup(W, grid_spacing, budget)
    s = np.ones(W.shape[2])
    if s.size > 1:
        v = frame.space.evaluate_basis(bracket.argmax) @ W[:, k]
        s = np.where(v * (-1.0 if v[0] < 0 else 1.0) > 0, 1.0, -1.0)
        s[0] = 1.0
    w = W[:, k] @ s
    if not math.isfinite(bracket.lower):
        raise IllConditionedError("LP value not finite despite full rank",
                                  direction=frame.lifted(w))
    scale = max(1.0, float(np.abs(B @ w).max()))  # to max_Z |f| <= 1, from 1 + 1e-9
    bracket = frame.to_box(bracket)
    lower = bracket.lower / scale
    return NormingReport(
        norming=True, value=lower, lower=lower, upper=bracket.upper,
        grid_spacing=bracket.grid_spacing, witness_coefficients=frame.lifted(w / scale),
        witness_point=bracket.argmax, method="lp_grid", certified=bracket.certified)


def lebesgue_constant(space: SpaceDescriptor, points, *, grid_spacing=None,
                      budget=None) -> float:
    """Lebesgue constant sup sum_i |L_i| of a set of dim V points over its
    domain. There the LP value is sum_i |L_i|, so this is the value of
    ``norming_constant``, bit for bit; a set that is not norming raises."""
    zs = as_point_set(points, space.n)
    l = _Frame(space, zs.domain(space)).space.dimension()  # of V on the domain
    if len(zs) != l:
        raise ValueError(f"need exactly {l} points, got {len(zs)}")
    rep = norming_constant(space, zs, grid_spacing=grid_spacing, budget=budget)
    if not rep.norming:
        raise NotNormingError("interpolation matrix is rank-deficient: the set is not unisolvent")
    return rep.value


# ---------------------------------------------------------------------------
# Fekete subsets and the sandwich inequality


def fekete_select(space: SpaceDescriptor, points, mode: str = "exhaustive"):
    """Subset of cardinality dim V maximizing |det| of the interpolation matrix.

    Returns (indices, |det|). Exhaustive mode scans all subsets (canonical
    tie-break: first combination in index order); greedy mode does
    determinant pivoting (row-by-row volume maximization).
    """
    pts = as_point_set(points, space.n).points
    l = space.dimension()
    m = pts.shape[0]
    if m < l:
        raise ValueError(f"need at least {l} points, got {m}")
    Phi = space.evaluate_basis(pts)
    if mode == "exhaustive":
        if math.comb(m, l) > FEKETE_CAP:
            raise ValueError("exhaustive Fekete above the configured cap")
        combos = np.asarray(list(combinations(range(m), l)))
        dets = np.abs(np.linalg.det(Phi[combos]))
        k = int(np.argmax(dets))
        if dets[k] <= 0.0:
            raise NotNormingError("all square subsets are singular: not norming")
        return tuple(int(i) for i in combos[k]), float(dets[k])
    if mode != "greedy":
        raise ValueError("mode must be 'exhaustive' or 'greedy'")
    chosen = _greedy_pivots(Phi)
    if len(chosen) < l:
        raise NotNormingError("greedy pivoting found no nonsingular subset")
    idx = tuple(sorted(chosen))
    det = abs(float(np.linalg.det(Phi[list(idx)])))
    if det == 0.0:
        raise NotNormingError("greedy subset is singular")
    return idx, det


def _greedy_pivots(Phi: np.ndarray) -> list[int]:
    """Rows of Phi picked by volume-maximizing pivoting (modified Gram-Schmidt),
    in pick order: each the row of largest residual norm, then projected out
    of every row. Fewer than Phi.shape[1] where that norm falls to 1e-13. The
    rows approximate a Fekete subset (Bos, De Marchi, Sommariva and Vianello,
    SIAM J. Numer. Anal. 2010)."""
    R = Phi.copy()
    chosen: list[int] = []
    for _ in range(Phi.shape[1]):
        norms = np.linalg.norm(R, axis=1)
        norms[chosen] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= 1e-13:
            break
        chosen.append(j)
        q = R[j] / norms[j]
        R -= np.outer(R @ q, q)
    return chosen


@dataclass(frozen=True)
class SandwichReport:
    fekete_indices: tuple
    n_full: float
    n_fekete: float
    lower_ok: bool
    upper_ok: bool
    lagrange_ok: bool
    max_abs_lagrange_on_z: float

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.lagrange_ok


def sandwich_check(space: SpaceDescriptor, points, *, grid_spacing=None,
                   budget=None) -> SandwichReport:
    """Verify (1/l) N(Z_fekete) <= N(Z) <= N(Z_fekete) plus max_Z |L_i| <= 1,
    with l, the Fekete subset and its Lagrange functions those of the set's
    image in V' (``_Frame``); an inequality fails only where the certified
    brackets prove it."""
    zs = as_point_set(points, space.n)
    frame = _Frame(space, zs.domain(space))
    image, l = frame.image(zs), frame.space.dimension()
    idx, _ = fekete_select(frame.space, image, mode="exhaustive")
    full = norming_constant(space, zs, grid_spacing=grid_spacing, budget=budget)
    if not full.norming:
        raise NotNormingError("Z is not norming")
    fek = norming_constant(space, PointSet(zs.points[list(idx)], zs.box),
                           grid_spacing=grid_spacing, budget=budget)
    lower_ok = bool(fek.upper >= full.lower * (1.0 - SANDWICH_REL_TOL))
    upper_ok = bool(fek.lower <= l * full.upper * (1.0 + SANDWICH_REL_TOL))
    C = lagrange_basis(frame.space, PointSet._unchecked(image.points[list(idx)], image.box))
    on_z = float(np.max(np.abs(frame.space.evaluate_basis(image.points) @ C)))
    lagrange_ok = on_z <= 1.0 + 1e-9
    return SandwichReport(idx, full.value, fek.value, lower_ok, upper_ok, lagrange_ok, on_z)
