"""Exact norming constants over the cube.

The norming constant of a finite set Z is computed as the certified sup,
over a uniform grid on the cube, of the per-point linear program

    maximize  sum_i a_i f_i(x)   s.t.  |sum_i a_i f_i(z_j)| <= 1  for all j.

The LP optimum is attained at a vertex of the feasible polytope, and the
polytope does not depend on x, so we enumerate its vertices once and take
the grid-wise maximum of |f_v(x)| over vertices v. This is exactly the
per-grid-point LP value. ``simplex.norming_lp_value`` solves individual
LPs directly and is used as a cross-check.

The grid maximum is found coarse to fine (``_grid_max``). A sub-lattice of
about 9 * sqrt(G) of the G grid points is evaluated first; the Markov
inequality then bounds every vertex and every coarse cell, and only the
vertices and cells that can still reach the coarse maximum are evaluated on
the full grid, as index ranges expanded in grid order. The skipped ones
provably cannot hold the grid maximum, so the result is that of a dense
pass. Pruning needs a certified Markov constant (identity modulus,
polynomial or trigonometric space) and a box inside the space's own cube;
on a strict sub-box it also needs the certified sup over the cube, which
``_certified_max`` computes first. Fewnomial spaces, power moduli and grids
too small to coarsen evaluate every grid point. Both passes run in blocks of
bounded size.

Certification (``_certified_max``, shared by ``norming_constant``,
``certified_supnorm`` and ``cramer_bound``): the grid maximum is the lower
bound; the spacing h is halved while M * omega(h/2) >= 1. The upper bound
is lower / (1 - M * omega(h/2)) on the cube, and lower + M * omega(h/2) *
sup_cube on a strict sub-box, whose M is relative to the sup over the cube.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from .spaces import MarkovConstant, SpaceDescriptor, markov_constant

DEFAULT_RANK_THRESHOLD = 1e-10
DEFAULT_GRID_BUDGET = 200_001
VERTEX_BUDGET = 4_000_000
FEKETE_CAP = 500_000
# grid maximiser: values per evaluated block, and the relative slack that
# keeps rounding from pruning a maximiser
_BLOCK_VALUES = 1 << 20
_PRUNE_RTOL = 1e-9


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
    """A finite list of n-vectors, duplicate-free within 1e-12 in l-inf."""

    points: np.ndarray
    box: Optional[tuple] = None  # declared bounding box for fewnomial domains

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        _check_duplicates(pts)

    def __len__(self):
        return self.points.shape[0]


def linf_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of l-inf distances between the rows of ``a`` and the rows of ``b``."""
    return np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)


def has_duplicates(pts: np.ndarray) -> bool:
    """True when two rows of ``pts`` lie within 1e-12 of each other in l-inf."""
    if pts.shape[0] < 2:
        return False
    diff = linf_distances(pts, pts)
    np.fill_diagonal(diff, np.inf)
    return bool(np.min(diff) < 1e-12)


def _check_duplicates(pts: np.ndarray):
    if pts.shape[0] < 1:
        raise ValueError("point set must be nonempty")
    if has_duplicates(pts):
        raise ValueError("duplicate points (within 1e-12 in l-inf)")


def as_points(points, n: Optional[int] = None) -> np.ndarray:
    if isinstance(points, PointSet):
        pts = points.points
    else:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        _check_duplicates(pts)
    if n is not None and pts.shape[1] != n:
        raise ValueError(f"points must have {n} coordinates")
    return pts


def _domain_box(space: SpaceDescriptor, points=None, box=None):
    if box is not None:
        return (np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float))
    if isinstance(points, PointSet) and points.box is not None:
        return (np.asarray(points.box[0], dtype=float),
                np.asarray(points.box[1], dtype=float))
    cube = space.default_box()
    if cube is None:
        raise ValueError("fewnomial spaces need an explicit bounding box")
    return cube


def _grid_axes(box, spacing=None, budget=None):
    """Axes of the uniform grid on a box; returns (axes, effective_spacing)."""
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    n = lo.size
    if budget is None:
        budget = DEFAULT_GRID_BUDGET
    axes = []
    h_eff = 0.0
    if spacing is None:
        per_axis = max(2, int(budget ** (1.0 / n)))
    else:
        per_axis = None
    for a, b in zip(lo, hi):
        if b <= a + 1e-15:
            axes.append(np.array([a]))
            continue
        if per_axis is not None:
            m = per_axis
        else:
            m = int(math.ceil((b - a) / spacing)) + 1
        axes.append(np.linspace(a, b, m))
        h_eff = max(h_eff, (b - a) / (m - 1))
    total = math.prod(len(ax) for ax in axes)
    if total > 50_000_000:
        raise ValueError("grid exceeds the hard point budget; coarsen spacing")
    return axes, h_eff


def _tensor(axes):
    """All points of the tensor grid, last axis fastest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def uniform_grid(box, spacing=None, budget=None):
    """Uniform grid on a box; returns (points, effective_spacing)."""
    axes, h_eff = _grid_axes(box, spacing, budget)
    return _tensor(axes), h_eff


# ---------------------------------------------------------------------------
# interpolation machinery


def interpolation_matrix(space: SpaceDescriptor, points) -> np.ndarray:
    """Matrix (f_i(x^j))_{j,i} in canonical basis order."""
    pts = as_points(points, space.n)
    return space.evaluate_basis(pts)


def interpolation_determinant(space: SpaceDescriptor, points) -> float:
    pts = as_points(points, space.n)
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


def cramer_bound(space: SpaceDescriptor, points, *, grid_spacing=None,
                 budget=None, box=None) -> float:
    """Upper bound (max_i sup|f_i|)^l * l * l! / |det| on the norming constant."""
    pts = as_points(points, space.n)
    l = space.dimension()
    if pts.shape[0] != l:
        raise ValueError(f"need exactly {l} points")
    delta = interpolation_determinant(space, pts)
    if delta == 0.0:
        raise NotNormingError("zero interpolation determinant: not norming via this subset")
    # one grid pass over all basis functions; on the cube the shared pad makes
    # (max_i lower_i) / (1 - pad) equal to max_i of the per-function uppers
    sup = _certified_max(space, np.eye(l), _domain_box(space, points, box),
                         grid_spacing, budget)[0].upper
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
    """Bracket [lower, upper] containing sup |f| over a box (see ``_certified_max``)."""
    coeff = np.asarray(coefficients, dtype=float)
    bracket, _ = _certified_max(space, coeff[:, None], _domain_box(space, box=box),
                                grid_spacing, budget)
    return bracket


def _certified_max(space: SpaceDescriptor, W: np.ndarray, box, spacing, budget):
    """Bracket on sup over ``box`` of max_k |phi(x) @ W[:, k]|, by the rule in
    the module docstring. Returns (SupBracket, column of W at the argmax).
    ``spacing`` and ``budget`` reach ``_grid_max`` unchanged unless refined."""
    lo, hi = box
    domain = space.default_box()
    M = markov_constant(space, box=box if domain is None else domain)
    omega = space.modulus
    h = spacing if spacing is not None else _grid_axes(box, None, budget)[1]
    tries = 0
    while M.value * omega(h / 2) >= 1.0 and tries < 20:
        h /= 2.0
        tries += 1
    if tries:
        spacing = h
    whole = None
    if domain is not None and (np.any(lo > domain[0] + 1e-15)
                               or np.any(hi < domain[1] - 1e-15)):
        whole, _ = _certified_max(space, W, domain, spacing, budget)
    sup = whole.upper if whole is not None and whole.certified else None
    lower, point, column, h_eff = _grid_max(space, W, box, spacing, budget, M, sup)
    pad = M.value * omega(h_eff / 2)
    certified = M.certified and pad < 1.0
    if pad >= 1.0:
        upper = math.inf
    elif whole is not None:
        upper = lower + pad * whole.upper
        certified = certified and whole.certified
    else:
        upper = lower / (1.0 - pad)
    return SupBracket(lower, upper, certified, h_eff, point), column


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

    @property
    def reciprocal(self) -> float:
        return 0.0 if not self.norming else 1.0 / self.value

    def to_json(self) -> dict:
        return {
            "norming": self.norming,
            "value": self.value,
            "reciprocal": self.reciprocal,
            "lower": self.lower,
            "upper": self.upper,
            "grid_spacing": self.grid_spacing,
            "witness_coefficients": np.asarray(self.witness_coefficients).tolist(),
            "witness_point": None if self.witness_point is None
            else np.asarray(self.witness_point).tolist(),
            "method": self.method,
            "certified": self.certified,
        }


def _feasible_vertices(B: np.ndarray) -> np.ndarray:
    """Vertices of {a : |Ba| <= 1}, one representative per +/- pair."""
    m, l = B.shape
    if math.comb(m, l) * 2 ** (l - 1) > VERTEX_BUDGET:
        raise ValueError("vertex enumeration budget exceeded; reduce |Z| or dim V")
    signs = np.array(list(_half_signs(l)), dtype=float)  # (2^(l-1), l)
    if m == l:
        return np.linalg.solve(B, signs.T).T
    combos = list(combinations(range(m), l))
    sub = B[np.asarray(combos)]  # (C, l, l)
    dets = np.linalg.det(sub)
    scale = np.max(np.abs(sub), axis=(1, 2))
    ok = np.abs(dets) > 1e-12 * np.maximum(scale, 1.0) ** l
    if not np.any(ok):
        return np.empty((0, l))
    rhs = np.broadcast_to(signs.T, (int(ok.sum()), l, signs.shape[0]))
    verts = np.linalg.solve(sub[ok], rhs)  # (C_ok, l, S)
    verts = np.swapaxes(verts, 1, 2).reshape(-1, l)
    feas = np.max(np.abs(verts @ B.T), axis=1) <= 1.0 + 1e-9
    return verts[feas]


def _half_signs(l: int):
    for bits in range(2 ** max(l - 1, 0)):
        yield [1.0] + [1.0 if (bits >> k) & 1 else -1.0 for k in range(l - 1)]


def _grid_max(space: SpaceDescriptor, W: np.ndarray, box, spacing, budget,
              M: MarkovConstant, sup=None):
    """Maximum of |phi(x) @ W[:, k]| over the uniform grid on ``box`` and all k.

    Returns (value, point, column, effective_spacing). Point and column are
    the first maximiser in grid order and column order, as one dense
    ``np.abs(Phi @ W)`` would give. Where ``_coarse_prune`` applies, only the
    columns and grid cells that can reach the maximum are evaluated; the
    rest is skipped exactly, not approximately. ``sup``, when given, bounds
    sup |phi @ W[:, k]| over the space's own box for every k, which lets a
    strict sub-box of that box be pruned too. Either way the grid is
    evaluated in blocks of bounded size.
    """
    axes, h_eff = _grid_axes(box, spacing, budget)
    shape = tuple(len(ax) for ax in axes)
    total = math.prod(shape)
    cols = np.arange(W.shape[1])
    keep = None
    pruned = _coarse_prune(space, W, box, axes, M, sup)
    if pruned is not None:
        cols, keep = pruned
    Wk = W[:, cols]
    top, gi, col = -math.inf, 0, 0
    step = _block_rows(W.shape[0], Wk.shape[1])
    for start in range(0, total if keep is None else keep.size, step):
        if keep is None:
            flat = np.arange(start, min(total, start + step))
        else:
            flat = keep[start:start + step]
        vals = np.abs(space.evaluate_basis(_grid_points(axes, shape, flat)) @ Wk)
        rowmax = vals.max(axis=1)
        j = int(np.argmax(rowmax))
        if not rowmax[j] <= top:  # strictly larger, or NaN
            top, gi, col = float(rowmax[j]), int(flat[j]), int(cols[np.argmax(vals[j])])
            if not math.isfinite(top):
                break
    return top, _grid_points(axes, shape, np.array([gi]))[0], col, h_eff


def _coarse_prune(space: SpaceDescriptor, W: np.ndarray, box, axes, M: MarkovConstant,
                  sup=None):
    """Columns of W and flat grid indices that can still attain the grid maximum.

    The coarse sub-lattice keeps every s-th index per axis plus the last
    one, so every grid point x lies within r (half the largest coarse gap)
    of its nearest coarse point c. For x in the space's own box the Markov
    inequality |f(x) - f(c)| <= M * omega(r) * sup|f| over that box gives,
    with pad = M * omega(r) and a bound U_k on sup |f_k|,

        |f_k(x)| <= |f_k(c)| + pad * U_k.

    On the whole box U_k = C_k / (1 - pad), from the coarse column maximum
    C_k; on a strict sub-box U_k = ``sup`` for every k. The coarse maximum
    ``best`` is a grid value, so columns with U_k < best and cells whose
    bound is below ``best`` cannot hold the grid maximum. The stride s makes
    the coarse lattice about 9 * sqrt(G) of the G grid points: G / s^n
    coarse points then cost about as much as some 80 kept cells of s^n fine
    points each.

    Returns (columns, ascending flat indices), with None for the indices
    when every cell is kept. Returns None, meaning "evaluate everything",
    where the inequality is not certified, the box is not inside the
    space's own box, a strict sub-box comes without a finite ``sup``, the
    grid is too small to coarsen, pad >= 1, or a coarse value is not finite.
    """
    cube = space.default_box()
    if not M.certified or cube is None:
        return None
    if np.any(box[0] < cube[0]) or np.any(box[1] > cube[1]):
        return None
    on_cube = np.array_equal(box[0], cube[0]) and np.array_equal(box[1], cube[1])
    if not on_cube and (sup is None or not math.isfinite(sup)):
        return None
    shape = [len(ax) for ax in axes]
    s = int(round((math.sqrt(math.prod(shape)) / 9.0) ** (1.0 / len(shape))))
    if s <= 1:
        return None
    sub = [np.append(np.arange(0, k - 1, s), k - 1) for k in shape]
    # half the largest coarse gap; a flat axis contributes 0
    r = max(float(np.max(np.diff(ax[i], prepend=ax[0]))) / 2.0 for ax, i in zip(axes, sub))
    pad = M.value * float(space.modulus(r))
    if pad >= 1.0:
        return None

    Phi = space.evaluate_basis(_tensor([ax[i] for ax, i in zip(axes, sub)]))
    colmax = np.zeros(W.shape[1])
    step = _block_rows(W.shape[0], W.shape[1])
    for start in range(0, Phi.shape[0], step):
        colmax = np.maximum(colmax, np.abs(Phi[start:start + step] @ W).max(axis=0))
    if not np.all(np.isfinite(colmax)):
        return None
    best = float(colmax.max())
    # Rounding slack: basis values are at most 1 on the cube, so one computed
    # |phi @ w| is off by at most about l * eps * ||w||_1.
    slack = (_PRUNE_RTOL * best
             + 2 * W.shape[0] * np.finfo(float).eps * float(np.abs(W).sum(axis=0).max()))
    upper = colmax / (1.0 - pad) if on_cube else np.full(W.shape[1], sup)
    cols = np.flatnonzero(upper >= best - slack)
    Wk, padU = W[:, cols], pad * upper[cols]

    bound = np.empty(Phi.shape[0])
    step = _block_rows(W.shape[0], cols.size)
    for start in range(0, Phi.shape[0], step):
        block = np.abs(Phi[start:start + step] @ Wk) + padU
        bound[start:start + step] = block.max(axis=1)
    cell_ok = (bound >= best - slack).reshape([i.size for i in sub])
    if cell_ok.all():
        return cols, None
    return cols, _cell_indices(cell_ok, sub, shape)


def _cell_indices(cell_ok: np.ndarray, sub, shape) -> np.ndarray:
    """Ascending flat grid indices owned by the kept coarse cells.

    Coarse index c on an axis with coarse indices i owns the fine indices
    (i[c-1] + i[c]) // 2 + 1 .. (i[c] + i[c+1]) // 2, those nearest to i[c].
    The kept cells, in lexicographic order, are expanded one axis at a
    time: each run of entries that share a flat prefix and a coarse index
    is repeated once per fine index that coarse index owns, which keeps the
    flat indices in ascending order without sorting them.
    """
    coords = np.nonzero(cell_ok)
    flat = np.zeros(coords[0].size, dtype=np.int64)
    for d, (i, k) in enumerate(zip(sub, shape)):
        first = np.concatenate(([0], (i[:-1] + i[1:]) // 2 + 1))
        owned = np.diff(np.append(first, k))
        c = coords[d]
        run = np.flatnonzero(np.diff(flat) | np.diff(c)) + 1
        starts = np.concatenate(([0], run))
        width = np.diff(np.append(starts, c.size))
        size = width * owned[c[starts]]
        g = np.repeat(np.arange(starts.size), size)
        p = np.arange(g.size) - np.repeat(np.cumsum(size) - size, size)
        entry = starts[g] + p % width[g]
        flat = flat[entry] * k + first[c[starts]][g] + p // width[g]
        coords = [x[entry] for x in coords]
    return flat


def _block_rows(l: int, width: int) -> int:
    return max(1, _BLOCK_VALUES // max(l, width, 1))


def _grid_points(axes, shape, flat: np.ndarray) -> np.ndarray:
    """Points of the tensor grid at the given flat (last axis fastest) indices."""
    multi = np.unravel_index(flat, shape)
    return np.stack([ax[i] for ax, i in zip(axes, multi)], axis=1)


def norming_constant(space: SpaceDescriptor, points, *, grid_spacing=None,
                     budget=None, rank_threshold=DEFAULT_RANK_THRESHOLD,
                     box=None) -> NormingReport:
    """Exact-at-desk-scale norming constant of a finite set, with certificate.

    Not-norming detection: smallest singular value of the column-scaled
    interpolation matrix below ``rank_threshold``; the witness is the
    corresponding null direction (an f in V vanishing on Z), normalized to
    unit grid sup over the cube.
    """
    pts = as_points(points, space.n)
    B = interpolation_matrix(space, pts)
    l = space.dimension()
    dom = _domain_box(space, points, box)

    colmax = np.maximum(np.max(np.abs(B), axis=0), 1e-300)
    Bs = B / colmax
    U, s, Vh = np.linalg.svd(Bs, full_matrices=True)
    smin = s[-1] if B.shape[0] >= l else 0.0
    if B.shape[0] < l or smin < rank_threshold:
        null = Vh[-1] / colmax
        bracket = certified_supnorm(space, null, box=dom,
                                    grid_spacing=grid_spacing, budget=budget)
        if bracket.lower > 0:
            null = null / bracket.lower
        return NormingReport(
            norming=False, value=None, lower=math.inf, upper=math.inf,
            grid_spacing=bracket.grid_spacing, witness_coefficients=null,
            witness_point=None, method="rank_deficient", certified=True)

    verts = _feasible_vertices(B)
    if verts.shape[0] == 0:
        raise IllConditionedError("no feasible LP vertex despite full rank",
                                  direction=Vh[-1] / colmax)
    bracket, vi = _certified_max(space, verts.T, dom, grid_spacing, budget)
    if not math.isfinite(bracket.lower):
        raise IllConditionedError("LP value not finite despite full rank",
                                  direction=verts[vi])
    return NormingReport(
        norming=True, value=bracket.lower, lower=bracket.lower, upper=bracket.upper,
        grid_spacing=bracket.grid_spacing, witness_coefficients=verts[vi],
        witness_point=bracket.argmax, method="lp_grid", certified=bracket.certified)


def lebesgue_constant(space: SpaceDescriptor, points, *, grid_spacing=None,
                      budget=None, box=None) -> float:
    """Grid maximum (a lower bound, uncertified) of sum_i |L_i| for a unisolvent set."""
    C = lagrange_basis(space, points)
    axes, _ = _grid_axes(_domain_box(space, points, box), grid_spacing, budget)
    shape = tuple(len(ax) for ax in axes)
    total = math.prod(shape)
    step = _block_rows(*C.shape)
    top = -math.inf
    for start in range(0, total, step):
        block = _grid_points(axes, shape, np.arange(start, min(total, start + step)))
        top = np.maximum(top, np.abs(space.evaluate_basis(block) @ C).sum(axis=1).max())
    return float(top)


# ---------------------------------------------------------------------------
# Fekete subsets and the sandwich inequality


def fekete_select(space: SpaceDescriptor, points, mode: str = "exhaustive"):
    """Subset of cardinality dim V maximizing |det| of the interpolation matrix.

    Returns (indices, |det|). Exhaustive mode scans all subsets (canonical
    tie-break: first combination in index order); greedy mode does
    determinant pivoting (row-by-row volume maximization).
    """
    pts = as_points(points, space.n)
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
    # volume-maximizing row pivoting via modified Gram-Schmidt
    R = Phi.copy()
    chosen: list[int] = []
    for _ in range(l):
        norms = np.linalg.norm(R, axis=1)
        norms[chosen] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= 1e-13:
            raise NotNormingError("greedy pivoting found no nonsingular subset")
        chosen.append(j)
        q = R[j] / norms[j]
        R -= np.outer(R @ q, q)
    idx = tuple(sorted(chosen))
    det = abs(float(np.linalg.det(Phi[list(idx)])))
    if det == 0.0:
        raise NotNormingError("greedy subset is singular")
    return idx, det


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
                   budget=None, rel_tol=1e-6) -> SandwichReport:
    """Verify (1/l) N(Z_fekete) <= N(Z) <= N(Z_fekete) plus max_Z |L_i| <= 1."""
    pts = as_points(points, space.n)
    l = space.dimension()
    idx, _ = fekete_select(space, pts, mode="exhaustive")
    sub = pts[list(idx)]
    rep_full = norming_constant(space, pts, grid_spacing=grid_spacing, budget=budget)
    if not rep_full.norming:
        raise NotNormingError("Z is not norming")
    rep_sub = norming_constant(space, sub, grid_spacing=grid_spacing, budget=budget)
    n_full, n_sub = rep_full.value, rep_sub.value
    lower_ok = n_sub >= n_full * (1.0 - rel_tol)
    upper_ok = n_sub <= l * n_full * (1.0 + rel_tol)
    C = lagrange_basis(space, sub)
    on_z = float(np.max(np.abs(space.evaluate_basis(pts) @ C)))
    lagrange_ok = on_z <= 1.0 + 1e-9
    return SandwichReport(idx, n_full, n_sub, lower_ok, upper_ok, lagrange_ok, on_z)
