import math

import numpy as np
import pytest

from norming_lab import NormingReport, SpaceDescriptor
from norming_lab.norming import _grid_axes, _grid_key, _grid_plan, _grid_points


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_points(rng, m, n, lo=-1.0, hi=1.0, min_sep=5e-2):
    """m well-separated random points in [lo, hi]^n."""
    pts = []
    while len(pts) < m:
        cand = rng.uniform(lo, hi, size=n)
        if all(np.max(np.abs(cand - p)) > min_sep for p in pts):
            pts.append(cand)
    return np.array(pts)


def small_poly_space(rng, max_n=2, max_d=3, max_dim=6):
    while True:
        n = int(rng.integers(1, max_n + 1))
        d = int(rng.integers(1, max_d + 1))
        space = SpaceDescriptor.polynomial(n, d)
        if space.dimension() <= max_dim:
            return space


def uniform_grid(box, spacing=None, budget=None):
    """Uniform grid on a box; returns (points, effective_spacing)."""
    axes, h_eff = _grid_axes(box, spacing, budget)
    return _grid_points(axes, np.arange(math.prod(ax[2] for ax in axes))), h_eff


def grid_plan(space, box, spacing=None, budget=None):
    """The cached grid plan of a box for these arguments: the one that
    ``_certified_max`` takes for the cube, and for a box other than a
    polynomial box with no flat axis (which takes the cube's, in its frame)."""
    return _grid_plan(space, np.asarray(box, dtype=float).tobytes(), *_grid_key(spacing, budget))


def bracketed(lower, upper):
    """A norming report whose value is ``lower`` and whose certified bracket is
    [lower, upper]; the upper end is a numpy scalar, as the grid step makes it."""
    return NormingReport(True, lower, lower, np.float64(upper), 1e-3, np.zeros(1), np.zeros(1),
                         "lp_grid")
