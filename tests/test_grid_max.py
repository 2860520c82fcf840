"""The coarse-to-fine grid maximiser against a dense oracle, and the witness
that ``norming_constant`` reports."""
import numpy as np
import pytest

from conftest import random_points
from norming_lab import SpaceDescriptor, norming_constant
from norming_lab.norming import (_coarse_prune, _feasible_vertices, _grid_axes,
                                 _grid_max, uniform_grid)
from norming_lab.simplex import norming_lp_value
from norming_lab.spaces import markov_constant, power_modulus

FEW = SpaceDescriptor.fewnomial_span([[0.0], [0.5], [1.5], [2.5]])
FEW_BOX = (np.array([0.2]), np.array([2.0]))


def _dense(space, W, box, spacing, budget):
    grid, h = uniform_grid(box, spacing=spacing, budget=budget)
    vals = np.abs(space.evaluate_basis(grid) @ W)
    gi = int(np.argmax(vals.max(axis=1)))
    return float(vals[gi].max()), grid[gi], int(np.argmax(vals[gi])), h


def _instance(rng, space, box, extra):
    lo, hi = box
    m = space.dimension() + extra
    pts = lo + (hi - lo) * (random_points(rng, m, space.n, min_sep=0.1) + 1.0) / 2.0
    W = _feasible_vertices(space.evaluate_basis(pts)).T
    assert W.shape[1] > 0
    return W


# (space, box or None for the cube, grid_spacing, budget, pruned?)
CASES = {
    "poly-1d": (SpaceDescriptor.polynomial(1, 5), None, None, 20001, True),
    "poly-2d": (SpaceDescriptor.polynomial(2, 2), None, None, 40000, True),
    "poly-3d": (SpaceDescriptor.polynomial(3, 1), None, None, 64000, True),
    "trig-1d": (SpaceDescriptor.trigonometric(1, 2), None, None, 20001, True),
    "spacing": (SpaceDescriptor.polynomial(2, 2), None, 0.01, None, True),
    "fewnomial": (FEW, FEW_BOX, None, 20001, False),
    "power-modulus": (SpaceDescriptor.polynomial(1, 3, power_modulus(0.5)), None, None,
                      20001, False),
    "sub-box": (SpaceDescriptor.polynomial(2, 2),
                (np.array([-0.5, -1.0]), np.array([0.75, 0.2])), None, 40000, False),
    "s-is-one": (SpaceDescriptor.polynomial(1, 4), None, None, 4000, False),
    "flat-axis": (SpaceDescriptor.polynomial(2, 2),
                  (np.array([-1.0, 0.3]), np.array([1.0, 0.3])), 1e-3, None, False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_max_matches_dense_oracle(name):
    space, box, spacing, budget, pruned = CASES[name]
    box = space.default_box() if box is None else box
    M = markov_constant(space, box=box)
    rng = np.random.default_rng(sorted(CASES).index(name))
    for extra in range(3):
        # an instance for the flat-axis box needs its points off the flat axis
        inst_box = space.default_box() if name == "flat-axis" else box
        W = _instance(rng, space, inst_box, extra)
        axes, _ = _grid_axes(box, spacing, budget)
        assert (_coarse_prune(space, W, box, axes, M) is not None) == pruned
        value, point, col, h = _grid_max(space, W, box, spacing, budget, M)
        ref_value, ref_point, ref_col, ref_h = _dense(space, W, box, spacing, budget)
        assert np.array_equal(point, ref_point)
        assert col == ref_col
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert h == ref_h


@pytest.mark.parametrize("space", [SpaceDescriptor.polynomial(1, 4),
                                   SpaceDescriptor.polynomial(2, 2),
                                   SpaceDescriptor.trigonometric(1, 1)],
                         ids=["P4", "P2-2d", "T1"])
def test_norming_witness_is_feasible_and_attains_value(space):
    rng = np.random.default_rng(7)
    for extra in range(3):
        pts = random_points(rng, space.dimension() + extra, space.n, min_sep=0.1)
        rep = norming_constant(space, pts, budget=20001)
        assert rep.norming
        B = space.evaluate_basis(pts)
        a = rep.witness_coefficients
        assert np.max(np.abs(B @ a)) <= 1.0 + 1e-9
        phi = space.evaluate_basis(rep.witness_point)
        assert abs(phi @ a) == pytest.approx(rep.value, rel=1e-12)
        assert norming_lp_value(B, phi) == pytest.approx(rep.value, rel=1e-8)


def test_grid_max_finds_a_peak_between_coarse_points():
    # Column 0 peaks between two coarse points, 1e-8 above column 1's peak,
    # which sits on a coarse point; at every coarse point column 0 stays
    # below that peak. Only the Markov pad keeps column 0 and its cell.
    T1 = SpaceDescriptor.trigonometric(1, 1)
    box = T1.default_box()
    axes, _ = _grid_axes(box, None, 20001)
    x0, y0 = axes[0][10002], axes[0][15000]  # coarse points every 5th index
    bump = lambda c: np.array([1.0, np.cos(np.pi * c), np.sin(np.pi * c)])
    W = np.stack([(1 + 1e-8) * bump(x0), bump(y0)], axis=1)
    M = markov_constant(T1, box=box)
    assert _coarse_prune(T1, W, box, axes, M) is not None
    value, point, col, _ = _grid_max(T1, W, box, None, 20001, M)
    ref_value, ref_point, ref_col, _ = _dense(T1, W, box, None, 20001)
    assert (point[0], col) == (ref_point[0], ref_col) == (x0, 0)
    assert value == pytest.approx(ref_value, rel=1e-12)
