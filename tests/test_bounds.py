import math

import numpy as np
import pytest

from norming_lab import (SpaceDescriptor, analytic_bound, audit, bg_bound,
                         bg_upper_envelope, chebyshev, cor22_bound, curve_bound,
                         e_function, nested_bound, rd_span_bound, remez_bound)
from norming_lab import PointSet

P2 = SpaceDescriptor.polynomial(1, 2)


def test_chebyshev_small_values():
    assert chebyshev(0, 0.3) == pytest.approx(1.0)
    assert chebyshev(1, 0.3) == pytest.approx(0.3)
    assert chebyshev(2, 0.3) == pytest.approx(2 * 0.09 - 1)
    assert chebyshev(3, 2.0) == pytest.approx(26.0)


def test_chebyshev_recurrence(rng):
    for x in rng.uniform(-3, 3, size=50):
        t0, t1 = 1.0, x
        for d in range(2, 12):
            t0, t1 = t1, 2 * x * t1 - t0
            assert chebyshev(d, float(x)) == pytest.approx(t1, rel=1e-10, abs=1e-10)


def test_chebyshev_parity():
    assert chebyshev(3, -2.0) == pytest.approx(-26.0)
    assert chebyshev(4, -2.0) == pytest.approx(chebyshev(4, 2.0))


def test_e_function():
    assert e_function(1.0) == pytest.approx(1.0)
    assert e_function(1.25) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        e_function(0.5)


def test_bg_domain():
    with pytest.raises(ValueError):
        bg_bound(1, 2, 0.0)
    with pytest.raises(ValueError):
        bg_bound(1, 2, 1.5)
    assert bg_bound(2, 3, 1.0).value == pytest.approx(1.0)


def test_remez_equals_bg_reduction():
    for d in range(0, 8):
        for mu in (0.1, 0.5, 1.0, 1.7, 2.0):
            assert remez_bound(d, mu).value == pytest.approx(
                bg_bound(1, d, mu / 2).value, abs=1e-12)


def test_envelope_strictly_dominates(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 8))
        lam = float(rng.uniform(0.01, 1.0))
        assert bg_bound(n, d, lam).value < bg_upper_envelope(n, d, lam).value


def test_analytic_bound():
    b = analytic_bound(1, 0.5, 2.0)
    assert b.value == pytest.approx(e_function(3.0) ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        analytic_bound(1, 0.5, None)


def test_rd_span_domain():
    assert rd_span_bound(1, 2, 0.5).applicable
    out = rd_span_bound(1, 2, 1.5)
    assert not out.applicable
    assert math.isinf(out.value)


def test_cor22_few_points_inapplicable():
    out = cor22_bound([[0.0], [1.0]], 2)
    assert not out.applicable


def test_curve_bound_lacunarity():
    ok = curve_bound(2, 2, [1, 3])
    assert ok.applicable
    assert ok.value == pytest.approx(2.0 ** 6 * math.comb(4, 2))
    bad = curve_bound(2, 2, [1, 2])
    assert not bad.applicable


@pytest.mark.parametrize("bound, message", [
    (lambda: remez_bound(2, 0.0), r"mu must lie in \(0, 2\]"),
    (lambda: remez_bound(2, 2.5), r"mu must lie in \(0, 2\]"),
    (lambda: bg_bound(1, 2, -0.5), r"lambda must lie in \(0, 1\]"),
    (lambda: bg_upper_envelope(1, 2, 0.0), r"lambda must lie in \(0, 1\]"),
    (lambda: bg_upper_envelope(1, 2, 1.5), r"lambda must lie in \(0, 1\]"),
    (lambda: analytic_bound(1, 1.5, 2.0), r"lambda must lie in \(0, 1\]"),
    (lambda: analytic_bound(1, 0.5, 0.0), "C must be positive"),
    (lambda: analytic_bound(1, 0.5, -2.0), "C must be positive"),
    (lambda: rd_span_bound(1, 2, 0.0), "span must be positive"),
    (lambda: rd_span_bound(1, 2, -0.5), "span must be positive"),
    (lambda: cor22_bound([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 1), "1-D point sets"),
    (lambda: curve_bound(2, 2, [1]), "one exponent per coordinate"),
    (lambda: curve_bound(2, 2, [1, 3, 7]), "one exponent per coordinate"),
    (lambda: audit(P2, [[-1.0], [0.0], [1.0]], ["bogus"], budget=2001), "unknown bound 'bogus'"),
], ids=["remez-0", "remez-2.5", "bg", "envelope-0", "envelope-1.5", "analytic-lam",
        "analytic-C-0", "analytic-C-neg", "rd-span-0", "rd-span-neg", "cor22-2d",
        "curve-short", "curve-long", "audit-unknown"])
def test_inputs_outside_a_bounds_hypotheses_are_refused(bound, message):
    with pytest.raises(ValueError, match=message):
        bound()


def test_nested_bound_doubles_degree():
    assert nested_bound(1, 1.0).value == pytest.approx(chebyshev(2, 1.0))
    with pytest.raises(ValueError):
        nested_bound(1, 0.0)


def test_audit_reports_expected_violation():
    report = audit(P2, [[-1.0], [0.0], [1.0]], ["cor22"], budget=20001)
    assert report.violations == 1
    f = report.findings[0]
    assert f.name == "cor22"
    assert f.bound.value == pytest.approx(1.0)
    assert f.exact == pytest.approx(1.25, abs=1e-6)
    assert "VIOLATION" in report.summary()


@pytest.mark.parametrize("points, box", [([[-10.0], [0.0], [10.0]], ([-10.0], [10.0])),
                                         ([[0.0], [0.05], [0.1]], ([0.0], [0.1]))],
                         ids=["wide", "tenth"])
def test_audit_reads_the_cube_image_bounds_on_a_box(points, box):
    # both sets are affine images of {-1, 0, 1}: N, cor22, cramer and rd_span
    # are those of the cube set (cor22 read 0.28 and 3041 in absolute units,
    # and cramer 9000 on [-10, 10])
    names = ["cor22", "cramer", "rd_span"]
    boxed = audit(P2, PointSet(points, box), names, budget=20001)
    cube = audit(P2, [[-1.0], [0.0], [1.0]], names, budget=20001)
    assert boxed.exact == pytest.approx(cube.exact, rel=1e-12)
    for f, g in zip(boxed.findings, cube.findings):
        assert (f.name, f.bound.value, f.violation) == (g.name, g.bound.value, g.violation)
    assert boxed.findings[0].bound.value == pytest.approx(1.0)
    assert boxed.findings[1].bound.value == pytest.approx(9.0, rel=1e-12)


def test_audit_on_a_flat_box_reads_the_set_of_its_live_variables():
    # on y = 0.3, P2 in 2-D is P2 in x: every bound, with n = 1, is that of
    # the 1-D set (the whole set was refused as not norming)
    flat = PointSet([[-1.0, 0.3], [-0.2, 0.3], [0.5, 0.3], [1.0, 0.3]], ([-1.0, 0.3], [1.0, 0.3]))
    names = ["bg", "cor22", "cramer", "rd_span"]
    boxed = audit(SpaceDescriptor.polynomial(2, 2), flat, names, lam=0.5)
    line = audit(P2, [[-1.0], [-0.2], [0.5], [1.0]], names, lam=0.5)
    assert boxed.to_json() == line.to_json()
    assert boxed.exact == 1.2041666666666662
    assert [f.bound.value for f in boxed.findings[1:]] == pytest.approx([17.0, 9.375, 1.0])
    assert [f.violation for f in boxed.findings] == [False, False, False, True]
    # on a point V is the constants, for which no bound is stated
    with pytest.raises(ValueError, match="live axis"):
        audit(P2, PointSet([[0.2]], ([0.2], [0.2])), ["rd_span"])


def test_audit_cramer_not_violating():
    report = audit(P2, [[-1.0], [0.0], [1.0]], ["cramer"], budget=20001)
    assert report.violations == 0
    assert report.findings[0].ratio >= 1.0


def test_audit_cramer_on_declared_fewnomial_box():
    # the Fekete subset keeps the box the point set declares; a fewnomial
    # space has no default cube to fall back on
    space = SpaceDescriptor.fewnomial_span([[0.0], [0.5], [1.5]])
    pts = PointSet(np.array([[0.3], [0.8], [1.4], [1.9]]),
                   box=(np.array([0.2]), np.array([2.0])))
    report = audit(space, pts, ["cramer"])
    assert report.violations == 0
    f = report.findings[0]
    assert math.isfinite(f.bound.value)
    assert f.ratio >= 1.0
