import itertools
import math

import numpy as np
import pytest

from norming_lab import (ConvexBody, ExpPoly, LogBody, cor31_bound,
                         discrete_fewnomial_bound, estimate_c, fewnomial_bound,
                         geodesic_point, kd_constant, nested_fewnomial_bound,
                         rectangle_fewnomial_bound, tn_bound_1d, tn_bound_multi)
from norming_lab.cli import main
from norming_lab.fewnomial import (minimal_c_for_instance, sample_tn_instance,
                                   sup_abs_on_interval)


def test_exp_poly_eval():
    p = ExpPoly.univariate([1.0, -1.0], [0.0, 1.0])  # 1 - e^x
    assert p(0.0) == pytest.approx(0.0)
    assert p(1.0) == pytest.approx(1 - math.e)
    xs = np.array([0.0, 1.0])
    assert np.allclose(p(xs), [0.0, 1 - math.e])


def test_exp_poly_validation():
    with pytest.raises(ValueError):
        ExpPoly.univariate([1.0, 1.0], [0.5, 0.5])  # repeated rate
    with pytest.raises(ValueError):
        ExpPoly((), ())


def test_sup_on_interval():
    p = ExpPoly.univariate([1.0], [1.0])  # e^x
    assert sup_abs_on_interval(p, 0.0, 1.0) == pytest.approx(math.e, rel=1e-6)


def test_geodesic_endpoints():
    x = np.array([1.0, 4.0])
    y = np.array([2.0, 0.5])
    assert np.allclose(geodesic_point(x, y, 1.0), x)
    assert np.allclose(geodesic_point(x, y, 0.0), y)
    mid = geodesic_point(x, y, 0.5)
    assert np.allclose(mid, np.sqrt(x * y))


def test_log_body_box_measure():
    body = LogBody.box([1.0, 2.0], [3.0, 5.0])
    assert body.measure == pytest.approx(6.0)
    assert body.dim == 2
    with pytest.raises(ValueError):
        LogBody.box([-1.0], [1.0])


def test_log_segment_measure():
    # axis-aligned log-segment from (1, 2) to (e, 2): straight, length e - 1
    body = LogBody.log_polytope([[0.0, math.log(2)], [1.0, math.log(2)]], dim=1)
    assert body.measure == pytest.approx(math.e - 1.0)
    assert body.measure_source == "computed"
    with pytest.raises(ValueError):
        LogBody.log_polytope([[0.0, 0.0], [1.0, 1.0]], dim=1)  # needs a measure


@pytest.mark.parametrize("dim", [0, 3])
def test_log_polytope_refuses_a_dimension_outside_one_to_n(dim):
    # dim = 3 in the plane built, and fewnomial_bound then failed on K_3
    with pytest.raises(ValueError, match="dim"):
        LogBody.log_polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dim=dim, measure=1.0)


def test_kd_constant_known():
    body = LogBody.box([1.0, 1.0], [2.0, 3.0])
    assert kd_constant(body, 1) == pytest.approx(3.0)
    assert kd_constant(body, 2) == pytest.approx(6.0)


def test_kd_properties_sampled(rng):
    for _ in range(200):
        n = int(rng.integers(2, 5))
        a = rng.uniform(0.1, 2.0, size=n)
        b = a + rng.uniform(0.05, 3.0, size=n)
        body = LogBody.box(a, b)
        k1 = kd_constant(body, 1)
        for d in range(2, n + 1):
            kd = kd_constant(body, d)
            assert kd <= k1**d * (1 + 1e-9)
        t = float(rng.uniform(0.5, 4.0))
        scaled = LogBody.box(t * a, t * b)
        assert kd_constant(scaled, n) == pytest.approx(kd_constant(body, n), rel=1e-9)


def test_c_required_when_terms_compete():
    with pytest.raises(ValueError):
        tn_bound_1d(2, 1.0, 1.0, 0.5)
    # single-term bound needs no c
    assert tn_bound_1d(0, 1.0, 1.0, 0.5) == pytest.approx(math.e)


def test_tn_bound_multi_box():
    p = ExpPoly([1.0], ((1.0, 0.0),))
    body = ConvexBody.box([0.0, 0.0], [1.0, 2.0])
    assert tn_bound_multi(p, body, 1.0) == pytest.approx(math.e)


def test_discrete_single_term_exact():
    assert discrete_fewnomial_bound(0.5, 2.0, [3], span=1.0) == pytest.approx(64.0)
    with pytest.raises(ValueError):
        discrete_fewnomial_bound(2.0, 0.5, [3], span=1.0)


def test_discrete_bound_refuses_a_non_integer_exponent():
    # 3.5 read as 3 gave the value of [0, 3, 7]; an integer-valued float is an integer
    with pytest.raises(ValueError, match="distinct nonnegative integers"):
        discrete_fewnomial_bound(0.5, 2.0, [0, 3.5, 7], 0.5, c=1)
    assert (discrete_fewnomial_bound(0.5, 2.0, [0.0, 3.0, 7.0], 0.5, c=1)
            == discrete_fewnomial_bound(0.5, 2.0, [0, 3, 7], 0.5, c=1))


def test_rectangle_and_general_single_term_agree():
    a, b = [1.0, 2.0], [2.0, 3.0]
    exps = [[1.0, 2.0]]
    r = rectangle_fewnomial_bound(a, b, exps, meas_Z=0.5, c=None)
    g = fewnomial_bound(exps, LogBody.box(a, b), meas_Z=0.5, c=None)
    assert r == pytest.approx(g)
    assert r == pytest.approx(2.0 * (3.0 / 2.0) ** 2)
    # 1/x on [1, 2]: sup(x/y)^-1 is 2, and Z = [1.9, 2] needs 1.9
    assert rectangle_fewnomial_bound([1.0], [2.0], [[-1.0]], 0.1) == pytest.approx(2.0, rel=1e-15)


def test_cor31_single_term():
    body = LogBody.box([1.0], [2.0])
    assert cor31_bound([[3.0]], body, meas_Z=0.5) == pytest.approx(8.0)
    assert cor31_bound([[-1.0]], body, meas_Z=0.1) == pytest.approx(2.0, rel=1e-15)  # K_1^|-1|


def test_nested_fewnomial_bound_single_term():
    assert nested_fewnomial_bound(2.0, 1.0, 3.0, 0, 0.5) == pytest.approx(8.0)


def test_estimate_c_deterministic():
    a = estimate_c(50, seed=7)
    b = estimate_c(50, seed=7)
    assert a == b
    assert math.isfinite(a.value) and a.value >= 0.0


@pytest.mark.parametrize("m_max, rate_box, message", [
    (-1, 2.0, "m_max must be >= 0, got -1"), (3, 0.0, "rate_box must be positive, got 0.0"),
    (3, -1.0, "rate_box must be positive, got -1.0"),
    (0, 0.0, "rate_box must be positive, got 0.0"),
    (3, float("nan"), "rate_box must be positive, got nan")])
def test_estimate_c_refuses_arguments_outside_its_sampler(m_max, rate_box, message):
    # m_max = -1 returned value 0.0, and rate_box <= 0 failed inside numpy
    with pytest.raises(ValueError, match=message):
        estimate_c(5, m_max=m_max, rate_box=rate_box)
    with pytest.raises(ValueError, match=message):
        sample_tn_instance(np.random.default_rng(0), m_max, rate_box)


def test_minimal_c_certifies_its_own_instance(rng):
    for _ in range(20):
        p, interval, zs = sample_tn_instance(rng, 3, 2.0)
        c = minimal_c_for_instance(p, interval, zs)
        if not math.isfinite(c):
            continue
        m = p.term_count - 1
        a, b = interval
        meas = sum(bb - aa for aa, bb in zs)
        lhs = sup_abs_on_interval(p, a, b)
        from norming_lab.fewnomial import sup_abs_on_union

        rhs = tn_bound_1d(m, p.max_abs_re_rate, b - a, meas,
                          c=max(c, 1e-12)) * sup_abs_on_union(p, zs)
        assert lhs <= rhs * (1 + 1e-6)


@pytest.mark.parametrize("zs", [[(0.0, 1.0)], [(0.0, 1.0), (0.0, 1.0)], [(0.0, 0.6), (0.4, 1.0)]],
                         ids=["I", "twice", "overlapping"])
def test_minimal_c_takes_the_measure_of_the_union_of_z(zs):
    # p = 1 + e^{ix} on I = [0, 1]: each Z covers I once or twice over, so
    # each has measure 1 and needs the c of Z = I
    p = ExpPoly.univariate([1.0, 1.0], [0.0, 1j])
    assert minimal_c_for_instance(p, (0.0, 1.0), zs) == pytest.approx(1.0, rel=1e-12)


# The multi-term (m > 0) bounds, pinned to 1e-12 at values computed before
# the Markov bound of fewnomial spans changed (this module did not), each
# next to its closed form where that is short.
EXPS = [[1.0, 0.0], [0.0, 3.5], [0.5, -1.0]]


def test_fewnomial_bound_with_several_terms_on_a_box_and_a_log_polytope():
    box = LogBody.box([0.5, 1.0], [2.0, 1.5])
    assert fewnomial_bound(EXPS, box, 0.25, c=1.3) == pytest.approx(9053.38757401891, rel=1e-12)
    # a log-polytope's vertices are exp of its log-vertices
    poly = LogBody.log_polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 0.5]], dim=2, measure=0.8)
    assert np.array_equal(poly.vertices(), np.exp(poly.log_image.verts))
    assert np.allclose(poly.vertices(), [[1.0, 1.0], [math.e, 1.0], [1.0, math.exp(0.5)]],
                       rtol=1e-15, atol=0.0)
    value = fewnomial_bound(EXPS, poly, 0.25, c=1.3)
    # max_k exp(log width) is e^1.75 for (0, 3.5); K_2 is e^1 / 1 at the vertices
    assert value == pytest.approx(math.exp(1.75) * (1.3 * 2 * math.e * 0.8 / 0.25) ** 2, rel=1e-12)
    assert value == pytest.approx(2943.411346641146, rel=1e-12)


def test_rectangle_discrete_and_nested_bounds_with_several_terms():
    value = rectangle_fewnomial_bound([0.5, 1.0], [2.0, 1.5], EXPS, 0.25, c=1.3)
    second = 1.3 * 2 * (2.0 * math.log(4.0)) * (1.5 * math.log(1.5)) / 0.25
    assert value == pytest.approx(1.5**3.5 * second**2, rel=1e-12)
    assert value == pytest.approx(1271.2954215155917, rel=1e-12)
    value = discrete_fewnomial_bound(0.5, 2.0, [0, 3, 7], 0.4, c=1.3)
    assert value == pytest.approx(4.0**7 * (1.3 * 2.0 * math.log(4.0) / 0.4) ** 2, rel=1e-12)
    assert value == pytest.approx(1330324.428426052, rel=1e-12)
    value = nested_fewnomial_bound(2.0, 0.5, 3.0, 2, 0.3, c=1.3)
    assert value == pytest.approx(4.0**3 * (1.3 * 2.0 * math.log(4.0) / 0.3) ** 2, rel=1e-12)
    assert value == pytest.approx(9238.36408629203, rel=1e-12)
    for bound in (lambda: discrete_fewnomial_bound(0.5, 2.0, [0, 3], 0.4),
                  lambda: nested_fewnomial_bound(2.0, 0.5, 3.0, 1, 0.3),
                  lambda: rectangle_fewnomial_bound([0.5], [2.0], [[0.0], [1.0]], 0.25)):
        with pytest.raises(ValueError, match="constant c"):
            bound()


@pytest.mark.parametrize("t", [0.01, 0.37, 5.0, 1e3])
def test_fewnomial_bounds_are_invariant_under_scaling(t):
    # x -> t x maps a box of measure H onto one of t^d H, and both bounds read
    # meas_Z against it, so meas_Z -> t^d meas_Z leaves them unchanged
    a, b = np.array([0.5, 1.0]), np.array([2.0, 1.5])
    want = fewnomial_bound(EXPS, LogBody.box(a, b), 0.25, c=1.3)
    got = fewnomial_bound(EXPS, LogBody.box(t * a, t * b), 0.25 * t**2, c=1.3)
    assert got == pytest.approx(want, rel=1e-12)
    want = rectangle_fewnomial_bound(a, b, EXPS, 0.25, c=1.3)
    got = rectangle_fewnomial_bound(t * a, t * b, EXPS, 0.25 * t**2, c=1.3)
    assert got == pytest.approx(want, rel=1e-12)
    # a body of dimension 1 in the plane: the measure is the segment's length
    a1, b1 = np.array([0.5, 1.0]), np.array([2.0, 1.0])
    want = fewnomial_bound(EXPS, LogBody.box(a1, b1), 0.25, c=1.3)
    got = fewnomial_bound(EXPS, LogBody.box(t * a1, t * b1), 0.25 * t, c=1.3)
    assert got == pytest.approx(want, rel=1e-12)


def test_tn_bound_multi_reads_a_box_as_the_polytope_of_its_corners():
    p = ExpPoly([1.0, 2.0 - 1.0j, 0.5], ((1.0, -0.5), (0.3 + 2j, 1.2), (-2.0, 0.25j)))
    box = ConvexBody.box([0.0, -0.5], [1.0, 1.5])
    corners = ConvexBody.polytope(box.vertices(), dim=2, measure=box.measure)
    for rate in p.rates:
        assert corners.re_width(rate) == pytest.approx(box.re_width(rate), rel=1e-12)
    value = tn_bound_multi(p, box, 0.5, c=1.3)
    assert tn_bound_multi(p, corners, 0.5, c=1.3) == pytest.approx(value, rel=1e-12)
    # widths |Re rate| . (b - a): 1 + 1 = 2, 0.3 + 2.4 = 2.7, 2; measure 2
    assert value == pytest.approx(math.exp(2.7) * (1.3 * 2 * 2.0 / 0.5) ** 2, rel=1e-12)
    assert value == pytest.approx(1609.3917833622454, rel=1e-12)
    # a triangle that is no box: widths are max - min of the vertex values
    tri = ConvexBody.polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], dim=2, measure=1.0)
    assert [tri.re_width(rate) for rate in p.rates] == pytest.approx([2.0, 2.4, 2.0], rel=1e-15)
    value = tn_bound_multi(p, tri, 0.5, c=1.3)
    assert value == pytest.approx(math.exp(2.4) * (1.3 * 2 * 1.0 / 0.5) ** 2, rel=1e-12)
    assert value == pytest.approx(298.06668933254895, rel=1e-12)
    with pytest.raises(ValueError, match="measure"):
        tn_bound_multi(p, ConvexBody.polytope(tri.verts, dim=2), 0.5, c=1.3)


def test_single_term_bounds_hold_for_every_exponent_sign(rng):
    # x^alpha on a box peaks at a corner, so sup_B |x^alpha| / sup_Z |x^alpha|
    # is exact there; a negative alpha_j peaks where x_j is smallest, and each
    # first factor must read |alpha|
    for _ in range(200):
        n = int(rng.integers(1, 4))
        a = rng.uniform(0.1, 2.0, n)
        b = a + rng.uniform(0.05, 3.0, n)
        za = a + rng.uniform(0.0, 0.8, n) * (b - a)
        zb = za + rng.uniform(0.1, 1.0, n) * (b - za)
        alpha = rng.integers(-3, 4, n).astype(float)

        def sup(lo, hi):
            corners = np.array(list(itertools.product(*zip(lo, hi))))
            return float(np.max(np.prod(corners**alpha, axis=1)))

        ratio = sup(a, b) / sup(za, zb) * (1 - 1e-12)
        body, meas_Z = LogBody.box(a, b), float(np.prod(zb - za))
        assert fewnomial_bound([alpha], body, meas_Z) >= ratio
        assert rectangle_fewnomial_bound(a, b, [alpha], meas_Z) >= ratio
        assert cor31_bound([alpha], body, meas_Z) >= ratio
        log_meas_B = float(np.prod(np.log(b / a)))
        log_meas_Z = float(np.prod(np.log(zb / za)))
        p = ExpPoly([1.0], (tuple(alpha),))
        assert tn_bound_multi(p, body.log_image, log_meas_Z, meas_B=log_meas_B) >= ratio


UNIT = LogBody.box([1.0], [2.0])
TN = ["tn", "--len-i", "1", "--meas-z", "0.5"]
THEOREM = ["fewnomial", "--a", "1", "--b", "2", "--c", "1"]


# Out-of-range input to a bound is refused: a ValueError from the library and,
# from the console script, exit 1 with one "error:" line (None: no CLI form)
@pytest.mark.parametrize("call, argv, message", [
    (lambda: tn_bound_1d(-1, 1.0, 1.0, 0.5),
     [*TN, "--m", "-1", "--max-re-rate", "1"], "m >= 0"),
    (lambda: tn_bound_1d(0, -1.0, 1.0, 0.5),
     [*TN, "--m", "0", "--max-re-rate", "-1"], "nonnegative"),
    (lambda: nested_fewnomial_bound(2.0, 1.0, -3.0, 0, 0.5), None, "nonnegative"),
    (lambda: fewnomial_bound([[1.0], [2.0]], UNIT, 5.0, c=1.0),
     [*THEOREM, "--exponents", "1;2", "--meas-z", "5"], "measure"),
    (lambda: cor31_bound([[1.0], [2.0]], UNIT, 5.0, c=1.0), None, "measure"),
    (lambda: fewnomial_bound([[1.0], [1.0]], UNIT, 0.5, c=0.1),
     [*THEOREM, "--exponents", "1;1", "--meas-z", "0.5"], "distinct"),
    (lambda: rectangle_fewnomial_bound([1.0], [2.0], [[1.0], [1.0]], 0.5, c=0.1),
     [*THEOREM, "--form", "rectangle", "--exponents", "1;1", "--meas-z", "0.5"], "distinct"),
    (lambda: cor31_bound([[1.0], [1.0]], UNIT, 0.5, c=0.1), None, "distinct"),
], ids=["tn-negative-m", "tn-negative-rate", "nested-negative-degree", "theorem-meas-z",
        "cor31-meas-z", "theorem-duplicates", "rectangle-duplicates", "cor31-duplicates"])
def test_out_of_range_input_to_a_bound_is_refused(capsys, call, argv, message):
    with pytest.raises(ValueError, match=message):
        call()
    if argv is not None:
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1 and "Traceback" not in captured.err
        assert err[0].startswith("error: ") and message in err[0]
