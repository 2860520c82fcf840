import math

import numpy as np
import pytest

from norming_lab import (ConvexBody, ExpPoly, LogBody, cor31_bound,
                         discrete_fewnomial_bound, estimate_c, fewnomial_bound,
                         geodesic_point, kd_constant, nested_fewnomial_bound,
                         rectangle_fewnomial_bound, tn_bound_1d, tn_bound_multi)
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


def test_rectangle_and_general_single_term_agree():
    a, b = [1.0, 2.0], [2.0, 3.0]
    exps = [[1.0, 2.0]]
    r = rectangle_fewnomial_bound(a, b, exps, meas_Z=0.5, c=None)
    g = fewnomial_bound(exps, LogBody.box(a, b), meas_Z=0.5, c=None)
    assert r == pytest.approx(g)
    assert r == pytest.approx(2.0 * (3.0 / 2.0) ** 2)


def test_cor31_single_term():
    body = LogBody.box([1.0], [2.0])
    assert cor31_bound([[3.0]], body, meas_Z=0.5) == pytest.approx(8.0)


def test_nested_fewnomial_bound_single_term():
    assert nested_fewnomial_bound(2.0, 1.0, 3.0, 0, 0.5) == pytest.approx(8.0)


def test_estimate_c_deterministic():
    a = estimate_c(50, seed=7)
    b = estimate_c(50, seed=7)
    assert a == b
    assert math.isfinite(a.value) and a.value >= 0.0


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
