import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bracketed, random_points
from norming_lab import (PointSet, SpaceDescriptor, hausdorff_distance, lipschitz_audit,
                         markov_constant, norming_constant, perturbation_experiment,
                         power_modulus, stability, stability_ball)

P1 = SpaceDescriptor.polynomial(1, 1)
TENTH = ([0.0], [0.1])


def test_hausdorff_known():
    assert hausdorff_distance([[0.0]], [[1.0]]) == pytest.approx(1.0)
    assert hausdorff_distance([[0.0], [1.0]], [[0.0]]) == pytest.approx(1.0)
    a = [[0.0, 0.0], [1.0, 1.0]]
    b = [[0.1, 0.0], [1.0, 0.8]]
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
    with pytest.raises(ValueError):
        hausdorff_distance([[0.0]], [[0.0, 0.0]])


def test_lipschitz_equality_case():
    rep = lipschitz_audit(P1, [[-1.0], [1.0]], [[-0.9], [0.9]], budget=20001)
    assert rep.lhs == pytest.approx(0.1, abs=1e-9)
    assert rep.rhs == pytest.approx(0.1, abs=1e-12)
    assert rep.satisfied
    assert rep.status == "satisfied"


def test_lipschitz_with_non_norming_side():
    # reciprocal of a non-norming set is 0 by convention
    P2 = SpaceDescriptor.polynomial(1, 2)
    rep = lipschitz_audit(P2, [[-1.0], [0.0], [1.0]], [[-1.0], [1.0]],
                          budget=20001)
    assert rep.inv_n2 == 0.0
    assert rep.lhs == pytest.approx(0.8, abs=1e-6)


@pytest.mark.parametrize("upper2, satisfied", [(1.6, True), (1.1, False)])
def test_lipschitz_violation_needs_separated_brackets(upper2, satisfied, monkeypatch):
    # 1/N is 0.5 and 1, so lhs = 0.5 > rhs = M * d_H = 0.2; the intervals
    # [1/upper, 1/lower] are [0.4, 0.5] and [1/upper2, 1]: 0.125 apart at
    # upper2 = 1.6, within the bound, and 0.41 apart at 1.1
    reports = iter([bracketed(2.0, 2.5), bracketed(1.0, upper2)])
    monkeypatch.setattr(stability, "norming_constant", lambda *a, **k: next(reports))
    rep = lipschitz_audit(P1, [[-1.0], [1.0]], [[-0.8], [1.0]])
    assert rep.lhs == pytest.approx(0.5) and rep.rhs == pytest.approx(0.2)
    assert rep.satisfied is satisfied


@pytest.mark.parametrize("trial, within", [((2.0, 2.5), True), ((3.0, 3.5), False)])
def test_perturbations_exceed_markov_only_by_separated_brackets(trial, within, monkeypatch):
    # the base bracket [1, 2] gives 1/N in [0.5, 1]; every trial's point value
    # gives a ratio lhs / d_H >= 0.5 / 0.05 = 10 against M = 1, but only the
    # trial bracket [3, 3.5], whose interval ends 1/6 below 0.5, proves it
    base = bracketed(1.0, 2.0)
    monkeypatch.setattr(stability, "norming_constant",
                        lambda space, pts, **_: base if pts is z else bracketed(*trial))
    z = PointSet([[-1.0], [1.0]])
    rows = perturbation_experiment(P1, z, [0.05], trials=4, seed=0)
    assert rows[0].max_ratio >= 10.0
    assert rows[0].within_markov is within


def test_stability_ball_radius_and_bound():
    ball = stability_ball(P1, [[-1.0], [1.0]], budget=20001)
    assert ball.radius == pytest.approx(1.0, rel=1e-9)
    b = ball.bound_for([[-0.9], [0.9]])
    actual = norming_constant(P1, [[-0.9], [0.9]], budget=20001).value
    assert b == pytest.approx(actual, rel=1e-6)
    assert ball.bound_for([[5.0], [-5.0]]) is None


def test_stability_ball_requires_norming_center():
    P2 = SpaceDescriptor.polynomial(1, 2)
    with pytest.raises(ValueError):
        stability_ball(P2, [[-1.0], [1.0]])


def test_perturbation_experiment_deterministic():
    pts = [[-0.8], [0.1], [0.9]]
    P2 = SpaceDescriptor.polynomial(1, 2)
    rows1 = perturbation_experiment(P2, pts, [0.05, 0.1], trials=10, seed=3,
                                    budget=10001)
    rows2 = perturbation_experiment(P2, pts, [0.05, 0.1], trials=10, seed=3,
                                    budget=10001)
    assert rows1 == rows2
    for row in rows1:
        assert row.within_markov
        assert row.trials == 10


@pytest.mark.parametrize("space", [SpaceDescriptor.polynomial(1, 2, power_modulus(0.5)),
                                   SpaceDescriptor.trigonometric(1, 1, power_modulus(0.3))])
def test_power_modulus_audits_rest_on_a_certified_constant(space):
    pts = [[-0.8], [0.1], [0.9]]
    rep = lipschitz_audit(space, pts, [[-0.75], [0.1], [0.95]], budget=20001)
    assert rep.status == "satisfied" and rep.markov_certified
    assert 0.0 < rep.lhs <= rep.rhs
    rows = perturbation_experiment(space, pts, [0.05, 0.2], trials=10, seed=3,
                                   budget=10001)
    for row in rows:
        assert row.within_markov and 0.0 < row.max_ratio <= rep.markov


def test_perturbation_experiment_propagates_errors(monkeypatch):
    # only clamped duplicates are skipped; any other failure must surface
    from norming_lab import stability

    real = stability.norming_constant
    calls = []

    def failing_on_perturbed(space, z, **kwargs):
        calls.append(z)
        if len(calls) > 1:
            raise ValueError("vertex enumeration budget exceeded")
        return real(space, z, **kwargs)

    monkeypatch.setattr(stability, "norming_constant", failing_on_perturbed)
    P2 = SpaceDescriptor.polynomial(1, 2)
    with pytest.raises(ValueError, match="budget exceeded"):
        perturbation_experiment(P2, [[-0.8], [0.1], [0.9]], [0.05], trials=3,
                                seed=3, budget=10001)
    assert len(calls) == 2


def test_perturbation_experiment_skips_clamped_duplicates():
    # a magnitude far beyond the cube clamps most points onto its corners
    P1 = SpaceDescriptor.polynomial(1, 1)
    rows = perturbation_experiment(P1, [[-0.5], [0.5]], [50.0], trials=20, seed=0,
                                   budget=2001)
    assert 0 < rows[0].skipped < 20


def test_lipschitz_audit_takes_the_markov_constant_of_the_sets_box():
    # on [0, 0.1] the constant of P1 is 2 / 0.1 = 20, not the cube's 1
    rep = lipschitz_audit(P1, PointSet([[0.0], [0.1]], TENTH),
                          PointSet([[0.0], [0.05]], TENTH))
    assert rep.status == "satisfied" and rep.markov == 20.0 and rep.markov_certified
    assert rep.lhs == pytest.approx(2 / 3, rel=1e-9) and rep.rhs == pytest.approx(1.0)


def test_stability_ball_lives_on_the_sets_box():
    ball = stability_ball(P1, PointSet([[0.0], [0.1]], TENTH))
    assert ball.markov == 20.0 and ball.radius <= 0.05 * (1 + 1e-9)
    near = PointSet([[0.0], [0.01]], TENTH)  # N = 19 on the box
    bound = ball.bound_for(near)
    assert bound is None or bound >= norming_constant(P1, near).value
    inside = PointSet([[0.0], [0.06]], TENTH)
    assert ball.bound_for(inside) >= norming_constant(P1, inside).value
    with pytest.raises(ValueError, match="one domain"):
        ball.bound_for([[0.0], [0.06]])


def test_sets_on_different_domains_are_refused():
    a = PointSet([[0.0], [0.1]], TENTH)
    for other in ([[0.0], [0.05]], PointSet([[0.0], [0.05]], ([0.0], [0.2]))):
        with pytest.raises(ValueError, match="one domain"):
            lipschitz_audit(P1, a, other)
    # a set that declares the cube shares the domain of one that declares none
    cube = PointSet([[-1.0], [1.0]], ([-1.0], [1.0]))
    assert lipschitz_audit(P1, cube, [[-0.9], [0.9]], budget=20001).satisfied


def test_fewnomial_audits_are_refused_for_want_of_a_constant():
    space = SpaceDescriptor.fewnomial_span([[0.0], [0.5], [1.5]])
    z = PointSet([[0.3], [0.9], [1.7]], ([0.2], [2.0]))
    for run in (lambda: lipschitz_audit(space, z, z), lambda: stability_ball(space, z),
                lambda: perturbation_experiment(space, z, [0.05], trials=2, seed=0)):
        with pytest.raises(ValueError, match="no Markov constant is known"):
            run()


def test_trigonometric_audits_are_refused_on_a_box_that_does_not_cover_the_cube():
    # Bernstein's pi * d * n bounds f by its sup over a whole period: on [0, 0.1]
    # sin(pi x) moves by 0.309 with sup 0.309, far above pi * 0.309 * 0.1
    T1 = SpaceDescriptor.trigonometric(1, 1)
    z = PointSet([[0.0], [0.05], [0.1]], TENTH)
    for run in (lambda: lipschitz_audit(T1, z, z), lambda: stability_ball(T1, z),
                lambda: perturbation_experiment(T1, z, [0.01], trials=2, seed=0)):
        with pytest.raises(ValueError, match="not certified"):
            run()
    # a box that covers the cube holds a whole period: the cube's constant stands
    wide = PointSet([[-1.2], [0.0], [0.9]], ([-1.5], [1.0]))
    assert stability_ball(T1, wide, budget=2001).markov == markov_constant(T1).value


def test_audits_on_a_flat_box_read_the_constant_of_the_live_variables():
    # on y = 0.5, T1 in 2-D is T1 in x, whose Bernstein constant pi is
    # certified on x in [-1, 1] (the 2-D constant 2 pi was read, not certified)
    T1 = SpaceDescriptor.trigonometric(2, 1)
    box = ([-1.0, 0.5], [1.0, 0.5])
    z = PointSet([[-0.9, 0.5], [-0.2, 0.5], [0.4, 0.5], [0.8, 0.5]], box)
    y = PointSet([[-0.9, 0.5], [-0.25, 0.5], [0.4, 0.5], [0.8, 0.5]], box)
    ball = stability_ball(T1, z, budget=2001)
    assert ball.markov == np.pi and ball.radius == 1.0 / (np.pi * ball.center_report.value)
    rep = lipschitz_audit(T1, z, y, budget=2001)
    assert rep.markov == np.pi and rep.satisfied
    # a fewnomial span whose exponents coincide on the live axis is V' =
    # span{1, x^0.5}: refused, as no Markov constant is known for it
    few = SpaceDescriptor.fewnomial_span([[0.0, 0.0], [0.5, 1.0], [0.5, -0.5]])
    box = ([0.3, 0.7], [1.8, 0.7])
    z1 = PointSet([[0.3, 0.7], [0.9, 0.7], [1.8, 0.7]], box)
    z2 = PointSet([[0.3, 0.7], [1.0, 0.7], [1.8, 0.7]], box)
    with pytest.raises(ValueError, match="no Markov constant is known"):
        lipschitz_audit(few, z1, z2)


def test_perturbed_points_stay_in_the_declared_box(monkeypatch):
    from norming_lab import stability

    real = stability.norming_constant
    seen = []

    def spy(space, z, **kwargs):
        seen.append(z)
        return real(space, z, **kwargs)

    monkeypatch.setattr(stability, "norming_constant", spy)
    P2 = SpaceDescriptor.polynomial(1, 2)
    box = ([-0.2], [0.3])
    rows = perturbation_experiment(P2, PointSet([[-0.2], [0.05], [0.3]], box), [0.02, 0.5],
                                   trials=10, seed=4, budget=2001)
    assert len(seen) == 1 + sum(r.trials - r.skipped for r in rows) > 1
    for z in seen:
        assert np.array_equal(z.box, box)
        assert np.all((-0.2 <= z.points) & (z.points <= 0.3))
    for row in rows:  # the constant of the box, 2 * 2^2 / 0.5 = 16
        assert row.within_markov and row.max_ratio <= 16.0 * (1 + 1e-9)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_an_affine_image_on_its_box_matches_the_cube_set(data):
    # x -> c + w/2 * x maps the cube onto a box of side w: N does not move,
    # the Markov constant scales by 2/w and the Hausdorff distance by w/2
    n = data.draw(st.integers(1, 2))
    space = SpaceDescriptor.polynomial(n, data.draw(st.integers(1, 3 if n == 1 else 2)))
    w = data.draw(st.floats(0.1, 3.0))
    c = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    z1 = random_points(rng, space.dimension() + 1, n, min_sep=0.2)
    z2 = np.clip(z1 + rng.uniform(-0.05, 0.05, size=z1.shape), -1.0, 1.0)

    def image(z):
        return PointSet(c + w / 2 * z, (c - w / 2, c + w / 2))

    budget = 2001 if n == 1 else 1600
    cube = norming_constant(space, z1, budget=budget)
    rep = norming_constant(space, image(z1), budget=budget)
    assert rep.lower <= cube.upper and cube.lower <= rep.upper
    a = lipschitz_audit(space, z1, z2, budget=budget)
    b = lipschitz_audit(space, image(z1), image(z2), budget=budget)
    assert b.status == a.status and b.rhs == pytest.approx(a.rhs, rel=1e-9)
    assert b.markov == pytest.approx(a.markov * 2 / w, rel=1e-12)
    ball = stability_ball(space, image(z1), budget=budget)
    assert ball.radius == pytest.approx(stability_ball(space, z1, budget=budget).radius * w / 2,
                                        rel=1e-6)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_an_affine_image_of_a_trigonometric_set_on_a_covering_box(data):
    # on a box that covers the cube a trigonometric f has its sup over a whole
    # period, so the cube's constant pi * d * n stands and the audit holds
    n = data.draw(st.integers(1, 2))
    space = SpaceDescriptor.trigonometric(n, data.draw(st.integers(1, 2 if n == 1 else 1)))
    c = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    w = 2.0 + 2.0 * float(np.max(np.abs(c))) + data.draw(st.floats(0.01, 1.0))  # covers
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    z1 = random_points(rng, space.dimension() + 1, n, min_sep=0.2)
    z2 = np.clip(z1 + rng.uniform(-0.05, 0.05, size=z1.shape), -1.0, 1.0)

    def image(z):
        return PointSet(c + w / 2 * z, (c - w / 2, c + w / 2))

    budget = 2001 if n == 1 else 1600
    rep = lipschitz_audit(space, image(z1), image(z2), budget=budget)
    assert rep.markov == markov_constant(space).value and rep.status == "satisfied"
    ball = stability_ball(space, image(z1), budget=budget)
    bound = ball.bound_for(image(z2))
    assert bound is None or bound >= norming_constant(space, image(z2), budget=budget).value
