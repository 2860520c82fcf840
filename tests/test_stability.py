import numpy as np
import pytest

from norming_lab import (SpaceDescriptor, hausdorff_distance, lipschitz_audit,
                         norming_constant, perturbation_experiment, power_modulus,
                         stability_ball)

P1 = SpaceDescriptor.polynomial(1, 1)


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
