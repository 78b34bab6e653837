"""Radial module: closed form against an ODE-residual oracle, shooting,
overdetermined radius round trips, and the ball eigenvalue."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import j0

from pucci_lab import (Constant, EigenPower, InvalidNeumannData,
                       IterationLimit, NoZeroCrossing, OutOfDomain,
                       PucciParams, Variant, closed_form_constant,
                       neumann_constant, overdetermined_radius,
                       principal_eigenvalue_ball, radial, shoot)

# first positive zero of the Bessel function J0, squared: the Dirichlet
# principal eigenvalue of the Laplacian on the unit disk.  Found by a root
# bracket on scipy's J0, a route fully independent of the shooting code.
J0_ZERO = brentq(j0, 2.0, 3.0)
DISK_LAPLACE_EIG = J0_ZERO ** 2


def ode_residual(params, n_dim, radius, r, step=1e-5):
    """Centred-difference residual of |u'|^alpha a (u'' + (N-1)u'/r) + 1."""
    u = lambda s: closed_form_constant(params, n_dim, radius, s)
    d1 = (u(r + step) - u(r - step)) / (2.0 * step)
    d2 = (u(r + step) - 2.0 * u(r) + u(r - step)) / step ** 2
    # the profile is decreasing and concave, so the plus variant applies
    # its lower coefficient on both Hessian eigenvalues
    return abs(d1) ** params.alpha * params.a * (d2 + (n_dim - 1) * d1 / r) + 1.0


class TestClosedForm:
    def test_frozen_values(self):
        p = PucciParams(1.0, 1.0)
        assert_allclose(closed_form_constant(p, 2, 1.0, 0.0), 0.25, atol=1e-15)
        assert_allclose(closed_form_constant(p, 2, 1.0, 1.0), 0.0, atol=1e-15)
        # alpha = 1, N = 3: prefactor (2/3) * (2/5)^(1/2)
        p1 = PucciParams(1.0, 1.0, alpha=1.0)
        assert_allclose(closed_form_constant(p1, 3, 1.0, 0.0),
                        (2.0 / 3.0) * np.sqrt(0.4), atol=1e-15)

    def test_quadratic_when_alpha_zero(self):
        p = PucciParams(2.0, 2.0)
        r = np.linspace(0.0, 1.0, 11)
        assert_allclose(closed_form_constant(p, 2, 1.0, r), (1.0 - r ** 2) / 8.0)

    def test_solves_equation(self):
        # independent check that the formula satisfies the radial equation
        for alpha, a, big_a, n_dim in [(0.0, 1.0, 1.0, 2), (1.0, 1.0, 1.0, 3),
                                       (-0.5, 0.7, 0.7, 2), (0.0, 1.0, 2.0, 2),
                                       (0.5, 1.3, 2.0, 3)]:
            p = PucciParams(a, big_a, alpha=alpha)
            for r in (0.3, 0.55, 0.8):
                assert abs(ode_residual(p, n_dim, 1.0, r)) < 5e-5

    def test_domain_and_variant_guards(self):
        p = PucciParams(1.0, 1.0)
        with pytest.raises(OutOfDomain):
            closed_form_constant(p, 2, 1.0, 1.5)
        with pytest.raises(ValueError):
            closed_form_constant(PucciParams(1.0, 1.0, Variant.MINUS), 2, 1.0, 0.5)


class TestOverdeterminedRadius:
    def test_laplacian_relation_exact(self):
        # alpha = 0, a = 1: c = -R/N inverts to R at round-off level
        p = PucciParams(1.0, 1.0)
        for n_dim, radius in [(2, 1.0), (3, 1.0), (2, 2.5), (3, 0.3)]:
            assert_allclose(overdetermined_radius(p, n_dim, -radius / n_dim),
                            radius, rtol=1e-12)

    def test_alpha_one_value(self):
        # direct substitution: |c|^2 * a * ((N-1)(1+alpha)+1) / (1+alpha)
        p = PucciParams(1.0, 1.0, alpha=1.0)
        assert_allclose(overdetermined_radius(p, 3, -0.4), 0.16 * 5.0 / 2.0)

    def test_consistent_with_closed_form_derivative(self):
        step = 1e-6
        for alpha, n_dim in [(0.0, 2), (1.0, 3), (-0.5, 2)]:
            p = PucciParams(1.0, 1.0, alpha=alpha)
            radius = 1.0
            c = (closed_form_constant(p, n_dim, radius, radius)
                 - closed_form_constant(p, n_dim, radius, radius - step)) / step
            assert_allclose(overdetermined_radius(p, n_dim, c), radius, rtol=1e-4)

    def test_sign_guard(self):
        with pytest.raises(InvalidNeumannData):
            overdetermined_radius(PucciParams(1.0, 1.0), 2, 0.5)


class TestShoot:
    def test_matches_closed_form_sweep(self):
        for alpha in (-0.5, 0.0, 1.0):
            for n_dim in (2, 3):
                p = PucciParams(1.0, 1.0, alpha=alpha)
                m = closed_form_constant(p, n_dim, 1.0, 0.0)
                prof = shoot(p, n_dim, Constant(1.0), m, 1.2, 1e-3)
                inside = prof.radii <= 1.0
                exact = closed_form_constant(p, n_dim, 1.0, prof.radii[inside])
                assert np.abs(prof.u[inside] - exact).max() < 1e-5

    def test_first_zero_disk(self):
        p = PucciParams(1.0, 1.0)
        prof = shoot(p, 2, Constant(1.0), 0.25, 1.5, 1e-3)
        assert prof.first_zero == pytest.approx(1.0, abs=1e-6)

    def test_unequal_ellipticity_keeps_lower_branch(self):
        # with constant source the profile is concave decreasing, so the
        # plus variant never touches A and the closed form still applies
        p = PucciParams(1.0, 2.0)
        prof = shoot(p, 2, Constant(1.0), 0.25, 1.5, 1e-3)
        assert prof.first_zero == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.diff(prof.du) < 1e-12)

    def test_neumann_constant(self):
        p = PucciParams(1.0, 1.0)
        prof = shoot(p, 2, Constant(1.0), 0.25, 1.5, 1e-3)
        assert neumann_constant(prof) == pytest.approx(-0.5, abs=1e-6)

    def test_round_trip_radius(self):
        for alpha in (-0.5, 0.0, 1.0):
            p = PucciParams(1.0, 1.0, alpha=alpha)
            m = closed_form_constant(p, 2, 1.0, 0.0)
            prof = shoot(p, 2, Constant(1.0), m, 1.5, 1e-3)
            c = neumann_constant(prof)
            assert_allclose(overdetermined_radius(p, 2, c), prof.first_zero,
                            atol=1e-5)

    def test_flat_profile_flagged(self):
        p = PucciParams(1.0, 1.0)
        prof = shoot(p, 2, Constant(0.0), 0.7, 1.0, 1e-3)
        assert prof.first_zero is None
        assert np.all(prof.u == 0.7)
        with pytest.raises(NoZeroCrossing):
            neumann_constant(prof)


class TestBallEigenvalue:
    def test_disk_against_bessel_oracle(self):
        p = PucciParams(1.0, 1.0)
        lam = principal_eigenvalue_ball(p, 2, 1.0, h=1.0 / 800.0)
        assert_allclose(lam, DISK_LAPLACE_EIG, rtol=1e-4)

    def test_brent_lands_on_radius_in_few_shoots(self, monkeypatch):
        real_shoot = radial.shoot
        calls = []

        def counting_shoot(*args, **kwargs):
            calls.append(args)
            return real_shoot(*args, **kwargs)

        monkeypatch.setattr(radial, "shoot", counting_shoot)
        p = PucciParams(1.0, 1.0)
        h = 1.0 / 800.0
        lam = principal_eigenvalue_ball(p, 2, 1.0, h=h)
        # bisection to the same rel_tol takes 29 shoots here
        assert len(calls) <= 20
        prof = real_shoot(p, 2, EigenPower(lam), 1.0, 4.0, h)
        assert abs(prof.first_zero - 1.0) <= 1e-7

    def test_iteration_limit_carries_history(self):
        with pytest.raises(IterationLimit) as exc:
            principal_eigenvalue_ball(PucciParams(1.0, 1.0), 2, 1.0,
                                      h=1.0 / 200.0, max_iter=2)
        assert exc.value.history

    def test_scaling_in_radius(self):
        p = PucciParams(1.0, 1.0, alpha=1.0)
        lam1 = principal_eigenvalue_ball(p, 2, 1.0, h=1.0 / 400.0)
        lam2 = principal_eigenvalue_ball(p, 2, 2.0, h=2.0 / 400.0)
        assert_allclose(lam2 * 2.0 ** 3, lam1, rtol=1e-4)

    def test_monotone_in_upper_ellipticity(self):
        # the eigenvalue is a sup over positive supersolutions; raising A
        # enlarges the plus operator, tightens the constraint, and can only
        # pull the eigenvalue down
        lams = [principal_eigenvalue_ball(PucciParams(1.0, big_a), 2, 1.0,
                                          h=1.0 / 400.0)
                for big_a in (1.0, 1.25, 1.5)]
        assert lams[0] > lams[1] > lams[2]

    def test_first_zero_decreases_with_lambda(self):
        p = PucciParams(1.0, 1.0)
        zeros = [shoot(p, 2, EigenPower(lam), 1.0, 4.0, 2e-3).first_zero
                 for lam in (3.0, 6.0, 12.0)]
        assert zeros[0] > zeros[1] > zeros[2]
