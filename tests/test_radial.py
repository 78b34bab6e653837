"""Radial module: closed form against an ODE-residual oracle, shooting,
overdetermined radius round trips, and the ball eigenvalue."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import brentq
from scipy.special import j0, jn_zeros

from pucci_lab import (BracketFailure, Constant, EigenPower,
                       IntegrationFailure, InvalidNeumannData, IterationLimit,
                       NoZeroCrossing, OutOfDomain, PowerPair, PucciParams,
                       SignBranchFailure, Source, Variant,
                       closed_form_constant, neumann_constant,
                       overdetermined_radius, principal_eigenvalue_ball,
                       radial, shoot)

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


def assert_bits_equal(actual, expected):
    """Equal as IEEE bit patterns, so the sign of a zero counts too."""
    assert_array_equal(np.asarray(actual, float).view(np.int64),
                       np.asarray(expected, float).view(np.int64))


class TestSource:
    U = np.linspace(-2.0, 2.0, 41)

    # the three source classes this type replaced, written out
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize("source, f, df", [
        (Constant(1.5), lambda u, al: np.full_like(u, 1.5),
         lambda u, al: np.zeros_like(u)),
        (EigenPower(2.5),
         lambda u, al: 2.5 * np.sign(u) * np.abs(u) ** (1 + al),
         lambda u, al: 2.5 * (1 + al) * np.abs(u) ** al),
        (EigenPower(-0.7),
         lambda u, al: -0.7 * np.sign(u) * np.abs(u) ** (1 + al),
         lambda u, al: -0.7 * (1 + al) * np.abs(u) ** al),
        (PowerPair(2.0, 1.0, 3.0),
         lambda u, al: np.sign(u) * (2.0 * np.abs(u) ** (1 + al)
                                     - 1.0 * np.abs(u) ** 3.0),
         lambda u, al: 2.0 * (1 + al) * np.abs(u) ** al
         - 1.0 * 3.0 * np.abs(u) ** 2.0),
        (PowerPair(-2.0, 1.0, 3.0),
         lambda u, al: np.sign(u) * (-2.0 * np.abs(u) ** (1 + al)
                                     - 1.0 * np.abs(u) ** 3.0),
         lambda u, al: -2.0 * (1 + al) * np.abs(u) ** al
         - 1.0 * 3.0 * np.abs(u) ** 2.0),
    ], ids=["constant", "eigen", "eigen_negative", "pair", "pair_negative"])
    def test_constructors_match_former_classes(self, source, f, df, alpha):
        assert isinstance(source, Source)
        with np.errstate(divide="ignore"):
            assert_bits_equal(source.evaluate(self.U, alpha), f(self.U, alpha))
            assert_bits_equal(source.evaluate_deriv(self.U, alpha),
                              df(self.U, alpha))

    def test_shifted_unit_probe_at_alpha_zero(self):
        # the small-domain probe, formerly shift*u - 1 with derivative shift
        probe = Source(c=-1.0, lam=30.0)
        assert_bits_equal(probe.evaluate(self.U, 0.0), 30.0 * self.U - 1.0)
        assert_bits_equal(probe.evaluate_deriv(self.U, 0.0),
                          np.full_like(self.U, 30.0))

    def test_constant_derivative_finite_at_singular_power(self):
        # |u|^alpha is infinite at u = 0 for alpha < 0; the skipped term
        # must not turn 0 * inf into NaN
        d = Constant(1.0).evaluate_deriv(np.zeros(3), -0.5)
        assert_bits_equal(d, np.zeros(3))

    def test_power_pair_checks(self):
        with pytest.raises(ValueError):
            PowerPair(1.0, 1.0, 1.5).evaluate(self.U, 1.0)
        with pytest.raises(ValueError, match="mu >= 0"):
            PowerPair(1.0, -1.0, 3.0)

    def test_source_term_is_a_number(self):
        # f depends on u alone: no value per node
        with pytest.raises(ValueError, match=r"shape \(5,\)"):
            Constant(np.ones(5))


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

    def test_variant_guard(self):
        with pytest.raises(ValueError, match="plus variant"):
            overdetermined_radius(PucciParams(1.0, 1.0, Variant.MINUS), 2,
                                  -0.5)


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

    def test_first_zero_needs_its_derivative(self):
        # the derivative at the zero is the Neumann datum, so a profile
        # that has a zero without it is rejected at construction
        r = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="set together"):
            radial.RadialProfile(r, 1.0 - r, -np.ones(5), first_zero=1.0)

    def test_profile_arrays_checked(self):
        r = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="share a length"):
            radial.RadialProfile(r, 1.0 - r, -np.ones(4))
        with pytest.raises(ValueError, match="strictly ascending"):
            radial.RadialProfile(r[::-1], 1.0 - r, -np.ones(5))

    @pytest.mark.parametrize("r_max, h", [(1.0, 0.05), (1.0, 0.0),
                                          (0.0, 1e-3)])
    def test_rejects_short_range(self, r_max, h):
        # the start radius is 10 h, so r_max must exceed 20 h
        with pytest.raises(ValueError, match="r_max > 20 h"):
            shoot(PucciParams(1.0, 1.0), 2, Constant(1.0), 0.25, r_max, h)

    @pytest.mark.parametrize("r_max, h", [(np.inf, 1e-3), (1.0, np.nan),
                                          (np.nan, 1e-3)])
    def test_rejects_a_range_that_is_not_finite(self, r_max, h):
        # an infinite r_max made an OverflowError in the node count and a
        # NaN one numpy's cast error
        with pytest.raises(ValueError, match="finite r_max > 20 h"):
            shoot(PucciParams(1.0, 1.0), 2, Constant(1.0), 0.25, r_max, h)

    def test_round_trip_radius(self):
        for alpha in (-0.5, 0.0, 1.0):
            p = PucciParams(1.0, 1.0, alpha=alpha)
            m = closed_form_constant(p, 2, 1.0, 0.0)
            prof = shoot(p, 2, Constant(1.0), m, 1.5, 1e-3)
            c = neumann_constant(prof)
            assert_allclose(overdetermined_radius(p, 2, c), prof.first_zero,
                            atol=1e-5)

    @pytest.mark.parametrize("big_a, alpha", [(1.5, 0.0), (1.5, 1.0),
                                              (2.0, -0.5)])
    def test_matches_fixed_step_rk4_oracle(self, big_a, alpha):
        # a < A has no closed form: step the RK4 oracle over the returned
        # nodes from the returned first node.  u' is not compared: at
        # alpha < 0, f is not Lipschitz at u = 0 and RK4 loses its order
        # on the last steps before the zero
        p = PucciParams(1.0, big_a, alpha=alpha)
        source = EigenPower(5.0)
        prof = shoot(p, 2, source, 1.0, 4.0, 1.0 / 2000.0)
        u, du = [prof.u[0]], [prof.du[0]]
        for r, step in zip(prof.radii[:-1], np.diff(prof.radii)):
            un, dun = radial._rk4_step(p, 2, source, r, u[-1], du[-1], step)
            u.append(un)
            du.append(dun)
        assert np.abs(np.array(u) - prof.u).max() <= 1e-7

    @pytest.mark.parametrize("source, m", [(EigenPower(5.0), 1.0),
                                           (Constant(1.0), 0.25),
                                           (Constant(-1.0), -0.25)])
    def test_profile_stops_at_first_zero(self, source, m):
        prof = shoot(PucciParams(1.0, 1.5), 2, source, m, 4.0, 1e-3)
        assert prof.first_zero is not None
        assert prof.du_at_zero is not None
        assert prof.radii[-1] <= prof.first_zero
        assert np.all(np.sign(prof.u) == np.sign(m))

    def test_sign_branch_failure_propagates(self):
        class NanBelowHalf:
            def evaluate(self, u, alpha):
                return 1.0 if u > 0.5 else np.nan

        with pytest.raises(SignBranchFailure):
            shoot(PucciParams(1.0, 1.0), 2, NanBelowHalf(), 1.0, 10.0, 1e-3)

    def test_integrator_failure_raises(self, monkeypatch):
        import scipy.integrate

        def failed(*args, **kwargs):
            return SimpleNamespace(status=-1, message="step size too small")

        monkeypatch.setattr(scipy.integrate, "solve_ivp", failed)
        with pytest.raises(IntegrationFailure, match="step size"):
            shoot(PucciParams(1.0, 1.0), 2, Constant(1.0), 0.25, 1.5, 1e-3)

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

    def test_default_is_one_shot(self, monkeypatch):
        real_shoot = radial.shoot
        calls = []

        def counting_shoot(*args, **kwargs):
            calls.append(args)
            return real_shoot(*args, **kwargs)

        monkeypatch.setattr(radial, "shoot", counting_shoot)
        principal_eigenvalue_ball(PucciParams(1.0, 1.5), 2, 1.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("n_dim, bessel", [(2, jn_zeros(0, 1)[0] ** 2),
                                               (3, np.pi ** 2),
                                               (10, jn_zeros(4, 1)[0] ** 2)])
    def test_shot_against_bessel(self, n_dim, bessel):
        # at a = A the operator is a times the Laplacian, whose principal
        # eigenvalue on the unit N-ball is j_{N/2-1,1}^2; a = 2.5 checks
        # that dividing by a leaves the shot unchanged
        for a in (1.0, 2.5):
            lam = principal_eigenvalue_ball(PucciParams(a, a), n_dim, 1.0)
            assert_allclose(lam, a * bessel, rtol=1e-8)

    @pytest.mark.parametrize("radius", [1.0, 0.5])
    @pytest.mark.parametrize("n_dim", [2, 3])
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0])
    def test_shot_lands_on_radius(self, alpha, variant, n_dim, radius):
        # the scaled shot's lambda, shot on the ball itself, vanishes at R
        p = PucciParams(1.0, 1.5, variant, alpha)
        lam = principal_eigenvalue_ball(p, n_dim, radius)
        prof = shoot(p, n_dim, EigenPower(lam), 1.0, 1.5 * radius,
                     radius / 2000.0)
        assert abs(prof.first_zero - radius) <= 1e-8 * radius

    @pytest.mark.parametrize("a, alpha, variant, n_dim, radius", [
        (1.0, -0.5, Variant.MINUS, 3, 0.5),
        (1.0, 1.0, Variant.PLUS, 2, 1.0),
        (0.4, 0.5, Variant.PLUS, 3, 1.0),
    ])
    def test_shot_matches_brent(self, a, alpha, variant, n_dim, radius):
        p = PucciParams(a, 1.5, variant, alpha)
        assert_allclose(principal_eigenvalue_ball(p, n_dim, radius),
                        principal_eigenvalue_ball(p, n_dim, radius,
                                                  method="brent"),
                        rtol=1e-8)

    def test_shot_range_doubles(self, monkeypatch):
        # j_{9,1}^2 = 178 puts the N = 20 zero past the first range, 4
        # times the zero of the first guess 6 A / a = 6
        real_shoot = radial.shoot
        ranges = []

        def recording_shoot(params, n_dim, source, m, r_max, h):
            ranges.append(r_max)
            return real_shoot(params, n_dim, source, m, r_max, h)

        monkeypatch.setattr(radial, "shoot", recording_shoot)
        lam = principal_eigenvalue_ball(PucciParams(1.0, 1.0), 20, 1.0)
        assert_allclose(ranges, [4.0 * 6.0 ** 0.5, 8.0 * 6.0 ** 0.5])
        assert_allclose(lam, jn_zeros(9, 1)[0] ** 2, rtol=1e-8)

    def test_shot_failure_after_sixty_ranges(self, monkeypatch):
        ranges = []

        def no_zero(params, n_dim, source, m, r_max, h):
            ranges.append(r_max)
            return SimpleNamespace(first_zero=None)

        monkeypatch.setattr(radial, "shoot", no_zero)
        with pytest.raises(BracketFailure, match="no first zero"):
            principal_eigenvalue_ball(PucciParams(1.0, 1.0), 2, 1.0)
        assert len(ranges) == 60
        assert_allclose(np.diff(np.log2(ranges)), 1.0)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            principal_eigenvalue_ball(PucciParams(1.0, 1.0), 2, 1.0,
                                      method="bisect")

    def test_brent_lands_on_radius_in_few_shoots(self, monkeypatch):
        real_shoot = radial.shoot
        calls = []

        def counting_shoot(*args, **kwargs):
            calls.append(args)
            return real_shoot(*args, **kwargs)

        monkeypatch.setattr(radial, "shoot", counting_shoot)
        p = PucciParams(1.0, 1.0)
        h = 1.0 / 800.0
        lam = principal_eigenvalue_ball(p, 2, 1.0, h=h, method="brent")
        # bisection to the same rel_tol takes 29 shoots here
        assert len(calls) <= 20
        prof = real_shoot(p, 2, EigenPower(lam), 1.0, 4.0, h)
        assert abs(prof.first_zero - 1.0) <= 1e-7

    @pytest.mark.parametrize("big_a", [1.0, 1.5])
    def test_each_lambda_shot_once(self, monkeypatch, big_a):
        real_shoot = radial.shoot
        shot = []

        def recording_shoot(params, n_dim, source, *args):
            shot.append(source.lam)
            return real_shoot(params, n_dim, source, *args)

        monkeypatch.setattr(radial, "shoot", recording_shoot)
        principal_eigenvalue_ball(PucciParams(1.0, big_a), 2, 1.0,
                                  h=1.0 / 800.0, method="brent")
        # Brent's first two evaluations are the bracket ends, already shot
        assert len(set(shot)) == len(shot)

    def test_bracket_grows_upward(self):
        # at R = 1 the first bracket is [1.5, 24]; the N = 10 Laplacian's
        # eigenvalue j_{4,1}^2 lies above it
        lam = principal_eigenvalue_ball(PucciParams(1.0, 1.0), 10, 1.0,
                                        method="brent")
        assert lam > 24.0
        assert_allclose(lam, jn_zeros(4, 1)[0] ** 2, rtol=1e-8)

    def test_bracket_grows_downward(self):
        # with a = 0.1 the eigenvalue lies below the first bracket at both
        # radii; M+ >= a Laplacian bounds it by a j0^2 / R^2, and the
        # operator's 2-homogeneity in 1/R fixes the ratio
        p = PucciParams(0.1, 1.0)
        lam1 = principal_eigenvalue_ball(p, 2, 1.0, method="brent")
        lam2 = principal_eigenvalue_ball(p, 2, 2.0, method="brent")
        assert lam1 < 1.5
        assert lam1 <= p.a * DISK_LAPLACE_EIG
        assert abs(4.0 * lam2 - lam1) <= 1e-7

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_radius(self, radius, monkeypatch):
        def no_shot(*args):
            raise AssertionError("shot before the radius check")

        monkeypatch.setattr(radial, "shoot", no_shot)
        with pytest.raises(ValueError, match="finite, positive radius"):
            principal_eigenvalue_ball(PucciParams(1.0, 1.0), 2, radius)

    @pytest.mark.parametrize("first_zero, side", [(None, "upper"),
                                                  (0.5, "lower")])
    def test_bracket_failure(self, first_zero, side, monkeypatch):
        # a profile that never vanishes counts as vanishing at 4 R, past R
        # at every lambda; one that vanishes at 0.5 R is short of it
        def fixed_zero(*args):
            return SimpleNamespace(first_zero=first_zero)

        monkeypatch.setattr(radial, "shoot", fixed_zero)
        with pytest.raises(BracketFailure, match=f"no {side} eigenvalue"):
            principal_eigenvalue_ball(PucciParams(1.0, 1.0), 2, 1.0,
                                      method="brent")

    def test_iteration_limit_carries_history(self):
        with pytest.raises(IterationLimit) as exc:
            principal_eigenvalue_ball(PucciParams(1.0, 1.0), 2, 1.0,
                                      h=1.0 / 200.0, max_iter=2,
                                      method="brent")
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
