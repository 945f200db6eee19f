import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import beta, betainc

from band_reference import norm_exp
from table_reference import profile_csv
from minsurflab import catenoid, profile as profile_module
from minsurflab.cli import EXIT_OK, main
from minsurflab.cylinder import BandField, UniformGrid
from minsurflab.outer import _end_splines, psi_infinity
from minsurflab.profile import (
    ProfileError,
    ScaleError,
    compute_scales,
    integrate_profile,
    profile_values,
    solve_profile,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _profile_rhs(n, y):
    phi, dphi, _ = y
    return np.array([dphi, phi + (n - 2) * phi ** (3 - 2 * n), phi ** (2 - n)])


def integrate_profile_numpy(n, s_nodes, max_substep=1e-3):
    """Reference integrator: the RK4 loop on a numpy state vector that
    integrate_profile replaced."""
    s_nodes = np.asarray(s_nodes, dtype=float)
    y = np.array([1.0, 0.0, 0.0])
    out = np.empty((len(s_nodes), 3))
    s = 0.0
    for i, target in enumerate(s_nodes):
        span = target - s
        if span > 0:
            m = max(1, int(np.ceil(span / max_substep)))
            h = span / m
            for _ in range(m):
                k1 = _profile_rhs(n, y)
                k2 = _profile_rhs(n, y + 0.5 * h * k1)
                k3 = _profile_rhs(n, y + 0.5 * h * k2)
                k4 = _profile_rhs(n, y + h * k3)
                y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            s = target
        out[i] = y
    return out


@st.composite
def profile_nodes(draw):
    """1-600 strictly increasing nodes in [0, 26] and a substep; the first
    node is 0 or positive, the gaps lie below and above the substep, and in
    some draws the nodes fill [first, 26)."""
    max_substep = draw(st.sampled_from([1e-2, 1e-3]))
    first = draw(st.one_of(st.just(0.0), st.floats(1e-6, 13.0)))
    count = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = max_substep * np.exp(rng.uniform(np.log(1e-3), np.log(60.0), size=count - 1))
    room = 26.0 - first
    if count > 1 and (gaps.sum() > room or draw(st.integers(0, 3)) == 0):
        gaps *= room / gaps.sum() * (1.0 - 1e-12)
    return first + np.concatenate([[0.0], np.cumsum(gaps)]), max_substep


class TestSolveProfile:
    def test_first_integral_everywhere(self, profile):
        assert np.max(profile.first_integral_residual()) <= 1e-10

    def test_symmetry(self, profile):
        assert np.allclose(profile.phi, profile.phi[::-1], rtol=1e-12)
        assert np.allclose(profile.psi, -profile.psi[::-1], atol=1e-12)

    def test_neck_normalization(self, profile):
        mid = profile.s.size // 2
        assert profile.phi[mid] == pytest.approx(1.0)
        assert profile.psi[mid] == pytest.approx(0.0, abs=1e-15)
        assert np.all(profile.phi >= 1.0 - 1e-12)
        assert np.all(np.diff(profile.psi) > 0)

    def test_asymptotic_constant_flat_on_tail(self, profile):
        s = profile.s
        tail = s >= 0.8 * profile.s_max
        vals = np.exp(-s[tail]) * profile.phi[tail]
        assert np.max(np.abs(vals / profile.A_asym - 1.0)) <= 1e-4

    def test_height_limit_exists(self):
        # psi(s_max) converges as the grid grows: ends are graphs over planes
        tops = [solve_profile(3, smax, 8e-3).psi[-1] for smax in (10.0, 12.0, 14.0)]
        assert abs(tops[2] - tops[1]) < abs(tops[1] - tops[0])
        assert abs(tops[2] - tops[1]) < 2e-5

    def test_coarse_step_raises_with_worst_node(self, monkeypatch):
        monkeypatch.setattr(profile_module, "MAX_SUBSTEP", 0.75)
        with pytest.raises(ProfileError, match="residual"):
            solve_profile(3, 12.0, 0.75)

    def test_max_substep_is_read_at_each_call(self, profile, monkeypatch):
        # the callers that leave max_substep out refine with the constant:
        # the catenoid's grid samples and the cut-off scales
        s = np.linspace(-3.0, 3.0, 61)

        def read():
            monkeypatch.setattr(catenoid, "_PROFILE_CACHE", {})
            samples = catenoid.grid_profile(3, s)
            return [samples[k] for k in ("phi", "dphi", "psi", "dpsi", "pot")], compute_scales(profile, 1e-6)

        def same(a, b):
            return all(np.array_equal(x, y) for x, y in zip(a[0], b[0])) and a[1] == b[1]

        at_default = read()
        assert all(np.array_equal(x, y) for x, y in zip(at_default[0][:4], profile_values(3, s)))
        monkeypatch.setattr(profile_module, "MAX_SUBSTEP", 2.5e-4)
        refined = read()
        assert not np.array_equal(refined[0][0], at_default[0][0])
        assert refined[1].r_eps != at_default[1].r_eps
        monkeypatch.setattr(profile_module, "MAX_SUBSTEP", 1e-3)
        assert same(read(), at_default)

    def test_fine_step_takes_one_substep_per_span(self, monkeypatch):
        # a grid step below MAX_SUBSTEP spans one RK4 substep; the step alone
        # as the substep bound would let rounding split 1460 of the 2000
        # spans on [0, 1] in two
        exact = profile_module.integrate_profile
        seen = []

        def record(n, s_nodes, max_substep):
            seen.append((s_nodes, max_substep))
            return exact(n, s_nodes, max_substep)

        monkeypatch.setattr(profile_module, "integrate_profile", record)
        table = solve_profile(3, 8.0, 5e-4)
        [(nodes, max_substep)] = seen
        spans = np.diff(nodes)
        assert spans.size == 16000
        assert max_substep == profile_module.MAX_SUBSTEP
        assert all(max(1, math.ceil(span / max_substep)) == 1 for span in spans.tolist())
        # one substep per span is what an unbounded substep takes, bit for bit
        assert np.array_equal(table.phi[16000:], exact(3, nodes, np.inf)[:, 0])

    @pytest.mark.parametrize("s_max", [720.0, 1e9, np.inf, np.nan])
    def test_rejects_a_span_where_phi_overflows(self, s_max):
        # phi <= e^s: refused before the grid is allocated
        with pytest.raises(ProfileError, match="overflows"):
            solve_profile(3, s_max, 8e-3)

    @pytest.mark.parametrize("step", [1e-300, 5e-324])
    def test_rejects_a_step_whose_grid_no_array_holds(self, step):
        # 16 / step nodes on either side overflow the largest array, or
        # float itself: refused before the grid is allocated
        with pytest.raises(ProfileError, match="more than an array holds"):
            solve_profile(3, 16.0, step)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_residual_raises(self, monkeypatch):
        exact = profile_module.integrate_profile

        def overflowed(n, s_nodes, max_substep):
            # phi and phi' past the float range at the last node, as at s_max = 720
            out = exact(n, s_nodes, max_substep)
            out[-1, :2] = np.inf
            return out

        monkeypatch.setattr(profile_module, "integrate_profile", overflowed)
        with pytest.raises(ProfileError, match="residual nan"):
            solve_profile(3, 12.0, 8e-3)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ProfileError):
            solve_profile(2, 8.0, 1e-2)

    def test_csv_export_has_all_columns(self, profile, tmp_path):
        # the default config's table is the fixture's, n=3 on [-16, 16] at step 8e-3
        assert main(["profile", "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "profile.csv").read_bytes() == profile_csv(profile).encode()


class TestIntegrateProfile:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @PROPERTY
    @given(drawn=profile_nodes())
    def test_bit_identical_to_numpy_loop(self, n, drawn):
        nodes, max_substep = drawn
        assert np.array_equal(
            integrate_profile(n, nodes, max_substep),
            integrate_profile_numpy(n, nodes, max_substep),
        )

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ProfileError, match="strictly increasing"):
            integrate_profile(3, np.array([0.0, 0.5, 0.5]), 1e-3)

    def test_rejects_negative_nodes(self):
        with pytest.raises(ProfileError, match="nonnegative"):
            integrate_profile(3, np.array([-0.1, 0.5]), 1e-3)


class TestComputeScales:
    def test_exact_log_relation(self, profile):
        sc = compute_scales(profile, np.exp(-14.0))
        assert sc.s_eps == pytest.approx(-1.0, abs=1e-14)

    def test_neck_radius_definition(self, profile):
        sc = compute_scales(profile, 1e-6)
        phi_cut = profile_values(3, np.array([sc.s_eps]))[0][0]
        assert sc.r_eps == pytest.approx(sc.eps ** 0.5 * phi_cut, rel=1e-14)

    def test_limit_toward_one(self, profile):
        sc = compute_scales(profile, 1.0 - 1e-9)
        assert abs(sc.s_eps) < 1e-9
        assert sc.r_eps == pytest.approx((1.0 - 1e-9) ** 0.5, rel=1e-6)

    def test_exponent_approaches_paper_rate(self, profile):
        rates = []
        for eps in (1e-4, 1e-6, 1e-8, 1e-10):
            sc = compute_scales(profile, eps)
            rates.append(np.log(sc.r_eps) / np.log(eps))
        target = 3.0 / (3 * 3 - 2)
        errs = np.abs(np.array(rates) - target)
        assert np.all(np.diff(errs) < 0)
        assert errs[-1] < 0.02

    def test_ratio_band(self, profile):
        for eps in (1e-6, 1e-8, 1e-10):
            sc = compute_scales(profile, eps)
            assert 0.5 <= sc.r_eps / eps ** (3.0 / 7.0) <= 2.0

    def test_rejects_out_of_range(self, profile):
        with pytest.raises(ScaleError):
            compute_scales(profile, 1.5)
        with pytest.raises(ScaleError, match="s_max"):
            compute_scales(profile, 1e-120)

    def test_cut_ring_radius_identity(self, profile):
        sc = compute_scales(profile, 1e-7)
        phi_cut = profile_values(3, np.array([sc.s_eps]))[0][0]
        assert sc.eps_len * phi_cut == sc.r_eps

    @pytest.mark.parametrize("eps", [1e-4, 1e-7, 1e-10])
    def test_psi_cut_is_the_profile_height_at_the_cut(self, profile, eps):
        sc = compute_scales(profile, eps)
        assert sc.psi_cut == profile_values(3, np.array([sc.s_eps]))[2][0]


# relative bound against the closed forms; the largest measured defect is
# 1.9e-12 (psi at n=7, in units of psi_inf)
CLOSED_FORM_TOL = 1e-11


@pytest.fixture(scope="module", params=[3, 4, 5, 6, 7])
def table(request):
    return solve_profile(request.param, 16.0, 8e-3)


class TestClosedForms:
    """x = phi^(n-1) solves x' = (n-1) sqrt(x^2 - 1), so the profile and
    its limits have closed forms to check the integrator against."""

    @staticmethod
    def _psi_inf(n):
        a = (n - 2) / (2 * (n - 1))
        return beta(a, 0.5) / (2 * (n - 1))

    def test_phi(self, table):
        k = table.n - 1
        exact = np.cosh(k * table.s) ** (1.0 / k)
        assert np.max(np.abs(table.phi / exact - 1.0)) <= CLOSED_FORM_TOL

    def test_asymptotic_constant(self, table):
        exact = 2.0 ** (-1.0 / (table.n - 1))
        assert abs(table.A_asym / exact - 1.0) <= CLOSED_FORM_TOL

    def test_psi(self, table):
        # psi(s) = B(a, 1/2) (1 - I_{sech^2((n-1)s)}(a, 1/2)) / (2(n-1)); psi is
        # odd, so the defect is measured in units of its limit psi_inf
        n, k = table.n, table.n - 1
        a = (n - 2) / (2 * k)
        sech2 = 1.0 / np.cosh(k * table.s) ** 2
        exact = np.sign(table.s) * beta(a, 0.5) * (1.0 - betainc(a, 0.5, sech2)) / (2 * k)
        assert np.max(np.abs(table.psi - exact)) <= CLOSED_FORM_TOL * self._psi_inf(n)

    def test_psi_infinity(self, table):
        exact = self._psi_inf(table.n)
        assert abs(psi_infinity(table) / exact - 1.0) <= CLOSED_FORM_TOL
        assert abs(_end_splines(table.n)["psi_inf"] / exact - 1.0) <= CLOSED_FORM_TOL

    def test_psi_infinity_refuses_a_table_short_of_its_tail(self):
        # at n=3 the tail's remainder phi_top^(-5) is 1.2e-8 at s_max 4 and
        # 7.9e-11 at 5, against 1e-10 psi_inf = 1.3e-10; the limit the
        # accepted table gives is within the closed-form bound
        with pytest.raises(ProfileError, match="s_max=4.000"):
            psi_infinity(solve_profile(3, 4.0, 8e-3))
        accepted = psi_infinity(solve_profile(3, 5.0, 8e-3))
        assert abs(accepted / self._psi_inf(3) - 1.0) <= CLOSED_FORM_TOL


class TestNormExp:
    """The reference norm the cylinder solver tests state their bounds in."""

    def _field(self, spectrum, fn, S=-1.0, h=5e-3, m=900):
        s = S + h * np.arange(m)
        w = BandField.zeros(spectrum, UniformGrid(s))
        w.values[0] = fn(s)
        return w

    def test_zero(self, spectrum):
        w = self._field(spectrum, lambda s: 0.0 * s)
        assert norm_exp(w, 0, 0.5, -2.0) == 0.0

    def test_exponential_window_value(self, spectrum):
        delta = -2.0
        w = self._field(spectrum, lambda s: np.exp(delta * s))
        val = norm_exp(w, 0, 0.5, delta)
        assert 0.9 <= val <= 1.1 * np.exp(-delta * (-1.0)) / np.exp(-delta * (-1.0)) + 0.2
        # e^{-delta s} e^{delta s} = 1 on every window up to the quotient term
        assert 0.9 <= val <= 1.6

    def test_monotone_in_derivative_order(self, spectrum, rng):
        s = -1.0 + 5e-3 * np.arange(900)
        w = BandField.zeros(spectrum, UniformGrid(s))
        w.values[: 4] = rng.normal(size=(4, s.size)).cumsum(axis=1) * 1e-3
        n0 = norm_exp(w, 0, 0.5, -2.0)
        n2 = norm_exp(w, 2, 0.5, -2.0)
        assert n2 >= n0

    def test_absolute_homogeneity_exact(self, spectrum, rng):
        w = self._field(spectrum, lambda s: np.sin(3 * s))
        a = 3.7
        aw = BandField(w.spectrum, w.grid, a * w.values)
        assert norm_exp(aw, 1, 0.5, -2.0) == pytest.approx(
            a * norm_exp(w, 1, 0.5, -2.0), rel=1e-14
        )

    def test_triangle_inequality_exact(self, spectrum, rng):
        s = -1.0 + 5e-3 * np.arange(600)
        u = BandField.zeros(spectrum, UniformGrid(s))
        v = BandField.zeros(spectrum, UniformGrid(s))
        u.values[0] = np.sin(2 * s)
        v.values[2] = np.cos(5 * s) * np.exp(-s)
        lhs = norm_exp(u + v, 2, 0.5, -2.0)
        assert lhs <= norm_exp(u, 2, 0.5, -2.0) + norm_exp(v, 2, 0.5, -2.0) + 1e-12
