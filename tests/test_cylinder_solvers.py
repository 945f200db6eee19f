import numpy as np
import pytest

from band_reference import banded_band_dirichlet_robin, dense_band_dirichlet_robin, norm_exp
from minsurflab.catenoid import (
    PreconditionError,
    _piece_grid,
    apply_Lcal,
    band_pair,
    grid_profile,
    solve_GS,
    solve_PS,
)
from minsurflab.cylinder import (
    BandField,
    UniformGrid,
    homogeneous_pair,
    solve_band_decaying_kernel,
    solve_band_dirichlet_robin,
)
from minsurflab.diffops import fd_derivative
from minsurflab.spectral import SphereField, band_spectrum

N = 3
H = 5e-3


def make_grid(S=-1.0, span=14.0, h=H):
    return S + h * np.arange(int(span / h) + 1)


def bump(s, center, width=0.3, delta=-2.0):
    return np.exp(delta * (s - s[0])) * np.exp(-0.5 * ((s - center) / width) ** 2)


def whole_Lcal(w):
    """The conjugated operator on the whole grid, as apply_Lcal computed it
    before it stopped at the nodes its caller reads."""
    spec = w.spectrum
    data = grid_profile(spec.n, w.grid.s)
    c2 = ((spec.n - 2) / 2.0) ** 2
    out = np.empty_like(w.values)
    d2 = fd_derivative(w.values, w.grid.step, 1, 2, 2)
    for ell in range(spec.L + 1):
        out[ell] = d2[ell] + (-(spec.lam[ell] + c2) + data["pot"]) * w.values[ell]
    return out


class TestApplyLcal:
    @pytest.mark.parametrize("n", [3, 5])
    def test_first_k_nodes_equal_the_whole_grid(self, n, rng):
        # the catenoid step reads the first 1201 of the piece grid's 3001 nodes
        spec = band_spectrum(n, 8)
        s = _piece_grid(-0.4)
        w = BandField(spec, UniformGrid(s), rng.standard_normal((9, s.size)))
        whole = whole_Lcal(w)
        for k in (4, 5, 17, 1201, s.size - 1, s.size):
            got = apply_Lcal(w, k)
            assert got.shape == (9, k) and np.array_equal(got, whole[:, :k])

    def test_asymptotic_regime_is_flat_operator(self, spectrum):
        # where the potential is below 1e-12 the operator acts as w'' - gamma^2 w
        s = make_grid(S=10.0, span=4.0)
        data = grid_profile(N, s)
        assert np.max(data["pot"]) < 1e-12 * data["pot"].max() + 1e-8
        w = BandField.zeros(spectrum, UniformGrid(s))
        ell = 3
        w.values[ell] = np.sin(2 * (s - 10.0))
        out = apply_Lcal(w, s.size)
        gam2 = spectrum.gamma[ell] ** 2
        d2 = (w.values[ell][2:] - 2 * w.values[ell][1:-1] + w.values[ell][:-2]) / H**2
        expect = d2 - gam2 * w.values[ell][1:-1]
        assert np.max(np.abs(out[ell][1:-1] - expect)) < 1e-8

    def test_vertical_translation_jacobi_field(self, spectrum):
        s = make_grid()
        data = grid_profile(N, s)
        w = BandField.zeros(spectrum, UniformGrid(s))
        w.values[0] = -(data["phi"] ** ((N - 4) / 2.0)) * data["dphi"]
        res = apply_Lcal(w, s.size)
        scale = np.max(np.abs(w.values[0]))
        assert np.max(np.abs(res[0][2:-2])) < 5e-6 * scale

    def test_horizontal_translation_jacobi_field(self, spectrum):
        s = make_grid()
        data = grid_profile(N, s)
        w = BandField.zeros(spectrum, UniformGrid(s))
        w.values[1] = data["phi"] ** (-N / 2.0)
        res = apply_Lcal(w, s.size)
        assert np.max(np.abs(res[1][2:-2])) < 5e-4 * np.max(np.abs(w.values[1]))

    def test_agreement_with_divergence_form_oracle(self, spectrum):
        """Conjugated operator vs the divergence-form original applied by an
        independent stencil; Richardson extrapolation of both paths."""
        def both(h):
            s = -1.0 + h * np.arange(int(3.0 / h) + 1)
            data = grid_profile(N, s)
            w = BandField.zeros(spectrum, UniformGrid(s))
            w.values[2] = np.exp(-0.5 * ((s - 0.2) / 0.5) ** 2)
            lhs = apply_Lcal(w, s.size)[2]
            phi = data["phi"]
            conj = phi ** ((2 - N) / 2.0)
            u = conj * w.values[2]
            du = np.gradient(u, h)
            inner = phi ** (N - 2) * du
            term1 = np.gradient(inner, h)
            lam = spectrum.lam[2]
            orig = term1 - lam * phi ** (N - 2) * u + N * (N - 1) * phi ** (-N) * u
            rhs = conj * orig
            return s, lhs, rhs

        s1, l1, r1 = both(4e-3)
        s2, l2, r2 = both(2e-3)
        d1 = np.max(np.abs((l1 - r1)[5:-5]))
        d2 = np.max(np.abs((l2 - r2)[5:-5]))
        assert d2 < d1 / 2.5  # both paths converge to the same operator
        # Richardson: the limit of the path difference vanishes
        limit = abs(d2 - d1 / 4.0) / max(np.max(np.abs(l2)), 1e-300)
        assert limit < 1e-6


class TestBandPair:
    def _source(self, spectrum, s):
        f = BandField.zeros(spectrum, UniformGrid(s))
        for i in range(f.values.shape[0]):
            f.values[i] = bump(s, s[0] + 0.5 + 0.1 * i)
        return f

    def test_solve_GS_matches_direct_pair(self, spectrum):
        s = make_grid(S=-1.5)
        f = self._source(spectrum, s)
        data = grid_profile(N, s)
        c2 = ((N - 2) / 2.0) ** 2
        h = f.grid.step
        direct = np.empty_like(f.values)
        for i, ell in enumerate(range(spectrum.L + 1)):
            vpot = -(spectrum.lam[ell] + c2) + data["pot"]
            gam = spectrum.gamma[ell]
            if ell >= 2:
                direct[i] = solve_band_dirichlet_robin(vpot, h, f.values[i], gam)
            else:
                pair = homogeneous_pair(vpot, h, gam)
                direct[i] = solve_band_decaying_kernel(pair, h, f.values[i])
        for _ in range(2):  # cold, then warm cache
            w = solve_GS(f)
            assert np.array_equal(w.values, direct)

    @pytest.mark.parametrize("n", [3, 5])
    def test_solve_GS_equals_solve_banded(self, n, rng):
        # bands l >= 2 through dgtsv: the bits of the band matrix solved by
        # solve_banded, and the dense factorization's values
        spec = band_spectrum(n, 8)
        s = _piece_grid(-0.4)
        h = s[1] - s[0]
        f = BandField(spec, UniformGrid(s), rng.standard_normal((9, s.size)))
        pot = grid_profile(n, s)["pot"]
        c2 = ((n - 2) / 2.0) ** 2
        w = solve_GS(f)
        for ell in range(2, 9):
            vpot = -(spec.lam[ell] + c2) + pot
            banded = banded_band_dirichlet_robin(vpot, h, f.values[ell], spec.gamma[ell])
            assert np.array_equal(w.values[ell], banded)
        dense = dense_band_dirichlet_robin(-(spec.lam[2] + c2) + pot, h, f.values[2], 0.0,
                                           spec.gamma[2])
        assert np.max(np.abs(w.values[2] - dense)) / np.max(np.abs(dense)) < 1e-8

    def test_cached_arrays_read_only(self):
        s = make_grid(S=-1.5)
        up, um, _ = band_pair(N, s, 1)
        assert band_pair(N, s, 1)[0] is up
        for arr in (up, um):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_outer_profiles_share_the_pair(self, spectrum, profile):
        s = make_grid(S=-1.5)
        for ell in (0, 1):
            up, um, _ = band_pair(N, s, ell)
            vpot = -(spectrum.lam[ell] + ((N - 2) / 2.0) ** 2) + grid_profile(N, s)["pot"]
            up_d, um_d, _ = homogeneous_pair(vpot, s[1] - s[0], spectrum.gamma[ell])
            assert np.array_equal(up, up_d) and np.array_equal(um, um_d)


class TestBandSolveFailures:
    """The direct dgtsv call fails where solve_banded failed."""

    def test_singular_system_raises(self):
        # h = 1, vpot = (0, 3, 4), no Robin term: rows (1 0 0), (1 1 1) and
        # (0 2 2), of which the last two are dependent
        vpot, f = np.array([0.0, 3.0, 4.0]), np.array([0.0, 1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            banded_band_dirichlet_robin(vpot, 1.0, f, 0.0)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve_band_dirichlet_robin(vpot, 1.0, f, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_raises(self, spectrum, bad):
        s = make_grid()
        vpot = -(spectrum.lam[2] + 0.25) + grid_profile(N, s)["pot"]
        f = bump(s, s[0] + 1.0)
        f[s.size // 2] = bad
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            banded_band_dirichlet_robin(vpot, H, f, spectrum.gamma[2])
        with pytest.raises(ValueError, match="not finite"):
            solve_band_dirichlet_robin(vpot, H, f, spectrum.gamma[2])
        # solve_GS meets it in the band solve, before any caller sees a step
        rows = BandField.zeros(spectrum, UniformGrid(s))
        rows.values[3] = f
        with pytest.raises(ValueError, match="not finite"):
            solve_GS(rows)

    def test_non_finite_potential_raises(self, spectrum):
        s = make_grid()
        vpot = -(spectrum.lam[2] + 0.25) + grid_profile(N, s)["pot"]
        vpot[7] = np.nan
        f = bump(s, s[0] + 1.0)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            banded_band_dirichlet_robin(vpot, H, f, spectrum.gamma[2])
        with pytest.raises(ValueError, match="not finite"):
            solve_band_dirichlet_robin(vpot, H, f, spectrum.gamma[2])


class TestSolveGS:
    def test_zero_source(self, spectrum):
        s = make_grid()
        f = BandField.zeros(spectrum, UniformGrid(s))
        w = solve_GS(f)
        assert np.max(np.abs(w.values)) == 0.0

    def test_dense_oracle_band_two(self, spectrum, profile):
        s = make_grid()
        data = grid_profile(N, s)
        h = H
        ell = 2
        c2 = ((N - 2) / 2.0) ** 2
        vpot = -(spectrum.lam[ell] + c2) + data["pot"]
        f = bump(s, center=s[0] + 1.0)
        fast = solve_band_dirichlet_robin(vpot, h, f, spectrum.gamma[ell])
        dense = dense_band_dirichlet_robin(vpot, h, f, 0.0, spectrum.gamma[ell])
        assert np.max(np.abs(fast - dense)) / np.max(np.abs(dense)) < 1e-8

    def test_interior_residual_exact(self, spectrum):
        s = make_grid()
        f = BandField.zeros(spectrum, UniformGrid(s))
        f.values[0] = bump(s, s[0] + 0.8)
        f.values[1] = bump(s, s[0] + 1.2)
        f.values[2] = bump(s, s[0] + 0.5)
        w = solve_GS(f)
        r = apply_Lcal(w, s.size)
        err = np.abs(r - f.values)[:, 1:-1]
        assert np.max(err) < 1e-8 * np.max(np.abs(f.values))

    def test_high_mode_trace_zero(self, spectrum):
        s = make_grid()
        f = BandField.zeros(spectrum, UniformGrid(s))
        f.values[2:] = bump(s, s[0] + 1.0)
        w = solve_GS(f)
        assert np.max(np.abs(w.values[2:, 0])) < 1e-12

    def test_bound_ratio_stable_in_S(self, spectrum):
        ratios = []
        for S in (-1.0, -2.0, -3.0):
            s = make_grid(S=S)
            f = BandField.zeros(spectrum, UniformGrid(s))
            f.values[2] = bump(s, S + 1.0)
            w = solve_GS(f)
            ratios.append(norm_exp(w, 2, 0.5, -2.0) / norm_exp(f, 0, 0.5, -2.0))
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() <= 2.0

    def test_flat_region_matches_continuum_kernel(self, spectrum):
        """Low-band solve against the closed-form truncated sinh-kernel
        response to e^{delta s} on a potential-free window."""
        delta = -2.0
        gam = spectrum.gamma[0]

        def exact(s, T):
            up = (np.exp((delta + gam) * T - gam * s) - np.exp(delta * s)) / (delta + gam)
            dn = (np.exp((delta - gam) * T + gam * s) - np.exp(delta * s)) / (delta - gam)
            return (up - dn) / (2 * gam)

        for h in (8e-3, 4e-3):
            s = 10.0 + h * np.arange(int(5.0 / h) + 1)
            f = BandField.zeros(spectrum, UniformGrid(s))
            f.values[0] = np.exp(delta * s)
            w = solve_GS(f)
            ex = exact(s, s[-1])
            # agreement at the window scale; the residual potential
            # phi^{2-2n} ~ 4e-16 sets the floor of the comparison
            err = np.max(np.abs(w.values[0] - ex))
            assert err < 5e-5 * np.max(np.abs(ex))


class TestSolvePS:
    def test_zero_data(self, spectrum):
        g = SphereField.zeros(spectrum)
        w = solve_PS(g, make_grid())
        assert np.max(np.abs(w.values)) == 0.0

    def test_trace_identity(self, spectrum):
        g = SphereField.zonal_band(spectrum, 2, 1.0) + SphereField.zonal_band(spectrum, 5, -0.4)
        s = make_grid()
        w = solve_PS(g, s_grid=s)
        tr = w.trace(0)
        assert tr.c[2] == pytest.approx(1.0, abs=1e-12)
        assert tr.c[5] == pytest.approx(-0.4, abs=1e-12)

    def test_rejects_low_modes(self, spectrum):
        g = SphereField.zeros(spectrum)
        g.c[0] = 1.0
        with pytest.raises(PreconditionError):
            solve_PS(g, make_grid())

    def test_bound_stable_in_S(self, spectrum):
        vals = []
        for S in (-1.0, -2.0, -3.0):
            g = SphereField.zonal_band(spectrum, 2, 1.0)
            s = make_grid(S=S)
            w = solve_PS(g, s_grid=s)
            vals.append(norm_exp(w, 2, 0.5, -2.0) / (np.exp(2.0 * S) * g.holder_norm()))
        vals = np.array(vals)
        assert vals.max() / vals.min() <= 2.0
