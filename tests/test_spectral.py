import numpy as np
import pytest

from beta_reference import d_beta
from minsurflab import spectral
from minsurflab.cylinder import rows_from_collocation
from minsurflab.spectral import (
    SphereField,
    SpectralError,
    ZonalGrid,
    apply_Dtheta,
    band_spectrum,
    has_low_modes,
    project_high,
    zonal_eval,
)


def dense_sphere_laplacian_eigs(m_t=28, m_p=28):
    """Dense FD eigensolve of the S^2 Laplacian (n=3 oracle)."""
    t = np.linspace(-1 + 1.0 / m_t, 1 - 1.0 / m_t, m_t)
    ht = t[1] - t[0]
    phi = np.linspace(0, 2 * np.pi, m_p, endpoint=False)
    hp = phi[1] - phi[0]
    N = m_t * m_p
    A = np.zeros((N, N))
    idx = lambda i, j: i * m_p + (j % m_p)
    for i in range(m_t):
        for j in range(m_p):
            row = idx(i, j)
            # d/dt[(1-t^2) d/dt] at interior (natural no-flux at the ends)
            for di, tt in ((0.5, t[i] + ht / 2), (-0.5, t[i] - ht / 2)):
                w = (1 - tt**2) / ht**2
                ii = i + int(np.sign(di) * 1)
                if 0 <= ii < m_t:
                    A[row, idx(ii, j)] += w
                    A[row, row] -= w
            w = 1.0 / ((1 - t[i] ** 2) * hp**2)
            A[row, idx(i, j + 1)] += w
            A[row, idx(i, j - 1)] += w
            A[row, row] -= 2 * w
    return np.linalg.eigvalsh(-(A + A.T) / 2)


class TestBandSpectrum:
    def test_low_band_eigenvalues_against_dense_oracle(self):
        spec = band_spectrum(3, 8)
        eigs = np.sort(dense_sphere_laplacian_eigs(m_t=40, m_p=40))
        # lambda_1 = 2 with multiplicity 3: a three-fold cluster at 2, then a gap
        assert abs(eigs[0]) < 0.02
        assert np.all(np.abs(eigs[1:4] - 2.0) < 0.07)
        assert eigs[4] > 4.0
        assert spec.lam[1] == pytest.approx(2.0)

    def test_constant_band(self):
        for n in (3, 4, 5):
            spec = band_spectrum(n, 4)
            assert spec.lam[0] == 0.0
            assert spec.gamma[0] == pytest.approx((n - 2) / 2.0)

    def test_band_two_indicial_root_exact(self):
        spec = band_spectrum(3, 4)
        assert spec.lam[2] == pytest.approx(6.0)
        assert spec.gamma[2] == pytest.approx(2.5, abs=0)

    def test_gamma_one_exact(self):
        for n in (3, 4, 5):
            spec = band_spectrum(n, 3)
            assert spec.gamma[1] == pytest.approx(n / 2.0, abs=0)

    def test_eigenvalues_strictly_increasing(self):
        spec = band_spectrum(4, 10)
        assert np.all(np.diff(spec.lam) > 0)

    def test_rejects_low_dimension(self):
        with pytest.raises(SpectralError):
            band_spectrum(2, 4)
        with pytest.raises(SpectralError):
            band_spectrum(3, 1)


class TestProjections:
    def test_constant_field_has_no_high_content(self, spectrum):
        f = SphereField.zeros(spectrum)
        f.c[0] = 2.5
        assert project_high(f).holder_norm() == 0.0

    def test_coordinate_field_is_low(self, spectrum):
        f = SphereField.zeros(spectrum)
        f.c[1] = 1.0
        assert project_high(f).holder_norm() == 0.0
        assert has_low_modes(f)

    def test_zonal_band_two_is_high(self, spectrum):
        f = SphereField.zonal_band(spectrum, 2, 1.0)
        hi = project_high(f)
        assert np.allclose(hi.c[2:], f.c[2:])
        assert np.all(f.c[:2] == 0.0)

    def test_projections_sum_to_identity(self, spectrum, rng):
        f = SphereField(spectrum, rng.normal(size=spectrum.L + 1))
        low = f - project_high(f)
        assert np.array_equal(low.c[:2], f.c[:2])
        assert np.all(low.c[2:] == 0.0)

    def test_idempotent_and_annihilating(self, spectrum, rng):
        f = SphereField(spectrum, rng.normal(size=spectrum.L + 1))
        twice = project_high(project_high(f))
        assert np.array_equal(twice.c, project_high(f).c)
        zero = project_high(f - project_high(f))
        assert zero.holder_norm() == 0.0

    def test_low_mode_check_is_relative_to_the_coefficients(self, spectrum):
        assert not has_low_modes(SphereField.zeros(spectrum))
        f = SphereField.zonal_band(spectrum, 2, 1e6)
        f.c[0] = 1e-7  # below 1e-12 of the coefficient sum: roundoff
        assert not has_low_modes(f)
        f.c[1] = -1e-5
        assert has_low_modes(f)
        g = SphereField.zeros(spectrum)
        g.c[0] = 1e-11  # a small field is measured against 1
        assert has_low_modes(g)


class TestDtheta:
    def test_constant_maps_to_zero(self, spectrum):
        f = SphereField.zeros(spectrum)
        f.c[0] = 3.0
        assert apply_Dtheta(f).holder_norm() == 0.0

    def test_band_two_multiplier(self, spectrum):
        f = SphereField.zonal_band(spectrum, 2, 1.0)
        out = apply_Dtheta(f)
        assert out.c[2] == pytest.approx(2.0, abs=1e-14)  # 2.5 - 0.5

    def test_linearity_to_roundoff(self, spectrum, rng):
        f = SphereField(spectrum, rng.normal(size=spectrum.L + 1))
        g = SphereField(spectrum, rng.normal(size=spectrum.L + 1))
        a, b = 1.7, -0.3
        lhs = apply_Dtheta(a * f + b * g)
        rhs = a * apply_Dtheta(f) + b * apply_Dtheta(g)
        assert np.allclose(lhs.c[:2], rhs.c[:2], atol=1e-14)
        assert np.allclose(lhs.c[2:], rhs.c[2:], atol=1e-14)

    def test_decaying_extension_traces(self, spectrum, profile):
        """The flat decaying band extension is annihilated by the flat
        operator on the grid, and its slope trace is the multiplier pair."""
        from minsurflab.cylinder import BandField, UniformGrid

        n = spectrum.n
        S = -1.0
        h = 4e-3
        s = S + h * np.arange(800)
        for ell in (2, 4, 8):
            gam = spectrum.gamma[ell]
            w = BandField.zeros(spectrum, UniformGrid(s))
            w.values[ell] = np.exp(-gam * (s - S))
            prof_vals = np.exp(-gam * (s - S))
            d2 = (prof_vals[2:] - 2 * prof_vals[1:-1] + prof_vals[:-2]) / h**2
            flat = d2 - (spectrum.lam[ell] + ((n - 2) / 2.0) ** 2) * prof_vals[1:-1]
            assert np.max(np.abs(flat)) < 5e-4 * gam**4  # grid tolerance
            f = SphereField.zonal_band(spectrum, ell, 1.0)
            slope = -(n - 2) / 2.0 * f.c[ell] - apply_Dtheta(f).c[ell]
            assert slope == pytest.approx(-gam, abs=1e-14)


class TestTransformsAndSerialization:
    def test_roundtrip_band_limited(self, spectrum, zgrid, rng):
        c = rng.normal(size=spectrum.L + 1)
        vals = c @ zgrid.Z
        assert np.max(np.abs(rows_from_collocation(vals, zgrid) - c)) < 1e-12

    def test_grid_below_the_band_limit_is_refused(self, monkeypatch):
        # 2L + n nodes resolve bands 0..L; fewer are refused, not raised
        # quietly, and angular_grid asks for at least that many
        with pytest.raises(SpectralError, match="n_nodes=18 is below 2L \\+ n = 19"):
            ZonalGrid(3, 8, 18)
        assert ZonalGrid(3, 8, 19).t.size == 19
        monkeypatch.setattr(spectral, "_ANGULAR_GRIDS", {})
        for n, L, m in ((3, 8, 48), (3, 20, 80), (60, 2, 64)):
            assert spectral.angular_grid(band_spectrum(n, L)).t.size == m

    def test_beta_derivative_exact(self, spectrum, zgrid):
        f = zonal_eval(spectrum.n, 5, zgrid.t)
        from minsurflab.spectral import zonal_eval_deriv

        dfdb = d_beta(zgrid, f, parity=+1)
        exact = -zgrid.sinb * zonal_eval_deriv(spectrum.n, 5, zgrid.t)
        assert np.max(np.abs(dfdb - exact)) < 1e-12

    def test_beta_derivative_odd_parity(self, zgrid):
        b = zgrid.beta
        rho = np.sin(b) + 0.3 * np.sin(3 * b)
        drho = d_beta(zgrid, rho, parity=-1)
        assert np.max(np.abs(drho - (np.cos(b) + 0.9 * np.cos(3 * b)))) < 1e-12
        d2rho = d_beta(zgrid, rho, -1, deriv=2)
        assert np.max(np.abs(d2rho - (-np.sin(b) - 2.7 * np.sin(3 * b)))) < 1e-12

    def test_beta_second_derivative_even_parity(self, zgrid):
        b = zgrid.beta
        f = np.cos(b) - 0.5 * np.cos(4 * b)
        d2f = d_beta(zgrid, f, +1, deriv=2)
        assert np.max(np.abs(d2f - (-np.cos(b) + 8.0 * np.cos(4 * b)))) < 1e-12

    def test_beta_derivative_parity_array_matches_per_component(self, zgrid, rng):
        parity = np.array([1.0, -1.0, 1.0]).reshape(3, 1, 1)
        block = rng.normal(size=(3, 5, zgrid.t.size))
        for deriv in (1, 2):
            batched = d_beta(zgrid, block, parity, deriv)
            for i, p in enumerate((+1, -1, +1)):
                assert np.array_equal(batched[i], d_beta(zgrid, block[i], p, deriv))

    @pytest.mark.parametrize("parity", [-1, np.array([1.0, -1.0, 1.0]).reshape(3, 1, 1)])
    def test_beta_derivative_pair_matches_single_calls(self, zgrid, rng, parity):
        block = rng.normal(size=(3, 5, zgrid.t.size))
        first, second = d_beta(zgrid, block, parity, (1, 2))
        assert np.array_equal(first, d_beta(zgrid, block, parity))
        assert np.array_equal(second, d_beta(zgrid, block, parity, 2))

    @pytest.mark.parametrize("parity", [1, -1, np.array([1.0, -1.0, 1.0]).reshape(3, 1, 1)])
    def test_beta_derivative_matches_concatenated_extension(self, zgrid, rng, parity):
        """The reference builds the even/odd extension with np.concatenate
        and its multipliers on every call."""
        block = rng.normal(size=(3, 5, zgrid.t.size))
        m = zgrid.t.size
        spec = np.fft.rfft(np.concatenate([block, parity * block[..., ::-1]], axis=-1), axis=-1)
        k = np.fft.rfftfreq(2 * m) * 2 * m
        first = spec * (1j * k)
        first[..., -1] = 0.0
        second = spec * (-(k**2))
        for deriv, ref in ((1, first), (2, second)):
            expect = np.fft.irfft(ref, n=2 * m, axis=-1)[..., :m]
            assert np.array_equal(d_beta(zgrid, block, parity, deriv), expect)

    @pytest.mark.parametrize("parity", [1, -1, np.array([1.0, -1.0, 1.0]).reshape(3, 1, 1)])
    @pytest.mark.parametrize("deriv", [1, 2, (1, 2)])
    def test_beta_derivative_into_buffers_matches_allocating_call(self, zgrid, rng, parity, deriv):
        # the buffers are the first rows of larger ones, as a short block
        # takes them from BlockBuffers, and hold stale values from a first
        # call; they give the bits of a call that allocates fresh ones
        block = rng.normal(size=(3, 5, zgrid.t.size))
        m = zgrid.t.size
        orders = (deriv,) if isinstance(deriv, int) else deriv
        ext = np.empty((3, 8, 2 * m))
        spec = np.empty((3, 8, m + 1), dtype=complex)
        spec_d = np.empty_like(spec)
        outs = np.empty((len(orders), 3, 8, 2 * m))
        buffers = (ext[:, :5], spec[:, :5], spec_d[:, :5], *outs[:, :, :5])
        zgrid.d_beta(rng.normal(size=block.shape), parity, orders, buffers=buffers)
        got = zgrid.d_beta(block, parity, orders, buffers=buffers)
        expect = d_beta(zgrid, block, parity, orders)
        for g, e, out in zip(got, expect, outs, strict=True):
            assert np.array_equal(g, e)
            assert np.shares_memory(g, out)

    def test_beta_derivative_rejects_third_order(self, zgrid):
        with pytest.raises(SpectralError):
            d_beta(zgrid, np.ones(zgrid.t.size), +1, deriv=3)
        with pytest.raises(SpectralError):
            d_beta(zgrid, np.ones(zgrid.t.size), +1, deriv=(1, 3))

    def test_eval_reproduced_by_band_expansion(self, spectrum, zgrid, rng):
        f = SphereField(spectrum, rng.normal(size=spectrum.L + 1))
        vals = f.c @ zgrid.Z
        direct = f.c[0] + f.c[1] * zgrid.t + f.c[2:] @ zgrid.Z[2:]
        assert np.max(np.abs(vals - direct)) < 1e-12

    def test_norm_properties(self, spectrum, rng):
        f = SphereField(spectrum, rng.normal(size=spectrum.L + 1))
        g = SphereField(spectrum, rng.normal(size=spectrum.L + 1))
        assert (2.5 * f).holder_norm() == pytest.approx(2.5 * f.holder_norm(), rel=1e-12)
        assert (f + g).holder_norm() <= f.holder_norm() + g.holder_norm() + 1e-12

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12: adjacent-node quotient falls like m^(-1/2)")
    def test_norm_converges_as_the_grid_doubles(self, spectrum, monkeypatch):
        # bands 2 and 8 and three random fields, normed on the default
        # m = 48 grid and then on m = 96; a norm of the field, not of its
        # grid, moves by less than 1%
        n, L = spectrum.n, spectrum.L
        fields = [SphereField.zonal_band(spectrum, 2, 1.0), SphereField.zonal_band(spectrum, 8, 1.0)]
        fields += [SphereField(spectrum, np.random.default_rng(seed).normal(size=L + 1))
                   for seed in range(3)]
        coarse = np.array([f.holder_norm() for f in fields])
        assert spectral.angular_grid(spectrum).t.size == 48
        monkeypatch.setitem(spectral._ANGULAR_GRIDS, (n, L), ZonalGrid(n, L, 96))
        fine = np.array([f.holder_norm() for f in fields])
        assert np.all(np.abs(fine / coarse - 1.0) < 0.01), fine / coarse - 1.0
