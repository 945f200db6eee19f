"""Eigenstructure of the sphere Laplacian and band projections.

Fields on S^{n-1} are stored band-wise: full coefficients for the constant
and linear bands (l = 0, 1), a single zonal coefficient per band for l >= 2,
taken about a configurable pole direction.  The zonal basis function of band
l is the Gegenbauer polynomial C_l^{(n-2)/2} normalized to 1 at the pole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_gegenbauer, gamma as gamma_fn


class SpectralError(ValueError):
    """Raised for invalid spectral parameters or incompatible fields."""


def sphere_area(n: int) -> float:
    """Volume of the unit sphere S^{n-1} in R^n."""
    return 2.0 * np.pi ** (n / 2.0) / gamma_fn(n / 2.0)


@dataclass(frozen=True)
class BandSpectrum:
    """Eigenvalues and indicial roots of bands 0..L."""

    n: int
    L: int
    lam: np.ndarray
    gamma: np.ndarray

    def row_count(self) -> int:
        """Number of coefficient rows: 1 (l=0) + n (l=1) + (L-1) zonal."""
        return 1 + self.n + (self.L - 1)


def band_spectrum(n: int, L: int) -> BandSpectrum:
    """Spectrum of -Delta_{S^{n-1}} restricted to bands l <= L.

    lam_l = l(l + n - 2); gamma_l = sqrt(lam_l + ((n-2)/2)^2) is the
    exponential rate of the homogeneous band solutions on the cylinder.
    """
    if n < 3:
        raise SpectralError(f"ambient-minus-one dimension n={n} must be >= 3")
    if L < 2:
        raise SpectralError(f"band cutoff L={L} must be >= 2")
    ells = np.arange(L + 1)
    lam = ells * (ells + n - 2.0)
    gam = np.sqrt(lam + ((n - 2.0) / 2.0) ** 2)
    return BandSpectrum(n=n, L=L, lam=lam, gamma=gam)


def zonal_eval(n: int, ell: int, t: np.ndarray) -> np.ndarray:
    """Zonal harmonic Z_l(t) of band l on S^{n-1}, normalized Z_l(1) = 1."""
    alpha = (n - 2) / 2.0
    t = np.asarray(t, dtype=float)
    return eval_gegenbauer(ell, alpha, t) / eval_gegenbauer(ell, alpha, 1.0)


def zonal_eval_deriv(n: int, ell: int, t: np.ndarray) -> np.ndarray:
    """d/dt of Z_l(t), via d/dt C_l^a = 2a C_{l-1}^{a+1}."""
    alpha = (n - 2) / 2.0
    t = np.asarray(t, dtype=float)
    if ell == 0:
        return np.zeros_like(t)
    norm = eval_gegenbauer(ell, alpha, 1.0)
    return 2.0 * alpha * eval_gegenbauer(ell - 1, alpha + 1.0, t) / norm


class ZonalGrid:
    """Colatitude collocation in beta (t = cos beta) with band transforms.

    Uses the uniform midpoint grid beta_j = (j + 1/2) pi / m, on which every
    chart component of a band-limited zonal surface is a trigonometric
    polynomial: midpoint quadrature and Fourier differentiation are then
    exact, and the pole degeneracies of the orbit coordinates are avoided.
    """

    def __init__(self, n: int, L: int, n_nodes: int):
        if n_nodes < 2 * L + n:
            n_nodes = 2 * L + n
        self.n = n
        self.L = L
        m = n_nodes
        self.beta = (np.arange(m) + 0.5) * np.pi / m
        self.t = np.cos(self.beta)  # descending in beta
        self.sinb = np.sin(self.beta)
        self.w = (np.pi / m) * self.sinb ** (n - 2)
        self.Z = np.array([zonal_eval(n, l, self.t) for l in range(L + 1)])
        self.Zp = np.array([zonal_eval_deriv(n, l, self.t) for l in range(L + 1)])
        # weighted least-squares projector: exact on band-limited samples
        gram = (self.Z * self.w) @ self.Z.T
        self._proj = np.linalg.solve(gram, self.Z * self.w)

    def to_bands(self, values: np.ndarray) -> np.ndarray:
        """Zonal band coefficients 0..L from values on the beta nodes.

        Weighted least-squares in the zonal measure; exact whenever the
        sample is a polynomial of degree <= L in t.  The beta axis is last.
        """
        return np.asarray(values) @ self._proj.T

    def d_beta(self, values: np.ndarray, parity: float | np.ndarray, deriv: int = 1) -> np.ndarray:
        """Exact trig differentiation d/d beta along the last axis.

        parity +1 extends the sample evenly across the poles, -1 oddly;
        chart components are even (heights, axial parts) or odd (rho).
        parity may also be an array of +-1 that broadcasts against values,
        e.g. shape (3, 1, 1) for the three components of one orbit chart
        block; each row's result is the same as with its scalar parity.
        """
        v = np.asarray(values, dtype=float)
        m = v.shape[-1]
        ext = np.concatenate([v, parity * v[..., ::-1]], axis=-1)
        k = np.fft.rfftfreq(2 * m) * 2 * m  # wavenumbers 0..m
        spec = np.fft.rfft(ext, axis=-1)
        if deriv == 1:
            spec = spec * (1j * k)
            spec[..., -1] = 0.0  # Nyquist mode has no odd-derivative sample
        elif deriv == 2:
            spec = spec * (-(k**2))
        else:
            raise SpectralError("deriv must be 1 or 2")
        out = np.fft.irfft(spec, n=2 * m, axis=-1)
        return out[..., :m]


@dataclass
class SphereField:
    """Band-limited function on S^{n-1}.

    low holds the 1 + n coefficients of the constant and linear bands
    (f contains low[0] + low[1:] . theta); zonal[k] is the coefficient of
    Z_{k+2}(pole . theta) for k = 0..L-2.
    """

    spectrum: BandSpectrum
    low: np.ndarray
    zonal: np.ndarray
    pole: np.ndarray = field(default=None)

    def __post_init__(self):
        n, L = self.spectrum.n, self.spectrum.L
        self.low = np.asarray(self.low, dtype=float)
        self.zonal = np.asarray(self.zonal, dtype=float)
        if self.low.shape != (n + 1,):
            raise SpectralError(f"low coefficients must have shape ({n + 1},)")
        if self.zonal.shape != (L - 1,):
            raise SpectralError(f"zonal coefficients must have shape ({L - 1},)")
        if self.pole is None:
            pole = np.zeros(n)
            pole[0] = 1.0
            self.pole = pole
        else:
            self.pole = np.asarray(self.pole, dtype=float)
            nrm = np.linalg.norm(self.pole)
            if not np.isfinite(nrm) or nrm == 0.0:
                raise SpectralError("pole direction must be a nonzero vector")
            self.pole = self.pole / nrm

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, spectrum: BandSpectrum, pole=None) -> "SphereField":
        return cls(
            spectrum,
            np.zeros(spectrum.n + 1),
            np.zeros(spectrum.L - 1),
            pole=pole,
        )

    @classmethod
    def zonal_band(cls, spectrum: BandSpectrum, ell: int, coeff: float) -> "SphereField":
        """coeff Z_ell about the default pole e_1."""
        if ell < 2 or ell > spectrum.L:
            raise SpectralError(f"zonal_band requires 2 <= ell <= L, got {ell}")
        f = cls.zeros(spectrum)
        f.zonal[ell - 2] = coeff
        return f

    def copy(self) -> "SphereField":
        return SphereField(self.spectrum, self.low.copy(), self.zonal.copy(), self.pole.copy())

    # -- evaluation -------------------------------------------------------------

    def eval_meridian(self, t: np.ndarray, transverse: float | np.ndarray):
        """Evaluate along the meridian theta(t) = t q + sqrt(1-t^2) m.

        transverse is the component low[1:] . m of the linear band along the
        meridian normal m; the zonal part depends on t only.
        """
        t = np.asarray(t, dtype=float)
        axial = float(self.low[1:] @ self.pole)
        vals = self.low[0] + axial * t + np.sqrt(np.clip(1 - t * t, 0, None)) * transverse
        n = self.spectrum.n
        for k, c in enumerate(self.zonal):
            if c != 0.0:
                vals = vals + c * zonal_eval(n, k + 2, t)
        return vals

    # -- algebra ------------------------------------------------------------------

    def _check_compatible(self, other: "SphereField"):
        if self.spectrum.n != other.spectrum.n or self.spectrum.L != other.spectrum.L:
            raise SpectralError("sphere fields live on different spectra")
        if not np.allclose(self.pole, other.pole, atol=1e-14):
            raise SpectralError("sphere fields have different poles")

    def __add__(self, other: "SphereField") -> "SphereField":
        self._check_compatible(other)
        return SphereField(self.spectrum, self.low + other.low, self.zonal + other.zonal, self.pole)

    def __sub__(self, other: "SphereField") -> "SphereField":
        self._check_compatible(other)
        return SphereField(self.spectrum, self.low - other.low, self.zonal - other.zonal, self.pole)

    def __mul__(self, a: float) -> "SphereField":
        return SphereField(self.spectrum, a * self.low, a * self.zonal, self.pole)

    __rmul__ = __mul__

    def band_multiply(self, multipliers: np.ndarray) -> "SphereField":
        """Apply a per-band multiplier m_l (length L+1)."""
        low = self.low.copy()
        low[0] *= multipliers[0]
        low[1:] *= multipliers[1]
        return SphereField(self.spectrum, low, self.zonal * multipliers[2:], self.pole)

    # -- norms ---------------------------------------------------------------------

    def holder_norm(self) -> float:
        """Surrogate C^{2,1/2} norm: sup |f| + sup |grad f| + sup |Lap f|
        plus an adjacent-node Hoelder quotient of Lap f along the meridian."""
        spec = self.spectrum
        grid = angular_grid(spec)
        t = grid.t
        a = self.low[1:]
        q = self.pole
        a_perp = a - (a @ q) * q
        pa = np.linalg.norm(a_perp)
        total = 0.0
        for sgn in (1.0, -1.0):
            f = self.eval_meridian(t, transverse=sgn * pa)
            # zonal derivative g'(t); |grad f|^2 = |P a|^2 + 2 g' (a.q - (a.th)(q.th)) + g'^2 (1-t^2)
            gp = np.zeros_like(t)
            for k, c in enumerate(self.zonal):
                if c != 0.0:
                    gp += c * grid.Zp[k + 2]
            a_dot_th = (a @ q) * t + sgn * pa * np.sqrt(np.clip(1 - t * t, 0, None))
            pa2 = float(a @ a) - a_dot_th**2
            grad2 = np.clip(pa2, 0, None) + 2 * gp * ((a @ q) - a_dot_th * t) + gp * gp * (1 - t * t)
            lap = -spec.lam[1] * a_dot_th
            for k, c in enumerate(self.zonal):
                if c != 0.0:
                    lap = lap - spec.lam[k + 2] * c * grid.Z[k + 2]
            arc = np.abs(np.arccos(np.clip(t[1:], -1, 1)) - np.arccos(np.clip(t[:-1], -1, 1)))
            quot = np.abs(np.diff(lap)) / np.maximum(arc, 1e-300) ** 0.5
            total = max(
                total,
                float(np.max(np.abs(f)) + np.max(np.sqrt(np.clip(grad2, 0, None))) + np.max(np.abs(lap)) + (np.max(quot) if len(quot) else 0.0)),
            )
        return total


_ANGULAR_GRIDS: dict = {}


def angular_grid(spectrum: BandSpectrum) -> ZonalGrid:
    """The ZonalGrid(n, L, max(48, 4 L)) on which the band fields of a
    spectrum are collocated and normed, built once per (n, L)."""
    key = (spectrum.n, spectrum.L)
    if key not in _ANGULAR_GRIDS:
        _ANGULAR_GRIDS[key] = ZonalGrid(spectrum.n, spectrum.L, max(48, 4 * spectrum.L))
    return _ANGULAR_GRIDS[key]


# -- the three spec operations -------------------------------------------------


def project_low(f: SphereField) -> SphereField:
    """Keep only the constant and linear bands (l = 0, 1)."""
    return SphereField(f.spectrum, f.low.copy(), np.zeros_like(f.zonal), f.pole)


def project_high(f: SphereField) -> SphereField:
    """Zero the constant and linear bands; keep l >= 2."""
    return SphereField(f.spectrum, np.zeros_like(f.low), f.zonal.copy(), f.pole)


def dtheta_multipliers(spectrum: BandSpectrum) -> np.ndarray:
    """Band multipliers gamma_l - (n-2)/2 of the boundary operator."""
    return spectrum.gamma - (spectrum.n - 2.0) / 2.0


def apply_Dtheta(f: SphereField) -> SphereField:
    """Per-band multiplication by gamma_l - (n-2)/2.

    This is the multiplier that turns the value trace of the decaying
    band-l extension e^{-gamma_l (s - S)} into (minus) its slope trace:
    d/ds trace = -(n-2)/2 f - apply_Dtheta(f) in coefficients.
    """
    return f.band_multiply(dtheta_multipliers(f.spectrum))
