"""Eigenstructure of the sphere Laplacian and band projections.

Every glue is zonal about the first coordinate axis e_1, so fields on
S^{n-1} are stored with one zonal coefficient per band: entry l of a
SphereField is the coefficient of band l, and the zonal basis function Z_l
is the Gegenbauer polynomial C_l^{(n-2)/2} in t = e_1 . theta, normalized
to Z_l(1) = 1 (Z_0 = 1, Z_1 = t).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def band_spectrum(n: int, L: int) -> BandSpectrum:
    """Spectrum of -Delta_{S^{n-1}} restricted to bands l <= L.

    lam_l = l(l + n - 2); gamma_l = sqrt(lam_l + ((n-2)/2)^2) is the
    exponential rate of the homogeneous band solutions on the cylinder.
    """
    if n < 3:
        raise SpectralError(f"ambient-minus-one dimension n={n} must be >= 3")
    if L < 2:
        raise SpectralError(f"band limit L={L} must be >= 2")
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
    exact, and the degeneracies of the orbit coordinates at beta = 0 and pi
    are avoided.
    """

    def __init__(self, n: int, L: int, n_nodes: int):
        if n_nodes < 2 * L + n:
            n_nodes = 2 * L + n
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
        # d_beta's spectral multipliers for wavenumbers 0..m of the 2m-point
        # even/odd extension
        k = np.fft.rfftfreq(2 * m) * 2 * m
        self._ik = 1j * k
        self._minus_k2 = -(k**2)

    def to_bands(self, values: np.ndarray) -> np.ndarray:
        """Zonal band coefficients 0..L from values on the beta nodes.

        Weighted least-squares in the zonal measure; exact whenever the
        sample is a polynomial of degree <= L in t.  The beta axis is last.
        """
        return np.asarray(values) @ self._proj.T

    def d_beta(self, values: np.ndarray, parity: float | np.ndarray,
               deriv: int | tuple = 1, *, buffers: tuple) -> np.ndarray | tuple:
        """Exact trig differentiation d/d beta along the last axis, which
        holds the samples on the grid's beta nodes.

        parity +1 extends the sample evenly across beta = 0 and pi, -1 oddly;
        chart components are even (heights, axial parts) or odd (rho).
        parity may also be an array of +-1 that broadcasts against values,
        e.g. shape (3, 1, 1) for the three components of one orbit chart
        block; each row's result is the same as with its scalar parity.
        deriv is 1, 2 or a tuple of them: a tuple returns one derivative per
        entry, each the same as its own call.  A call takes one forward real
        FFT of the 2m-point extension and one inverse FFT per derivative.

        buffers is (ext, spec, spec_d, out_1, ...): the 2m-point extension,
        its spectrum and the multiplied spectrum (complex, m + 1
        wavenumbers), and one 2m-point array per derivative, each with the
        leading shape of values.  The call writes each of its arrays into
        them with out= and returns views [..., :m] of the out arrays.
        """
        orders = (deriv,) if isinstance(deriv, int) else deriv
        if any(d not in (1, 2) for d in orders):
            raise SpectralError("deriv must be 1 or 2")
        v = np.asarray(values, dtype=float)
        m = v.shape[-1]
        ext, spec, spec_d, *outs = buffers
        ext[..., :m] = v
        np.multiply(parity, v[..., ::-1], out=ext[..., m:])
        np.fft.rfft(ext, axis=-1, out=spec)
        out = []
        for d, into in zip(orders, outs, strict=True):
            if d == 1:
                np.multiply(spec, self._ik, out=spec_d)
                spec_d[..., -1] = 0.0  # Nyquist mode has no odd-derivative sample
            else:
                np.multiply(spec, self._minus_k2, out=spec_d)
            out.append(np.fft.irfft(spec_d, n=2 * m, axis=-1, out=into)[..., :m])
        return out[0] if isinstance(deriv, int) else tuple(out)


@dataclass
class SphereField:
    """Band-limited zonal function on S^{n-1}: f = sum_l c[l] Z_l, so c[0]
    is the constant, c[1] the axial linear coefficient and c[l] the
    coefficient of Z_l, l = 0..L."""

    spectrum: BandSpectrum
    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.spectrum.L + 1,):
            raise SpectralError(f"coefficients must have shape ({self.spectrum.L + 1},)")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, spectrum: BandSpectrum) -> "SphereField":
        return cls(spectrum, np.zeros(spectrum.L + 1))

    @classmethod
    def zonal_band(cls, spectrum: BandSpectrum, ell: int, coeff: float) -> "SphereField":
        """coeff Z_ell."""
        if ell < 2 or ell > spectrum.L:
            raise SpectralError(f"zonal_band requires 2 <= ell <= L, got {ell}")
        f = cls.zeros(spectrum)
        f.c[ell] = coeff
        return f

    def copy(self) -> "SphereField":
        return SphereField(self.spectrum, self.c.copy())

    # -- algebra ------------------------------------------------------------------

    def _check_compatible(self, other: "SphereField"):
        if self.spectrum.n != other.spectrum.n or self.spectrum.L != other.spectrum.L:
            raise SpectralError("sphere fields live on different spectra")

    def __add__(self, other: "SphereField") -> "SphereField":
        self._check_compatible(other)
        return SphereField(self.spectrum, self.c + other.c)

    def __sub__(self, other: "SphereField") -> "SphereField":
        self._check_compatible(other)
        return SphereField(self.spectrum, self.c - other.c)

    def __mul__(self, a: float) -> "SphereField":
        return SphereField(self.spectrum, a * self.c)

    __rmul__ = __mul__

    def band_multiply(self, multipliers: np.ndarray) -> "SphereField":
        """Apply a per-band multiplier m_l (length L+1)."""
        return SphereField(self.spectrum, self.c * multipliers)

    # -- norms ---------------------------------------------------------------------

    def holder_norm(self) -> float:
        """Surrogate C^{2,1/2} norm: sup |f| + sup |grad f| + sup |Lap f|
        plus a Hoelder quotient of Lap f along the meridian.

        The quotient compares adjacent nodes only, so for a smooth field it
        is about |(Lap f)'| arc^{1/2} and falls like m^(-1/2) as the grid's m
        nodes are refined (ROADMAP item 12): it is not the C^{0,1/2}
        seminorm it stands for.  The bench's mismatch_r2_max, the glue's
        matching tolerance and its working ball all read this norm."""
        spec = self.spectrum
        grid = angular_grid(spec)
        t = grid.t
        a = self.c[1]
        f = self.c[0] + a * t
        # zonal derivative g'(t); |grad f|^2 = |a|^2 - (a t)^2 + 2 g' (a - (a t) t) + g'^2 (1-t^2)
        gp = np.zeros_like(t)
        for ell in range(2, spec.L + 1):
            if self.c[ell] != 0.0:
                f = f + self.c[ell] * grid.Z[ell]
                gp += self.c[ell] * grid.Zp[ell]
        a_dot_th = a * t
        pa2 = a * a - a_dot_th**2
        grad2 = np.clip(pa2, 0, None) + 2 * gp * (a - a_dot_th * t) + gp * gp * (1 - t * t)
        lap = -spec.lam[1] * a_dot_th
        for ell in range(2, spec.L + 1):
            if self.c[ell] != 0.0:
                lap = lap - spec.lam[ell] * self.c[ell] * grid.Z[ell]
        arc = np.abs(np.arccos(np.clip(t[1:], -1, 1)) - np.arccos(np.clip(t[:-1], -1, 1)))
        quot = np.abs(np.diff(lap)) / np.maximum(arc, 1e-300) ** 0.5
        return float(
            np.max(np.abs(f)) + np.max(np.sqrt(np.clip(grad2, 0, None))) + np.max(np.abs(lap))
            + (np.max(quot) if len(quot) else 0.0)
        )


_ANGULAR_GRIDS: dict = {}


def angular_grid(spectrum: BandSpectrum) -> ZonalGrid:
    """The ZonalGrid(n, L, max(48, 4 L)) on which the band fields of a
    spectrum are collocated and normed, built once per (n, L)."""
    key = (spectrum.n, spectrum.L)
    if key not in _ANGULAR_GRIDS:
        _ANGULAR_GRIDS[key] = ZonalGrid(spectrum.n, spectrum.L, max(48, 4 * spectrum.L))
    return _ANGULAR_GRIDS[key]


# -- band projections and the boundary operator --------------------------------


def project_high(f: SphereField) -> SphereField:
    """Zero the constant and linear bands; keep l >= 2."""
    c = f.c.copy()
    c[:2] = 0.0
    return SphereField(f.spectrum, c)


def has_low_modes(f: SphereField) -> bool:
    """Whether the constant and linear coefficients of f exceed roundoff:
    |c_0| + |c_1| above 1e-12 max(1, sum_l |c_l|).  The coefficient sum
    bounds sup |f|, since |Z_l| <= 1 on the sphere."""
    c = np.abs(f.c)
    return c[0] + c[1] > 1e-12 * max(1.0, float(c.sum()))


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
