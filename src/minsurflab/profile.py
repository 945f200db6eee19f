"""Catenoid profile ODE and the gluing scale parameters.

The n-catenoid is parametrized conformally over the cylinder,
X0(s, theta) = (phi(s) theta, psi(s)), with

    psi' = phi^(2-n),   phi(0) = 1,  psi(0) = 0,
    (phi')^2 + phi^(4-2n) = phi^2.

The first integral (in the normalized form (phi'/phi)^2 + phi^(2-2n) = 1)
is conserved exactly along solutions and serves as the integrator's
independent error monitor.

The profile has closed forms: x = phi^(n-1) solves x' = (n-1) sqrt(x^2 - 1),
so phi(s) = cosh((n-1) s)^(1/(n-1)) and A_asym = 2^(-1/(n-1)); with
a = (n-2)/(2(n-1)),

    psi(s) = B(a, 1/2) (1 - I_{sech^2((n-1) s)}(a, 1/2)) / (2(n-1))  (s >= 0),
    psi_inf = B(a, 1/2) / (2(n-1)),

B the beta function and I the regularized incomplete beta function.  For
n = 3..7, solve_profile(n, 16, 8e-3) agrees with them to 1.3e-12 relative
in phi, 1.0e-12 in A_asym, 1.9e-12 of psi_inf in psi, and 6.3e-13 in
psi_inf (tests/test_profile.py holds all four to 1e-11).  The tables are
still integrated, since the stored bench reference holds the integrator's
bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


class ProfileError(ValueError):
    """Raised when the profile integration violates its contract."""


class ScaleError(ValueError):
    """Raised for inadmissible gluing parameters."""


FIRST_INTEGRAL_TOL = 1e-10

# the largest RK4 substep of a profile integration
MAX_SUBSTEP = 1e-3


def integrate_profile(n: int, s_nodes: np.ndarray, max_substep: float):
    """RK4 integration of (phi, phi', psi) onto arbitrary nonnegative nodes.

    Integrates upward from s = 0 with internal substeps no larger than
    max_substep; nodes must be sorted and start at a value >= 0.

    The state is three Python floats, so no array is built per stage.  Each
    component sees the IEEE operations of the vector form
    y + h/6 (k1 + 2 k2 + 2 k3 + k4), in that order, with the right-hand
    side (phi', phi + (n-2) phi^(3-2n), phi^(2-n)).  Every operand is a
    float, the integer coefficients and powers included: CPython then takes
    its float-by-float paths, which round the same as the mixed ones, since
    an int operand is converted to the same double first.
    """
    s_nodes = np.asarray(s_nodes, dtype=float)
    if np.any(np.diff(s_nodes) <= 0):
        raise ProfileError("profile nodes must be strictly increasing")
    if s_nodes[0] < 0:
        raise ProfileError("integrate_profile expects nonnegative nodes; use symmetry")
    c = float(n - 2)
    p3 = float(3 - 2 * n)
    p2 = float(2 - n)
    phi, dphi, psi = 1.0, 0.0, 0.0
    out = np.empty((len(s_nodes), 3))
    s = 0.0
    for i, target in enumerate(s_nodes.tolist()):
        span = target - s
        if span > 0:
            m = max(1, math.ceil(span / max_substep))
            h = span / m
            half = 0.5 * h
            sixth = h / 6.0
            for _ in range(m):
                a1 = dphi
                b1 = phi + c * phi**p3
                c1 = phi**p2
                x = phi + half * a1
                a2 = dphi + half * b1
                b2 = x + c * x**p3
                c2 = x**p2
                x = phi + half * a2
                a3 = dphi + half * b2
                b3 = x + c * x**p3
                c3 = x**p2
                x = phi + h * a3
                a4 = dphi + h * b3
                b4 = x + c * x**p3
                c4 = x**p2
                phi = phi + sixth * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
                dphi = dphi + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                psi = psi + sixth * (((c1 + 2.0 * c2) + 2.0 * c3) + c4)
            s = target
        out[i] = (phi, dphi, psi)
    return out


@dataclass(frozen=True)
class ProfileTable:
    """Tabulated catenoid profile on a uniform symmetric s-grid."""

    n: int
    s: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    dphi: np.ndarray
    dpsi: np.ndarray
    A_asym: float

    @property
    def s_max(self) -> float:
        return float(self.s[-1])

    def first_integral_residual(self) -> np.ndarray:
        """Normalized defect |(phi'/phi)^2 + phi^(2-2n) - 1| per node."""
        return np.abs((self.dphi / self.phi) ** 2 + self.phi ** (2 - 2 * self.n) - 1.0)


def profile_values(n: int, s_points: np.ndarray):
    """Exact-symmetry profile samples (phi, dphi, psi, dpsi) at arbitrary s.

    phi is even, psi odd; negative arguments are folded through the symmetry
    so both halves share one upward integration with substeps no larger
    than MAX_SUBSTEP as it stands at the call."""
    s_points = np.asarray(s_points, dtype=float)
    flat = np.abs(s_points).ravel()
    order = np.argsort(flat, kind="stable")
    uniq, inverse = np.unique(flat[order], return_inverse=True)
    nodes = uniq if uniq[0] == 0.0 else np.concatenate([[0.0], uniq])
    vals = integrate_profile(n, nodes, MAX_SUBSTEP)
    if uniq[0] != 0.0:
        vals = vals[1:]
    gathered = np.empty((flat.size, 3))
    gathered[order] = vals[inverse]
    phi = gathered[:, 0].reshape(s_points.shape)
    dphi = gathered[:, 1].reshape(s_points.shape)
    psi = gathered[:, 2].reshape(s_points.shape)
    sign = np.sign(s_points)
    sign = np.where(sign == 0, 1.0, sign)
    dphi = dphi * sign
    psi = psi * sign
    dpsi = phi ** (2 - n)
    return phi, dphi, psi, dpsi


def solve_profile(n: int, s_max: float, step: float) -> ProfileTable:
    """Integrate the profile on the symmetric uniform grid [-s_max, s_max],
    with substeps no larger than MAX_SUBSTEP; a grid step below it spans
    one substep.

    Raises ProfileError (carrying the worst node) if the first-integral
    residual exceeds FIRST_INTEGRAL_TOL anywhere, which signals a step that
    is too coarse, or is not finite; and, before allocating, if phi can
    overflow on [0, s_max] or if the grid's float array would exceed the
    largest array NumPy can make.
    """
    if n < 3:
        raise ProfileError(f"n={n} must be >= 3")
    if s_max <= 0 or step <= 0:
        raise ProfileError("s_max and step must be positive")
    # the first integral gives phi <= e^s
    s_limit = math.log(sys.float_info.max)
    if not s_max < s_limit:
        raise ProfileError(f"s_max={s_max} must be below {s_limit:.2f}, where phi overflows")
    nodes = 2.0 * (s_max / step) + 1.0
    if not nodes * 8.0 <= np.iinfo(np.intp).max:
        raise ProfileError(f"step={step} gives {nodes:.3g} grid nodes, more than an array holds")
    m = int(round(s_max / step))
    if abs(m * step - s_max) > 1e-12 * max(1.0, s_max):
        m = int(np.ceil(s_max / step))
    s = step * np.arange(-m, m + 1)
    phi, dphi, psi, dpsi = profile_values(n, s)
    # asymptotic constant from the last decade of the positive grid
    s_pos, phi_p = s[m:], phi[m:]
    tail = s_pos >= 0.9 * s_pos[-1]
    A = float(np.mean(np.exp(-s_pos[tail]) * phi_p[tail]))
    table = ProfileTable(n=n, s=s, phi=phi, psi=psi, dphi=dphi, dpsi=dpsi, A_asym=A)

    residual = table.first_integral_residual()
    worst = int(np.argmax(residual))
    if not residual[worst] <= FIRST_INTEGRAL_TOL:
        raise ProfileError(
            f"first-integral residual {residual[worst]:.3e} at s={s[worst]:.6f} "
            f"exceeds {FIRST_INTEGRAL_TOL:.0e}; reduce the step"
        )

    fit = np.abs(np.exp(-s_pos) * phi_p / A - 1.0)
    late = s_pos >= 0.8 * s_pos[-1]
    if not np.max(fit[late]) <= 1e-4:
        raise ProfileError(
            f"asymptotic fit defect {np.max(fit[late]):.3e} on the last fifth of the grid; "
            "increase s_max"
        )
    return table


@dataclass(frozen=True)
class Scales:
    """Gluing parameter, the induced cut-off and neck-radius scales, and the
    profile height psi(s_eps) at the cut, taken from the one profile
    integration that gives r_eps."""

    n: int
    eps: float
    s_eps: float
    r_eps: float
    psi_cut: float

    @property
    def eps_len(self) -> float:
        """Ambient scaling factor eps^(1/(n-1)) of the glued catenoid."""
        return self.eps ** (1.0 / (self.n - 1))


def compute_scales(profile: ProfileTable, eps: float) -> Scales:
    """s_eps = log(eps) / ((n-1)(3n-2)), r_eps = eps^(1/(n-1)) phi(s_eps) and
    psi_cut = psi(s_eps).  Refusing |s_eps| > s_max guards no table read
    (profile_values gives the values): it is the lab's eps floor,
    e^{-(n-1)(3n-2) s_max}, about e^{-224} at n = 3 and s_max = 16."""
    n = profile.n
    if not (0.0 < eps < 1.0):
        raise ScaleError(f"eps={eps} must lie in (0, 1)")
    s_eps = np.log(eps) / ((n - 1) * (3 * n - 2))
    if abs(s_eps) > profile.s_max:
        need = abs(s_eps)
        raise ScaleError(
            f"|s_eps|={need:.4f} exceeds the profile grid s_max={profile.s_max:.4f}: eps is "
            f"below the lab's eps floor; rebuild the profile with s_max >= {need * 1.05:.4f}"
        )
    phi_cut, _, psi_cut, _ = profile_values(n, np.array([s_eps]))
    r_eps = eps ** (1.0 / (n - 1)) * float(phi_cut[0])
    return Scales(n=n, eps=float(eps), s_eps=float(s_eps), r_eps=r_eps, psi_cut=float(psi_cut[0]))
