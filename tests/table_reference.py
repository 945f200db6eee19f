"""References for the end table, the Green's-table read and the profile CSV.

five_spline_table is outer._end_splines as it held one not-a-knot spline per
profile row: phi, phi', psi and psi' each a spline of s of its own, beside
s(log phi).  end_height_profile and upper_branch_height are
EndModel.height_profile and verify._upper_branch_height read through it,
one spline and one interval search per row.  green_two_reads is the
GreenTable read that built the interpolation matrix once for gamma_0 and
again for its derivative, and profile_csv is the ProfileTable.to_csv layout
that profile.csv had.  The tests compare the package against them for
equality.
"""

import io

import numpy as np

from minsurflab.diffops import NotAKnotSpline
from minsurflab.profile import profile_values


def five_spline_table(n: int) -> dict:
    s = np.linspace(0.0, 26.0, 9000)
    phi, dphi, psi, dpsi = profile_values(n, s)
    return {
        "s_of_logphi": NotAKnotSpline(np.log(phi[1:]), s[1:]),
        "phi": NotAKnotSpline(s, phi),
        "dphi": NotAKnotSpline(s, dphi),
        "psi": NotAKnotSpline(s, psi),
        "dpsi": NotAKnotSpline(s, dpsi),
        "psi_inf": psi[-1] + phi[-1] ** (2 - n) / (n - 2),
        "logphi_max": float(np.log(phi[-1])),
    }


def end_height_profile(sp: dict, end, n: int, R):
    R = np.atleast_1d(np.asarray(R, dtype=float))
    s = sp["s_of_logphi"](np.log(R / end.a))
    phi = sp["phi"](s)
    dphi = sp["dphi"](s)
    psi = sp["psi"](s)
    dpsi = sp["dpsi"](s)
    h = end.a * (sp["psi_inf"] - psi)
    g = -dpsi / dphi
    if end.w is not None:
        wg = end.w.grid
        sw = np.clip(s, wg.s[0], wg.s[-1])
        idx = np.minimum(((sw - wg.s[0]) / wg.step).astype(int), wg.m - 1)
        conj = phi ** ((2 - n) / 2.0)
        h = h + conj * end.w.values[0][idx] * (-dphi / phi)
    return h, g


def upper_branch_height(sp: dict, sc, radii):
    target = np.log(np.asarray(radii) / sc.eps_len)
    s = sp["s_of_logphi"](np.clip(target, 1e-9, sp["logphi_max"]))
    psi = sp["psi"](s)
    psic = sp["psi"](abs(sc.s_eps))
    return sc.eps_len * (psi - (-psic))


def green_two_reads(green, r):
    gam = green.grid.interp_matrix(r) @ green.values
    drho = green.grid.D @ green.values
    return gam, (green.grid.interp_matrix(r) @ drho) / np.asarray(r, dtype=float)


def profile_csv(table) -> str:
    buf = io.StringIO()
    buf.write("s,phi,psi,dphi,dpsi\n")
    for row in zip(table.s, table.phi, table.psi, table.dphi, table.dpsi):
        buf.write(",".join(format(v, ".17g") for v in row) + "\n")
    return buf.getvalue()
