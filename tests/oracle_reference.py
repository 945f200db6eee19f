"""Reference for the catenoid piece's oracle.

oracle_residual_whole is the catenoid._oracle_residual that resampled every
band row on the offset grid at once, took their collocation values whole,
and held the whole H before it took sup |H|.  Only the surface points were
built block by block.  The tests compare the streamed oracle against it for
equality.
"""

import numpy as np

from minsurflab.catenoid import _NeckGeometry
from minsurflab.cylinder import collocation_from_rows
from minsurflab.diffops import NotAKnotSpline
from minsurflab.geometry import uniform_surface


def oracle_residual_whole(n, grid, scales, w) -> float:
    s = w.grid.s
    h = w.grid.step
    s_fine = (s[0] + 0.37 * h) + (h / 2.0) * np.arange(2 * (s.size - 4))
    s_fine = s_fine[s_fine <= s[-1] - 2 * h]
    rows_fine = NotAKnotSpline(s, w.values)(s_fine)
    geo_f = _NeckGeometry(n, s_fine, grid, scales.eps_len)
    w_hat = collocation_from_rows(rows_fine, grid) / scales.eps_len

    def points(lo, hi):
        return geo_f.surface_points(w_hat[lo:hi], lo, hi)

    H = uniform_surface(points, grid, h / 2.0, order=4, rows=s_fine.size).mean_curvature(n)
    return float(np.max(np.abs(H[4:-4])))
