"""How far the profile table reaches the glue.

The glue reads the table only through psi_infinity, its analytic tail at the
table's far end, and compute_scales, which takes its values from
profile_values at the cut; the pieces integrate the profile on their own
grids.  So a seed built from a longer, a finer or a shorter table glues
with the same matching history bit for bit, and its plane heights move
only by psi_infinity's tail.
"""

import numpy as np
import pytest

from minsurflab.gluing import glue_end
from minsurflab.outer import seed_catenoid
from minsurflab.profile import solve_profile


@pytest.mark.parametrize("s_max, step", [(20.0, 8e-3), (16.0, 4e-3), (12.0, 8e-3)])
def test_glue_is_the_same_from_every_table_that_holds_the_tail(spectrum, glued_surface,
                                                              s_max, step):
    # the conftest glue, n=3 and eps=1e-6 on the scale-1 seed of the
    # (16, 8e-3) table; the planes measured within 1.1e-9 r_eps^2
    glued = glue_end(seed_catenoid(solve_profile(3, s_max, step), spectrum, scale=1.0), 1e-6)
    assert glued.info["history"] == glued_surface.info["history"]
    planes = [e.plane_height for e in glued.outer.ends]
    reference = [e.plane_height for e in glued_surface.outer.ends]
    r2 = glued_surface.catenoid_piece.scales.r_eps ** 2
    assert np.max(np.abs(np.subtract(planes, reference))) <= 1e-8 * r2
