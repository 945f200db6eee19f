import numpy as np
import pytest

from minsurflab.profile import solve_profile
from minsurflab.spectral import ZonalGrid, band_spectrum

N_DIM = 3
L_CUT = 8


@pytest.fixture(scope="session")
def spectrum():
    return band_spectrum(N_DIM, L_CUT)


@pytest.fixture(scope="session")
def profile():
    return solve_profile(N_DIM, 16.0, 8e-3)


@pytest.fixture(scope="session")
def zgrid(spectrum):
    return ZonalGrid(N_DIM, L_CUT, 48)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def glued_surface(spectrum, profile):
    """The n=3, eps=1e-6 glue on the scale-1 seed; glue_end never changes
    its input, so the tests share one."""
    from minsurflab.gluing import glue_end
    from minsurflab.outer import seed_catenoid

    return glue_end(seed_catenoid(profile, spectrum, scale=1.0), 1e-6)
