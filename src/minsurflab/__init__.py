"""Desk-scale numerical laboratory for glued minimal hypersurfaces in R^{n+1}.

Builds catenoid profile tables, band-spectral Jacobi solvers on cylinders
and annuli, the Green's-function neck opening, the three-piece Cauchy-data
fixed point that glues a half-catenoid to a planar end, and end-stacking
towers; verifies residuals, embeddedness, chord-arc constants, stability,
and the separation-function PDE with independent oracles.
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    BandSpectrum,
    SphereField,
    ZonalGrid,
    apply_Dtheta,
    band_spectrum,
    project_high,
    project_low,
)
from .profile import (  # noqa: F401
    ProfileTable,
    Scales,
    compute_scales,
    solve_profile,
)
from .cylinder import BandField, UniformGrid, norm_exp  # noqa: F401
from .catenoid import (  # noqa: F401
    CatenoidPiece,
    apply_Lcal,
    build_catenoid_piece,
    cauchy_maps_catenoid,
    solve_GS,
    solve_PS,
)
from .neck import (  # noqa: F401
    GraphPatch,
    GreenTable,
    NeckPiece,
    RigidParams,
    build_neck_piece,
    cauchy_T,
    green_function,
    mean_curvature_graph,
    poisson_neck,
)
from .outer import (  # noqa: F401
    EndModel,
    OuterSurface,
    assemble_outer,
    nondegeneracy_check,
    seed_catenoid,
    solve_outer_nonlinear,
)
from .gluing import (  # noqa: F401
    BoundaryTriple,
    GluedSurface,
    TowerReport,
    conglomerate_C,
    fixed_point_glue,
    glue_end,
    stack_tower,
)
from .verify import (  # noqa: F401
    ChartSampleGraph,
    StabilityReport,
    chord_arc,
    delta_stability,
    embeddedness,
    graphical_radius,
    mc_residual,
    second_fund,
    separation_check,
)
from .cli import RunConfig, run  # noqa: F401
