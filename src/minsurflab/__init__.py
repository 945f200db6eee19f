"""Desk-scale numerical laboratory for glued minimal hypersurfaces in R^{n+1}.

Builds catenoid profile tables, band-spectral Jacobi solvers on cylinders
and annuli, the Green's-function neck opening, the three-piece Cauchy-data
fixed point that glues a half-catenoid to a planar end, and end-stacking
towers; verifies residuals, embeddedness, chord-arc constants, stability,
and the separation-function PDE with independent oracles.
"""

__version__ = "0.1.0"
