"""References for the delta-stability quotient of verify.

fields_by_hat_loop is the test family that set each hat column one node at
a time, in a loop over the hat nodes and their 3 x 3 stencils;
gradient_energy_by_column takes the energy one column at a time; and
delta_stability_loops is the delta_stability built from the two.  The
tests compare the shipped _stability_fields and delta_stability against
them for equality.
"""

import numpy as np

from minsurflab.spectral import sphere_area
from minsurflab.verify import _first_form


def gradient_energy_by_column(P, n, vecs):
    """Q(phi) = int |grad phi|^2 dA for each column of vecs, one at a time."""
    Na, Nb = P.shape[1], P.shape[2]
    E, F, G, det, vol = _first_form(P, n)
    dA = vol * sphere_area(n - 1)
    out = np.empty(vecs.shape[1])
    for c in range(vecs.shape[1]):
        phi = vecs[:, c].reshape(Na, Nb)
        pa = np.gradient(phi, axis=0)
        pb = np.gradient(phi, axis=1)
        grad2 = (G * pa**2 - 2 * F * pa * pb + E * pb**2) / det
        out[c] = np.sum(grad2 * dA)
    return out, dA


def fields_by_hat_loop(Na, Nb):
    """The test family of delta_stability, one hat node at a time."""
    n_random = 40
    N = Na * Nb
    interior = np.zeros((Na, Nb), dtype=bool)
    interior[2:-2, 2:-2] = True
    ii = np.where(interior.ravel())[0]
    rng = np.random.default_rng(0)
    n_hat = min(ii.size, 240)
    hat_nodes = ii[np.linspace(0, ii.size - 1, n_hat).astype(int)]
    vecs = np.zeros((N, n_hat + n_random))
    for c, node in enumerate(hat_nodes):
        v = np.zeros(N)
        v[node] = 1.0
        i, j = divmod(node, Nb)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                v[(i + di) * Nb + (j + dj)] = max(0.0, 1.0 - 0.5 * (abs(di) + abs(dj)))
        vecs[:, c] = v
    ia = np.arange(Na)[:, None] / (Na - 1.0)
    jb = np.arange(Nb)[None, :] / (Nb - 1.0)
    window = np.sin(np.pi * ia) ** 2 * np.ones_like(jb)
    caps = []
    for frac in (0.25, 0.4, 0.55, 0.7, 0.85, 1.0):
        cap = np.cos(np.pi * (ia - 0.5) / frac) ** 2 * (np.abs(ia - 0.5) < frac / 2.0)
        cap = cap * np.ones_like(jb)
        cap[~interior] = 0.0
        caps.append(cap.ravel())
    for c in range(n_random):
        if c < len(caps):
            vecs[:, n_hat + c] = caps[c]
            continue
        field_c = np.zeros((Na, Nb))
        for _ in range(4):
            ka, kb = rng.integers(0, 3, size=2)
            pa, pb = rng.uniform(0, np.pi, size=2)
            field_c += rng.standard_normal() * np.cos(ka * np.pi * ia + pa) * np.cos(
                kb * np.pi * jb + pb
            )
        field_c = field_c * window
        field_c[~interior] = 0.0
        vecs[:, n_hat + c] = field_c.ravel()
    return vecs


def delta_stability_loops(P, A2, n, delta):
    """(min_quotient, stable) of delta_stability, built column by column."""
    vecs = fields_by_hat_loop(P.shape[1], P.shape[2])
    grad_en, dA = gradient_energy_by_column(P, n, vecs)
    mass_A = np.einsum("nc,n,nc->c", vecs, (dA * A2).ravel(), vecs)
    mass = np.einsum("nc,n,nc->c", vecs, dA.ravel(), vecs)
    quotients = (grad_en - (1.0 - delta) * mass_A) / np.maximum(mass, 1e-300)
    min_q = float(np.min(quotients))
    scale = max(1.0, float(np.max(np.abs(grad_en))) / max(float(np.max(mass)), 1e-300))
    return min_q, bool(min_q >= -1e-8 * scale)
