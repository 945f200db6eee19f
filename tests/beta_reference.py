"""ZonalGrid.d_beta on fresh buffers.

d_beta writes into the buffers its caller hands it.  The tests that check
its values, and the whole-chart reference forms, call it through d_beta
here, which allocates a new set of buffers for every call.
"""

import numpy as np


def d_beta(grid, values, parity, deriv=1):
    """grid.d_beta(values, parity, orders) on buffers made for this call,
    where deriv is a tuple of orders, or one order: then the call returns
    its one derivative rather than a tuple."""
    lead, m = np.shape(values)[:-1], np.shape(values)[-1]
    orders = (deriv,) if isinstance(deriv, int) else deriv
    spec = np.empty(lead + (m + 1,), dtype=complex)
    outs = [np.empty(lead + (2 * m,)) for _ in orders]
    buffers = (np.empty(lead + (2 * m,)), spec, np.empty_like(spec), *outs)
    out = grid.d_beta(values, parity, orders, buffers=buffers)
    return out[0] if isinstance(deriv, int) else out
