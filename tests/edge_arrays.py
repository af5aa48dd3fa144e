"""Test-side conversions between ``{(u, v): weight}`` dicts and edge arrays."""

import numpy as np

from twosfgl.data import EDGE_DTYPE


def edge_array(mapping):
    """EDGE_DTYPE rows of a ``{(u, v): weight}`` dict, sorted by key.

    Keys are taken as given, so a non-canonical key stays non-canonical.
    """
    return np.array([(u, v, w) for (u, v), w in sorted(mapping.items())],
                    dtype=EDGE_DTYPE).view(np.recarray)


def edge_dict(edges, values=None):
    """``{(u, v): weight}`` in row order, or ``{(u, v): value}`` for a
    row-aligned ``values`` array such as a fused graph's ``edge_origins``."""
    keys = list(zip(edges.u.tolist(), edges.v.tolist()))
    return dict(zip(keys, (edges.weight if values is None else values).tolist()))
