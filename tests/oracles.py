"""Enumeration oracles shared by the test modules."""

import numpy as np


def axis_counts(geo, block=4096):
    """Points of the variety on the axis of every pencil of geo.planes: the
    popcount of the AND of its first two members' incidence rows of geo.Z,
    a block of pencils at a time."""
    out = np.empty(len(geo.planes), dtype=np.int64)
    for a in range(0, len(out), block):
        p = geo.planes[a : a + block]
        rows = geo.Z[p[:, 0]] & geo.Z[p[:, 1]]
        out[a : a + block] = np.bitwise_count(rows).sum(axis=1)
    return out
