"""Exact rank of a sparse integer matrix modulo a word-size prime.

rank_mod is the rank check's fallback for evaluated differentials, whose
entries are +-x_j at a point: a column of d_i has at most 2i nonzero
entries.  Each pivot therefore updates only the rows that are nonzero in
its column and the columns that are nonzero in its row.  On dense random
matrices this is several times slower than a blocked elimination would be,
but no caller produces them.  Products of two residues are formed in int64,
which is exact only for a prime p < 2^31.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PRIME = 2**31 - 1


def rank_mod(M) -> int:
    """Rank of an integer matrix mod DEFAULT_PRIME, by row reduction: each
    column's pivot is its first nonzero row not yet used as a pivot."""
    p = DEFAULT_PRIME
    A = np.array(M, dtype=np.int64) % p
    live = np.ones(A.shape[0], dtype=bool)  # rows not yet used as pivots
    for c in range(A.shape[1]):
        rows = np.flatnonzero(live & (A[:, c] != 0))
        if not len(rows):
            continue
        r, rows = rows[0], rows[1:]
        live[r] = False
        cols = c + 1 + np.flatnonzero(A[r, c + 1 :])
        if len(rows) and len(cols):
            mult = A[rows, c] * pow(int(A[r, c]), p - 2, p) % p
            block = np.ix_(rows, cols)
            A[block] = (A[block] - mult[:, None] * A[r, cols]) % p
    return A.shape[0] - int(live.sum())
