import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from lexres.modp import DEFAULT_PRIME, rank_mod


def rank_over_rationals(A):
    from fractions import Fraction

    M = [[Fraction(int(x)) for x in row] for row in A]
    m, n = len(M), len(M[0])
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        for i in range(r + 1, m):
            f = M[i][c] * inv
            M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
    return r


def test_rank_reference_vs_rationals():
    rng = np.random.default_rng(1)
    for _ in range(15):
        m, n = rng.integers(2, 20, size=2)
        r = int(rng.integers(1, min(m, n) + 1))
        B = rng.integers(-4, 5, size=(m, r))
        C = rng.integers(-4, 5, size=(r, n))
        A = B @ C
        want = rank_over_rationals(A)
        # a rank drop mod p is possible in theory but not with entries this small
        assert rank_mod(A) == want


def test_blocked_rank_matches_reference():
    # dense products of rank r: B has residues up to p, C entries in {-1, 0, 1},
    # so B @ C is exact in int64 before it is reduced mod p
    rng = np.random.default_rng(2)
    for m, n, r in [(300, 200, 150), (200, 300, 199), (260, 260, 100), (513, 400, 380)]:
        B = rng.integers(0, DEFAULT_PRIME, size=(m, r), dtype=np.int64)
        C = rng.integers(-1, 2, size=(r, n), dtype=np.int64)
        A = B @ C % DEFAULT_PRIME
        assert rank_mod(A) == support.rank_mod_loop(A) == r


def test_rank_structured_matrices():
    rng = np.random.default_rng(3)
    Z = np.zeros((250, 300), dtype=np.int64)
    assert rank_mod(Z) == 0
    A = np.zeros((400, 400), dtype=np.int64)
    A[:200, :200] = rng.integers(0, DEFAULT_PRIME, (200, 200))
    A[250:, 250:] = A[:150, :150]
    assert rank_mod(A) == support.rank_mod_loop(A)
    # duplicated rows and zero columns
    B = rng.integers(0, DEFAULT_PRIME, size=(150, 260), dtype=np.int64)
    B[60:120] = B[0:60]
    B[:, 100:140] = 0
    assert rank_mod(B) == support.rank_mod_loop(B)


def test_rank_identity_and_edges():
    eye = np.eye(300, dtype=np.int64)
    assert rank_mod(eye) == 300
    assert rank_mod(np.zeros((0, 5), dtype=np.int64)) == 0
    assert rank_mod(np.zeros((5, 0), dtype=np.int64)) == 0
    one = np.array([[DEFAULT_PRIME]], dtype=np.int64)  # p = 0 mod p
    assert rank_mod(one) == 0


@st.composite
def _sparse_matrices(draw):
    """Integer matrices up to 40 x 40 with a few nonzero entries per row
    (small, negative, or near p), then some rows copied over others and
    some columns zeroed."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    values = st.one_of(st.integers(-3, 3), st.integers(DEFAULT_PRIME - 3, DEFAULT_PRIME + 3))
    entries = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), values),
                            max_size=3 * max(m, n)))
    A = np.zeros((m, n), dtype=np.int64)
    for r, c, v in entries:
        A[r, c] = v
    for dst, src in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=4)):
        A[dst] = A[src]
    A[:, draw(st.lists(st.integers(0, n - 1), max_size=4))] = 0
    return A


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(A=_sparse_matrices())
@example(A=np.array([[1, 1]]))  # one row: used as a pivot once only
@example(A=np.array([[1, 1], [1, 0]]))  # fill-in where only the pivot row is nonzero
def test_sparse_rank_matches_loop(A):
    assert rank_mod(A) == support.rank_mod_loop(A)
