"""Exact matrix layer: rank, kernels, Kronecker products, Jordan types."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restrep.algebra import build_truncated_polynomial
from restrep.fields import FieldError, field
from restrep.hopf import named_structure
from restrep.matrices import (FieldMismatch, JordanType, Matrix, NotNilpotent, _exact_float,
                              _ladder_chain, _step_chain, nilpotent_jordan_type, rank_chain)
from restrep.modules import jordan_block_module, tensor

FIELDS = [field(2), field(3), field(7), field(2, 2), field(3, 2)]


def test_rank_examples():
    F3 = field(3)
    assert Matrix.zeros(F3, 3).rank() == 0
    assert Matrix.jordan_block(F3, 3).rank() == 2
    assert Matrix.identity(F3, 5).rank() == 5


def test_rank_nullity_on_random_matrices():
    rng = random.Random(11)
    for F in FIELDS:
        for _ in range(25):
            m = Matrix.random(F, rng.randrange(1, 9), rng.randrange(1, 9), rng)
            ns = m.nullspace()
            assert ns.cols + m.rank() == m.cols
            if ns.cols:
                assert (m @ ns).is_zero()
            assert m.rank() == m.transpose().rank()


def test_rank_submultiplicative():
    rng = random.Random(5)
    for F in FIELDS:
        for _ in range(10):
            a = Matrix.random(F, 6, 5, rng)
            b = Matrix.random(F, 5, 7, rng)
            assert (a @ b).rank() <= min(a.rank(), b.rank())


def schoolbook(a, b):
    """Σ_k a[i,k]·b[k,j] one scalar table lookup at a time."""
    F = a.field
    out = np.zeros((a.rows, b.cols), dtype=np.int16)
    for i in range(a.rows):
        for j in range(b.cols):
            s = 0
            for k in range(a.cols):
                s = F.add(s, F.mul(int(a.a[i, k]), int(b.a[k, j])))
            out[i, j] = s
    return Matrix(F, out)


def test_matmul_against_schoolbook():
    rng = random.Random(3)
    for F in FIELDS:
        # zero rows, zero inner dimension and zero columns included
        for r, k, c in ((4, 6, 3), (0, 6, 3), (4, 0, 3), (4, 6, 0), (0, 0, 0)):
            a = Matrix.random(F, r, k, rng)
            b = Matrix.random(F, k, c, rng)
            assert a.shape == (r, k) and b.shape == (k, c)
            assert (a @ b) == schoolbook(a, b)


def test_kron_definition_and_ordering():
    F2 = field(2)
    got = Matrix.jordan_block(F2, 2).kron(Matrix.identity(F2, 2))
    expect = Matrix(F2, [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert got == expect
    assert Matrix.identity(F2, 2).kron(Matrix.identity(F2, 3)) == Matrix.identity(F2, 6)


def test_kron_rank_multiplicative():
    rng = random.Random(9)
    for _ in range(50):
        F = FIELDS[rng.randrange(len(FIELDS))]
        a = Matrix.random(F, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        b = Matrix.random(F, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        assert a.kron(b).rank() == a.rank() * b.rank()


def test_kron_associative():
    rng = random.Random(2)
    for F in (field(3), field(2, 2)):
        a, b, c = (Matrix.random(F, 2, 3, rng), Matrix.random(F, 3, 2, rng),
                   Matrix.random(F, 2, 2, rng))
        assert a.kron(b).kron(c) == a.kron(b.kron(c))


def test_kron_mixed_product():
    rng = random.Random(4)
    F = field(5)
    a, b = Matrix.random(F, 3, 3, rng), Matrix.random(F, 2, 2, rng)
    c, d = Matrix.random(F, 3, 3, rng), Matrix.random(F, 2, 2, rng)
    assert (a.kron(b)) @ (c.kron(d)) == (a @ c).kron(b @ d)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Matrix.identity(field(2), 2) @ Matrix.identity(field(3), 2)


def test_solve_and_inverse():
    rng = random.Random(8)
    for F in FIELDS:
        m = Matrix.random_invertible(F, 6, rng)
        rhs = Matrix.random(F, 6, 2, rng)
        x = m.solve(rhs)
        assert m @ x == rhs
        assert m @ m.inverse() == Matrix.identity(F, 6)
    # inconsistent system
    F = field(3)
    sing = Matrix.zeros(F, 2, 2)
    rhs = Matrix(F, [[1], [0]])
    assert sing.solve(rhs) is None


def test_nullspace_canonical():
    F = field(5)
    m = Matrix(F, [[1, 2, 3], [2, 4, 6]])
    ns1 = m.nullspace()
    ns2 = m.nullspace()
    assert np.array_equal(ns1.a, ns2.a)
    assert ns1.cols == 2
    assert Matrix.identity(F, 4).nullspace().cols == 0
    assert Matrix.jordan_block(F, 5).nullspace().cols == 1


def test_nullspace_matches_scalar_back_substitution():
    rng = random.Random(17)
    for F in FIELDS:
        for _ in range(10):
            m = Matrix.random(F, rng.randrange(1, 7), rng.randrange(1, 9), rng)
            R, pivots = m.rref()
            free = [c for c in range(m.cols) if c not in pivots]
            ref = np.zeros((m.cols, len(free)), dtype=np.int16)
            for k, fcol in enumerate(free):
                ref[fcol, k] = 1
                for i, pcol in enumerate(pivots):
                    ref[pcol, k] = F.neg(int(R.a[i, fcol]))
            assert m.nullspace().a.tobytes() == ref.tobytes()


def block_diagonal(F, parts):
    n = sum(parts)
    blocks = np.zeros((n, n), dtype=np.int16)
    off = 0
    for s in parts:
        blocks[off:off + s, off:off + s] = Matrix.jordan_block(F, s).a
        off += s
    return Matrix(F, blocks)


def test_jordan_type_basics():
    F = field(3)
    assert nilpotent_jordan_type(Matrix.zeros(F, 4)).parts == (1, 1, 1, 1)
    assert nilpotent_jordan_type(Matrix.jordan_block(F, 3)).parts == (3,)
    with pytest.raises(NotNilpotent):
        nilpotent_jordan_type(Matrix.identity(F, 3))


def test_jordan_type_conjugation_invariant():
    # oracle: build a block diagonal with a known partition, conjugate randomly
    rng = random.Random(21)
    for F in (field(2), field(3), field(5, 2)):
        for _ in range(8):
            parts = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))]
            S = Matrix.random_invertible(F, sum(parts), rng)
            conj = S @ block_diagonal(F, parts) @ S.inverse()
            assert nilpotent_jordan_type(conj) == JordanType(parts)


def test_jordan_from_rank_sequence_example():
    # dim 9 with ranks 5, 1, 0 must give the partition {3, 2, 2, 2}
    F = field(3)
    m = block_diagonal(F, (3, 2, 2, 2))
    assert m.rank() == 5 and (m @ m).rank() == 1
    assert nilpotent_jordan_type(m).parts == (3, 2, 2, 2)


def test_jordan_type_formatting_and_queries():
    jt = JordanType([2, 2, 3, 1])
    assert str(jt) == "J3+2J2+J1"
    assert jt.dimension == 8
    assert jt.multiplicity(2) == 2
    assert jt.is_free(3) is False
    assert JordanType([3, 3]).is_free(3)
    assert jt.has_part_strictly_between(1, 3)


def test_matrix_json_roundtrip():
    rng = random.Random(6)
    for F in (field(2), field(2, 2), field(3, 2)):
        m = Matrix.random(F, 3, 4, rng)
        again = Matrix.from_json(m.to_json())
        assert again == m
        data = m.to_json()
        assert data["rows"] == 3 and data["cols"] == 4
        assert len(data["entries"]) == 3 and len(data["entries"][0][0]) == F.e
        # a digit outside [0, p), or more than e digits, names its entry
        for bad in ([F.p] + [0] * (F.e - 1), [1] * (F.e + 1)):
            data["entries"][2][1] = bad
            with pytest.raises(FieldError, match=r"entries\[2\]\[1\]"):
                Matrix.from_json(data)


def test_pow():
    F = field(3)
    n = Matrix.jordan_block(F, 4)
    assert n.pow(0) == Matrix.identity(F, 4)
    assert n.pow(2) == n @ n
    assert n.pow(4).is_zero()


# -- rank chain against the power-by-power reference ------------------------------


def jordan_type_of_chain(ranks):
    ranks = tuple(ranks) + (0,)
    parts = []
    for s in range(1, len(ranks) - 1):
        parts.extend([s] * ((ranks[s - 1] - ranks[s]) - (ranks[s] - ranks[s + 1])))
    return JordanType(parts)


def reference_jordan_type(m):
    """Jordan type from the rank of every full power m^s (the old algorithm)."""
    n = m.rows
    ranks = [n]
    power = m
    while ranks[-1]:
        if len(ranks) > n:
            raise NotNilpotent("matrix is not nilpotent")
        ranks.append(power.rank())
        power = power @ m
    return jordan_type_of_chain(ranks)


CHAIN_FIELDS = [field(2), field(5), field(2, 2), field(5, 2)]


@st.composite
def conjugated_nilpotents(draw, fields=CHAIN_FIELDS, sizes=st.integers(1, 6), blocks=4):
    F = draw(st.sampled_from(fields))
    parts = draw(st.lists(sizes, min_size=1, max_size=blocks))
    S = Matrix.random_invertible(F, sum(parts), random.Random(draw(st.integers(0, 2**32))))
    return parts, S @ block_diagonal(F, parts) @ S.inverse()


@settings(max_examples=60, deadline=None)
@given(conjugated_nilpotents())
def test_chain_jordan_type_matches_reference(case):
    parts, m = case
    assert reference_jordan_type(m) == JordanType(parts)
    assert nilpotent_jordan_type(m) == JordanType(parts)


@settings(max_examples=60, deadline=None)
@given(conjugated_nilpotents())
def test_chain_length_is_nilpotency_index(case):
    _, m = case
    index = next(b for b in range(m.rows + 1) if m.pow(b).is_zero())
    assert len(rank_chain(m)) - 1 == index


WITT_3_2 = build_truncated_polynomial(field(3), [9], names=("x",))
WITT_3_2_DELTAS = [named_structure(WITT_3_2, n)
                   for n in ("lie_primitive", "witt_G2", "witt_Zp2")]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2))
def test_chain_jordan_type_of_witt_tensors(i, j, k):
    T = tensor(jordan_block_module(WITT_3_2, i), jordan_block_module(WITT_3_2, j),
               WITT_3_2_DELTAS[k])
    assert nilpotent_jordan_type(T.actions[0]) == reference_jordan_type(T.actions[0])


def test_rank_chain_is_memoized_and_rejects_non_nilpotent():
    F = field(5)
    m = block_diagonal(F, [4, 2, 1])
    assert rank_chain(m) == (7, 4, 2, 1, 0)
    assert rank_chain(m) is rank_chain(m)
    with pytest.raises(NotNilpotent):
        nilpotent_jordan_type(Matrix.random_invertible(F, 300, random.Random(1)))
    singular = np.pad(Matrix.jordan_block(F, 3).a, ((0, 1), (0, 1)))
    singular[3, 3] = 1   # J3 + (1): the rank stops at 1
    with pytest.raises(NotNilpotent):
        rank_chain(Matrix(F, singular))


LADDER_FIELDS = CHAIN_FIELDS + [field(1031)]


@settings(max_examples=40, deadline=None)
@given(st.one_of(conjugated_nilpotents(LADDER_FIELDS),
                 # few long blocks: n/κ >= 8, the chains the ladder is for
                 conjugated_nilpotents(LADDER_FIELDS, st.integers(8, 26), blocks=3)))
def test_step_loop_and_kernel_ladder_match_the_reference(case):
    parts, m = case
    expect = reference_jordan_type(m)
    assert expect == JordanType(parts)
    for chain in (_step_chain, _ladder_chain):
        assert jordan_type_of_chain(chain(Matrix(m.field, m.a))) == expect, chain.__name__


@pytest.mark.parametrize("chain", [_step_chain, _ladder_chain])
def test_both_chain_algorithms_reject_non_nilpotent(chain):
    F = field(5)
    assert chain(Matrix.zeros(F, 0)) == (0,)
    assert chain(Matrix.zeros(F, 3)) == (3, 0)
    with pytest.raises(NotNilpotent):
        chain(Matrix.random_invertible(F, 40, random.Random(2)))
    for n in (3, 45):   # J_n + (1): the kernels stop growing at dimension n
        singular = np.pad(Matrix.jordan_block(F, n).a, ((0, 1), (0, 1)))
        singular[n, n] = 1
        with pytest.raises(NotNilpotent):
            chain(Matrix(F, singular))


def test_long_chains_take_the_ladder(monkeypatch):
    from restrep import matrices
    taken = []
    monkeypatch.setattr(matrices, "_ladder_chain", lambda m: taken.append(m.rows) or (0,))
    F = field(5)
    rank_chain(Matrix.jordan_block(F, 40))             # n = 40, κ = 1
    rank_chain(block_diagonal(F, [7] * 6))             # ⌈n/κ⌉ = 7: step loop
    rank_chain(Matrix.jordan_block(F, 39))             # n < 40: step loop
    assert taken == [40]


# -- exact products --------------------------------------------------------------------


@pytest.mark.parametrize("inner, flt", [(15, np.float32), (16, np.float64)])
def test_prime_product_is_exact_at_the_float32_bound(inner, flt):
    # 15·1030² < 2**24 <= 16·1030²: the product switches to float64 at 16
    F = field(1031)
    assert _exact_float(F.p, inner)[0] is flt
    rng = random.Random(inner)
    full = Matrix(F, np.full((3, inner), F.p - 1))
    crafted_b = np.full((inner, 2), F.p - 2)
    crafted_b[-1] = F.p - 3   # odd sum above 2**24 at inner 16: float32 would round it
    cases = [(full, Matrix(F, np.full((inner, 4), F.p - 1))),
             (Matrix(F, np.full((2, inner), F.p - 2)), Matrix(F, crafted_b)),
             (Matrix.random(F, 5, inner, rng), Matrix.random(F, inner, 6, rng))]
    for a, b in cases:
        assert a @ b == schoolbook(a, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([field(2, 2), field(5, 2), field(2, 10)]),
       st.integers(0, 9), st.integers(0, 40), st.integers(0, 9), st.integers(0, 2**32))
def test_digit_plane_product_matches_schoolbook(F, r, k, c, seed):
    rng = np.random.default_rng(seed)
    a, b = (Matrix(F, rng.integers(0, F.q, size=shape)) for shape in ((r, k), (k, c)))
    assert a @ b == schoolbook(a, b)


# -- batched-pivot elimination against the per-column loop -------------------------------


def reference_eliminate(m, reduced):
    """The per-column loop the batched rounds replaced: leftmost pivot
    column, topmost nonzero row, rows swapped into place."""
    F = m.field
    prime = F.e == 1
    A = m.a.astype(np.int32 if prime else np.int16, copy=True)
    p = F.p
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = int(F.INV[A[r, c]])
        if inv != 1:
            A[r] = (A[r] * inv) % p if prime else F.MUL[inv, A[r]]
        sel = np.nonzero(A[:, c])[0] if reduced else np.nonzero(A[r + 1:, c])[0] + r + 1
        sel = sel[sel != r]
        if len(sel):
            factors = A[sel, c]
            if prime:
                A[sel] = (A[sel] - factors[:, None] * A[r][None, :]) % p
            else:
                A[sel] = F.sub_arrays(A[sel], F.MUL[factors[:, None], A[r][None, :]])
        pivots.append(c)
        r += 1
    return A.astype(np.int16), tuple(pivots)


ELIM_FIELDS = [field(2), field(5), field(1031), field(2, 2), field(5, 2)]


def _nonzero(F, rng, size):
    return rng.integers(1, F.q, size=size)


@st.composite
def elimination_inputs(draw):
    """Matrices of the shapes the rank chain, Hom solves and induction
    tables eliminate: sparse, monomial, with repeated and zero rows, zero
    columns, empty, and wide [E | rhs] systems."""
    F = draw(st.sampled_from(ELIM_FIELDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["sparse", "dense", "monomial", "repeats", "empty", "system"]))
    if kind == "sparse":
        rows, cols = draw(st.integers(1, 48)), draw(st.integers(1, 48))
        a = np.where(rng.random((rows, cols)) < 0.03, _nonzero(F, rng, (rows, cols)), 0)
        a[np.arange(min(rows, cols)) // 2, np.arange(min(rows, cols))] = 1  # near echelon
    elif kind == "dense":
        a = rng.integers(0, F.q, size=(draw(st.integers(1, 9)), draw(st.integers(1, 9))))
    elif kind == "monomial":
        n = draw(st.integers(1, 24))
        a = np.zeros((n, n), dtype=np.int64)
        a[np.arange(n), rng.permutation(n)] = _nonzero(F, rng, n)
    elif kind == "repeats":
        base = rng.integers(0, F.q, size=(draw(st.integers(1, 5)), draw(st.integers(1, 10))))
        scaled = F.MUL[_nonzero(F, rng, (len(base), 1)), base]
        a = np.vstack([base, np.zeros_like(base), scaled, base])[rng.permutation(4 * len(base))]
        a[:, rng.random(a.shape[1]) < 0.3] = 0
    elif kind == "empty":
        n = draw(st.integers(0, 6))
        a = np.zeros((0, n) if draw(st.booleans()) else (n, 0), dtype=np.int64)
    else:
        n = draw(st.integers(1, 20))
        E = np.zeros((n, n), dtype=np.int64)
        E[np.arange(n), rng.permutation(n)] = _nonzero(F, rng, n)
        if draw(st.booleans()):
            E = np.where(rng.random((n, n)) < 0.1, rng.integers(0, F.q, size=(n, n)), E)
        a = np.hstack([E, rng.integers(0, F.q, size=(n, draw(st.integers(1, 2 * n))))])
    return Matrix(F, a)


@settings(max_examples=200, deadline=None)
@given(elimination_inputs())
def test_rounds_match_the_per_column_loop(m):
    R, pivots = m.rref()
    ref, ref_pivots = reference_eliminate(m, reduced=True)
    assert pivots == ref_pivots
    assert R.a.tobytes() == ref.tobytes()
    assert m.rank() == len(reference_eliminate(m, reduced=False)[1]) == len(pivots)


def test_lowest_row_owns_each_leading_column():
    # rows 0-2 all lead at column 0; row 0 owns it, then row 1 owns column 1
    m = Matrix(field(2), [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
    assert m.rank() == 3
    assert m._echelon.tolist() == [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]


@settings(max_examples=200, deadline=None)
@given(elimination_inputs())
def test_rank_rows_are_an_echelon_basis_of_the_row_space(m):
    r = m.rank()
    E = m._echelon
    assert E.shape == (r, m.cols)
    leads = [int(np.flatnonzero(row)[0]) for row in E]
    assert leads == sorted(set(leads))
    assert all(E[i, c] == 1 for i, c in enumerate(leads))
    assert Matrix(m.field, np.vstack([E, m.a])).rank() == r


@settings(max_examples=200, deadline=None)
@given(elimination_inputs())
def test_rank_nullity_and_solve_consistency(m):
    F = m.field
    ns = m.nullspace()
    assert ns.cols + m.rank() == m.cols
    assert (m @ ns).is_zero()
    if m.cols < 2 or m.rows == 0:
        return
    k = m.cols // 2            # read the input as the system [E | rhs]
    E, rhs = Matrix(F, m.a[:, :k]), Matrix(F, m.a[:, k:])
    x = E.solve(rhs)
    if x is None:
        assert m.rank() > E.rank()
    else:
        assert E @ x == rhs


@settings(max_examples=100, deadline=None)
@given(elimination_inputs())
def test_rank_and_rref_match_sympy(m):
    sympy_matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import GF
    F = m.field
    if F.e != 1 or 0 in m.shape:
        return
    K = GF(F.p)
    dm = sympy_matrices.DomainMatrix([[K(int(v)) for v in row] for row in m.a], m.shape, K)
    R, pivots = dm.rref()
    assert m.rank() == dm.rank()
    assert m.rref()[1] == tuple(pivots)
    assert m.rref()[0].a.tolist() == [[int(v) % F.p for v in row] for row in R.to_list()]
