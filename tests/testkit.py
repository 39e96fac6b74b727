"""Helpers that only the tests use: random matrices and conjugates,
formatted-scalar parsing, the Kronecker Hom dimension and a few fixed
constructions, kept out of the library."""

import numpy as np

from restrep.algebra import base_change
from restrep.fields import field
from restrep.matrices import _INT, Matrix
from restrep.modules import Representation, hom_space
from restrep.pipoints import PiPoint, PointError, normalize_coords, top_slice_image


def parse(F, text):
    """Inverse of ``F.fmt`` (also accepts bare encoded integers)."""
    text = text.strip()
    if text.lstrip("-").isdigit():
        return int(text) % F.q if F.e == 1 else int(text)
    total = 0
    for term in text.replace("-", "+-").split("+"):
        term = term.strip()
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        if "w" not in term:
            c, i = int(term), 0
        else:
            head, _, tail = term.partition("w")
            c = int(head) if head else 1
            i = int(tail.lstrip("^")) if tail else 1
        if neg:
            c = -c
        total = F.add(total, F.from_coeffs([0] * i + [c % F.p]))
    return total


def random_matrix(F, rows, cols, rng):
    a = np.array([rng.randrange(F.q) for _ in range(rows * cols)], dtype=_INT)
    return Matrix(F, a.reshape(rows, cols), copy=False)


def random_invertible(F, n, rng):
    while True:
        m = random_matrix(F, n, n, rng)
        if m.rank() == n:
            return m


def conjugate(M, S):
    """The same module in a new basis: actions S ρ S⁻¹."""
    Sinv = S.inverse()
    return Representation(M.algebra, [S @ a @ Sinv for a in M.actions],
                          label=f"{M.label}^conj", verify=False)


def dim_hom(M, N):
    return len(hom_space(M, N))


def block_E(F):
    """p x p with a single 1 in the top right corner."""
    p = F.p
    m = np.zeros((p, p), dtype=_INT)
    m[0, p - 1] = 1
    return Matrix(F, m, copy=False)


def canonical_pi_point(A, coords, ext=None):
    """The flat point with image the top-slice combination of the coordinates.

    ``ext`` optionally base changes to GF(p^ext) first (coordinates are
    then read in the extension's encoding).
    """
    if A.kind != "truncated_poly":
        raise PointError("canonical points live on truncated polynomial algebras")
    K = A.field if ext is None else field(A.field.p, ext)
    A_K = A if K == A.field else base_change(A, K)
    coords = normalize_coords(K, coords)
    return PiPoint(A_K, top_slice_image(A_K, coords), coords=coords)


def product_terms(A, i, j):
    """basis_i * basis_j as ``(indices, coefficients)`` arrays holding its
    nonzero terms, read from the algebra's memo (straightened on a miss)."""
    return A._memo_terms([i * A.dim + j])[0]


def product_vec(A, i, j):
    """Dense coefficient vector of basis_i * basis_j."""
    idx, coef = product_terms(A, i, j)
    v = np.zeros(A.dim, dtype=_INT)
    v[idx] = coef
    return v
