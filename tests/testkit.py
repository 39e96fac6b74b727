"""Helpers that only the tests use: random matrices and conjugates,
matrix powers, the per-monomial images of algebra maps and actions,
formatted-scalar parsing, polynomial arithmetic over GF(p) with the
trial-division modulus, the Kronecker Hom dimension, the all-triples
algebra check, the all-pairs comultiplication axiom check, point test
modules and equivalence through them, nobility by the published rules and
a few fixed constructions, kept out of the library."""

import itertools

import numpy as np
from hypothesis import strategies as st

from restrep.algebra import (AlgebraMorphism, base_change, build_heisenberg,
                             build_truncated_polynomial, element_to_field, morphism_to_field)
from restrep.fields import field
from restrep.hopf import Comultiplication, _expand, _image_tensor, _normal, _products
from restrep.matrices import _INT, Matrix, nilpotent_jordan_type
from restrep.modules import Representation, hom_space, induce_trivial
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


# -- polynomials over GF(p): coefficient lists, low degree first ---------------

def poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_rem(f, m, p):
    f = list(f)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(f) > dm:
        c = (f[-1] * inv_lead) % p
        if c:
            off = len(f) - 1 - dm
            for i, a in enumerate(m):
                f[off + i] = (f[off + i] - c * a) % p
        f.pop()
    return poly_trim(f)


def poly_mulmod(f, g, m, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return poly_rem(out, m, p)


def smallest_irreducible(p, e):
    """The smallest-encoded monic f of degree e over GF(p) with no monic
    factor of degree <= e/2, by trial division."""
    def monic(enc, d):
        return [enc // p ** i % p for i in range(d)] + [1]

    factors = [monic(enc, d) for d in range(1, e // 2 + 1) for enc in range(p ** d)]
    return next(tuple(f) for f in (monic(enc, e) for enc in range(p ** e))
                if all(poly_rem(f, g, p) for g in factors))


def matrix_pow(m, n):
    """m^n by binary powers."""
    out, base = Matrix.identity(m.field, m.rows), m
    while n:
        if n & 1:
            out = out @ base
        base = base @ base if n > 1 else base
        n >>= 1
    return out


def reference_image(phi, i):
    """φ(b_i) multiplied out one generator image at a time, in the order of
    the exponent tuple (the per-monomial path the table replaced)."""
    T = phi.target
    out = T.one()
    for g, e in enumerate(phi.source.basis_exps[i]):
        for _ in range(e):
            out = T.multiply(out, phi.images[g])
    return out


# small algebras on which random_automorphism draws automorphisms:
# equal bounds, so Frobenius makes every power relation hold
MORPHISM_ALGEBRAS = [
    lambda: build_truncated_polynomial(field(3), [3, 3]),
    lambda: build_truncated_polynomial(field(3), [9]),
    lambda: build_truncated_polynomial(field(2), [2, 2, 2]),
    lambda: build_truncated_polynomial(field(2), [4, 4]),
    lambda: build_truncated_polynomial(field(2, 2), [2, 2]),
    lambda: build_heisenberg(field(3)),
    lambda: build_heisenberg(field(5)),
]


def random_automorphism(A, draw):
    """g ↦ unit·g + higher terms: any degree >= 2 combination on a
    truncated polynomial algebra, c·z on x and y of H (z ↦ ab·z)."""
    F = A.field
    unit = st.integers(1, F.q - 1)
    if A.kind == "heisenberg":
        y, z, x = A.generators()
        a, b, c, e = draw(unit), draw(unit), draw(st.integers(0, F.q - 1)), draw(st.integers(0, F.q - 1))
        return AlgebraMorphism(A, A, [b * y + e * z, F.mul(a, b) * z, a * x + c * z])
    higher = [i for i, e in enumerate(A.basis_exps) if sum(e) >= 2]
    images = []
    for g in A.generators():
        vec = g.vec * draw(unit)
        for i in draw(st.lists(st.sampled_from(higher), max_size=3)) if higher else []:
            vec[i] = F.add(int(vec[i]), draw(unit))
        images.append(A.element(vec))
    return AlgebraMorphism(A, A, images)


def reference_action(M, i):
    """ρ(b_i) as the product of the generator actions' powers, in the order
    of the exponent tuple."""
    out = Matrix.identity(M.algebra.field, M.dim)
    for g, e in enumerate(M.algebra.basis_exps[i]):
        out = out @ matrix_pow(M.actions[g], e)
    return out


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


def point_test_module(family, label):
    """The module induced from the trivial one along the image of the
    family's point ``label``: its support is that point alone."""
    return induce_trivial(family.A_K, family.by_label[label].image, label=f"V({label})")


class BadTestModule(PointError):
    pass


def equivalent(alpha, beta, test_module, family):
    """Point equivalence through a singleton-support test module.

    Precondition: the test module is supported exactly at the class of
    ``alpha`` (BadTestModule otherwise); the points are then equivalent
    iff ``beta`` also restricts it non-freely.
    """
    supp = family.support(test_module)
    if len(supp) != 1:
        raise BadTestModule(f"test module has support {supp!r}, not a singleton")
    T_K = family.lift(test_module)
    p = family.K.p
    if nilpotent_jordan_type(T_K.act(alpha.image)).is_free(p):
        raise BadTestModule("test module is not supported at the first point")
    return not nilpotent_jordan_type(T_K.act(beta.image)).is_free(p)


# each library structure's noble classes as published (Wang, J. Algebra
# 2013, over an algebraically closed field): every class, the first axis,
# both axes, or the classes with prime-field coordinates
REFERENCE_RULES = {
    "lie_primitive": "all", "heisenberg_primitive": "all", "oorttate_Zp": "all",
    "witt_G2": "all", "witt_Zp2": "all", "wang_Ga2": "first_axis",
    "wang_Ga1xZp": "axes", "wang_ZpZp": "prime_field",
}


def reference_nobility(name, phis, coords, family, tests):
    """"noble" or "ignoble" at the point for the named structure twisted by
    each of ``phis`` in turn: the structure's rule read at the point pulled
    back along the inverse of each φ, the last one first.  A point's image
    is moved by φ⁻¹ and classed by the one test module of ``tests``, the
    points' test modules by label, that restricts non-freely along it."""
    label, p = family.point(coords).label, family.K.p
    for phi in reversed(phis):
        psi = morphism_to_field(phi.invert(), family.A_K)
        moved = psi.apply(element_to_field(family.by_label[label].image, psi.source))
        (label,) = [lb for lb, T in tests.items()
                    if not nilpotent_jordan_type(T.act(moved)).is_free(p)]
    coords = family.by_label[label].coords
    axes = [tuple(int(i == g) for i in range(len(coords))) for g in range(len(coords))]
    noble = {"all": True, "first_axis": coords == axes[0], "axes": coords in axes,
             "prime_field": all(c < family.K.p for c in coords)}[REFERENCE_RULES[name]]
    return "noble" if noble else "ignoble"


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


def reference_algebra_verdict(A):
    """The laws an algebra build verifies, checked on every monomial, pair
    and triple in scalar field arithmetic on the basis products that
    ``A._straighten`` gives: None when they hold, else the first failure.
    In order, with the build's messages: the unit law on every monomial,
    the socle law on every generator, the word m = m'·g of every monomial
    m ≠ 1 (g its last generator), the counit law on every pair and
    associativity on every triple (i, j, k)."""
    F, d, one = A.field, A.dim, A.identity_index
    table = [{} for _ in range(d * d)]
    for s, t, c in zip(*(a.tolist() for a in A._straighten(*np.divmod(np.arange(d * d), d)))):
        table[s][t] = c

    def times(u, v):
        out = {}
        for m, a in u.items():
            for n, b in v.items():
                for t, c in table[m * d + n].items():
                    out[t] = F.add(out.get(t, 0), F.mul(F.mul(a, b), c))
        return {t: c for t, c in out.items() if c}

    for i in range(d):
        if not table[one * d + i] == table[i * d + one] == {i: 1}:
            return f"unit law fails on basis monomial {A.monomial_name(i)}"
    gens = [A.index_of[e] for e in A._gen_exps]
    lam = A.integral_index
    for g, name in zip(gens, A.gen_names):
        if table[g * d + lam] or table[lam * d + g]:
            return f"integral fails the socle check: generator {name} does not kill it"
    for m, exps in enumerate(A.basis_exps):
        if m != one:
            g = max(t for t, e in enumerate(exps) if e)
            prev = A.index_of[tuple(e - (t == g) for t, e in enumerate(exps))]
            if table[prev * d + gens[g]] != {m: 1}:
                return "a basis monomial is not m'·g, g its last generator"
    for i, j in itertools.product(range(d), repeat=2):
        if table[i * d + j].get(one, 0) != int(i == j == one):
            return f"counit is not an algebra map at pair {A._pair_name(i, j)}"
    for i, j, k in itertools.product(range(d), repeat=3):
        if times(table[i * d + j], {k: 1}) != times({i: 1}, table[j * d + k]):
            return f"associativity fails at triple {(i, j, k)}"
    return None


def reference_verdict(A, images):
    """The comultiplication axioms checked on every basis monomial and every
    pair, for generator images {(i, j): c}: None when they hold, else the
    first failure.  In basis order, the counit laws, cocommutativity and
    coassociativity of Δ(b_i); then Δ(b_i b_j) = Δ(b_i)·Δ(b_j), one batch
    per left index i."""
    delta = Comultiplication.__new__(Comultiplication)
    delta.algebra = A
    delta.images = [_image_tensor(A, g, im) for g, im in zip(A.gen_names, images)]
    delta._build_table()
    F, d, one = A.field, A.dim, A.identity_index
    for i in range(d):
        keys, coef = delta.delta_basis(i)
        u, v = np.divmod(keys, d)
        for law, side, other in (("ε⊗id", u, v), ("id⊗ε", v, u)):
            if (other[side == one].tolist(), coef[side == one].tolist()) != ([i], [1]):
                return f"counit law ({law}) fails on basis {i}"
        swapped = v * d + u
        order = np.argsort(swapped)
        if not (np.array_equal(swapped[order], keys) and np.array_equal(coef[order], coef)):
            return f"cocommutativity fails on basis {i}"
        # (Δ⊗id)Δ(b_i) - (id⊗Δ)Δ(b_i), keyed (a·dim + b)·dim + c
        lt, lk, lc = delta._table_terms(u, coef)
        rt, rk, rc = delta._table_terms(v, F.NEG[coef])
        if len(_normal(A, np.concatenate([lk * d + v[lt], u[rt] * d * d + rk]),
                       np.concatenate([lc, rc]))[0]):
            return f"coassociativity fails on basis {i}"
    js = np.arange(d)
    for i in range(d):
        # Δ(b_i b_j) - Δ(b_i)·Δ(b_j) for every j, keyed j·dim² + key
        idx, coef, at = A._scaled_terms((i * d + js).tolist(), np.ones(d, dtype=_INT))
        t, lhs, lc = delta._table_terms(idx, coef)
        pj, v = _expand(js, delta._start)         # the terms of each Δ(b_j)
        u = delta.delta_basis(i)
        su, sv = np.divmod(np.arange(len(u[0]) * len(v)), max(len(v), 1))
        rhs, rc = _products(A, u, (delta._keys[v], delta._coef[v]), su, sv, pj[sv])
        diff, _ = _normal(A, np.concatenate([at[t] * d * d + lhs, rhs]),
                          np.concatenate([lc, F.NEG[rc]]))
        if len(diff):
            return f"multiplicativity fails at pair {(i, int(diff[0] // (d * d)))}"
    return None
