"""Algebra presentations: builders, straightening, morphisms, inversion."""

import random

import numpy as np
import pytest

from restrep.fields import field
from restrep.algebra import (ASSOC_EXHAUSTIVE_DIM, ASSOC_SEED, AlgebraError,
                             AlgebraMorphism, AlgebraPresentation, InvalidBound,
                             NotAugmented, NotInvertible, UnsupportedTorus,
                             base_change, build_abelian_restricted,
                             build_heisenberg, build_truncated_polynomial,
                             element_to_field, morphism_from_json)


def test_truncated_klein_presentation():
    A = build_truncated_polynomial(field(2), [2, 2])
    assert A.dim == 4
    assert [A.monomial_name(i) for i in range(4)] == ["1", "x", "y", "x*y"]
    assert A.monomial_name(A.integral_index) == "x*y"
    x, y = A.generators()
    assert (x + y).pow(2).is_zero()          # (x+y)^2 = 2xy = 0 at p = 2
    A3 = build_truncated_polynomial(field(3), [3, 3])
    x, y = A3.generators()
    sq = (x + y).pow(2)
    expect = x.pow(2) + 2 * A3.multiply(x, y) + y.pow(2)
    assert sq == expect


def test_single_generator_chain():
    A = build_truncated_polynomial(field(3), [3], names=("t",))
    assert A.dim == 3
    t = A.generator("t")
    assert t.pow(3).is_zero() and not t.pow(2).is_zero()


def test_big_bounds_power_of_p():
    A = build_truncated_polynomial(field(2), [4, 4])
    assert A.dim == 16
    with pytest.raises(InvalidBound):
        build_truncated_polynomial(field(2), [6])
    with pytest.raises(InvalidBound):
        build_truncated_polynomial(field(3), [2])
    with pytest.raises(InvalidBound):
        build_truncated_polynomial(field(2), [])


def test_counit_and_unit_laws():
    for A in (build_truncated_polynomial(field(2), [2, 2]),
              build_heisenberg(field(3))):
        one = A.one()
        assert one.counit() == 1
        for g in A.generators():
            assert g.counit() == 0
            assert A.multiply(one, g) == g and A.multiply(g, one) == g


def test_abelian_restricted_builder():
    A = build_abelian_restricted(field(2), [1, 1, 1])
    assert A.bounds == (2, 2, 2) and A.dim == 8
    B = build_abelian_restricted(field(2), [2, 2])
    assert B.bounds == (4, 4) and B.cyclic_dims == (2, 2)
    with pytest.raises(UnsupportedTorus):
        build_abelian_restricted(field(2), [1], torus_rank=1)
    with pytest.raises(InvalidBound):
        build_abelian_restricted(field(3), [])


def test_heisenberg_presentation():
    H = build_heisenberg(field(3))
    assert H.dim == 27
    x, y, z = H.generator("x"), H.generator("y"), H.generator("z")
    # x y = y x + z
    assert H.multiply(x, y) == H.multiply(y, x) + z
    # z is central on the whole basis
    for i in range(H.dim):
        b = H.monomial(H.basis_exps[i])
        assert H.multiply(z, b) == H.multiply(b, z)
    # the displayed action rule with its coefficient
    lhs = H.multiply(x, y.pow(2))
    rhs = H.multiply(y.pow(2), x) + 2 * H.multiply(y, z)
    assert lhs == rhs
    # integral is the top monomial and is two-sided annihilated
    lam = H.integral()
    for g in (x, y, z):
        assert H.multiply(g, lam).is_zero() and H.multiply(lam, g).is_zero()


def brute_force_straighten(p, word):
    """One-step rewriter: apply xy -> yx + z repeatedly, then truncate.

    Independent oracle for the closed-form product rule; words are
    tuples over the letters y, z, x.
    """
    order = {"y": 0, "z": 1, "x": 2}
    out = {}
    work = {tuple(word): 1}
    while work:
        w, c = work.popitem()
        c %= p
        if not c:
            continue
        bad = next((k for k in range(len(w) - 1)
                    if order[w[k]] > order[w[k + 1]]), None)
        if bad is None:
            iy, jz, lx = w.count("y"), w.count("z"), w.count("x")
            if iy < p and jz < p and lx < p:
                key = (iy, jz, lx)
                out[key] = (out.get(key, 0) + c) % p
                if not out[key]:
                    del out[key]
            continue
        head, tail = w[:bad], w[bad + 2:]
        a, b = w[bad], w[bad + 1]
        swapped = head + (b, a) + tail
        work[swapped] = (work.get(swapped, 0) + c) % p
        if (a, b) == ("x", "y"):
            inserted = head + ("z",) + tail
            work[inserted] = (work.get(inserted, 0) + c) % p
    return out


def test_heisenberg_products_match_brute_force_rewriter():
    p = 3
    H = build_heisenberg(field(p))
    for ei in H.basis_exps:
        for ej in H.basis_exps:
            word = (("y",) * ei[0] + ("z",) * ei[1] + ("x",) * ei[2]
                    + ("y",) * ej[0] + ("z",) * ej[1] + ("x",) * ej[2])
            expect = brute_force_straighten(p, word)
            got = H._mono_times_mono(ei, ej)
            got_flat = {(e[0], e[1], e[2]): c for e, c in got.items()}
            assert got_flat == expect, (ei, ej)


def test_associativity_sampled_on_larger_builds():
    # dim 16 at p=2 with bounds [4,4] is verified exhaustively at build time;
    # a 4^2-dim rebuild with different generator names exercises the cache key
    A = build_truncated_polynomial(field(2), [4, 4], names=("u", "v"))
    u, v = A.generators()
    assert A.multiply(u.pow(3), u) .is_zero()
    assert A.multiply(A.multiply(u, v), v) == A.multiply(u, v.pow(2))


def test_morphism_verification():
    A = build_truncated_polynomial(field(3), [3, 3])
    x, y = A.generators()
    AlgebraMorphism(A, A, [x, y + x.pow(2)])
    with pytest.raises(NotAugmented):
        AlgebraMorphism(A, A, [x + A.one(), y])
    with pytest.raises(AlgebraError):
        # x ↦ y + x breaks nothing, but x ↦ 1-degree image with wrong power does:
        # send x to an element whose cube is nonzero in a bigger algebra
        B = build_truncated_polynomial(field(3), [9], names=("s",))
        AlgebraMorphism(A, B, [B.generator("s"), B.zero()])


def test_morphism_embedding_respects_relations():
    # k[t]/t^p -> heisenberg, t ↦ x is a legal embedding
    F = field(3)
    H = build_heisenberg(F)
    B = build_truncated_polynomial(F, [3], names=("t",))
    phi = AlgebraMorphism(B, H, [H.generator("x")])
    t = B.generator("t")
    assert phi.apply(t.pow(2)) == H.generator("x").pow(2)


def test_invert_unipotent():
    A = build_truncated_polynomial(field(3), [3, 3])
    x, y = A.generators()
    phi = AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)})
    inv = phi.invert()
    assert inv.images[1] == y - x.pow(2)
    assert phi.compose(inv).is_identity() and inv.compose(phi).is_identity()
    ident = AlgebraMorphism.identity(A)
    assert ident.invert().is_identity()


def test_invert_heisenberg_automorphism():
    for p in (3, 5):
        H = build_heisenberg(field(p))
        x, y, z = H.generator("x"), H.generator("y"), H.generator("z")
        term = H.multiply(y, z).pow(p - 1)
        phi = AlgebraMorphism.from_gen_map(H, {"x": x + term})
        inv = phi.invert()
        assert inv.images[H.gen_names.index("x")] == x - term
        assert phi.compose(inv).is_identity()


def test_invert_linear_part():
    A = build_truncated_polynomial(field(5), [5, 5])
    x, y = A.generators()
    phi = AlgebraMorphism(A, A, [2 * x + y, x + y])   # det = 1
    inv = phi.invert()
    assert phi.compose(inv).is_identity()
    sing = AlgebraMorphism(A, A, [x + y, x + y])
    with pytest.raises(NotInvertible):
        sing.invert()


def test_morphism_json_roundtrip():
    A = build_truncated_polynomial(field(3), [3, 3])
    x, y = A.generators()
    phi = AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)})
    again = morphism_from_json(A, A, phi.to_json())
    assert again == phi


def test_base_change_and_element_transport():
    A = build_truncated_polynomial(field(2), [2, 2])
    K = field(2, 2)
    B = base_change(A, K)
    assert B.field == K and B.bounds == A.bounds
    x, y = A.generators()
    moved = element_to_field(A.multiply(x, y) + x, B)
    xb, yb = B.generators()
    assert moved == B.multiply(xb, yb) + xb
    H = build_heisenberg(field(3))
    HB = base_change(H, field(3, 2))
    assert HB.dim == 27 and HB.field.e == 2


def test_algebra_json():
    A = build_heisenberg(field(3))
    data = A.to_json()
    assert data["kind"] == "heisenberg" and data["n"] == 1
    assert [g["name"] for g in data["generators"]] == ["y", "z", "x"]


# -- the sparse product table ----------------------------------------------------


def dense_product(A, a, b):
    """Reference product: straighten each pair of basis monomials in the
    support and add the dense vectors, without the product table."""
    F = A.field
    out = np.zeros(A.dim, dtype=np.int16)
    for i in a.support():
        for j in b.support():
            v = np.zeros(A.dim, dtype=np.int16)
            for exp, c in A._mono_times_mono(A.basis_exps[i], A.basis_exps[j]).items():
                v[A.index_of[exp]] = c
            c = F.mul(int(a.vec[i]), int(b.vec[j]))
            out = F.add_arrays(out, F.MUL[c, v])
    return out


def random_element(A, rng, terms):
    vec = np.zeros(A.dim, dtype=np.int16)
    for i in rng.sample(range(A.dim), terms):
        vec[i] = rng.randrange(1, A.field.q)
    return A.element(vec)


SPARSE_CASES = [
    lambda: build_heisenberg(field(3)),
    lambda: base_change(build_heisenberg(field(3)), field(3, 2)),
    lambda: build_truncated_polynomial(field(2, 2), [4, 2]),
    lambda: build_truncated_polynomial(field(5), [5, 5]),
]


@pytest.mark.parametrize("make", SPARSE_CASES)
def test_sparse_multiply_matches_dense_reference(make):
    A = make()
    rng = random.Random(7)
    for _ in range(30):
        a = random_element(A, rng, rng.randrange(1, 6))
        b = random_element(A, rng, rng.randrange(1, 6))
        assert np.array_equal(A.multiply(a, b).vec, dense_product(A, a, b))
    for a in A.generators() + [random_element(A, rng, 4)]:
        m = A.left_mult_matrix(a)
        for j in range(A.dim):
            col = dense_product(A, a, A.monomial(A.basis_exps[j]))
            assert np.array_equal(m.a[:, j], col)


def test_product_table_holds_nonzero_terms_only():
    # a Heisenberg product of basis monomials has at most p^n terms: one
    # per choice of how many z each pair x_t, y_t produces
    for A, most in ((build_heisenberg(field(3), 2), 9), (build_heisenberg(field(5)), 5),
                    (build_truncated_polynomial(field(3), [9, 3]), 1)):
        assert len(A._terms) > A.dim
        for idx, coef in A._terms.values():
            assert len(idx) == len(coef) <= most
            assert len(set(idx.tolist())) == len(idx)
            assert (coef != 0).all()


# -- build verification rejects a corrupted table ---------------------------------


class Corrupted(AlgebraPresentation):
    """A presentation whose products of the given exponent pairs are
    replaced, so the build verification must reject it."""

    def __init__(self, good, replace):
        self.replace = replace
        super().__init__(good.field, good.kind, good.gen_names, good.bounds,
                         good.basis_exps, heis_n=good.heis_n)

    def _mono_times_mono(self, ei, ej):
        rule = self.replace.get((ei, ej))
        return rule if rule is not None else super()._mono_times_mono(ei, ej)


def test_build_rejects_nonassociative_product_exhaustively():
    good = build_truncated_polynomial(field(3), [3, 3])
    assert good.dim <= ASSOC_EXHAUSTIVE_DIM
    # x·y = 2xy breaks (x·x)·y = x·(x·y); (x, x, y) is triple (1, 1, 3),
    # the first in order that fails
    with pytest.raises(AlgebraError, match=r"associativity fails at triple \(1, 1, 3\)"):
        Corrupted(good, {((1, 0), (0, 1)): {(1, 1): 2}})


def test_build_rejects_nonassociative_product_by_sampling():
    good = build_truncated_polynomial(field(3), [9, 9])
    assert good.dim > ASSOC_EXHAUSTIVE_DIM
    # double b_i b_j for the first sampled triple whose three factors are
    # not 1 and whose product is nonzero; that triple then fails
    rng = random.Random(ASSOC_SEED)
    while True:
        i, j, k = (rng.randrange(good.dim) for _ in range(3))
        ei, ej, ek = (good.basis_exps[t] for t in (i, j, k))
        top = tuple(a + b + c for a, b, c in zip(ei, ej, ek))
        if all(any(e) for e in (ei, ej, ek)) and all(e < 9 for e in top):
            break
    ij = tuple(a + b for a, b in zip(ei, ej))
    with pytest.raises(AlgebraError, match="associativity fails at triple"):
        Corrupted(good, {(ei, ej): {ij: 2}})


def test_build_names_the_failing_law():
    good = build_truncated_polynomial(field(3), [3, 3])
    with pytest.raises(AlgebraError, match="unit law fails on basis monomial x\\*y"):
        Corrupted(good, {((1, 1), (0, 0)): {(1, 1): 2}})
    # x·y = xy + 1 keeps the unit law; its counit is 1 = ε(x)ε(y) + 1
    with pytest.raises(AlgebraError, match=r"counit is not an algebra map at pair \(x, y\)"):
        Corrupted(good, {((1, 0), (0, 1)): {(1, 1): 1, (0, 0): 1}})
    with pytest.raises(AlgebraError, match="socle check: generator y does not kill it"):
        Corrupted(good, {((0, 1), (2, 2)): {(2, 2): 1}})
    big = build_heisenberg(field(3), 2)
    assert big.dim > ASSOC_EXHAUSTIVE_DIM
    zero, z = (0,) * 5, (0, 0, 1, 0, 0)
    with pytest.raises(AlgebraError, match="unit law fails on basis monomial z"):
        Corrupted(big, {(zero, z): {}})
    with pytest.raises(AlgebraError, match="outside the prime field"):
        Corrupted(base_change(good, field(3, 2)), {((1, 0), (0, 1)): {(1, 1): 3}})
