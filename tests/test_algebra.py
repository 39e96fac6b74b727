"""Algebra presentations: builders, straightening, morphisms, inversion."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from restrep.fields import FieldError, field
from restrep.matrices import Matrix
from restrep.algebra import (ASSOC_EXHAUSTIVE_DIM, ASSOC_SAMPLES, ASSOC_SEED, AlgebraError,
                             AlgebraElement, AlgebraMorphism, AlgebraPresentation, InvalidBound,
                             NotAugmented, NotInvertible,
                             base_change, build_abelian_restricted,
                             build_heisenberg, build_truncated_polynomial,
                             element_to_field, morphism_from_json)
from restrep.modules import pbw_cosets
from testkit import (MORPHISM_ALGEBRAS, random_automorphism, reference_algebra_verdict,
                     reference_image)


def reference_straighten(A, ei, ej):
    """The product of two basis monomials of A by exponent tuples, as
    {exp tuple: coefficient}: the per-pair straightening the kernel
    replaced, kept as its reference."""
    p = A.field.p
    if A.kind == "truncated_poly":
        out = tuple(a + b for a, b in zip(ei, ej))
        if any(e >= b for e, b in zip(out, A.bounds)):
            return {}
        return {out: 1}
    # x_t^c y_t^i = Σ_k k!·C(c,k)·C(i,k) y_t^{i-k} z^k x_t^{c-k}, z central;
    # the choices of k per t give distinct y exponents, so distinct keys
    n = A.heis_n
    ya, zb, xc = ei[:n], ei[n], ei[n + 1:]
    yi, zj, xl = ej[:n], ej[n], ej[n + 1:]
    choices = []   # per t: (k, coefficient, y_t exponent, x_t exponent)
    for t in range(n):
        choices.append([
            (k, math.factorial(k) * math.comb(xc[t], k) * math.comb(yi[t], k) % p,
             ya[t] + yi[t] - k, xc[t] + xl[t] - k)
            for k in range(min(xc[t], yi[t]) + 1)
            if ya[t] + yi[t] - k < p and xc[t] + xl[t] - k < p])
    out = {}
    for combo in itertools.product(*choices):
        zz = zb + zj + sum(c[0] for c in combo)
        coeff = math.prod(c[1] for c in combo) % p
        if zz < p and coeff:
            out[tuple(c[2] for c in combo) + (zz,) + tuple(c[3] for c in combo)] = coeff
    return out


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
    assert B.bounds == (4, 4)
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


def kernel_rows(A, I, J):
    """The kernel's terms of each pair (b_I[s], b_J[s]), in its order, as
    lists of (exp tuple, coefficient)."""
    owner, idx, coef = A._straighten(np.array(I, dtype=np.intp), np.array(J, dtype=np.intp))
    assert (np.diff(owner) >= 0).all()
    rows = [[] for _ in I]
    for s, i, c in zip(owner.tolist(), idx.tolist(), coef.tolist()):
        rows[s].append((A.basis_exps[i], c))
    return rows


def test_heisenberg_products_match_brute_force_rewriter():
    p = 3
    H = build_heisenberg(field(p))
    pairs = [(i, j) for i in range(H.dim) for j in range(H.dim)]
    rows = kernel_rows(H, *zip(*pairs))
    for (i, j), got in zip(pairs, rows):
        ei, ej = H.basis_exps[i], H.basis_exps[j]
        word = (("y",) * ei[0] + ("z",) * ei[1] + ("x",) * ei[2]
                + ("y",) * ej[0] + ("z",) * ej[1] + ("x",) * ej[2])
        assert dict(got) == brute_force_straighten(p, word), (ei, ej)


KERNEL_ALGEBRAS = {
    "H(3,1)": lambda: build_heisenberg(field(3)),
    "H(3,2)": lambda: build_heisenberg(field(3), 2),
    "H(5,1)": lambda: build_heisenberg(field(5)),
    "H(3,1) over GF(9)": lambda: base_change(build_heisenberg(field(3)), field(3, 2)),
    "GF(4)[x,y]/(x^4,y^2)": lambda: build_truncated_polynomial(field(2, 2), [4, 2]),
    "GF(5)[x,y]/(x^5,y^5)": lambda: build_truncated_polynomial(field(5), [5, 5]),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(KERNEL_ALGEBRAS)),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)), max_size=60),
       st.integers(0, 3))
@example("H(3,2)", [], 0)
@example("GF(4)[x,y]/(x^4,y^2)", [], 0)
@example("H(5,1)", [(3, 7), (3, 7), (124, 124)], 2)
def test_kernel_matches_reference(name, raw, repeats):
    # random pairs, then some of them again and the integral squared, a zero product
    A = KERNEL_ALGEBRAS[name]()
    pairs = [(i % A.dim, j % A.dim) for i, j in raw]
    pairs += pairs[:repeats] + [(A.integral_index, A.integral_index)] * min(repeats, 1)
    expect = [list(reference_straighten(A, A.basis_exps[i], A.basis_exps[j]).items())
              for i, j in pairs]
    assert kernel_rows(A, [i for i, _ in pairs], [j for _, j in pairs]) == expect


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(KERNEL_ALGEBRAS)), st.data())
def test_pow_matches_the_repeated_product(name, data):
    A = KERNEL_ALGEBRAS[name]()
    q, p = A.field.q, A.field.p
    a = AlgebraElement(A, data.draw(st.lists(st.integers(0, q - 1), min_size=A.dim,
                                             max_size=A.dim)))
    n = data.draw(st.integers(0, 2 * p))
    expect = A.one()
    for _ in range(n):
        expect = expect @ a
    assert a.pow(n) == expect


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
    ident = AlgebraMorphism(A, A, A.generators())
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


def test_invert_linear_plus_higher_part():
    # on the generator block of the tables, modulo the square of the
    # augmentation ideal, the inverse is the inverse of φ's linear part
    A = build_truncated_polynomial(field(5), [5, 5])
    x, y = A.generators()
    phi = AlgebraMorphism(A, A, [2 * x + y + x @ x, x + y + x @ y])
    inv = phi.invert()
    assert phi.compose(inv).is_identity() and inv.compose(phi).is_identity()
    gens = np.ix_(*[[A.index_of[e] for e in A._gen_exps]] * 2)
    assert Matrix(A.field, inv.table[gens]) == Matrix(A.field, phi.table[gens]).inverse()


def assert_table_matches_reference(phi):
    for i in range(phi.source.dim):
        assert np.array_equal(phi.table[i], reference_image(phi, i).vec), i


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MORPHISM_ALGEBRAS), st.data())
def test_automorphism_table_and_inverse(make, data):
    A = make()
    phi = random_automorphism(A, data.draw)
    assert_table_matches_reference(phi)
    a = A.element(data.draw(st.lists(st.integers(0, A.field.q - 1),
                                     min_size=A.dim, max_size=A.dim)))
    assert phi.apply(a) == sum((int(c) * reference_image(phi, i) for i, c in enumerate(a.vec)),
                               A.zero())
    psi = phi.invert()
    assert_table_matches_reference(psi)
    assert phi.compose(psi).is_identity() and psi.compose(phi).is_identity()


# (algebra, image of t, r): k[t]/t^(p^r) -> A as pbw_cosets embeds it
EMBEDDINGS = [
    (lambda: build_truncated_polynomial(field(3), [3, 3]), lambda x, y: x + y, 1),
    (lambda: build_truncated_polynomial(field(3), [3, 3]), lambda x, y: x + y @ y, 1),
    (lambda: build_truncated_polynomial(field(2), [2, 2, 2]), lambda x, y: x + y, 1),
    (lambda: build_truncated_polynomial(field(2, 2), [2, 2]), lambda x, y: x + y, 1),
    (lambda: build_truncated_polynomial(field(3), [9]), lambda x, _: x + x @ x, 2),
    (lambda: build_truncated_polynomial(field(2), [4, 2]), lambda x, y: x + y @ y, 2),
    (lambda: build_heisenberg(field(3)), lambda y, x: y + x, 1),
    (lambda: build_heisenberg(field(5)), lambda y, x: y + x @ x, 1),
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(EMBEDDINGS), st.data())
def test_embedding_table_matches_reference(case, data):
    make, image, r = case
    A = make()
    gens = A.generators()
    unit = data.draw(st.integers(1, A.field.q - 1))
    phi, _ = pbw_cosets(A, unit * image(gens[0], gens[-1]), r)
    assert_table_matches_reference(phi)


def test_non_bijective_endomorphism_is_not_invertible():
    for p in (2, 3):
        A = build_truncated_polynomial(field(p), [p, p])
        x, y = A.generators()
        with pytest.raises(NotInvertible):
            AlgebraMorphism(A, A, [x @ x, y]).invert()


def test_morphism_json_roundtrip():
    A = build_truncated_polynomial(field(3), [3, 3])
    x, y = A.generators()
    phi = AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)})
    again = morphism_from_json(A, A, phi.to_json())
    assert again == phi
    # image coefficients are decoded like any JSON matrix: a digit outside
    # [0, p) names its entry instead of being reduced mod p
    data = phi.to_json()
    data["images"][1][0] = [3]
    with pytest.raises(FieldError, match=r"images\[1\]\[0\]"):
        morphism_from_json(A, A, data)


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
    support by the reference and add the dense vectors."""
    F = A.field
    out = np.zeros(A.dim, dtype=np.int16)
    for i in a.support():
        for j in b.support():
            v = np.zeros(A.dim, dtype=np.int16)
            for exp, c in reference_straighten(A, A.basis_exps[i], A.basis_exps[j]).items():
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


@pytest.mark.parametrize("make", SPARSE_CASES)
def test_products_stack_every_pair_of_rows(make):
    """Column i·n + j of products(left, right) is the i-th left row times
    the j-th right row, zero rows and empty stacks included."""
    A = make()
    rng = random.Random(11)
    left = [random_element(A, rng, rng.randrange(1, 6)) for _ in range(3)] + [A.zero()]
    right = [A.zero()] + [random_element(A, rng, rng.randrange(1, 6)) for _ in range(4)]
    stacked = A.products(np.array([a.vec for a in left]), np.array([b.vec for b in right]))
    assert stacked.shape == (A.dim, len(left) * len(right))
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            assert np.array_equal(stacked[:, i * len(right) + j], dense_product(A, a, b))
    empty = np.zeros((0, A.dim), dtype=np.int16)
    assert A.products(empty, stacked.T[:2]).shape == (A.dim, 0)
    assert A.products(stacked.T[:2], empty).shape == (A.dim, 0)


def test_product_table_holds_nonzero_terms_only():
    # a Heisenberg product of basis monomials has at most p^n terms: one
    # per choice of how many z each pair x_t, y_t produces; read from the
    # kernel on every pair, or on 2,000 sampled pairs of H(3,2)
    rng = random.Random(11)
    for A, most in ((build_heisenberg(field(3), 2), 9), (build_heisenberg(field(5)), 5),
                    (build_truncated_polynomial(field(3), [9, 3]), 1)):
        if A.dim ** 2 <= 20_000:
            I, J = np.divmod(np.arange(A.dim ** 2), A.dim)
        else:
            I, J = (np.array([rng.randrange(A.dim) for _ in range(2000)]) for _ in range(2))
        owner, idx, coef = A._straighten(I, J)
        assert len(owner) > A.dim
        assert np.bincount(owner).max() <= most
        assert len(np.unique(owner * A.dim + idx)) == len(idx)
        assert (coef != 0).all()


# -- build verification rejects a corrupted table ---------------------------------


class Corrupted(AlgebraPresentation):
    """A presentation whose products of the given exponent pairs are
    replaced, so the build verification must reject it: the kernel's rows
    of those pairs are swapped for the given terms.  ``verify=False``
    skips the build verification, for the reference to judge."""

    def __init__(self, good, replace, verify=True):
        self.replace, self.verify = replace, verify
        super().__init__(good.field, good.kind, good.gen_names, good.bounds,
                         good.basis_exps, heis_n=good.heis_n)

    def _verify_build(self):
        if self.verify:
            super()._verify_build()

    def _straighten(self, I, J):
        owner, idx, coef = super()._straighten(I, J)
        hit = [s for s, (i, j) in enumerate(zip(I.tolist(), J.tolist()))
               if (self.basis_exps[i], self.basis_exps[j]) in self.replace]
        new = [(s, self.index_of[e], c) for s in hit
               for e, c in self.replace[self.basis_exps[I[s]], self.basis_exps[J[s]]].items()]
        keep = ~np.isin(owner, hit)
        owner = np.concatenate([owner[keep], np.array([s for s, _, _ in new], dtype=np.intp)])
        idx = np.concatenate([idx[keep], np.array([i for _, i, _ in new], dtype=np.intp)])
        coef = np.concatenate([coef[keep], np.array([c for _, _, c in new], dtype=coef.dtype)])
        order = np.argsort(owner, kind="stable")
        return owner[order], idx[order], coef[order]


def reference_product(A, replace=None):
    """b_i b_j as {index: coefficient} from the reference straightening,
    with the products of the exponent pairs in ``replace`` swapped."""
    replace = replace or {}

    def product(i, j):
        ei, ej = A.basis_exps[i], A.basis_exps[j]
        terms = replace.get((ei, ej))
        terms = reference_straighten(A, ei, ej) if terms is None else terms
        return {A.index_of[e]: c for e, c in terms.items()}
    return product


def first_sampled_failure(A, product):
    """The per-sample loop over the ASSOC_SAMPLES triples drawn from
    ASSOC_SEED: the build's message for the first triple where the counit
    law or associativity fails (the counit law first), or None."""
    F, one = A.field, A.identity_index
    rng = random.Random(ASSOC_SEED)

    def times(u, v):
        out = {}
        for m, c in u.items():
            for n, d in v.items():
                for t, e in product(m, n).items():
                    out[t] = F.add(out.get(t, 0), F.mul(F.mul(c, d), e))
        return {t: c for t, c in out.items() if c}

    for _ in range(ASSOC_SAMPLES):
        i, j, k = rng.randrange(A.dim), rng.randrange(A.dim), rng.randrange(A.dim)
        if product(i, j).get(one, 0) != int(i == one and j == one):
            return f"counit is not an algebra map at pair {A._pair_name(i, j)}"
        if times(product(i, j), {k: 1}) != times({i: 1}, product(j, k)):
            return f"associativity fails at triple {(i, j, k)}"
    return None


def sampled_triples(A, count):
    """The first ``count`` triples of the sampled check."""
    rng = random.Random(ASSOC_SEED)
    return [tuple(rng.randrange(A.dim) for _ in range(3)) for _ in range(count)]


def build_error(good, replace):
    with pytest.raises(AlgebraError) as err:
        Corrupted(good, replace)
    return str(err.value)


def test_build_rejects_nonassociative_product_exhaustively():
    good = build_truncated_polynomial(field(3), [3, 3])
    assert good.dim <= ASSOC_EXHAUSTIVE_DIM
    # y·x = 2xy breaks (y·x)·x = y·(x·x); the triples (i, j, g) run with j
    # slowest, and (y, x, x) is triple (3, 1, 1), the first that fails
    with pytest.raises(AlgebraError, match=r"associativity fails at triple \(3, 1, 1\)"):
        Corrupted(good, {((0, 1), (1, 0)): {(1, 1): 2}})


def test_build_requires_each_monomial_to_be_its_word():
    # hopf builds Δ(xy) as Δ(x)·Δ(y), so x·y = xy must hold in A: the build
    # refuses x·y = 2xy
    good = build_truncated_polynomial(field(3), [3, 3])
    with pytest.raises(AlgebraError, match=r"^a basis monomial is not m'·g, g its last"):
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
    # y·x = xy + 1 keeps the unit law and the words; its counit is
    # 1 = ε(y)ε(x) + 1
    with pytest.raises(AlgebraError, match=r"counit is not an algebra map at pair \(y, x\)"):
        Corrupted(good, {((0, 1), (1, 0)): {(1, 1): 1, (0, 0): 1}})
    with pytest.raises(AlgebraError, match="socle check: generator y does not kill it"):
        Corrupted(good, {((0, 1), (2, 2)): {(2, 2): 1}})
    big = build_heisenberg(field(3), 2)
    assert big.dim > ASSOC_EXHAUSTIVE_DIM
    zero, z = (0,) * 5, (0, 0, 1, 0, 0)
    with pytest.raises(AlgebraError, match="unit law fails on basis monomial z"):
        Corrupted(big, {(zero, z): {}})
    # over GF(9), where 3 encodes w: x·y = w·xy breaks the word of xy, and
    # y·x = w·xy the exact check, in field arithmetic
    big = base_change(good, field(3, 2))
    with pytest.raises(AlgebraError, match="a basis monomial is not m'·g"):
        Corrupted(big, {((1, 0), (0, 1)): {(1, 1): 3}})
    with pytest.raises(AlgebraError, match=r"associativity fails at triple \(3, 1, 1\)"):
        Corrupted(big, {((0, 1), (1, 0)): {(1, 1): 3}})


SMALL_ALGEBRAS = {
    "GF(3)[x,y]/(x^3,y^3)": lambda: build_truncated_polynomial(field(3), [3, 3]),
    "GF(3)[x]/(x^9)": lambda: build_truncated_polynomial(field(3), [9]),
    "GF(3)[x]/(x^3)": lambda: build_truncated_polynomial(field(3), [3]),
    "GF(2)[x,y,z]/(x^2,y^2,z^2)": lambda: build_truncated_polynomial(field(2), [2, 2, 2]),
    "GF(2)[x,y]/(x^4,y^4)": lambda: build_truncated_polynomial(field(2), [4, 4]),
    "GF(4)[x,y]/(x^2,y^2)": lambda: build_truncated_polynomial(field(2, 2), [2, 2]),
    "H(3,1)": lambda: build_heisenberg(field(3)),
}


# each change replaces b_i·b_j by scale·(b_i·b_j), plus c·b_extra unless
# extra is None; the raw integers are reduced to the algebra and its field.
# The example x·x = 2x² in k[x]/(x^3) is associative: only the word of x²
# rejects it.
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SMALL_ALGEBRAS)),
       st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63), st.integers(0, 3),
                          st.none() | st.integers(0, 63), st.integers(1, 3)),
                min_size=1, max_size=2))
@example("GF(3)[x]/(x^3)", [(1, 1, 2, None, 1)])
def test_build_agrees_with_the_all_triples_reference(name, changes):
    good = SMALL_ALGEBRAS[name]()
    F, exps = good.field, good.basis_exps
    replace = {}
    for i, j, scale, extra, c in changes:
        ei, ej = exps[i % good.dim], exps[j % good.dim]
        terms = {e: F.mul(scale % F.q, v) for e, v in reference_straighten(good, ei, ej).items()}
        if extra is not None:
            e = exps[extra % good.dim]
            terms[e] = F.add(terms.get(e, 0), 1 + (c - 1) % (F.q - 1))
        replace[ei, ej] = {e: v for e, v in terms.items() if v}
    try:
        Corrupted(good, replace)
        built = None
    except AlgebraError as exc:
        built = str(exc)
    expect = reference_algebra_verdict(Corrupted(good, replace, verify=False))
    assert (built is None) == (expect is None), (built, expect)
    if expect and not expect.startswith(("counit", "associativity")):
        assert built == expect


def doubled(A, i, j):
    """The replacement rule that doubles b_i b_j."""
    ei, ej = A.basis_exps[i], A.basis_exps[j]
    return {(ei, ej): {e: 2 * c % A.field.p for e, c in reference_straighten(A, ei, ej).items()}}


def with_unit_term(A, i, j):
    """The replacement rule that adds the identity to b_i b_j, so the
    counit fails on the pair."""
    ei, ej = A.basis_exps[i], A.basis_exps[j]
    return {(ei, ej): {**reference_straighten(A, ei, ej), A.basis_exps[A.identity_index]: 1}}


def corruptible(A, triples):
    """Positions of the triples with (b_i b_j) b_k nonzero whose b_i, b_j
    are neither the unit nor the integral, so that corrupting b_i b_j
    breaks no law checked before the sampled ones."""
    spare = (A.identity_index, A.integral_index)
    product = reference_product(A)
    return [s for s, (i, j, k) in enumerate(triples)
            if i not in spare and j not in spare
            and any(product(m, k) for m in product(i, j))]


def test_sampled_check_names_the_first_failing_triple():
    good = build_truncated_polynomial(field(3), [9, 9])
    assert good.dim > ASSOC_EXHAUSTIVE_DIM
    triples = sampled_triples(good, 200)
    late, early = corruptible(good, triples)[5], corruptible(good, triples)[2]
    replace = {**doubled(good, *triples[late][:2]), **doubled(good, *triples[early][:2])}
    expect = first_sampled_failure(good, reference_product(good, replace))
    assert expect is not None and expect.startswith("associativity")
    assert build_error(good, replace) == expect


def test_sampled_check_reports_the_earlier_law():
    good = build_heisenberg(field(3), 2)
    triples = sampled_triples(good, 500)
    first, second = corruptible(good, triples)[:2]
    for assoc_at, counit_at in ((first, second), (second, first)):
        replace = {**doubled(good, *triples[assoc_at][:2]),
                   **with_unit_term(good, *triples[counit_at][:2])}
        if assoc_at < counit_at:
            expect = f"associativity fails at triple {triples[assoc_at]}"
        else:
            expect = f"counit is not an algebra map at pair {good._pair_name(*triples[counit_at][:2])}"
        assert first_sampled_failure(good, reference_product(good, replace)) == expect
        assert build_error(good, replace) == expect


def test_sampled_corruption_on_heisenberg_is_rejected():
    # H(3,2) is not commutative: double the first sampled b_i b_j whose
    # straightening makes a z term, in a triple with nonzero product
    good = build_heisenberg(field(3), 2)
    assert good.dim > ASSOC_EXHAUSTIVE_DIM
    triples = sampled_triples(good, 2000)
    product = reference_product(good)
    s = next(s for s in corruptible(good, triples) if len(product(*triples[s][:2])) > 1)
    replace = doubled(good, *triples[s][:2])
    expect = first_sampled_failure(good, reference_product(good, replace))
    assert expect is not None and expect.startswith("associativity")
    assert build_error(good, replace) == expect
