"""Comultiplications: the ω term, the named library, axioms, twisting."""

import random

import pytest

from restrep.fields import field
from restrep.algebra import (AlgebraMorphism, build_heisenberg,
                             build_truncated_polynomial)
from restrep.hopf import (AxiomViolation, Comultiplication, NotAutomorphism,
                          ShapeMismatch, STRUCTURE_NAMES, custom_structure,
                          named_structure, omega, structure_from_json, twist,
                          t2_add, t2_from_pair, t2_mul)


def pascal_binomials(n):
    """Independent integer binomial oracle (Pascal's triangle)."""
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row


def omega_as_named_dict(A, g=0):
    om = omega(A, A.generator(g))
    return {(A.monomial_name(i), A.monomial_name(j)): c for (i, j), c in om.items()}


def test_omega_small_primes():
    A2 = build_truncated_polynomial(field(2), [2, 2])
    assert omega_as_named_dict(A2) == {("x", "x"): 1}
    A3 = build_truncated_polynomial(field(3), [3, 3])
    assert omega_as_named_dict(A3) == {("x", "x^2"): 1, ("x^2", "x"): 1}


def test_omega_against_integer_binomial_oracle():
    for p in (3, 5, 7):
        A = build_truncated_polynomial(field(p), [p, p])
        om = omega(A, A.generator(0))
        row = pascal_binomials(p)
        for i in range(1, p):
            assert row[i] % p == 0          # divisibility that makes ω well defined
            expect = (row[i] // p) % p
            key_i = A.index_of[(i, 0)]
            key_j = A.index_of[(p - i, 0)]
            got = om.get((key_i, key_j), 0)
            assert got == expect, (p, i)
        # symmetry c_i = c_{p-i}
        coeffs = {i: om.get((A.index_of[(i, 0)], A.index_of[(p - i, 0)]), 0)
                  for i in range(1, p)}
        assert all(coeffs[i] == coeffs[p - i] for i in range(1, p))


def test_omega_p5_frozen_values():
    # computed by the integer oracle: C(5,i)/5 mod 5 = 1, 2, 2, 1
    A = build_truncated_polynomial(field(5), [5, 5])
    om = omega(A, A.generator(0))
    coeffs = [om[(A.index_of[(i, 0)], A.index_of[(5 - i, 0)])] for i in (1, 2, 3, 4)]
    assert coeffs == [1, 2, 2, 1]


def test_named_structure_images():
    A = build_truncated_polynomial(field(2), [2, 2])
    one = A.identity_index
    xi, yi = A.index_of[(1, 0)], A.index_of[(0, 1)]
    lie = named_structure(A, "lie_primitive")
    assert lie.images[0] == {(xi, one): 1, (one, xi): 1}
    d1 = named_structure(A, "wang_Ga2")
    assert d1.images[0] == {(xi, one): 1, (one, xi): 1}
    assert d1.images[1] == {(yi, one): 1, (one, yi): 1, (xi, xi): 1}
    d2 = named_structure(A, "wang_Ga1xZp")
    assert d2.images[1] == {(yi, one): 1, (one, yi): 1, (yi, yi): 1}
    d3 = named_structure(A, "wang_ZpZp")
    assert d3.images[0] == {(xi, one): 1, (one, xi): 1, (xi, xi): 1}
    Ap = build_truncated_polynomial(field(3), [3], names=("x",))
    oort = named_structure(Ap, "oorttate_Zp")
    xi = Ap.index_of[(1,)]
    assert oort.images[0] == {(xi, Ap.identity_index): 1, (Ap.identity_index, xi): 1,
                              (xi, xi): 1}


def test_every_named_structure_passes_axioms():
    # construction runs the full axiom suite; reaching the assert means it passed
    built = []
    for p in (2, 3):
        F = field(p)
        A2 = build_truncated_polynomial(F, [p, p])
        for name in ("lie_primitive", "wang_Ga2", "wang_Ga1xZp", "wang_ZpZp"):
            built.append(named_structure(A2, name))
        A1 = build_truncated_polynomial(F, [p], names=("x",))
        built.append(named_structure(A1, "lie_primitive"))
        built.append(named_structure(A1, "oorttate_Zp"))
        W = build_truncated_polynomial(F, [p * p], names=("x",))
        built.append(named_structure(W, "witt_G2"))
        built.append(named_structure(W, "witt_Zp2"))
        H = build_heisenberg(F) if p > 2 else None
        if H is not None:
            built.append(named_structure(H, "heisenberg_primitive"))
    assert len(built) == 17
    assert set(d.name for d in built) <= set(STRUCTURE_NAMES)


def test_shape_mismatch():
    A = build_truncated_polynomial(field(2), [2, 2])
    with pytest.raises(ShapeMismatch):
        named_structure(A, "oorttate_Zp")
    with pytest.raises(ShapeMismatch):
        named_structure(A, "witt_G2")
    W = build_truncated_polynomial(field(2), [4], names=("x",))
    with pytest.raises(ShapeMismatch):
        named_structure(W, "wang_Ga2")
    with pytest.raises(ShapeMismatch):
        named_structure(A, "no_such_structure")


def test_axiom_violation_on_bad_images():
    A = build_truncated_polynomial(field(2), [2, 2])
    one = A.identity_index
    xi, yi = A.index_of[(1, 0)], A.index_of[(0, 1)]
    # x ↦ x⊗1 alone fails the counit law (ε⊗id), and x ↦ 1⊗x the law (id⊗ε)
    with pytest.raises(AxiomViolation, match="ε⊗id"):
        custom_structure(A, [{(xi, one): 1},
                             {(yi, one): 1, (one, yi): 1}])
    with pytest.raises(AxiomViolation, match="id⊗ε"):
        custom_structure(A, [{(one, xi): 1},
                             {(yi, one): 1, (one, yi): 1}])
    # non-cocommutative images fail too
    with pytest.raises(AxiomViolation):
        custom_structure(A, [{(xi, one): 1, (one, xi): 1, (xi, yi): 1},
                             {(yi, one): 1, (one, yi): 1}])
    # x ↦ x⊗1 + 1⊗x + x⊗y + y⊗x is counital and cocommutative but not
    # coassociative: (Δ⊗id)Δ(x) has the term x⊗y⊗y, (id⊗Δ)Δ(x) has y⊗y⊗x instead
    with pytest.raises(AxiomViolation, match="coassociativity"):
        custom_structure(A, [{(xi, one): 1, (one, xi): 1, (xi, yi): 1, (yi, xi): 1},
                             {(yi, one): 1, (one, yi): 1}])


def test_delta_extension_examples():
    A = build_truncated_polynomial(field(2), [2, 2])
    lie = named_structure(A, "lie_primitive")
    one = A.identity_index
    assert lie.delta_basis(one) == {(one, one): 1}
    # Δ(xy) = xy⊗1 + x⊗y + y⊗x + 1⊗xy at p = 2
    xi, yi, xyi = A.index_of[(1, 0)], A.index_of[(0, 1)], A.index_of[(1, 1)]
    assert lie.delta_basis(xyi) == {(xyi, one): 1, (xi, yi): 1, (yi, xi): 1,
                                    (one, xyi): 1}


def in_sigma_span(A, d, s2):
    """Membership of a sparse tensor in the ideal (s2⊗1, 1⊗s2)."""
    import numpy as np
    from restrep.matrices import Matrix
    dim = A.dim
    gens = []
    for i in range(dim):
        for j in range(dim):
            b = A.monomial(A.basis_exps[i])
            c = A.monomial(A.basis_exps[j])
            gens.append(t2_from_pair(A.multiply(b, s2), c))
            gens.append(t2_from_pair(b, A.multiply(c, s2)))
    cols = []
    keys = sorted(set(k for g in gens for k in g) | set(d))
    kidx = {k: i for i, k in enumerate(keys)}
    m = np.zeros((len(keys), len(gens)), dtype=np.int16)
    for col, g in enumerate(gens):
        for k, cval in g.items():
            m[kidx[k], col] = cval
    rhs = np.zeros((len(keys), 1), dtype=np.int16)
    for k, cval in d.items():
        rhs[kidx[k], 0] = cval
    M = Matrix(A.field, m)
    return M.solve(Matrix(A.field, rhs)) is not None


def test_deformed_coproduct_of_point_direction_mod_sigma():
    # Δ3(s2) - s2⊗1 - 1⊗s2 ≡ (a + a²) s1⊗s1 modulo (s2⊗1, 1⊗s2)
    K = field(2, 2)
    A = build_truncated_polynomial(K, [2, 2])
    d3 = named_structure(A, "wang_ZpZp")
    x, y = A.generators()
    for a in range(K.q):
        s1 = x
        s2 = a * x + y
        d = d3.delta_of(s2)
        one = A.identity_index
        d = t2_add(K, d, {k: K.neg(v) for k, v in t2_from_pair(s2, A.one()).items()})
        d = t2_add(K, d, {k: K.neg(v) for k, v in t2_from_pair(A.one(), s2).items()})
        coeff = K.add(a, K.mul(a, a))
        lead = {k: K.mul(K.neg(coeff), v) for k, v in t2_from_pair(s1, s1).items()}
        diff = t2_add(K, d, lead)
        assert in_sigma_span(A, diff, s2), K.fmt(a)


def test_primitive_space_dimensions():
    A = build_truncated_polynomial(field(3), [3, 3])
    assert named_structure(A, "lie_primitive").primitive_space().cols == 2
    assert named_structure(A, "wang_Ga2").primitive_space().cols == 1
    assert named_structure(A, "wang_ZpZp").primitive_space().cols == 0
    W = build_truncated_polynomial(field(2), [4], names=("x",))
    # x and its square are both primitive for the additive structure
    assert named_structure(W, "lie_primitive").primitive_space().cols == 2
    H = build_heisenberg(field(3))
    assert named_structure(H, "heisenberg_primitive").primitive_space().cols == 3


def test_twist_identity_and_roundtrip():
    A = build_truncated_polynomial(field(3), [3, 3])
    lie = named_structure(A, "lie_primitive")
    ident = AlgebraMorphism.identity(A)
    tw = twist(lie, ident)
    assert tw.images == lie.images
    x, y = A.generators()
    phi = AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)})
    tw = twist(lie, phi)
    back = twist(tw, phi.invert())
    assert back.images == lie.images
    assert tw.base_name == "lie_primitive" and len(tw.twist_chain) == 1


def test_twist_composition_law():
    A = build_truncated_polynomial(field(3), [3, 3])
    lie = named_structure(A, "lie_primitive")
    x, y = A.generators()
    phi = AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)})
    psi = AlgebraMorphism.from_gen_map(A, {"x": x + y.pow(2)})
    lhs = twist(twist(lie, phi), psi)
    rhs = twist(lie, psi.compose(phi))
    assert lhs.images == rhs.images


def test_twisted_coproduct_explicit_value():
    # twisting the primitive structure by y ↦ y + x² adds a -2 x⊗x term to Δ(y)
    for p in (2, 3):
        A = build_truncated_polynomial(field(p), [p, p])
        x, y = A.generators()
        phi = AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)})
        tw = twist(named_structure(A, "lie_primitive"), phi)
        one = A.identity_index
        xi, yi = A.index_of[(1, 0)], A.index_of[(0, 1)]
        expect = {(yi, one): 1, (one, yi): 1}
        c = A.field.neg(2 % p)
        if c:
            expect[(xi, xi)] = c
        assert tw.images[1] == expect


def test_twist_requires_automorphism():
    A = build_truncated_polynomial(field(3), [3, 3])
    x, y = A.generators()
    lie = named_structure(A, "lie_primitive")
    collapse = AlgebraMorphism(A, A, [x, x])
    with pytest.raises(NotAutomorphism):
        twist(lie, collapse)


def test_structure_json_roundtrip():
    A = build_truncated_polynomial(field(2), [2, 2])
    d = named_structure(A, "wang_Ga2")
    again = structure_from_json(A, d.to_json())
    assert again.images == d.images


def test_multiplicativity_spot_checks():
    # Δ(b_i b_j) = Δ(b_i) Δ(b_j) on random pairs for a deformed structure
    rng = random.Random(0)
    A = build_truncated_polynomial(field(5), [5, 5])
    d = named_structure(A, "wang_Ga2")
    for _ in range(20):
        i, j = rng.randrange(A.dim), rng.randrange(A.dim)
        prod = A.element(A.product_vec(i, j))
        assert d.delta_of(prod) == t2_mul(A, d.delta_basis(i), d.delta_basis(j))
    # the zero tensor times anything is zero, on either side
    assert t2_mul(A, {}, d.delta_basis(1)) == t2_mul(A, d.delta_basis(1), {}) == {}
