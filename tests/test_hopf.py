"""Comultiplications: the ω term, the named library, axioms, twisting."""

import collections
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restrep.fields import FieldError, field
from restrep.algebra import (AlgebraError, AlgebraMorphism,
                             build_heisenberg, build_truncated_polynomial)
from restrep.hopf import (AxiomViolation, Comultiplication, NotAutomorphism,
                          ShapeMismatch, STRUCTURE_NAMES, custom_structure,
                          named_structure, omega, structure_from_json, twist)
from restrep.matrices import Matrix, _INT
from testkit import (product_terms, product_vec, random_automorphism, reference_image,
                     reference_verdict)


# -- the dict reference: A⊗A as {(i, j): c} ---------------------------------------
# The sparse-dict arithmetic the array code replaced, kept as its reference.

def t2_add_term(F, acc, key, c):
    """acc[key] += c in a sparse tensor, dropping zeros."""
    if not c:
        return
    s = F.add(acc.get(key, 0), c)
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def t2_add(F, u, v):
    out = dict(u)
    for k, c in v.items():
        t2_add_term(F, out, k, c)
    return out


def t2_from_pair(a, b):
    """Simple tensor a⊗b as a sparse dict."""
    F = a.algebra.field
    return {(i, j): F.mul(int(a.vec[i]), int(b.vec[j])) for i in a.support() for j in b.support()}


def t2_mul(A, u, v):
    """Componentwise product in A⊗A of sparse dicts, one pair of terms at a time."""
    F = A.field
    out = {}
    for (i1, j1), c1 in u.items():
        for (i2, j2), c2 in v.items():
            left_idx, left_coef = product_terms(A, i1, i2)
            right_idx, right_coef = product_terms(A, j1, j2)
            c = F.mul(c1, c2)
            for li, cl in zip(left_idx.tolist(), left_coef.tolist()):
                for rj, cr in zip(right_idx.tolist(), right_coef.tolist()):
                    t2_add_term(F, out, (li, rj), F.mul(F.mul(c, cl), cr))
    return out


def as_dict(A, tensor):
    """A tensor (keys i·dim + j, coefficients) of restrep.hopf as {(i, j): c}."""
    keys, coef = tensor
    return {(k // A.dim, k % A.dim): c for k, c in zip(keys.tolist(), coef.tolist())}


def reference_delta(A, images):
    """Δ of every basis monomial as a dict: the dict images of the
    generators multiplied in word order, one t2_mul per letter."""
    one = A.identity_index
    memo = {(0,) * len(A.gen_names): {(one, one): 1}}

    def delta(exps):
        if exps not in memo:
            g = max(t for t, e in enumerate(exps) if e)
            memo[exps] = t2_mul(A, delta(exps[:g] + (exps[g] - 1,) + exps[g + 1:]), images[g])
        return memo[exps]

    return [delta(e) for e in A.basis_exps]


def primitive_space(delta):
    """Basis of {a : Δ(a) = a⊗1 + 1⊗a}, as columns over the algebra basis."""
    A = delta.algebra
    F = A.field
    one = A.identity_index
    rows = {}
    cols = []
    for i in range(A.dim):
        d = as_dict(A, delta.delta_basis(i))
        t2_add_term(F, d, (i, one), F.neg(1))
        t2_add_term(F, d, (one, i), F.neg(1))
        cols.append(d)
        for key in d:
            rows.setdefault(key, len(rows))
    m = np.zeros((len(rows), A.dim), dtype=_INT)
    for i, d in enumerate(cols):
        for key, c in d.items():
            m[rows[key], i] = c
    return Matrix(F, m, copy=False).nullspace()


def pascal_binomials(n):
    """Independent integer binomial oracle (Pascal's triangle)."""
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row


def omega_as_named_dict(A, g=0):
    om = as_dict(A, omega(A, A.generator(g)))
    return {(A.monomial_name(i), A.monomial_name(j)): c for (i, j), c in om.items()}


def test_omega_small_primes():
    A2 = build_truncated_polynomial(field(2), [2, 2])
    assert omega_as_named_dict(A2) == {("x", "x"): 1}
    A3 = build_truncated_polynomial(field(3), [3, 3])
    assert omega_as_named_dict(A3) == {("x", "x^2"): 1, ("x^2", "x"): 1}


def test_omega_against_integer_binomial_oracle():
    for p in (3, 5, 7):
        A = build_truncated_polynomial(field(p), [p, p])
        om = as_dict(A, omega(A, A.generator(0)))
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
    om = as_dict(A, omega(A, A.generator(0)))
    coeffs = [om[(A.index_of[(i, 0)], A.index_of[(5 - i, 0)])] for i in (1, 2, 3, 4)]
    assert coeffs == [1, 2, 2, 1]


def test_named_structure_images():
    A = build_truncated_polynomial(field(2), [2, 2])
    one = A.identity_index
    xi, yi = A.index_of[(1, 0)], A.index_of[(0, 1)]
    lie = named_structure(A, "lie_primitive")
    assert as_dict(A, lie.images[0]) == {(xi, one): 1, (one, xi): 1}
    d1 = named_structure(A, "wang_Ga2")
    assert as_dict(A, d1.images[0]) == {(xi, one): 1, (one, xi): 1}
    assert as_dict(A, d1.images[1]) == {(yi, one): 1, (one, yi): 1, (xi, xi): 1}
    d2 = named_structure(A, "wang_Ga1xZp")
    assert as_dict(A, d2.images[1]) == {(yi, one): 1, (one, yi): 1, (yi, yi): 1}
    d3 = named_structure(A, "wang_ZpZp")
    assert as_dict(A, d3.images[0]) == {(xi, one): 1, (one, xi): 1, (xi, xi): 1}
    Ap = build_truncated_polynomial(field(3), [3], names=("x",))
    oort = named_structure(Ap, "oorttate_Zp")
    xi = Ap.index_of[(1,)]
    assert as_dict(Ap, oort.images[0]) == {(xi, Ap.identity_index): 1,
                                           (Ap.identity_index, xi): 1, (xi, xi): 1}


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
    y_prim = {(yi, one): 1, (one, yi): 1}
    # x ↦ x⊗1 alone fails the counit law (ε⊗id), and x ↦ 1⊗x the law (id⊗ε)
    with pytest.raises(AxiomViolation, match=r"^counit law \(ε⊗id\) fails on basis 1$"):
        custom_structure(A, [{(xi, one): 1}, y_prim])
    with pytest.raises(AxiomViolation, match=r"^counit law \(id⊗ε\) fails on basis 1$"):
        custom_structure(A, [{(one, xi): 1}, y_prim])
    # non-cocommutative images fail too
    with pytest.raises(AxiomViolation, match=r"^cocommutativity fails on basis 1$"):
        custom_structure(A, [{(xi, one): 1, (one, xi): 1, (xi, yi): 1}, y_prim])
    # x ↦ x⊗1 + 1⊗x + x⊗y + y⊗x is counital and cocommutative but not
    # coassociative: (Δ⊗id)Δ(x) has the term x⊗y⊗y, (id⊗Δ)Δ(x) has y⊗y⊗x instead
    with pytest.raises(AxiomViolation, match=r"^coassociativity fails on basis 1$"):
        custom_structure(A, [{(xi, one): 1, (one, xi): 1, (xi, yi): 1, (yi, xi): 1}, y_prim])


def test_axiom_violation_names_the_first_failing_basis_in_loop_order():
    A = build_truncated_polynomial(field(2), [2, 2])
    one = A.identity_index
    xi, yi = A.index_of[(1, 0)], A.index_of[(0, 1)]
    x_prim = {(xi, one): 1, (one, xi): 1}
    # x is fine, so the first failure is at y (basis 2)
    with pytest.raises(AxiomViolation, match=r"^counit law \(ε⊗id\) fails on basis 2$"):
        custom_structure(A, [x_prim, {(yi, one): 1}])
    with pytest.raises(AxiomViolation, match=r"^cocommutativity fails on basis 2$"):
        custom_structure(A, [x_prim, {(yi, one): 1, (one, yi): 1, (yi, xi): 1}])
    with pytest.raises(AxiomViolation, match=r"^coassociativity fails on basis 2$"):
        custom_structure(A, [x_prim, {(yi, one): 1, (one, yi): 1, (xi, yi): 1, (yi, xi): 1}])
    # basis 1 fails the last law and basis 2 the first: the basis order wins
    with pytest.raises(AxiomViolation, match=r"^coassociativity fails on basis 1$"):
        custom_structure(A, [{(xi, one): 1, (one, xi): 1, (xi, yi): 1, (yi, xi): 1},
                             {(yi, one): 1}])


def test_multiplicativity_violation_names_the_failing_relation():
    # x and y primitive and z grouplike-shifted is counital, cocommutative and
    # coassociative on every basis monomial, but Δ does not respect [x, y] = z
    H = build_heisenberg(field(3))
    one = H.identity_index
    images = []
    for g, name in enumerate(H.gen_names):
        gi = H.index_of[H._gen_exps[g]]
        images.append({(gi, one): 1, (one, gi): 1, **({(gi, gi): 1} if name == "z" else {})})
    with pytest.raises(AxiomViolation, match=r"^Δ is not multiplicative: relation \[x,y\] = z fails$"):
        custom_structure(H, images)
    assert reference_verdict(H, images) == "multiplicativity fails at pair (0, 14)"


def test_power_relation_that_fails_on_few_pairs_is_rejected():
    # y ↦ y⊗1 + 1⊗y + x²⊗x² on GF(2)[x,y]/(x⁸, y²) is counital, cocommutative
    # and coassociative on every basis monomial, but Δ(y)² = x⁴⊗x⁴ ≠ 0:
    # Δ(b_i b_j) = Δ(b_i)·Δ(b_j) fails only on the 10 of 256 pairs
    # (x^a·y, x^b·y) with a + b ≤ 3, which 64 sampled pairs can all miss
    A = build_truncated_polynomial(field(2), [8, 2])
    one = A.identity_index
    xi, yi, x2 = A.index_of[(1, 0)], A.index_of[(0, 1)], A.index_of[(2, 0)]
    images = [{(xi, one): 1, (one, xi): 1}, {(yi, one): 1, (one, yi): 1, (x2, x2): 1}]
    with pytest.raises(AxiomViolation, match=r"^Δ is not multiplicative: relation y\^2 = 0 fails$"):
        custom_structure(A, images)
    assert reference_verdict(A, images) == "multiplicativity fails at pair (8, 8)"


def test_exact_check_agrees_with_the_reference_on_every_x_power_term():
    # y ↦ y⊗1 + 1⊗y + x^a⊗x^b + x^b⊗x^a on GF(2)[x,y]/(x⁸, y²), every
    # 1 <= a <= b < 8: each verdict occurs, multiplicativity alone included
    A = build_truncated_polynomial(field(2), [8, 2])
    one, yi = A.identity_index, A.index_of[(0, 1)]
    xs = [A.index_of[(a, 0)] for a in range(8)]
    verdicts = collections.Counter()
    for a in range(1, 8):
        for b in range(a, 8):
            images = [{(xs[1], one): 1, (one, xs[1]): 1},
                      {(yi, one): 1, (one, yi): 1, (xs[a], xs[b]): 1, (xs[b], xs[a]): 1}]
            try:
                custom_structure(A, images)
                exact = None
            except AxiomViolation as exc:
                exact = str(exc)
            reference = reference_verdict(A, images)
            assert (exact is None) == (reference is None), (a, b, exact, reference)
            verdicts[(reference or "accepted").split(" ")[0]] += 1
    assert verdicts == {"accepted": 3, "multiplicativity": 3, "coassociativity": 22}


def test_cocommutativity_compares_coefficients():
    # the keys of Δ(x) are symmetric, its coefficients are not
    A = build_truncated_polynomial(field(3), [3, 3])
    one = A.identity_index
    xi, yi = A.index_of[(1, 0)], A.index_of[(0, 1)]
    with pytest.raises(AxiomViolation, match=r"^cocommutativity fails on basis 1$"):
        custom_structure(A, [{(xi, one): 1, (one, xi): 1, (xi, yi): 1, (yi, xi): 2},
                             {(yi, one): 1, (one, yi): 1}])


def test_delta_extension_examples():
    A = build_truncated_polynomial(field(2), [2, 2])
    lie = named_structure(A, "lie_primitive")
    one = A.identity_index
    assert as_dict(A, lie.delta_basis(one)) == {(one, one): 1}
    # Δ(xy) = xy⊗1 + x⊗y + y⊗x + 1⊗xy at p = 2
    xi, yi, xyi = A.index_of[(1, 0)], A.index_of[(0, 1)], A.index_of[(1, 1)]
    assert as_dict(A, lie.delta_basis(xyi)) == {(xyi, one): 1, (xi, yi): 1, (yi, xi): 1,
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
        d = as_dict(A, d3.delta_of(s2))
        one = A.identity_index
        d = t2_add(K, d, {k: K.neg(v) for k, v in t2_from_pair(s2, A.one()).items()})
        d = t2_add(K, d, {k: K.neg(v) for k, v in t2_from_pair(A.one(), s2).items()})
        coeff = K.add(a, K.mul(a, a))
        lead = {k: K.mul(K.neg(coeff), v) for k, v in t2_from_pair(s1, s1).items()}
        diff = t2_add(K, d, lead)
        assert in_sigma_span(A, diff, s2), K.fmt(a)


def test_primitive_space_dimensions():
    A = build_truncated_polynomial(field(3), [3, 3])
    assert primitive_space(named_structure(A, "lie_primitive")).cols == 2
    assert primitive_space(named_structure(A, "wang_Ga2")).cols == 1
    assert primitive_space(named_structure(A, "wang_ZpZp")).cols == 0
    W = build_truncated_polynomial(field(2), [4], names=("x",))
    # x and its square are both primitive for the additive structure
    assert primitive_space(named_structure(W, "lie_primitive")).cols == 2
    H = build_heisenberg(field(3))
    assert primitive_space(named_structure(H, "heisenberg_primitive")).cols == 3


def images_as_dicts(delta):
    return [as_dict(delta.algebra, im) for im in delta.images]


def test_twist_identity_and_roundtrip():
    A = build_truncated_polynomial(field(3), [3, 3])
    lie = named_structure(A, "lie_primitive")
    ident = AlgebraMorphism(A, A, A.generators())
    tw = twist(lie, ident)
    assert images_as_dicts(tw) == images_as_dicts(lie)
    x, y = A.generators()
    phi = AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)})
    tw = twist(lie, phi)
    back = twist(tw, phi.invert())
    assert images_as_dicts(back) == images_as_dicts(lie)


def test_twist_composition_law():
    A = build_truncated_polynomial(field(3), [3, 3])
    lie = named_structure(A, "lie_primitive")
    x, y = A.generators()
    phi = AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)})
    psi = AlgebraMorphism.from_gen_map(A, {"x": x + y.pow(2)})
    lhs = twist(twist(lie, phi), psi)
    rhs = twist(lie, psi.compose(phi))
    assert images_as_dicts(lhs) == images_as_dicts(rhs)


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
        assert as_dict(A, tw.images[1]) == expect


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
    assert images_as_dicts(again) == images_as_dicts(d)


def test_multiplicativity_spot_checks():
    # Δ(b_i b_j) = Δ(b_i) Δ(b_j) on random pairs for a deformed structure
    rng = random.Random(0)
    A = build_truncated_polynomial(field(5), [5, 5])
    d = named_structure(A, "wang_Ga2")
    for _ in range(20):
        i, j = rng.randrange(A.dim), rng.randrange(A.dim)
        prod = A.element(product_vec(A, i, j))
        assert as_dict(A, d.delta_of(prod)) == t2_mul(A, as_dict(A, d.delta_basis(i)),
                                                      as_dict(A, d.delta_basis(j)))
    # the zero tensor times anything is zero, on either side; Δ(0) = 0
    x1 = as_dict(A, d.delta_basis(1))
    assert t2_mul(A, {}, x1) == t2_mul(A, x1, {}) == {}
    assert as_dict(A, d.delta_of(A.zero())) == {}


def test_malformed_images_name_the_generator_and_the_key():
    A = build_truncated_polynomial(field(3), [3, 3])
    one = A.identity_index
    xi, yi = A.index_of[(1, 0)], A.index_of[(0, 1)]
    x_prim, y_prim = {(xi, one): 1, (one, xi): 1}, {(yi, one): 1, (one, yi): 1}
    with pytest.raises(ShapeMismatch, match=r"^image of generator y: key \(99, 0\) is not a "
                                            r"pair of basis indices in \[0, 9\)$"):
        custom_structure(A, [x_prim, {(99, one): 1, (one, yi): 1}])
    with pytest.raises(ShapeMismatch, match=r"^image of generator x: coefficient 5 at key "
                                            r"\(1, 0\) is not an element of GF\(3\)$"):
        custom_structure(A, [{(xi, one): 5, (one, xi): 1}, y_prim])
    with pytest.raises(ShapeMismatch, match=r"key \(-1, 0\)"):
        custom_structure(A, [{(-1, one): 1, (one, xi): 1}, y_prim])
    with pytest.raises(ShapeMismatch, match="one image per generator"):
        custom_structure(A, [x_prim])
    # the JSON path goes through the same check
    data = named_structure(A, "lie_primitive").to_json()
    data["images"][1][0][:2] = [99, 0]
    with pytest.raises(ShapeMismatch, match=r"^image of generator y: key \(99, 0\)"):
        structure_from_json(A, data)
    data = named_structure(A, "lie_primitive").to_json()
    data["images"][0][1] = [1.5, 0, [1]]
    with pytest.raises(ShapeMismatch, match=r"key \(1\.5, 0\)"):
        structure_from_json(A, data)
    data["images"][0][1] = [1, 0, [4]]
    with pytest.raises(FieldError, match=r"^images\[0\] coefficients\[1\]\[0\]: \[4\] is not"):
        structure_from_json(A, data)
    # so a bad structure is an AlgebraError: one line and exit 2 on the CLI path
    assert issubclass(ShapeMismatch, AlgebraError)


def _named_cases():
    cases = []
    for p in (2, 3, 5):
        F = field(p)
        shapes = [(lambda F=F, p=p: build_truncated_polynomial(F, [p, p]),
                   ("lie_primitive", "wang_Ga2", "wang_Ga1xZp", "wang_ZpZp")),
                  (lambda F=F, p=p: build_truncated_polynomial(F, [p], names=("x",)),
                   ("lie_primitive", "oorttate_Zp")),
                  (lambda F=F, p=p: build_truncated_polynomial(F, [p * p], names=("x",)),
                   ("lie_primitive", "witt_G2", "witt_Zp2"))]
        if p > 2:
            shapes.append((lambda F=F: build_heisenberg(F), ("lie_primitive", "heisenberg_primitive")))
        cases += [(make, name, p) for make, names in shapes for name in names]
    return cases


NAMED_CASES = _named_cases()


def assert_matches_reference(delta, images):
    """Δ of every basis monomial equals the dict reference built from the
    dict ``images``, term for term and in key order."""
    A = delta.algebra
    for i, ref in enumerate(reference_delta(A, images)):
        keys, coef = delta.delta_basis(i)
        assert [(k // A.dim, k % A.dim, c) for k, c in zip(keys.tolist(), coef.tolist())] \
            == [(a, b, c) for (a, b), c in sorted(ref.items())], (delta.name, i)


@pytest.mark.parametrize("make,name,p", NAMED_CASES,
                         ids=[f"{name}-p{p}-{i}" for i, (_, name, p) in enumerate(NAMED_CASES)])
def test_delta_table_matches_dict_reference(make, name, p):
    A = make()
    delta = named_structure(A, name)
    assert_matches_reference(delta, images_as_dicts(delta))


# twists at p = 5 are left out for time: a random automorphism there can
# give images of several hundred terms and a table the reference takes seconds on
@settings(max_examples=20, deadline=None)
@given(st.sampled_from([case for case in NAMED_CASES if case[2] <= 3]), st.data())
def test_twisted_delta_matches_dict_reference(case, data):
    make, name, p = case
    A = make()
    F = A.field
    delta = named_structure(A, name)
    phi = random_automorphism(A, data.draw)
    tw = twist(delta, phi)
    # (φ⊗φ)Δ(φ⁻¹ g) on dicts: Σ c·φ(b_i)⊗φ(b_j) over the reference Δ(φ⁻¹ g)
    ref = reference_delta(A, images_as_dicts(delta))
    expect = []
    for a in phi.invert().images:
        d = {}
        for k in a.support():
            d = t2_add(F, d, {key: F.mul(int(a.vec[k]), c) for key, c in ref[k].items()})
        out = {}
        for (i, j), c in d.items():
            pair = t2_from_pair(reference_image(phi, i), reference_image(phi, j))
            out = t2_add(F, out, {key: F.mul(c, v) for key, v in pair.items()})
        expect.append(out)
    assert images_as_dicts(tw) == expect
    assert_matches_reference(tw, expect)


# Unequal bounds, where a counital image can fail a power relation: on
# k[x]/(x^p^a) and k[x,y]/(x^p, y^p) Frobenius makes every one hold.
UNEQUAL_CASES = [(lambda: build_truncated_polynomial(field(2), [8, 2]), "lie_primitive", 2),
                 (lambda: build_truncated_polynomial(field(3), [3, 9]), "lie_primitive", 3)]


# the all-pairs reference builds Δ on every pair of basis monomials, so the
# property runs on algebras of dimension at most 27, and twists only at p <= 3
# with equal bounds, where random_automorphism draws endomorphisms
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([case for case in NAMED_CASES if case[0]().dim <= 27] + UNEQUAL_CASES),
       st.data())
def test_exact_axiom_check_agrees_with_the_all_pairs_reference(case, data):
    make, name, p = case
    A = make()
    F = A.field
    delta = named_structure(A, name)
    if p <= 3 and len(set(A.bounds)) == 1 and data.draw(st.booleans()):
        delta = twist(delta, random_automorphism(A, data.draw))
    images, one = images_as_dicts(delta), A.identity_index
    # symmetric terms on aug⊗aug keep the counit laws and cocommutativity:
    # b_i⊗b_j + b_j⊗b_i, b_i⊗b_i or Δ(b_i) - b_i⊗1 - 1⊗b_i; the last two
    # often keep coassociativity too and leave only a relation to fail
    aug = st.sampled_from([i for i in range(A.dim) if i != one])
    for _ in range(data.draw(st.integers(0, 2))):
        g, i, j = data.draw(st.integers(0, len(images) - 1)), data.draw(aug), data.draw(aug)
        kind = data.draw(st.sampled_from(("pair", "square", "coboundary")))
        if kind == "coboundary":
            terms = as_dict(A, delta.delta_basis(i))
            del terms[(i, one)], terms[(one, i)]
        else:
            terms = {(i, j): 1, (j, i): 1} if kind == "pair" else {(i, i): 1}
        c = data.draw(st.integers(1, F.q - 1))
        for key, v in terms.items():
            t2_add_term(F, images[g], key, F.mul(c, v))
    try:
        custom_structure(A, images)
        exact = None
    except AxiomViolation as exc:
        exact = str(exc)
    assert (exact is None) == (reference_verdict(A, images) is None), exact
