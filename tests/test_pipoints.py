"""Flat points, support scans, equivalence, nobility, the twist action."""

import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from restrep.fields import field
from restrep.algebra import (AlgebraMorphism, build_abelian_restricted, build_heisenberg,
                             build_truncated_polynomial)
from restrep.hopf import custom_structure, named_structure, twist
from restrep.matrices import Matrix, nilpotent_jordan_type
from restrep.modules import direct_sum, regular_module, tensor, trivial_module
from restrep.pipoints import (NotFlat, PiPoint, PointError, PointFamily,
                              aut_action_on_point, coord_label, is_isotropy, nobility,
                              normalize_coords, support)
from testkit import (BadTestModule, canonical_pi_point, equivalent, point_test_module,
                     reference_nobility)


def klein():
    return build_truncated_polynomial(field(2), [2, 2])


def test_normalize_and_label():
    K = field(2, 2)
    assert normalize_coords(K, (2, 3)) == (normalize_coords(K, (2, 3)))
    a = K.mul(2, K.inv(3))
    assert normalize_coords(K, (2, 3)) == (a, 1)
    assert coord_label(K, (2, 1)) == "[w:1]"
    with pytest.raises(Exception):
        normalize_coords(K, (0, 0))


def test_canonical_point_images():
    A = klein()
    pt = canonical_pi_point(A, (1, 0))
    assert pt.image == A.generator("x")
    pt = canonical_pi_point(A, (0, 1))
    assert pt.image == A.generator("y")
    # top-slice substitution for bounds above p
    B = build_abelian_restricted(field(2), [2, 2])   # k[x,y]/(x^4,y^4)
    pt = canonical_pi_point(B, (1, 1))
    x, y = B.generators()
    assert pt.image == x.pow(2) + y.pow(2)
    # extension coordinates
    ptw = canonical_pi_point(A, (2, 1), ext=2)
    assert ptw.label == "[w:1]"


def test_flatness_enforced():
    A = klein()
    x, y = A.generators()
    with pytest.raises(NotFlat):
        PiPoint(A, A.multiply(x, y))       # socle direction is not flat
    with pytest.raises(NotFlat):
        PiPoint(A, x + A.one())            # not in the augmentation ideal
    p5 = build_truncated_polynomial(field(5), [5, 5])
    with pytest.raises(NotFlat):
        PiPoint(p5, p5.generator("x").pow(2))   # image^p = 0 but not flat


def test_flatness_stable_under_higher_order_terms():
    # adding a square-ideal term to a flat image keeps it flat
    rng = random.Random(5)
    for p in (2, 3):
        A = build_truncated_polynomial(field(p), [p, p])
        x, y = A.generators()
        for _ in range(6):
            xi = A.zero()
            for i in range(A.dim):
                exps = A.basis_exps[i]
                if sum(exps) >= 2 and rng.random() < 0.4:
                    xi = xi + rng.randrange(p) * A.monomial(exps)
            img = x + xi if p == 2 else x + xi
            if not img.pow(p).is_zero():
                continue
            PiPoint(A, img)   # constructor raises if not flat


def test_family_enumeration_sizes():
    A = klein()
    assert len(PointFamily(A, ext_degree=1)) == 3      # P^1(GF(2))
    assert len(PointFamily(A, ext_degree=2)) == 5      # P^1(GF(4))
    A3 = build_truncated_polynomial(field(3), [3, 3])
    assert len(PointFamily(A3, ext_degree=1)) == 4
    assert len(PointFamily(A3, ext_degree=2)) == 10
    T = build_abelian_restricted(field(2), [1, 1, 1])
    assert len(PointFamily(T, ext_degree=1)) == 7      # P^2(GF(2))


def test_support_basics():
    A = klein()
    fam = PointFamily(A, ext_degree=2)
    assert len(support(regular_module(A), fam)) == 0
    assert len(support(trivial_module(A), fam)) == 5
    for pt in fam:
        T = point_test_module(fam, pt.label)
        assert support(T, fam).labels == {pt.label}


def test_scan_matches_each_point_and_any_chunking(monkeypatch):
    from restrep import pipoints
    A = build_truncated_polynomial(field(3), [3, 3])
    fam = PointFamily(A, ext_degree=2)
    AK = fam.A_K
    mods = [trivial_module(AK), regular_module(AK)] + [point_test_module(fam, pt.label)
                                                       for pt in list(fam)[:3]]
    M = direct_sum(mods)
    M_K = fam.lift(M)
    expect = {pt.label: nilpotent_jordan_type(Matrix(fam.K, M_K.act(pt.image).a))
              for pt in fam}
    assert fam.jordan_types(M) == expect
    # a budget below one point's stack: one point per chunk, same types
    monkeypatch.setattr(pipoints, "SCAN_BYTE_BUDGET", 1)
    chunks = []
    chains = pipoints.rank_chains
    monkeypatch.setattr(pipoints, "rank_chains", lambda mats: chunks.append(len(mats))
                        or chains(mats))
    fresh = PointFamily(A, ext_degree=2)       # its flatness scan is chunked too
    assert chunks == [1] * len(fresh)
    assert fresh.jordan_types(direct_sum(mods)) == expect
    assert chunks == [1] * (2 * len(fresh))
    assert support(direct_sum(mods), fresh) == support(M, fam)


def test_support_union_additivity():
    rng = random.Random(17)
    A = klein()
    fam = PointFamily(A, ext_degree=2)
    mods = [point_test_module(fam, pt.label) for pt in fam] + [regular_module(fam.A_K)]
    for _ in range(12):
        M = mods[rng.randrange(len(mods))]
        N = mods[rng.randrange(len(mods))]
        sM, sN = support(M, fam), support(N, fam)
        assert support(direct_sum([M, N]), fam) == (sM | sN)


def test_support_tensor_intersection():
    A = klein()
    fam = PointFamily(A, ext_degree=2)
    K = fam.K
    AK = fam.A_K
    mods = {pt.label: point_test_module(fam, pt.label) for pt in fam}
    labels = [pt.label for pt in fam]
    for name in ("lie_primitive", "wang_Ga2", "wang_Ga1xZp", "wang_ZpZp"):
        d = named_structure(AK, name)
        for la, lb in ((labels[0], labels[0]), (labels[0], labels[1]),
                       (labels[2], labels[3])):
            T = tensor(mods[la], mods[lb], d)
            expect = support(mods[la], fam) & support(mods[lb], fam)
            assert support(T, fam) == expect, (name, la, lb)


def test_equivalence_by_test_module():
    A = klein()
    fam = PointFamily(A, ext_degree=2)
    AK = fam.A_K
    x, y = AK.generators()
    tm = point_test_module(fam, "[1:0]")
    alpha = PiPoint(AK, x, coords=(1, 0))
    assert equivalent(alpha, alpha, tm, fam)
    beta = PiPoint(AK, x + AK.multiply(x, y))
    assert equivalent(alpha, beta, tm, fam)
    gamma = PiPoint(AK, y, coords=(0, 1))
    assert not equivalent(alpha, gamma, tm, fam)
    with pytest.raises(BadTestModule):
        equivalent(alpha, beta, regular_module(AK), fam)    # empty support
    with pytest.raises(BadTestModule):
        equivalent(alpha, beta, trivial_module(AK), fam)    # full support


def test_nobility_tables():
    A = klein()
    fam = PointFamily(A, ext_degree=2)
    expects = {
        "lie_primitive": {"[1:0]": "noble", "[0:1]": "noble", "[1:1]": "noble",
                          "[w:1]": "noble", "[w+1:1]": "noble"},
        "wang_Ga2": {"[1:0]": "noble", "[0:1]": "ignoble", "[1:1]": "ignoble",
                     "[w:1]": "ignoble", "[w+1:1]": "ignoble"},
        "wang_Ga1xZp": {"[1:0]": "noble", "[0:1]": "noble", "[1:1]": "ignoble",
                        "[w:1]": "ignoble", "[w+1:1]": "ignoble"},
        "wang_ZpZp": {"[1:0]": "noble", "[0:1]": "noble", "[1:1]": "noble",
                      "[w:1]": "ignoble", "[w+1:1]": "ignoble"},
    }
    for name, table in expects.items():
        d = named_structure(A, name)
        got = {pt.label: nobility(d, pt.coords, fam) for pt in fam}
        assert got == table, name


def test_nobility_prime_field_rule_at_odd_p():
    A = build_truncated_polynomial(field(3), [3, 3])
    fam = PointFamily(A, ext_degree=2)
    d = named_structure(A, "wang_ZpZp")
    noble = [pt.label for pt in fam if nobility(d, pt.coords, fam) == "noble"]
    assert len(noble) == 4       # p + 1 prime-field classes


def test_nobility_single_point_algebras():
    Ap = build_truncated_polynomial(field(3), [3], names=("x",))
    fam = PointFamily(Ap, ext_degree=1)
    assert len(fam) == 1
    for name in ("lie_primitive", "oorttate_Zp"):
        d = named_structure(Ap, name)
        assert nobility(d, (1,), fam) == "noble"


def test_nobility_of_unlabelled_structure():
    # u6 of the census of Δ on k[x,y]/(x², y²) over GF(2): no hand-set rule
    A = klein()
    o, x, y, xy = A.identity_index, A.index_of[(1, 0)], A.index_of[(0, 1)], A.index_of[(1, 1)]
    u6 = custom_structure(A, [
        {(x, o): 1, (o, x): 1, (x, xy): 1, (xy, x): 1, (y, y): 1, (xy, xy): 1},
        {(y, o): 1, (o, y): 1, (x, x): 1, (x, xy): 1, (xy, x): 1, (y, y): 1,
         (y, xy): 1, (xy, y): 1, (xy, xy): 1}])
    noble = {1: set(), 2: set(), 3: {"[w+1:1]", "[w^2+1:1]", "[w^2+w+1:1]"}, 4: set()}
    for e, group_likes in zip(noble, (1, 1, 4, 1)):
        fam = PointFamily(A, ext_degree=e)
        P, G = u6.primitives_and_group_likes(fam.K)
        assert (len(P), len(G)) == (0, group_likes)
        assert {pt.label for pt in fam if nobility(u6, pt.coords, fam) == "noble"} == noble[e]
    # (primitive dimension, number of group-likes) of the library structures
    for name, invariants in (("lie_primitive", (2, 1)), ("wang_Ga2", (1, 1)),
                             ("wang_Ga1xZp", (1, 2)), ("wang_ZpZp", (0, 4))):
        P, G = named_structure(A, name).primitives_and_group_likes(field(2, 2))
        assert (len(P), len(G)) == invariants, name
    for p in (3, 5):
        d = named_structure(build_truncated_polynomial(field(p), [p, p]), "wang_ZpZp")
        assert len(d.primitives_and_group_likes(field(p))[1]) == p * p


def test_nobility_at_a_point_outside_the_family():
    A = klein()
    fam = PointFamily(A, ext_degree=2)
    d = named_structure(A, "wang_Ga2")
    for coords in ((1, 0, 0), (1,), (5, 1), (0, 0)):
        with pytest.raises(PointError, match=re.escape(repr(coords))):
            nobility(d, coords, fam)


def seeded_automorphism(A, rng):
    """An invertible linear substitution of the generators followed by
    g ↦ g + s·m for a random generator g, scalar s and monomial m of degree
    2, free of g where one is: the inverse stays short, which keeps
    twisting cheap."""
    F, k = A.field, len(A.gen_names)
    while True:
        lin = Matrix(F, [[rng.randrange(F.q) for _ in range(k)] for _ in range(k)])
        if lin.rank() == k:
            break
    gens = [A.index_of[e] for e in A._gen_exps]
    linear = []
    for row in lin.a:
        vec = np.zeros(A.dim, dtype=row.dtype)
        vec[gens] = row
        linear.append(A.element(vec))
    g = rng.randrange(k)
    quadratic = [e for e in A.basis_exps if sum(e) == 2]
    m = rng.choice([e for e in quadratic if not e[g]] or quadratic)
    shear = AlgebraMorphism.from_gen_map(
        A, {A.gen_names[g]: A.generator(g) + rng.randrange(F.q) * A.monomial(m)})
    return shear.compose(AlgebraMorphism(A, A, linear))


def klein_automorphisms(A):
    """The swap, x ↦ x + xy and x ↦ x + y of k[x,y]/(x², y²)."""
    x, y = A.generators()
    return [AlgebraMorphism(A, A, [y, x]),
            AlgebraMorphism.from_gen_map(A, {"x": x + A.multiply(x, y)}),
            AlgebraMorphism(A, A, [x + y, y])]


WANG = ("lie_primitive", "wang_Ga2", "wang_Ga1xZp", "wang_ZpZp")
# (algebra, family extension degree, structures, seeded twists of each)
ORACLE_CASES = [pytest.param(lambda e=e: build_truncated_polynomial(field(2, e), [2, 2]), e,
                             WANG, 6, id=f"klein-GF{2 ** e}") for e in (2, 4)]
ORACLE_CASES += [pytest.param(lambda p=p: build_truncated_polynomial(field(p), [p, p]), ext,
                              WANG, 3, id=f"k[x,y]-p{p}-GF{p ** ext}")
                 for p, ext in ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1))]
ORACLE_CASES += [pytest.param(lambda b=b, p=p: build_truncated_polynomial(field(p), [b], names=("x",)),
                              1, names, 0, id=f"k[x]/x^{b}")
                 for p in (2, 3, 5)
                 for b, names in ((p, ("lie_primitive", "oorttate_Zp")),
                                  (p * p, ("lie_primitive", "witt_G2", "witt_Zp2")))]
ORACLE_CASES += [pytest.param(lambda: build_heisenberg(field(3)), 2, ("heisenberg_primitive",), 0,
                              id="heisenberg-p3")]


@pytest.mark.parametrize("build,ext,names,seeded", ORACLE_CASES)
def test_nobility_matches_the_published_rules(build, ext, names, seeded):
    # every structure untwisted and twisted, against its hand-set rule read
    # at the point pulled back along the twist
    A = build()
    fam = PointFamily(A, ext_degree=ext)
    tests = {pt.label: point_test_module(fam, pt.label) for pt in fam}
    rng = random.Random(f"{A!r} {ext}")
    phis = (klein_automorphisms(A) if A.bounds == (2, 2) else []) + \
        [seeded_automorphism(A, rng) for _ in range(seeded)]
    for name in names:
        base = named_structure(A, name)
        for chain in [[]] + [[phi] for phi in phis]:
            d = twist(base, chain[0]) if chain else base
            got = {pt.label: nobility(d, pt.coords, fam) for pt in fam}
            want = {pt.label: reference_nobility(name, chain, pt.coords, fam, tests) for pt in fam}
            assert got == want, (name, chain)


def test_aut_action_and_isotropy():
    p = 3
    A = build_truncated_polynomial(field(p), [p, p])
    fam = PointFamily(A, ext_degree=1)
    x, y = A.generators()
    ident = AlgebraMorphism(A, A, A.generators())
    for pt in fam:
        assert aut_action_on_point(ident, pt, fam) == pt.label
    phi = AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)})
    assert is_isotropy(phi, fam.point((0, 1)), fam)
    # a genuinely moving automorphism: swap the generators
    swap = AlgebraMorphism(A, A, [y, x])
    assert aut_action_on_point(swap, fam.point((1, 0)), fam) == "[0:1]"
    assert not is_isotropy(swap, fam.point((1, 0)), fam)


def test_klein3gen_isotropy():
    A = build_abelian_restricted(field(2), [1, 1, 1])
    fam = PointFamily(A, ext_degree=1)
    x, y, z = A.generators()
    phi = AlgebraMorphism.from_gen_map(A, {"x": x + A.multiply(y, z)})
    assert is_isotropy(phi, fam.point((1, 0, 0)), fam)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((2, 4)), st.data())
def test_nobility_stable_under_twisting(e, data):
    # nobility(Δ, c) = nobility(Δ^φ, φ·c): nobility is read off Δ alone
    A = build_truncated_polynomial(field(2, e), [2, 2])
    fam = PointFamily(A, ext_degree=e)
    x, y = A.generators()
    xy = A.multiply(x, y)
    entry = st.integers(0, 2 ** e - 1)
    a, b, c, d, s, t = (data.draw(entry) for _ in range(6))
    assume(A.field.sub(A.field.mul(a, d), A.field.mul(b, c)))
    phi = AlgebraMorphism(A, A, [a * x + b * y + s * xy, c * x + d * y + t * xy])
    base = named_structure(A, data.draw(st.sampled_from(WANG)))
    tw = twist(base, phi)
    for pt in fam:
        moved = fam.by_label[aut_action_on_point(phi, pt, fam)]
        assert nobility(base, pt.coords, fam) == nobility(tw, moved.coords, fam), pt.label


def test_support_json_and_ordering():
    A = klein()
    fam = PointFamily(A, ext_degree=2)
    s = support(trivial_module(A), fam)
    data = s.to_json()
    assert data["points"] == sorted(data["points"])
    assert data["family"].startswith("P^1")
