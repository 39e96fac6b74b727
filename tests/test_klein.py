"""The p = 2 toolkit: indecomposables, Hom tables, decomposition, products."""

import itertools
import random

import numpy as np
import pytest

from restrep.klein import (BadSupport, DegenerateBasis, KleinContext, KleinError,
                           MultiplicityVector, PointNotIgnoble,
                           VerificationFailed, WANG_STRUCTURES)
from restrep.matrices import Matrix, nilpotent_jordan_type
from restrep.modules import (HomSpace, NotAnIntertwiner, direct_sum, free_rank, hom_space,
                             induce_trivial, iso_test, tensor)
from testkit import conjugate, random_invertible


@pytest.fixture(scope="module")
def ctx():
    return KleinContext(ext_degree=2)


def test_basev_block_shapes(ctx):
    v = ctx.basev((0, 1), 3)
    S2 = v.rep.act(v.s2)
    S1 = v.rep.act(v.s1)
    n = 3
    assert np.array_equal(S1.a[:n, n:], np.eye(n, dtype=np.int16))
    assert np.array_equal(S2.a[:n, n:], Matrix.jordan_block(ctx.K, n).a)
    assert not S1.a[n:, :].any() and not S2.a[n:, :].any()


def test_basev_degenerate_basis_choice(ctx):
    with pytest.raises(DegenerateBasis):
        ctx.basev((0, 1), 2, basis_choice=(0, 1))


def test_basev_matches_induced_bottom_case(ctx):
    for coords in ((1, 0), (0, 1), (1, 1), (2, 1)):
        v = ctx.basev(coords, 1)
        V = induce_trivial(ctx.A, v.s2)
        assert iso_test(v.rep, V).verdict == "isomorphic"


def test_basev_restriction_jordan(ctx):
    # along its own point: (n-1) blocks of size 2 and two of size 1
    for n in (1, 2, 3, 4):
        v = ctx.basev((1, 1), n)
        jt = nilpotent_jordan_type(v.rep.act(v.s2))
        assert jt.multiplicity(2) == n - 1 and jt.multiplicity(1) == 2
        # along any other direction: free
        other = ctx.basev((1, 0), 1)
        jt2 = nilpotent_jordan_type(v.rep.act(other.s2))
        assert jt2.is_free(2)


def test_basev_supports_are_singletons(ctx):
    for pt in ctx.family:
        for n in (1, 2, 3):
            v = ctx.basev(pt.coords, n)
            assert ctx.family.support(v.rep).labels == {pt.label}


def test_basev_independent_of_basis_choice(ctx):
    # two admissible (c, d) choices at a quadratic point give isomorphic modules
    for n in (1, 2, 3):
        a = ctx.basev((2, 1), n, basis_choice=(1, 0))
        b = ctx.basev((2, 1), n, basis_choice=(0, 1))
        c = ctx.basev((2, 1), n, basis_choice=(1, 1))
        assert iso_test(a.rep, b.rep).verdict == "isomorphic"
        assert iso_test(a.rep, c.rep).verdict == "isomorphic"
        # each V_2n is built once per (point, n, basis choice)
        assert a.s1 != b.s1 and a.s1 != c.s1
        assert ctx.basev((2, 1), n, basis_choice=(1, 0)) is a


def test_basev_indecomposable_no_idempotent(ctx):
    # exhaustive idempotent search in End for n <= 3, sampled for n = 4
    rng = random.Random(12)
    for n in (1, 2, 3, 4):
        v = ctx.basev((0, 1), n)
        end = hom_space(v.rep, v.rep)
        K = ctx.K
        dims = len(end)
        if K.q ** dims <= 4096:
            combos = itertools.product(range(K.q), repeat=dims)
        else:
            combos = ([rng.randrange(K.q) for _ in range(dims)] for _ in range(4096))
        ident = Matrix.identity(K, 2 * n)
        for coeffs in combos:
            T = end.combine(coeffs, K)
            if T @ T == T:
                assert T.is_zero() or T == ident, (n, coeffs)


def test_hom_table_frozen_derived_values(ctx):
    # derived data (from the generic intertwiner solver):
    #   dim Hom(V_2m, V_2n) = min(m,n) * (max(m,n) + 1),  dim Hom(V_2m, P) = 2m
    H, h = ctx.hom_table(6)
    for m in range(1, 7):
        assert h[m] == 2 * m
        for n in range(1, 7):
            lo, hi = min(m, n), max(m, n)
            assert H[m][n] == lo * (hi + 1), (m, n)


def test_hom_table_point_independent(ctx):
    # chain-solver dims at a quadratic point agree with the reference table
    H, h = ctx.hom_table(4)
    for n in (1, 2, 3, 4):
        v = ctx.basev((2, 1), n)
        col = ctx.basev_hom_dims(v.rep, (2, 1), 4)
        assert col == [H[m][n] for m in (1, 2, 3, 4)]


def test_chain_solver_matches_generic_on_random_modules(ctx):
    rng = random.Random(23)
    pool = lambda coords: [ctx.basev(coords, k).rep for k in (1, 2, 3)] + [ctx.P]
    for coords in ((0, 1), (2, 1)):
        mods = pool(coords)
        for _ in range(6):
            parts = [mods[rng.randrange(len(mods))] for _ in range(rng.randrange(1, 3))]
            M = direct_sum(parts)
            M = conjugate(M, random_invertible(ctx.K, M.dim, rng))
            dims = ctx.basev_hom_dims(M, coords, 3)
            for m in (1, 2, 3):
                v = ctx.basev(coords, m)
                assert dims[m - 1] == len(hom_space(v.rep, M)), (coords, m)
                basis = ctx.basev_hom_basis(v, M)
                assert len(basis) == dims[m - 1]
                for f in basis.maps():
                    for g in range(2):
                        assert M.actions[g] @ f == f @ v.rep.actions[g]


def test_certify_never_materializes_a_basis(ctx, monkeypatch):
    # the witness is spun from one random kernel vector per summand
    def refuse(space):
        raise AssertionError("a Hom basis was materialized")
    monkeypatch.setattr(HomSpace, "maps", refuse)
    row = ctx.check_basev_formula("lie_primitive", (1, 0), 4, 4)
    assert row["computed"] == "2V8 + 12P" and row["match"]


def test_decompose_refuses_hom_dimensions_no_sum_has(monkeypatch):
    # V_4 has dim Hom(V_2m, V_4) = 3, 6; other values are read as second
    # differences and refused, not turned into a decomposition
    ctx = KleinContext(ext_degree=2)
    ctx.hom_table(2)
    v = ctx.basev((1, 1), 2)
    assert ctx.decompose(v.rep, (1, 1)) == MultiplicityVector({2: 1}, 0)
    for dims, message in (([3, 7], r"^negative multiplicities \{1: -1, 2: 2\}$"),
                          ([3, 5], r"^multiplicities \{1: 1, 2: 0\} leave a free part other "
                                   r"than the free rank 0$")):
        monkeypatch.setattr(ctx, "basev_hom_dims", lambda M, coords, cap: dims)
        with pytest.raises(VerificationFailed, match=message):
            ctx.decompose(v.rep, (1, 1))


def test_hom_table_refuses_a_table_off_the_closed_form(monkeypatch):
    # with the generic cross-check off, a chain solver reading every
    # dimension one too high is refused by the closed form alone
    ctx = KleinContext(ext_degree=2)
    monkeypatch.setattr(ctx, "GENERIC_H_CAP", 0)
    chain = ctx.basev_hom_dims
    monkeypatch.setattr(ctx, "basev_hom_dims",
                        lambda M, coords, cap: [d + 1 for d in chain(M, coords, cap)])
    with pytest.raises(KleinError, match=r"^Hom table row 1 is not mn \+ min\(m, n\) and 2m$"):
        ctx.hom_table(2)


def test_decompose_identity_cases(ctx):
    for n in (1, 2, 3):
        v = ctx.basev((1, 1), n)
        mv = ctx.decompose(v.rep, (1, 1))
        assert mv == MultiplicityVector({n: 1}, 0)
    assert ctx.decompose(ctx.P, (1, 1)) == MultiplicityVector({}, 1)


def test_decompose_rebuild_roundtrip_random(ctx):
    rng = random.Random(31)
    for _ in range(10):
        while True:
            a = {n: rng.randrange(0, 3) for n in (1, 2, 3)}
            c = rng.randrange(0, 3)
            dim = sum(2 * n * m for n, m in a.items()) + 4 * c
            if 0 < dim <= 40:
                break
        mv = MultiplicityVector(a, c)
        rep, _ = ctx.rebuild((0, 1), mv)
        rep = conjugate(rep, random_invertible(ctx.K, rep.dim, rng))
        assert ctx.decompose(rep, (0, 1)) == mv


def test_decompose_requires_singleton_support(ctx):
    v = ctx.basev((1, 0), 2)
    with pytest.raises(BadSupport):
        ctx.decompose(v.rep, (0, 1))
    from restrep.modules import trivial_module
    with pytest.raises(BadSupport):
        ctx.decompose(trivial_module(ctx.A), (0, 1))


def test_known_products(ctx):
    lie = ctx.structure("lie_primitive")
    v2 = ctx.basev((0, 1), 1)
    T = tensor(v2.rep, v2.rep, lie)
    assert ctx.decompose(T, (0, 1)) == MultiplicityVector({1: 2}, 0)
    v4, v6 = ctx.basev((0, 1), 2), ctx.basev((0, 1), 3)
    T = tensor(v4.rep, v6.rep, lie)
    assert ctx.decompose(T, (0, 1)) == MultiplicityVector({2: 2}, 4)


def test_square_at_ignoble_point_deviates(ctx):
    # V2 ⊗ V2 under the full deformation at an ignoble quadratic point is V4
    d3 = ctx.structure("wang_ZpZp")
    v = ctx.basev((2, 1), 1)
    T = tensor(v.rep, v.rep, d3)
    mv = ctx.decompose(T, (2, 1))
    assert mv == MultiplicityVector({2: 1}, 0)
    report = ctx.check_basev_formula("wang_ZpZp", (2, 1), 1, 1)
    assert report["noble"] is False
    assert report["match"] is True          # the free part still matches
    assert report["deviation_flagged"] is True
    assert report["s2_annihilates_product"] is False


def test_check_basev_formula_noble(ctx):
    rep = ctx.check_basev_formula("wang_Ga2", (1, 0), 3, 3)
    assert rep["noble"] and rep["match"] and rep["computed"] == "2V6 + 6P"
    rep = ctx.check_basev_formula("lie_primitive", (0, 1), 2, 2)
    assert rep["computed"] == "2V4 + 2P" and rep["match"]


def test_transported_rows_equal_rows_computed_in_full(monkeypatch):
    # in report order each row (n, m), n > m, transports row (m, n); a fresh
    # context that runs only those rows has nothing to transport
    decomposed = []
    decompose = KleinContext.decompose
    monkeypatch.setattr(KleinContext, "decompose",
                        lambda self, *a: decomposed.append(self) or decompose(self, *a))
    ctx, fresh = KleinContext(ext_degree=2), KleinContext(ext_degree=2)
    cases = [(name, pt.coords) for name in WANG_STRUCTURES for pt in ctx.family]
    rows = {(name, coords, n, m): ctx.check_basev_formula(name, coords, n, m)
            for name, coords in cases for n in range(1, 5) for m in range(1, 5)}
    assert decomposed.count(ctx) == len(cases) * 10 and not ctx._swapped
    for name, coords in cases:
        for n, m in itertools.combinations(range(1, 5), 2):
            assert fresh.check_basev_formula(name, coords, m, n) == rows[name, coords, m, n]
    assert decomposed.count(fresh) == len(cases) * 6


def test_transport_refuses_a_corrupted_witness():
    ctx = KleinContext(ext_degree=2)
    ctx.check_basev_formula("lie_primitive", (2, 1), 1, 2)
    (mv,) = ctx._swapped.values()
    R, W = mv.certificate
    rows = np.arange(W.rows)
    rows[[0, 1]] = rows[[1, 0]]
    mv.certificate = (R, Matrix(W.field, W.a[rows]))
    with pytest.raises(NotAnIntertwiner, match="witness fails"):
        ctx.check_basev_formula("lie_primitive", (2, 1), 2, 1)
    assert not ctx._swapped


def test_pb_witnesses(ctx):
    assert ctx.check_pb_witness("wang_Ga2", (0, 1))["witness_found"]
    assert ctx.check_pb_witness("wang_Ga1xZp", (1, 1))["witness_found"]
    assert ctx.check_pb_witness("wang_ZpZp", (2, 1))["witness_found"]
    with pytest.raises(PointNotIgnoble):
        ctx.check_pb_witness("wang_ZpZp", (1, 1))
    with pytest.raises(PointNotIgnoble):
        ctx.check_pb_witness("lie_primitive", (0, 1))


def test_free_rank_formula_all_points_small(ctx):
    for name in WANG_STRUCTURES:
        d = ctx.structure(name)
        for pt in ctx.family:
            for n, m in ((1, 1), (1, 2), (2, 2)):
                T = tensor(ctx.basev(pt.coords, n).rep,
                           ctx.basev(pt.coords, m).rep, d)
                assert free_rank(T) == n * m - min(n, m), (name, pt.label, n, m)


def test_isotropy_hypothesis_for_sampled_twists(ctx):
    # modules with singleton support are fixed (up to iso) by point isotropies
    from restrep.algebra import AlgebraMorphism
    from restrep.modules import twist_module
    from restrep.pipoints import is_isotropy
    AK = ctx.A
    x, y = AK.generators()
    phis = [AlgebraMorphism.from_gen_map(AK, {"x": x + AK.multiply(x, y)}),
            AlgebraMorphism.from_gen_map(AK, {"y": y + AK.multiply(x, y)})]
    for phi in phis:
        for pt in list(ctx.family)[:3]:
            if not is_isotropy(phi, pt, ctx.family):
                continue
            for n in (1, 2, 3):
                v = ctx.basev(pt.coords, n)
                tw = twist_module(v.rep, phi)
                assert iso_test(v.rep, tw).verdict == "isomorphic", (pt.label, n)


def test_twisted_structure_product_matches_formula(ctx):
    # a product under a twisted coproduct, decomposed at the moved point,
    # still follows the formula: direct evidence for the orbit reduction
    from restrep.algebra import AlgebraMorphism
    from restrep.hopf import twist
    from restrep.pipoints import aut_action_on_point
    AK = ctx.A
    x, y = AK.generators()
    phi = AlgebraMorphism.from_gen_map(AK, {"x": x + AK.multiply(x, y)})
    for name in ("lie_primitive", "wang_Ga1xZp"):
        tw = twist(ctx.structure(name), phi)
        for pt in list(ctx.family)[:2]:
            moved = aut_action_on_point(phi, pt, ctx.family)
            if nobility_of(ctx, tw, moved) != "noble":
                continue
            coords = ctx.family.by_label[moved].coords
            for n, m in ((1, 1), (1, 2), (2, 2)):
                T = tensor(ctx.basev(coords, n).rep, ctx.basev(coords, m).rep, tw)
                mv = ctx.decompose(T, coords)
                assert mv == MultiplicityVector({min(n, m): 2}, n * m - min(n, m)), \
                    (name, moved, n, m)


def nobility_of(ctx, delta, label):
    from restrep.pipoints import nobility
    return nobility(delta, ctx.family.by_label[label].coords, ctx.family)
