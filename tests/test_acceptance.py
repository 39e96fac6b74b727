"""Acceptance suite: every stated criterion, exact arithmetic, no tolerances.

One test per criterion (criterion 5 is split: the published square-rank
table for 3 <= r < p contradicts the matrices it describes, which both
construction paths confirm; the faithful assertions are kept and marked
as an expected failure, with the certified values asserted alongside).
A one line PASS/FAIL summary per criterion is printed at the end of the
run (see conftest).
"""

import random
import time

import pytest

from restrep.fields import field
from restrep.algebra import (AlgebraMorphism, build_abelian_restricted,
                             build_heisenberg, build_truncated_polynomial)
from restrep.hopf import named_structure
from restrep.klein import KleinContext, MultiplicityVector, WANG_STRUCTURES
from restrep.matrices import nilpotent_jordan_type
from restrep.modules import (direct_sum, free_rank, induce_trivial,
                             iso_test, jordan_block_module, regular_module,
                             tensor, trivial_module, twist_module)
from restrep.heisenberg import (HeisenbergScenario, rank_formula, rank_table,
                                rho_published, tau_published,
                                wild_abelian_isotropy_check)
from restrep.pipoints import PointFamily, nobility, support
from testkit import conjugate, point_test_module, random_invertible


@pytest.fixture(scope="module")
def ctx():
    return KleinContext(ext_degree=2)


def test_criterion_01_klein_basev_green_ring(ctx):
    """Product of indecomposables at every subalgebra point, n,m <= 4."""
    t0 = time.time()
    checked = 0
    for name in WANG_STRUCTURES:
        delta = ctx.structure(name)
        for pt in ctx.family:
            if nobility(delta, pt.coords, ctx.family) != "noble":
                continue
            for n in range(1, 5):
                for m in range(1, 5):
                    T = tensor(ctx.basev(pt.coords, n).rep,
                               ctx.basev(pt.coords, m).rep, delta)
                    mv = ctx.decompose(T, pt.coords)
                    lo = min(n, m)
                    assert mv == MultiplicityVector({lo: 2}, n * m - lo), \
                        (name, pt.label, n, m, repr(mv))
                    checked += 1
    assert checked == (5 + 1 + 2 + 3) * 16
    print(f"criterion 1: {checked} products decomposed in {time.time()-t0:.1f}s")


def test_criterion_02_projective_component(ctx):
    """free rank nm - min(n,m) at every point, subalgebra point or not."""
    t0 = time.time()
    for name in WANG_STRUCTURES:
        delta = ctx.structure(name)
        for pt in ctx.family:
            for n in range(1, 5):
                for m in range(1, 5):
                    T = tensor(ctx.basev(pt.coords, n).rep,
                               ctx.basev(pt.coords, m).rep, delta)
                    assert free_rank(T) == n * m - min(n, m), \
                        (name, pt.label, n, m)
    print(f"criterion 2: 320 free ranks in {time.time()-t0:.1f}s")


def test_criterion_03_pb_witnesses(ctx):
    """Deformed square not annihilated by the point direction, exhaustively."""
    t0 = time.time()
    found = 0
    for name in WANG_STRUCTURES:
        delta = ctx.structure(name)
        for pt in ctx.family:
            if nobility(delta, pt.coords, ctx.family) != "ignoble":
                continue
            rep = ctx.check_pb_witness(name, pt.coords)
            assert rep["witness_found"], (name, pt.label)
            found += 1
    # 0 + 4 + 3 + 2 ignoble points across the four structures over GF(4)
    assert found == 9
    print(f"criterion 3: {found} witnesses in {time.time()-t0:.1f}s")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_criterion_04_pa_counterexample(p):
    """Tensor square splits untwisted, and the twist breaks the identity."""
    t0 = time.time()
    rep = wild_abelian_isotropy_check("twodim", p=p)
    assert rep["isotropy_fixed_point"]
    # (a) M ⊗ M ≅ pM through the iso oracle (fingerprint pre-pass + witness)
    assert rep["tensor_square_untwisted_splits"]
    # (b) maximal part (p+1)/2 in the twisted restriction
    assert rep["max_part"] == (p + 1) // 2
    # (c) the twisted square restricts with a full block, p copies do not
    assert rep["twisted_square_has_full_block"]
    assert rep["sum_lacks_full_block"]
    assert rep["pa_violation_certified"]
    print(f"criterion 4 (p={p}): certified in {time.time()-t0:.1f}s")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_criterion_05_heisenberg_rank_nullity_and_certified_values(p):
    """Rank/nullity closed forms, the certified square ranks, the count gap.

    The r = 1 row uses the block-sum value (p-1)^2 + 1 (the quadratic
    closed form only applies from r = 2 on, where it is exact), and the
    square ranks/one-block counts are asserted against the values the
    matrices actually have; at p = 3 these coincide with the published
    table everywhere.
    """
    t0 = time.time()
    rows = rank_table(p)
    for row in rows:
        r = row["r"]
        assert row["rank"] == rank_formula(p, r), row
        if r >= 2:
            assert row["rank"] == r * p * p - 2 * r * p + r * r
            assert row["nullity"] == 2 * r * p - r * r
        assert row["rho_derived_match"], row
        assert row["tau_derived_match"], row
        if r in (1, 2, p) or p == 3:
            assert row["rho_published_match"] and row["tau_published_match"], row
    twice_sum = 2 * sum(row["tau"] for row in rows if 2 <= row["r"] <= p - 1)
    assert twice_sum == 4 * p - 6
    assert twice_sum != 9 + 4 * (p - 3)
    if p == 3:
        assert twice_sum == 6
    print(f"criterion 5 (p={p}): table certified in {time.time()-t0:.1f}s; "
          f"2*sum tau = {twice_sum}")


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.xfail(strict=True,
                   reason="the published square-rank/one-block tables for "
                          "3 <= r < p disagree with the matrices they describe "
                          "(both construction paths agree with each other); "
                          "see the decisions ledger")
def test_criterion_05_published_square_tables_as_stated(p):
    """Faithful assertion of the published ρ/τ case tables and sums."""
    rows = rank_table(p)
    for row in rows:
        assert row["rank_sq"] == rho_published(p, row["r"]), \
            f"rho(r={row['r']},p={p}): computed {row['rank_sq']}, " \
            f"published {rho_published(p, row['r'])}"
        assert row["tau"] == tau_published(p, row["r"]), \
            f"tau(r={row['r']},p={p}): computed {row['tau']}, " \
            f"published {tau_published(p, row['r'])}"
    twice_sum = 2 * sum(row["tau"] for row in rows if 2 <= row["r"] <= p - 1)
    assert twice_sum == {5: 44, 7: 226}[p], \
        f"2*sum tau at p={p}: computed {twice_sum}, published {{5: 44, 7: 226}}[{p}]"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_criterion_06_matrix_cross_validation(p):
    """Generic induction equals the explicit blocks, entrywise, all r."""
    t0 = time.time()
    for r in range(1, p + 1):
        sc = HeisenbergScenario(p, r)   # the constructor raises on any mismatch
        assert sc.V.act(sc.algebra.generator("x")) == sc.L
        assert sc.V.act(sc.yz_term) == sc.O
    print(f"criterion 6 (p={p}): {p} modules cross-validated in {time.time()-t0:.1f}s")


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_criterion_07_witt_green_rings(p, r):
    """All structures give the same block type on every product, exhaustively."""
    t0 = time.time()
    F = field(p)
    A = build_truncated_polynomial(F, [p ** r], names=("x",))
    names = ["lie_primitive", "oorttate_Zp"] if r == 1 else \
        ["lie_primitive", "witt_G2", "witt_Zp2"]
    deltas = [named_structure(A, nm) for nm in names]
    blocks = {i: jordan_block_module(A, i) for i in range(1, p ** r + 1)}
    for i in range(1, p ** r + 1):
        for j in range(1, p ** r + 1):
            types = {str(nilpotent_jordan_type(
                tensor(blocks[i], blocks[j], d).actions[0]))
                for d in deltas}
            assert len(types) == 1, (p, r, i, j, types)
    print(f"criterion 7 (p={p},r={r}): {(p**r)**2} products agree "
          f"in {time.time()-t0:.1f}s")


def _random_singleton_modules(fam, rng, count, max_blocks=2):
    """Random small modules built from singleton/free/trivial blocks, scrambled."""
    AK = fam.A_K
    pool = [point_test_module(fam, pt.label) for pt in fam]
    pool += [regular_module(AK), trivial_module(AK)]
    out = []
    for _ in range(count):
        parts = [pool[rng.randrange(len(pool))]
                 for _ in range(rng.randrange(1, max_blocks + 1))]
        M = direct_sum(parts) if len(parts) > 1 else parts[0]
        S = random_invertible(AK.field, M.dim, rng)
        out.append(conjugate(M, S))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_08_support_axioms(p):
    """Vanishing on projectives, additivity, tensor intersection, singletons."""
    t0 = time.time()
    rng = random.Random(100 + p)
    A = build_truncated_polynomial(field(p), [p, p])
    fam = PointFamily(A, ext_degree=2)
    AK = fam.A_K
    mods = _random_singleton_modules(fam, rng, 100)
    # S1: projectives have empty support
    for c in (1, 2):
        P = direct_sum([regular_module(AK)] * c) if c > 1 else regular_module(AK)
        P = conjugate(P, random_invertible(AK.field, P.dim, rng))
        assert len(support(P, fam)) == 0
    # singleton supports, exactly
    for pt in fam:
        assert support(point_test_module(fam, pt.label), fam).labels == {pt.label}
    # S2: unions over direct sums
    for _ in range(25):
        M, N = rng.choice(mods), rng.choice(mods)
        assert support(direct_sum([M, N]), fam) == (support(M, fam) | support(N, fam))
    # S5: intersections over tensor products, for each named structure
    small = [M for M in mods if M.dim <= 6]
    for name in WANG_STRUCTURES:
        d = named_structure(AK, name)
        for _ in range(12):
            M, N = rng.choice(small), rng.choice(small)
            T = tensor(M, N, d)
            assert support(T, fam) == (support(M, fam) & support(N, fam)), \
                (name, M.label, N.label)
    print(f"criterion 8 (p={p}): 100 modules scanned in {time.time()-t0:.1f}s")


def test_criterion_09_wild_abelian_isotropies():
    """Every listed case yields a point-fixing twist with the pinned blocks."""
    t0 = time.time()
    rep = wild_abelian_isotropy_check("twodim", p=3)
    assert rep["hypothesis_met"] and rep["max_part"] == 2
    rep = wild_abelian_isotropy_check("klein3gen")
    assert rep["hypothesis_met"] and rep["has_J2"]
    rep = wild_abelian_isotropy_check("mixed", p=3, n=2, m=2)
    assert rep["hypothesis_met"] and rep["intermediate_part"]
    rep = wild_abelian_isotropy_check("equal2power", n=2)
    assert rep["hypothesis_met"] and rep["exactly_two_J2"] and rep["rest_are_J1"]
    print(f"criterion 9: four cases certified in {time.time()-t0:.1f}s")


def test_criterion_10_infrastructure(ctx):
    """Axiom suite, inversion round trips, iso oracle soundness, H table."""
    t0 = time.time()
    # every named structure passes the axiom suite (construction verifies)
    built = 0
    for p in (2, 3):
        F = field(p)
        A2 = build_truncated_polynomial(F, [p, p])
        for name in WANG_STRUCTURES:
            named_structure(A2, name)
            built += 1
        A1 = build_truncated_polynomial(F, [p], names=("x",))
        named_structure(A1, "oorttate_Zp")
        W = build_truncated_polynomial(F, [p * p], names=("x",))
        named_structure(W, "witt_G2")
        named_structure(W, "witt_Zp2")
        built += 3
    named_structure(build_heisenberg(field(3)), "heisenberg_primitive")
    built += 1
    assert built == 15

    # inversion round trips on every automorphism used by the scenarios
    autos = []
    for p in (3, 5, 7):
        A = build_truncated_polynomial(field(p), [p, p])
        x, y = A.generators()
        autos.append(AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)}))
        H = build_heisenberg(field(p))
        hx = H.generator("x")
        term = H.multiply(H.generator("y"), H.generator("z")).pow(p - 1)
        autos.append(AlgebraMorphism.from_gen_map(H, {"x": hx + term}))
    T3 = build_abelian_restricted(field(2), [1, 1, 1])
    x, y, z = T3.generators()
    autos.append(AlgebraMorphism.from_gen_map(T3, {"x": x + T3.multiply(y, z)}))
    M22 = build_abelian_restricted(field(3), [2, 2])
    x, y = M22.generators()
    autos.append(AlgebraMorphism.from_gen_map(M22, {"x": x + y.pow(2)}))
    for n in (2, 3):
        E = build_abelian_restricted(field(2), [n, n])
        x, y = E.generators()
        autos.append(AlgebraMorphism.from_gen_map(E, {"x": x + y.pow(2 ** n - 2)}))
    for phi in autos:
        inv = phi.invert()
        assert phi.compose(inv).is_identity() and inv.compose(phi).is_identity()

    # iso oracle: 100 random conjugations certified with explicit witnesses
    rng = random.Random(777)
    A2 = build_truncated_polynomial(field(2), [2, 2])
    At = build_truncated_polynomial(field(3), [3], names=("t",))
    pool = [regular_module(A2), induce_trivial(A2, A2.generator("x")),
            direct_sum([induce_trivial(A2, A2.generator("y")), trivial_module(A2)]),
            direct_sum([jordan_block_module(At, 2), jordan_block_module(At, 3)]),
            direct_sum([jordan_block_module(At, 1), jordan_block_module(At, 2)])]
    for i in range(100):
        M = pool[i % len(pool)]
        S = random_invertible(M.algebra.field, M.dim, rng)
        r = iso_test(M, conjugate(M, S), seed=i)
        assert r.verdict == "isomorphic" and r.witness.rank() == M.dim

    # and never a false positive on distinct block fingerprints
    for _ in range(20):
        parts_a = sorted(rng.randrange(1, 4) for _ in range(3))
        parts_b = sorted(rng.randrange(1, 4) for _ in range(3))
        if sorted(parts_a) == sorted(parts_b):
            parts_b[-1] = parts_b[-1] % 3 + 1
            parts_b.sort()
            if parts_a == parts_b:
                continue
        Ma = direct_sum([jordan_block_module(At, s) for s in parts_a])
        Mb = direct_sum([jordan_block_module(At, s) for s in parts_b])
        if Ma.dim != Mb.dim:
            assert iso_test(Ma, Mb).verdict == "not_isomorphic"
            continue
        Sb = random_invertible(At.field, Mb.dim, rng)
        assert iso_test(Ma, conjugate(Mb, Sb)).verdict == "not_isomorphic"

    # the Hom table up to the standard cap; derived data
    H, h = ctx.hom_table(8)
    for m in range(1, 9):
        assert h[m] == 2 * m
        for n in range(1, 9):
            assert H[m][n] == min(m, n) * (max(m, n) + 1)
    print(f"criterion 10: infrastructure certified in {time.time()-t0:.1f}s")
