"""Representations: actions, tensor/restrict/induce/twist, Hom, iso oracle."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restrep.fields import field, sampling_extension
from restrep.algebra import (AlgebraError, AlgebraMorphism, base_change,
                             build_heisenberg, build_truncated_polynomial)
from restrep.hopf import named_structure
from restrep.matrices import JordanType, Matrix, nilpotent_jordan_type
from restrep.heisenberg import hom_from_cyclic_sum_rev
from restrep.modules import (HomSpace, HomTooLarge, NotAnIntertwiner, NotFreeBasis, Representation,
                             RepresentationError,
                             base_change_rep, direct_sum, free_rank, hom_from_cyclic, hom_from_free,
                             hom_from_relations, hom_space, hom_space_from_sum,
                             induce, induce_trivial, iso_test,
                             jordan_block_module, pbw_cosets, regular_module,
                             rep_from_json, restrict, swap_permutation, tensor,
                             trivial_module, twist_module)
from testkit import (MORPHISM_ALGEBRAS, conjugate, dim_hom, random_automorphism, random_invertible,
                     reference_action)


def klein():
    return build_truncated_polynomial(field(2), [2, 2])


def test_relation_verification_rejects_bad_actions():
    A = klein()
    F = A.field
    good = Matrix.jordan_block(F, 2)
    with pytest.raises(Exception):
        # x action not square-zero
        Representation(A, [Matrix.identity(F, 2), good])
    H = build_heisenberg(field(3))
    F3 = field(3)
    z = Matrix.zeros(F3, 2)
    with pytest.raises(Exception):
        # [x, y] = z fails when everything acts by zero except z
        Representation(H, [z, Matrix.jordan_block(F3, 2), z])


def test_chain_verification_rejects_index_above_bound():
    F5 = field(5)
    A = build_truncated_polynomial(F5, [25], names=("x",))
    Representation(A, [Matrix.jordan_block(F5, 25)])
    with pytest.raises(AlgebraError, match=r"x\^25"):
        Representation(A, [Matrix.jordan_block(F5, 26)])
    unipotent = Matrix.jordan_block(F5, 3) + Matrix.identity(F5, 3)
    with pytest.raises(AlgebraError, match=r"x\^25"):
        Representation(A, [unipotent])
    F4 = field(2, 2)
    K = build_truncated_polynomial(F4, [2, 2], names=("x", "y"))
    square_zero = Matrix(F4, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    Representation(K, [square_zero, square_zero])
    with pytest.raises(AlgebraError, match=r"x\^2"):
        Representation(K, [Matrix.jordan_block(F4, 3), square_zero])
    with pytest.raises(AlgebraError, match=r"y\^2"):
        Representation(K, [square_zero, Matrix.jordan_block(F4, 3)])


def test_act_basics():
    A = klein()
    M = regular_module(A)
    assert M.act(A.one()) == Matrix.identity(A.field, 4)
    assert M.act(A.integral()).rank() == 1
    assert free_rank(M) == 1
    k = trivial_module(A)
    assert free_rank(k) == 0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MORPHISM_ALGEBRAS), st.data())
def test_act_monomial_is_the_product_of_generator_powers(make, data):
    A = make()
    R = regular_module(A)
    M = restrict(R, random_automorphism(A, data.draw))
    for i in data.draw(st.permutations(range(A.dim))):
        assert R.act_monomial(i) == A.left_mult_matrix(A.monomial(A.basis_exps[i]))
        assert M.act_monomial(i) == reference_action(M, i)


def test_tensor_unit_object():
    A = klein()
    lie = named_structure(A, "lie_primitive")
    M = regular_module(A)
    k = trivial_module(A)
    assert iso_test(tensor(k, M, lie), M).verdict == "isomorphic"
    assert iso_test(tensor(M, k, lie), M).verdict == "isomorphic"


def test_tensor_known_klein_product():
    A = klein()
    lie = named_structure(A, "lie_primitive")
    V = induce_trivial(A, A.generator("y"), label="V")
    T = tensor(V, V, lie)
    r = iso_test(T, direct_sum([V, V]))
    assert r.verdict == "isomorphic"
    assert r.witness is not None


def test_tensor_jordan_products_over_chain():
    At = build_truncated_polynomial(field(3), [3], names=("t",))
    lie = named_structure(At, "lie_primitive")
    J = {i: jordan_block_module(At, i) for i in (1, 2, 3)}
    jt = nilpotent_jordan_type(tensor(J[2], J[2], lie).actions[0])
    assert jt.parts == (3, 1)
    jt = nilpotent_jordan_type(tensor(J[1], J[2], lie).actions[0])
    assert jt.parts == (2,)


# every named Klein structure over GF(2) and GF(4), and every Witt one at
# r = 1 (p = 2, 3, 5) and r = 2 (p = 2, 3)
SWAP_CASES = ([((F, [2, 2]), name) for F in (field(2), field(2, 2))
               for name in ("lie_primitive", "wang_Ga2", "wang_Ga1xZp", "wang_ZpZp")]
              + [((field(p), [p]), name) for p in (2, 3, 5)
                 for name in ("lie_primitive", "oorttate_Zp")]
              + [((field(p), [p * p]), name) for p in (2, 3)
                 for name in ("lie_primitive", "witt_G2", "witt_Zp2")])


def random_module(A, draw):
    """A direct sum of up to three small modules in a random basis: Jordan
    blocks over k[x]/x^b, and k, A and cyclic modules A/A·s over k[x,y]."""
    if len(A.gen_names) == 1:
        parts = [jordan_block_module(A, i)
                 for i in draw(st.lists(st.integers(1, min(A.dim, 5)), min_size=1, max_size=3))]
    else:
        x, y = A.generators()
        pool = [lambda: trivial_module(A), lambda: regular_module(A),
                lambda: induce_trivial(A, x), lambda: induce_trivial(A, y),
                lambda: induce_trivial(A, x + y)]
        parts = [pool[i]() for i in draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))]
    M = direct_sum(parts)
    return conjugate(M, random_invertible(A.field, M.dim, random.Random(draw(st.integers(0, 99)))))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SWAP_CASES), st.data())
def test_swap_permutation_conjugates_the_tensor_onto_the_swapped_tensor(case, data):
    (F, bounds), name = case
    A = build_truncated_polynomial(F, bounds, names=("x", "y")[:len(bounds)])
    delta = named_structure(A, name)
    M, N = random_module(A, data.draw), random_module(A, data.draw)
    tau = swap_permutation(M, N)
    for MN, NM in zip(tensor(M, N, delta).actions, tensor(N, M, delta).actions):
        assert np.array_equal(MN.a[np.ix_(tau, tau)], NM.a)


def cyclic_jordan_oracle(p, i, j):
    """J_i⊗J_j for the cyclic group Z/p, 1 <= i <= j <= p, in closed form:
    ⊕_{k=1..i} J_{j-i+2k-1} when i + j <= p, and otherwise
    ⊕_{k=1..p-j} J_{j-i+2k-1} ⊕ (i+j-p)·J_p."""
    if i + j <= p:
        return JordanType([j - i + 2 * k - 1 for k in range(1, i + 1)])
    return JordanType([j - i + 2 * k - 1 for k in range(1, p - j + 1)] + [p] * (i + j - p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_tensor_jordan_types_match_the_cyclic_closed_form(p):
    # an oracle independent of tensor and rank_chain: every pair at r = 1
    A = build_truncated_polynomial(field(p), [p], names=("x",))
    J = {i: jordan_block_module(A, i) for i in range(1, p + 1)}
    for name in ("lie_primitive", "oorttate_Zp"):
        delta = named_structure(A, name)
        for i in range(1, p + 1):
            for j in range(i, p + 1):
                assert cyclic_jordan_oracle(p, i, j).dimension == i * j
                jt = nilpotent_jordan_type(tensor(J[i], J[j], delta).actions[0])
                assert jt == cyclic_jordan_oracle(p, i, j), (name, i, j, str(jt))


def test_restrict():
    A = klein()
    M = regular_module(A)
    rid = restrict(M, AlgebraMorphism(A, A, A.generators()))
    assert all(a == b for a, b in zip(rid.actions, M.actions))
    # restriction of the induced module along its defining direction is trivial
    B = build_truncated_polynomial(field(2), [2], names=("t",))
    iota = AlgebraMorphism(B, A, [A.generator("y")])
    V = induce_trivial(A, A.generator("y"))
    res = restrict(V, iota)
    assert res.actions[0].is_zero()
    # the free module restricts along any flat direction with all blocks full
    for img in (A.generator("x"), A.generator("x") + A.generator("y")):
        iota = AlgebraMorphism(B, A, [img])
        jt = nilpotent_jordan_type(restrict(M, iota).actions[0])
        assert jt.is_free(2)


def test_induce_examples():
    p = 3
    A = build_truncated_polynomial(field(p), [p, p])
    V = induce_trivial(A, A.generator("x"), label="V")
    assert V.dim == p
    assert V.act(A.generator("x")).is_zero()
    jt = nilpotent_jordan_type(V.act(A.generator("y")))
    assert jt.parts == (p,)
    # dimension multiplicativity: dim induced = [A : B] * dim M
    B = build_truncated_polynomial(field(p), [p], names=("t",))
    phi, cosets = pbw_cosets(A, A.generator("x"))
    for i in (1, 2, 3):
        ind = induce(jordan_block_module(B, i), phi, cosets)
        assert ind.dim == len(cosets) * i


def induce_by_blocks(M, phi, cosets):
    """The induced actions as the per-block loop built them: the table from
    E⁻¹ applied to each generator's moved cosets, then one block
    ρ_M(Σ_b W[cj, b, ci] b) per coset pair."""
    B, A = phi.source, phi.target
    F = A.field
    r, dB = len(cosets), B.dim
    E = Matrix(F, np.array([A.multiply(c, phi.apply(B.monomial(e))).vec
                            for c in cosets for e in B.basis_exps], dtype=np.int16).T)
    Einv = E.inverse()
    actions = []
    for gen in A.generators():
        moved = Matrix(F, np.array([A.multiply(gen, c).vec for c in cosets], dtype=np.int16).T)
        w = (Einv @ moved).a.reshape(r, dB, r)
        T = np.zeros((r * M.dim, r * M.dim), dtype=np.int16)
        for ci in range(r):
            for cj in range(r):
                blk = M.act(B.element(w[cj, :, ci]))
                T[cj * M.dim:(cj + 1) * M.dim, ci * M.dim:(ci + 1) * M.dim] = blk.a
        actions.append(Matrix(F, T))
    return actions


def test_induce_matches_per_block_reference():
    H = build_heisenberg(field(3))
    T = build_truncated_polynomial(field(3), [9, 3])
    K = base_change(build_truncated_polynomial(field(2), [2, 2]), field(2, 2))
    x, y = K.generators()
    # the first two tables take the monomial path, the last two the solve
    cases = [(H, H.generator("x"), 1, "x"), (T, T.generator("y"), 1, None),
             (T, T.generator("x") + T.generator("y"), 2, None), (K, x + y, 1, None)]
    for A, image, r, prefer in cases:
        phi, cosets = pbw_cosets(A, image, r, prefer=prefer)
        B = phi.source
        for i in range(1, B.dim + 1):
            M = jordan_block_module(B, i)
            assert induce(M, phi, cosets).actions == induce_by_blocks(M, phi, cosets)


def test_induce_rejects_non_free_basis():
    A = klein()
    B = build_truncated_polynomial(field(2), [2], names=("t",))
    phi = AlgebraMorphism(B, A, [A.generator("x")])
    bad = [A.one(), A.generator("x")]   # not a complement of <x>
    with pytest.raises(NotFreeBasis):
        induce(trivial_module(B), phi, bad)
    with pytest.raises(NotFreeBasis):
        induce(trivial_module(B), phi, [A.one()])


def test_monomial_induction_table_checks_its_gather(monkeypatch):
    # z is central, so every coset x^i y^j times z^b is a monomial and E
    # has one nonzero per row and column
    from restrep import modules
    H = build_heisenberg(field(3))
    monkeypatch.setattr(H, "induction_tables", {})
    solve = modules._monomial_solve
    corrupted = []

    def corrupt(E, rhs):
        out = solve(E, rhs)
        out[0][0, 0] = (out[0][0, 0] + 1) % 3
        corrupted.append(E.rows)
        return out

    monkeypatch.setattr(modules, "_monomial_solve", corrupt)
    with pytest.raises(RepresentationError, match="induction table fails"):
        induce_trivial(H, H.generator("z"))
    assert corrupted == [27]


def test_free_rank_reuses_the_stored_echelon(monkeypatch):
    from restrep import matrices
    A = klein()
    M = direct_sum([regular_module(A), induce_trivial(A, A.generator("y"))])
    calls = []
    eliminate = matrices._eliminate
    monkeypatch.setattr(matrices, "_eliminate", lambda *a, **k: calls.append(1) or eliminate(*a, **k))
    assert free_rank(M) == free_rank(M) == 1
    assert len(calls) == 1


def test_twist_module():
    p = 3
    A = build_truncated_polynomial(field(p), [p, p])
    x, y = A.generators()
    M = induce_trivial(A, y, label="M")
    ident = AlgebraMorphism(A, A, A.generators())
    assert all(a == b for a, b in zip(twist_module(M, ident).actions, M.actions))
    phi = AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)})
    Mphi = twist_module(M, phi)
    assert nilpotent_jordan_type(Mphi.act(y)).parts == (2, 1)
    back = twist_module(Mphi, phi.invert())
    assert all(a == b for a, b in zip(back.actions, M.actions))


def test_hom_space_is_intertwiner_basis():
    A = klein()
    V = induce_trivial(A, A.generator("y"))
    P = regular_module(A)
    basis = hom_space(V, P)
    for f in basis.maps():
        for g in range(2):
            assert P.actions[g] @ f == f @ V.actions[g]
    assert dim_hom(V, P) == 2
    At = build_truncated_polynomial(field(3), [3], names=("t",))
    assert dim_hom(jordan_block_module(At, 2), jordan_block_module(At, 2)) == 2


def test_hom_space_refuses_a_solve_over_the_byte_budget():
    # 40 000 unknowns and 80 000 equations: refused before any allocation
    P = regular_module(klein())
    big = direct_sum([P] * 50)
    assert big.dim == 200
    with pytest.raises(HomTooLarge):
        hom_space(big, big)
    # over GF(2^10) the build's Kronecker product is 10 digit planes wide:
    # 4096 unknowns need 82 bytes per unknown² to build, 12 to eliminate
    J64 = jordan_block_module(build_truncated_polynomial(field(2, 10), [64]), 64)
    with pytest.raises(HomTooLarge):
        hom_space(J64, J64)


def test_hom_from_cyclic_matches_generic():
    A = klein()
    lie = named_structure(A, "lie_primitive")
    V = induce_trivial(A, A.generator("y"))
    pairs = [(V, N) for N in (regular_module(A), V, direct_sum([V, trivial_module(A)]),
                              tensor(V, V, lie))]
    # a twisted cyclic source: its generator's annihilator moves along φ
    A3 = build_truncated_polynomial(field(3), [3, 3])
    x, y = A3.generators()
    phi = AlgebraMorphism.from_gen_map(A3, {"y": y + x.pow(2)})
    Mphi = twist_module(induce_trivial(A3, y), phi)
    pairs += [(Mphi, regular_module(A3)), (Mphi, Mphi)]
    for M, N in pairs:
        fast = hom_from_cyclic(M, N)
        assert len(fast) == dim_hom(M, N)
        for f in fast.maps():
            for g in range(2):
                assert N.actions[g] @ f == f @ M.actions[g]


@pytest.mark.parametrize("F, bounds", [(field(2), [2, 2]), (field(2, 2), [2, 2]),
                                       (field(3), [3, 3])])
def test_hom_from_free_matches_generic(F, bounds):
    A = build_truncated_polynomial(F, bounds)
    P = regular_module(A)
    lie = named_structure(A, "lie_primitive")
    V = induce_trivial(A, A.generator("y"))
    rng = random.Random(31)
    W = direct_sum([V, trivial_module(A)])
    targets = [P, V, W, tensor(V, V, lie),
               conjugate(W, random_invertible(F, W.dim, rng))]
    for N in targets:
        fast = hom_from_free(P, N)
        assert len(fast) == dim_hom(P, N) == N.dim
        for f in fast.maps():
            for g in range(2):
                assert N.actions[g] @ f == f @ P.actions[g]


@pytest.mark.parametrize("F", [field(2), field(2, 2), field(3)], ids=str)
def test_hom_space_combine_and_length_match_the_oracle(F):
    # every Hom-space value: its length is the Kronecker oracle's dimension,
    # its maps are independent intertwiners, and combine(c, K) is the sum
    # Σ c_i·maps()[i] over K, over F itself and over a sampling extension
    p = F.p
    A = build_truncated_polynomial(F, [p, p])
    x, y = A.generators()
    Vy, Vx = induce_trivial(A, y), induce_trivial(A, x)
    P = regular_module(A)
    Z = Representation(A, [Matrix.zeros(F, 0, 0)] * 2)
    rng = random.Random(17)
    W = direct_sum([Vy, trivial_module(A)])
    N = conjugate(W, random_invertible(F, W.dim, rng))
    T = tensor(Vy, Vy, named_structure(A, "lie_primitive"))
    both = [(c, 0) for c in Vy.cyclic_data[1]] + [(c, 1) for c in Vx.cyclic_data[1]]
    sum_parts = [Vy, Vy, Z, P]
    cases = [
        (direct_sum([Vy, Vx]), N, hom_from_relations(N, [[(y, 0)], [(x, 1)]], both)),
        (Vy, T, hom_from_cyclic(Vy, T)),
        (P, N, hom_from_free(P, N)),
        (direct_sum(sum_parts), N, hom_space_from_sum(
            sum_parts, N, [hom_from_cyclic, hom_from_cyclic, hom_space, hom_from_free])),
        (N, direct_sum([Vy, Vy]), hom_from_cyclic_sum_rev(N, Vy, 2)),
    ]
    for src, tgt, space in cases:
        assert space.shape == (tgt.dim, src.dim)
        assert len(space) == len(hom_space(src, tgt))
        maps = space.maps()
        assert len(maps) == len(space)
        for f in maps:
            for g in range(2):
                assert tgt.actions[g] @ f == f @ src.actions[g]
        if maps:
            vecs = Matrix(F, np.array([f.a.ravel() for f in maps]))
            assert vecs.rank() == len(maps)
        for K in (F, sampling_extension(F, 2 * tgt.dim)):
            for _ in range(2):
                c = [rng.randrange(K.q) for _ in maps]
                ref = Matrix.zeros(K, tgt.dim, src.dim)
                for ci, f in zip(c, maps):
                    ref = ref + f.map_field(K).scale(ci)
                assert space.combine(c, K) == ref


def test_iso_oracle_checks_its_witness():
    # a basis that is not an intertwiner: the identity between M and a
    # random conjugate is invertible, so only the intertwining check stops it
    A = klein()
    M = induce_trivial(A, A.generator("x"))
    rng = random.Random(5)
    C = conjugate(M, random_invertible(A.field, M.dim, rng))
    assert M.actions != C.actions
    n = M.dim
    vec_ident = Matrix(A.field, np.eye(n, dtype=np.int16).reshape(-1, 1))
    ident = HomSpace.reshaped(vec_ident, (n, n))
    assert ident.maps() == [Matrix.identity(A.field, n)]
    with pytest.raises(NotAnIntertwiner, match=r"ρ\((x|y)\)"):
        iso_test(M, C, hom_fwd=lambda: ident, hom_rev=lambda: ident)
    assert iso_test(M, C).verdict == "isomorphic"


def test_iso_oracle_identity_and_fingerprints():
    A = klein()
    M = regular_module(A)
    assert iso_test(M, M).verdict == "isomorphic"
    At = build_truncated_polynomial(field(3), [3], names=("t",))
    J1, J2, J3 = (jordan_block_module(At, i) for i in (1, 2, 3))
    r = iso_test(direct_sum([J2, J2]), direct_sum([J1, J3]))
    assert r.verdict == "not_isomorphic"
    assert "jordan" in r.reason
    r = iso_test(J1, J2)
    assert r.verdict == "not_isomorphic" and r.reason == "dimension"


def test_iso_oracle_on_random_conjugations():
    rng = random.Random(42)
    A = klein()
    At = build_truncated_polynomial(field(3), [3], names=("t",))
    pool = [regular_module(A), induce_trivial(A, A.generator("x")),
            direct_sum([induce_trivial(A, A.generator("y")), trivial_module(A)]),
            direct_sum([jordan_block_module(At, 2), jordan_block_module(At, 3)])]
    for _ in range(30):
        M = pool[rng.randrange(len(pool))]
        S = random_invertible(M.algebra.field, M.dim, rng)
        r = iso_test(M, conjugate(M, S), seed=rng.randrange(10**6))
        assert r.verdict == "isomorphic"
        # the witness really intertwines and is invertible
        assert r.witness.rank() == M.dim


def _witness_sha(W, used):
    return hashlib.sha256(W.a.tobytes() + str(used).encode()).hexdigest()


def test_witness_stream_is_pinned(monkeypatch):
    # witnesses and trial counts of seeded iso tests and klein certifies,
    # recorded before the Hom spaces were spun instead of stored: the
    # randrange stream (one draw per basis map, in basis order) must not drift
    from restrep import heisenberg
    from restrep import klein as klein_case
    got = []
    certify = klein_case.invertible_combination
    monkeypatch.setattr(klein_case, "invertible_combination",
                        lambda *a: got.append(certify(*a)) or got[-1])
    ctx = klein_case.KleinContext(ext_degree=2, seed=0, trials=24)
    for args, sha in [
        (("lie_primitive", (1, 0), 4, 4),
         "237a44434d5d300f43c5772d81eeb2dec32f0e898c408e827da70b680e52f1ec"),
        (("lie_primitive", (2, 1), 2, 3),
         "d95dd78bcfa6e77151a6abc6aa9fa30edf1d4516cbcfe39c198d007498f359c5"),
        (("wang_Ga2", (0, 1), 3, 1),
         "723592fa731bb4981c9e87c6760353cc4d3cbe95130a25117d497a14f0831b83"),
    ]:
        got.clear()
        assert ctx.check_basev_formula(*args)["matches_noble_formula"]
        assert _witness_sha(*got[0]) == sha, args
    reports = []
    iso = heisenberg.iso_test
    monkeypatch.setattr(heisenberg, "iso_test", lambda *a, **k: reports.append(iso(*a, **k))
                        or reports[-1])
    for p, sha in [(3, "7fdd11bf828f06be57bb9d6bb1ec9662e697564e28b6c90f36370ffe75e7b970"),
                   (5, "fde801bccf5bb7ddedc3f52c152fe5c34ff129266732cf4da6b51816486e8865")]:
        reports.clear()
        heisenberg.wild_abelian_isotropy_check("twodim", p=p)
        assert _witness_sha(reports[0].witness, reports[0].trials) == sha, p
    rng = random.Random(7)
    A = klein()
    A4 = build_truncated_polynomial(field(2, 2), [2, 2])
    At = build_truncated_polynomial(field(3), [3], names=("t",))
    pool = [regular_module(A), induce_trivial(A4, A4.generator("x")),
            direct_sum([induce_trivial(A, A.generator("y")), trivial_module(A)]),
            direct_sum([jordan_block_module(At, 2), jordan_block_module(At, 3)])]
    shas = ["1d50f350bd0368ee9ca484f9d60de43c5079fa65c28584b39eeb26e0bfedbc8b",
            "ac874d0fd22a4752c0394029e0f6e0228745db57f11a0ed596011eef188238cf",
            "30cccd83c244d509e5d6c3399c70c2bcdd4db4138ec487b35976ae3e27c6f268",
            "4f933d21ba82996c3673e0f169b2ee9f71a680bda21f82927a7abc821947efc6"]
    for i, (M, sha) in enumerate(zip(pool, shas)):
        S = random_invertible(M.algebra.field, M.dim, rng)
        r = iso_test(M, conjugate(M, S), seed=100 + i)
        assert _witness_sha(r.witness, r.trials) == sha, i


def test_free_rank_agrees_with_peeling():
    rng = random.Random(3)
    A = klein()
    V = induce_trivial(A, A.generator("y"))
    P = regular_module(A)
    k = trivial_module(A)
    for _ in range(50):
        c = rng.randrange(0, 3)
        parts = [P] * c + [V] * rng.randrange(0, 3) + [k] * rng.randrange(0, 2)
        rng.shuffle(parts)
        if not parts:
            continue
        M = direct_sum(parts)
        S = random_invertible(A.field, M.dim, rng)
        assert free_rank(conjugate(M, S)) == c


def test_restriction_formula_for_primitive_subalgebra():
    # (M⊗N)↓ ≅ M↓ ⊗ N↓ along t ↦ x, for the primitive coproducts on both sides
    for p in (2, 3):
        A = build_truncated_polynomial(field(p), [p, p])
        B = build_truncated_polynomial(field(p), [p], names=("t",))
        iota = AlgebraMorphism(B, A, [A.generator("x")])
        lieA = named_structure(A, "lie_primitive")
        lieB = named_structure(B, "lie_primitive")
        M = induce_trivial(A, A.generator("y"))
        N = regular_module(A)
        lhs = restrict(tensor(M, N, lieA), iota)
        rhs = tensor(restrict(M, iota), restrict(N, iota), lieB)
        assert iso_test(lhs, rhs).verdict == "isomorphic"


def test_frobenius_reciprocity_instances():
    # (k↑) ⊗ M ≅ (M↓)↑ for the primitive structure, abelian case
    for p in (2, 3):
        A = build_truncated_polynomial(field(p), [p, p])
        lie = named_structure(A, "lie_primitive")
        phi, cosets = pbw_cosets(A, A.generator("x"))
        ind_k = induce(trivial_module(phi.source), phi, cosets)
        M = regular_module(A) if p == 2 else induce_trivial(A, A.generator("y"))
        lhs = tensor(ind_k, M, lie)
        rhs = induce(restrict(M, phi), phi, cosets)
        assert iso_test(lhs, rhs).verdict == "isomorphic"


def test_tensor_symmetry_for_cocommutative_structures():
    A = klein()
    for name in ("lie_primitive", "wang_Ga2", "wang_ZpZp"):
        d = named_structure(A, name)
        M = induce_trivial(A, A.generator("y"))
        N = regular_module(A)
        assert iso_test(tensor(M, N, d), tensor(N, M, d)).verdict == "isomorphic"


def test_twist_functorial_on_sums():
    p = 3
    A = build_truncated_polynomial(field(p), [p, p])
    x, y = A.generators()
    phi = AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)})
    M = induce_trivial(A, y)
    N = trivial_module(A)
    lhs = twist_module(direct_sum([M, N]), phi)
    rhs = direct_sum([twist_module(M, phi), twist_module(N, phi)])
    assert iso_test(lhs, rhs).verdict == "isomorphic"


def test_base_change_rep():
    A = klein()
    V = induce_trivial(A, A.generator("y"))
    K = field(2, 2)
    VK = base_change_rep(V, K)
    assert VK.algebra.field == K and VK.dim == V.dim
    VK.verify_relations()


def test_module_json_roundtrip():
    A = klein()
    V = induce_trivial(A, A.generator("y"), label="V01")
    data = V.to_json()
    again = rep_from_json(data)
    assert again.dim == V.dim and again.label == "V01"
    assert all(a == b for a, b in zip(again.actions, V.actions))
    H = build_heisenberg(field(3))
    W = induce_trivial(H, H.generator("x"), prefer="x")
    again = rep_from_json(W.to_json())
    assert all(a == b for a, b in zip(again.actions, W.actions))


def test_iso_report_json():
    A = klein()
    M = regular_module(A)
    rep = iso_test(M, M)
    data = rep.to_json()
    assert data["verdict"] == "isomorphic"
    assert data["witness"] is not None
    assert "trials" in data and "fingerprints" in data


def test_iso_probably_not_reports_bound():
    A = klein()
    M = regular_module(A)
    r = iso_test(M, M, trials=0)
    assert r.verdict == "probably_not"
    assert r.bound == 1.0
    data = r.to_json()
    assert data["bound"] == 1.0 and data["verdict"] == "probably_not"
