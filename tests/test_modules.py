"""Representations: actions, tensor/restrict/induce/twist, Hom, iso oracle."""

import hashlib
import random

import numpy as np
import pytest

from restrep.fields import field, sampling_extension
from restrep.algebra import (AlgebraError, AlgebraMorphism, base_change,
                             build_heisenberg, build_truncated_polynomial)
from restrep.hopf import named_structure
from restrep.matrices import Matrix, nilpotent_jordan_type
from restrep.heisenberg import hom_from_cyclic_sum_rev
from restrep.modules import (HomSpace, HomTooLarge, NotAnIntertwiner, NotFreeBasis, Representation,
                             RepresentationError,
                             base_change_rep, conjugate,
                             dim_hom, direct_sum, free_rank, hom_from_cyclic, hom_from_free,
                             hom_from_relations, hom_space, hom_space_from_sum,
                             induce, induce_trivial, iso_test,
                             jordan_block_module, pbw_cosets, regular_module,
                             rep_from_json, restrict, tensor, trivial_module,
                             twist_module)


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


def test_restrict():
    A = klein()
    M = regular_module(A)
    rid = restrict(M, AlgebraMorphism.identity(A))
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
    ident = AlgebraMorphism.identity(A)
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
               conjugate(W, Matrix.random_invertible(F, W.dim, rng))]
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
    N = conjugate(W, Matrix.random_invertible(F, W.dim, rng))
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
    C = conjugate(M, Matrix.random_invertible(A.field, M.dim, rng))
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
        S = Matrix.random_invertible(M.algebra.field, M.dim, rng)
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
        S = Matrix.random_invertible(M.algebra.field, M.dim, rng)
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
        S = Matrix.random_invertible(A.field, M.dim, rng)
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
