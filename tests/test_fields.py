"""Field arithmetic: exhaustive axioms, deterministic moduli, embeddings."""

import gc
import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restrep.fields import (FieldError, FieldSpec, _find_modulus, _is_prime, field, randbelow,
                            sampling_extension)
from testkit import parse, poly_mulmod, smallest_irreducible

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 4), (5, 2)]


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_axioms_exhaustive(p, e):
    F = field(p, e)
    q = F.q
    idx = np.arange(q, dtype=np.int16)
    # a * a^-1 = 1 for all nonzero a
    prod = F.MUL[idx[1:], F.INV[idx[1:]]]
    assert (prod == 1).all()
    # additive inverse
    assert (F.add_arrays(idx, F.NEG[idx]) == 0).all()
    # commutativity
    assert np.array_equal(F.MUL, F.MUL.T)
    if F.ADD is not None:
        assert np.array_equal(F.ADD, F.ADD.T)
    # distributivity on the full cube for small q, sampled above
    if q <= 32:
        trips = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
    else:
        rng = np.random.default_rng(0)
        trips = rng.integers(0, q, size=(4000, 3)).tolist()
    for a, b, c in trips:
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))


def test_axioms_at_the_enumeration_cap():
    # 2^12 = 4096 is the largest table size; verify the multiplicative group
    F = field(2, 12)
    idx = np.arange(F.q, dtype=np.int16)
    assert (F.MUL[idx[1:], F.INV[idx[1:]]] == 1).all()
    w = parse(F, "w")
    assert F.mul(w, F.inv(w)) == 1


def test_field_size_cap():
    with pytest.raises(FieldError):
        field(2, 13)
    with pytest.raises(FieldError):
        field(4, 1)  # not prime


def test_size_is_checked_before_primality_and_before_p_to_the_e(monkeypatch):
    import restrep.fields as fields
    monkeypatch.setattr(fields, "_is_prime", lambda n: pytest.fail(f"primality test of {n}"))
    with pytest.raises(FieldError, match=r"p = 100000000000031, e = 1 exceeds"):
        FieldSpec(100000000000031)
    # p^e has 47.7 million digits, past Python's int-to-string limit
    with pytest.raises(FieldError, match=r"p = 3, e = 100000000 exceeds"):
        FieldSpec(3, 10 ** 8)


def test_modulus_deterministic_and_reproducible():
    assert field(2, 2).modulus == (1, 1, 1)          # 1 + w + w^2
    assert field(3, 2).modulus == (1, 0, 1)          # 1 + w^2
    # the factory caches; a fresh search gives the same polynomial
    F1, F2 = field(5, 2), field(5, 2)
    assert F1 is F2
    assert F1.modulus == _find_modulus(5, 2)[0]


EXTENSIONS = [(p, e) for p in range(2, 65) if _is_prime(p)
              for e in range(2, 13) if p ** e <= 4096]


@pytest.mark.parametrize("p,e", EXTENSIONS)
def test_modulus_is_the_smallest_irreducible_by_trial_division(p, e):
    assert _find_modulus(p, e)[0] == smallest_irreducible(p, e)


def test_fmt_parse_roundtrip():
    for (p, e) in ((2, 2), (3, 2), (2, 4)):
        F = field(p, e)
        for a in range(F.q):
            assert parse(F, F.fmt(a)) == a


def test_embedding_is_a_homomorphism():
    pairs = [((2, 2), (2, 4)), ((2, 2), (2, 10)), ((3, 1), (3, 2)), ((2, 1), (2, 2))]
    for (ps, es), (pb, eb) in pairs:
        S, B = field(ps, es), field(pb, eb)
        emb = S.embedding(B)
        for a in range(S.q):
            for b in range(S.q):
                assert int(emb[S.mul(a, b)]) == B.mul(int(emb[a]), int(emb[b]))
                assert int(emb[S.add(a, b)]) == B.add(int(emb[a]), int(emb[b]))
        assert int(emb[1]) == 1
        # injective
        assert len(set(int(v) for v in emb)) == S.q


def test_embedding_requires_divisible_degree():
    with pytest.raises(FieldError):
        field(2, 2).embedding(field(2, 3))
    with pytest.raises(FieldError):
        field(2, 2).embedding(field(3, 2))


def test_sampling_extension_respects_base_degree():
    assert sampling_extension(field(2, 2), 64).e == 10   # 4^k jumps: 2^10 > 256
    assert sampling_extension(field(3, 1), 9).e == 4     # 3^4 = 81 > 36
    assert sampling_extension(field(7, 1), 7).e == 2     # 49 > 28


# -- pinned tables ---------------------------------------------------------------

# sha256 of the MUL, ADD, NEG and INV bytes (None: no ADD table at p = 2);
# a construction change that moves one entry of one table fails here
TABLE_DIGESTS = {
    (2, 1): ("30e06038fb18a7cfda688d7bfe8de1ca8fee6002c5b4a498e6993a3592e88893", None,
             "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
             "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93"),
    (3, 1): ("0ce48e78be1a061ae2b48491caa18a7db8eaae836f1ae982568513dab0076ba7",
             "a5314bfac4d03acbcee0ba278c6a240952aa50d53e3bece060b361e2d8bea5de",
             "6594e6422836c2ffcad0f91ea8ac41f780e817dfcc956134a721e311b0408b32",
             "90c2698921ca9fd02950be353f721888760e33ab5095a21e50f1e4360b6de1a0"),
    (4093, 1): ("16609e19aac08228cef57a01f52a61a3b0093d6c397d9f2502c9bbc8b1474e84",
                "e9cd396b41b8c1308edac02153ef3e1cab6704d19c5e96c0416f6fd6a76d1cfe",
                "c7ca0eef4e0708f82ac15de8b9fa72c9a4ea4bf9a9d1cd40e919e958c56f244b",
                "2dc85ad95acdcfc4682e740a22d79898c55433d6c16f8c28836112d171529fd3"),
    (2, 9): ("f51bfee2a23e3d8fa0638d6e68a78f20aa59101f5f5ab1e4e05833d1a2f8c7d7", None,
             "407715b8ded48be4426df98401cecd0e7ad61b9ad742649eb844de452d1c5f91",
             "a0cd0b8c66edc4c8bca328f0fc06eabe161b03a41d3df4572252ec5b87bcddcb"),
    (2, 12): ("1bd4a0d58a3a5c928f0cfd3d1d6c51e061f143bc93d7a728a4d30f8ca8dd69f1", None,
              "8500f04e6b29f9697ab60beb608e81ed0022a0613bc1d636e494029307697d08",
              "2627201f6d05cf5d7cc93848297f36096923f8620c4ac86192c08ee1662a39e1"),
    (3, 7): ("8c11bc453323f7481192f6ce6d9de429b23545a2d11f6c8032322abdf730d13d",
             "b3b3767a0460928ba2f08df931a66bb1c70c654306a8ecdb74f0f8c2448bf593",
             "b212c23bf3f473fa39479cc919c235dbc1ae635904206c8060fd9a6baded8e56",
             "83c226ccfe9923327888702408a105f46fc779e1e432a36aa52b68f86356e64c"),
    (5, 5): ("32823657eb489393aa76c2fb8470fe327702508ca4699427f613a72d12659a8c",
             "70c3a5c0223b349ba443f232010c182b8aec9a06576fe7d7545a0dfaf93567df",
             "44d6b14f7a9b101ff95b7f49235d0b141b1a1c31154d35c1f0091da3b534292e",
             "0f0f7be9cf271c1774218c7c2286a2ca5b8ca10a40e10ec1e188ee5029c84567"),
    (7, 3): ("9ced1d01c44e712d398a8ad5d335547734c9a392dfa91f70981d3057cb61b66a",
             "c01bae21f026870dbac75d7c4830bbbc49aee7f36ed452e186948f5798a6923b",
             "aa7497d13b0220a6e435c2ca928de9eedb90ceed50763132f674ee6618dc1f8a",
             "43aa35f0464aba1300d2663ac9f8652a085e4e43c4e0cca27d0e3f579317aaf4"),
}
MODULI = {(2, 1): (0, 1), (3, 1): (0, 1), (4093, 1): (0, 1),
          (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
          (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
          (3, 7): (2, 0, 1, 0, 0, 0, 0, 1), (5, 5): (1, 4, 0, 0, 0, 1), (7, 3): (2, 0, 0, 1)}


@pytest.mark.parametrize("p,e", sorted(TABLE_DIGESTS))
def test_tables_pinned(p, e):
    F = field(p, e)
    assert F.modulus == MODULI[p, e]
    got = []
    for name in ("MUL", "ADD", "NEG", "INV"):
        t = getattr(F, name)
        if t is not None:
            assert t.dtype == np.int16 and t.shape == (F.q,) * t.ndim
        got.append(None if t is None else hashlib.sha256(t.tobytes()).hexdigest())
    assert tuple(got) == TABLE_DIGESTS[p, e]


# every pair for q <= 256, 4000 seeded pairs above
MUL_ORACLE_FIELDS = [(2, 1), (3, 1), (13, 1), (2, 2), (2, 3), (3, 2), (2, 5), (5, 2), (3, 3),
                     (7, 2), (2, 8), (11, 2), (3, 5), (7, 3), (2, 9), (2, 12), (3, 7),
                     (5, 5), (7, 4), (4093, 1)]


@pytest.mark.parametrize("p,e", MUL_ORACLE_FIELDS)
def test_mul_matches_polynomial_product(p, e):
    F = field(p, e)
    if F.q <= 256:
        pairs = [(a, b) for a in range(F.q) for b in range(F.q)]
    else:
        pairs = np.random.default_rng(p * 100 + e).integers(0, F.q, size=(4000, 2)).tolist()
    m = list(F.modulus)
    for a, b in pairs:
        want = F.from_coeffs(poly_mulmod(F.coeffs(a), F.coeffs(b), m, p))
        assert int(F.MUL[a, b]) == want, (a, b)
@pytest.mark.parametrize("p,e", [(2, 11), (2, 12), (3, 7), (5, 5), (7, 4), (4093, 1)])
def test_table_build_peak_is_at_most_twice_the_kept_tables(p, e):
    """The traced peak of one FieldSpec build (past the ``field`` cache) is
    at most twice the bytes of the arrays the field keeps."""
    gc.collect()
    tracemalloc.start()
    try:
        F = FieldSpec(p, e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(v.nbytes for v in vars(F).values() if isinstance(v, np.ndarray))
    assert peak <= 2 * kept, (peak, kept)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(1), st.integers(1, 31).map(lambda k: 1 << k),
                 st.integers(0, (1 << 31) - 1).map(lambda k: 2 * k + 1)),
       st.integers(0, 2 ** 32), st.lists(st.integers(0, 300), min_size=1, max_size=3))
def test_randbelow_is_the_randrange_stream(n, seed, counts):
    # batch after batch, the draws and the generator's state after them are
    # those of a randrange loop, and so is the next random()
    bulk, loop = random.Random(seed), random.Random(seed)
    for count in counts:
        got = randbelow(bulk, n, count)
        assert got.tolist() == [loop.randrange(n) for _ in range(count)]
        assert bulk.getstate() == loop.getstate()
    assert bulk.random() == loop.random()


def test_randbelow_refuses_n_outside_one_word():
    for n in (0, 1 << 32):
        with pytest.raises(ValueError, match="1 <= n < 2"):
            randbelow(random.Random(0), n, 1)
