"""Finite augmented algebras with ordered monomial bases.

Two families are supported, enough for every scenario in this project:

* truncated polynomial algebras  k[g1,...,gk]/(g1^b1, ..., gk^bk)  with
  p-power exponent bounds (the commutative case, including the algebras
  of cyclic p-nilpotent sums), and
* the "one relator" nilpotent family with central element z and
  [x_t, y_t] = z, all generators with p-th power zero, in the PBW basis
  of ordered monomials y^i z^j x^l.

Multiplication is by straightening to normal form, in one numpy kernel,
``_straighten(I, J)``: it takes index arrays of pairs and returns the
nonzero terms of every product b_I[s]·b_J[s] at once.  It is the only
straightening code.  ``_memo_terms`` keeps the ``(indices,
coefficients)`` of each basis product under the key i·dim + j.
``multiply`` and ``products`` (so ``left_mult_matrix`` too) straighten
all memo misses of one call in one kernel call, and so does each batch
of A⊗A products in :mod:`restrep.hopf`, whose keys are the memo's.

Every build runs a verification pass and fails loudly, naming the
culprit, rather than returning a broken algebra.  Its products go
through the kernel in batches and are not memoized.  The unit law is
checked on every basis monomial and the socle law on every generator,
one kernel call each.  Then each monomial m ≠ 1 is read as a word
m = m'·g, g its last generator (``_word_prev``, ``_word_last``), and
m'·g = m is checked in one kernel call.  Every algebra map out of A
reads these words: :mod:`restrep.hopf` builds Δ of every monomial on
them, ``AlgebraMorphism.table`` holds φ(m) = φ(m')·φ(g), and a module
acts by ρ(m) = ρ(m')·ρ(g) (:mod:`restrep.modules`).  Last,
``_check_triples`` checks the counit law and associativity on a set of
triples in one batched pass of four kernel calls, naming the first
failing triple.  Up to ASSOC_EXHAUSTIVE_DIM the set is every
(b_i, b_j, g), g a generator, and the check is exact, by induction on
the word of the third factor; above it, ASSOC_SAMPLES triples drawn
from ASSOC_SEED.
"""

import functools
import itertools
import math
import random
import warnings

import numpy as np

from .fields import randbelow
from .matrices import Matrix, MatrixError, _INT

GEN_NAMES = ("x", "y", "z", "u", "v", "s", "r")

ASSOC_EXHAUSTIVE_DIM = 64
ASSOC_SAMPLES = 10_000
ASSOC_SEED = 0xA550C


class AlgebraError(ValueError):
    pass


class InvalidBound(AlgebraError):
    pass


class NotAugmented(AlgebraError):
    pass


class NotInvertible(AlgebraError):
    pass


def _is_p_power(b, p):
    while b > 1 and b % p == 0:
        b //= p
    return b == 1


class AlgebraElement:
    """Coefficient vector over the algebra's ordered monomial basis."""

    __slots__ = ("algebra", "vec")

    def __init__(self, algebra, vec, copy=True):
        self.algebra = algebra
        self.vec = np.array(vec, dtype=_INT, copy=copy)
        if self.vec.shape != (algebra.dim,):
            raise AlgebraError("coefficient vector length != dim")

    def _check(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.algebra.field.add_arrays(self.vec, other.vec), copy=False)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.algebra.field.sub_arrays(self.vec, other.vec), copy=False)

    def __neg__(self):
        return AlgebraElement(self.algebra, self.algebra.field.NEG[self.vec], copy=False)

    def __matmul__(self, other):
        return self.algebra.multiply(self, other)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self @ other
        return AlgebraElement(self.algebra, self.algebra.field.MUL[other, self.vec], copy=False)

    __rmul__ = __mul__

    def pow(self, n):
        """self^n by repeated squaring: at most 2·log2(n) products."""
        out, square = None, self
        while n > 0:
            if n & 1:
                out = square if out is None else out @ square
            n >>= 1
            if n:
                square = square @ square
        return self.algebra.one() if out is None else out

    def counit(self):
        return int(self.vec[self.algebra.identity_index])

    def is_zero(self):
        return not self.vec.any()

    def support(self):
        return [int(i) for i in np.nonzero(self.vec)[0]]

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and self.algebra == other.algebra
                and np.array_equal(self.vec, other.vec))

    def __repr__(self):
        A, F = self.algebra, self.algebra.field
        terms = []
        for i in self.support():
            c = int(self.vec[i])
            mono = A.monomial_name(i)
            if mono == "1":
                terms.append(F.fmt(c))
            elif c == 1:
                terms.append(mono)
            else:
                terms.append(f"({F.fmt(c)})*{mono}" if F.e > 1 else f"{F.fmt(c)}*{mono}")
        return " + ".join(terms) if terms else "0"


class AlgebraPresentation:
    """Finite augmented algebra with an ordered monomial basis.

    kind is "truncated_poly" or "heisenberg"; products between basis
    monomials are straightened on demand and kept as sparse terms.
    ``induction_tables`` belongs to this algebra as the target of
    inductions; :func:`restrep.modules.induce` fills it.
    """

    def __init__(self, field, kind, gen_names, bounds, basis_exps, heis_n=None):
        self.field = field
        self.kind = kind
        self.gen_names = tuple(gen_names)
        self.bounds = tuple(bounds)
        self.heis_n = heis_n
        self.basis_exps = list(basis_exps)
        self.dim = len(self.basis_exps)
        self.index_of = {e: i for i, e in enumerate(self.basis_exps)}
        self.identity_index = self.index_of[tuple([0] * len(self.gen_names))]
        self._terms = {}
        self.induction_tables = {}
        self._gen_exps = []
        for g in range(len(self.gen_names)):
            e = [0] * len(self.gen_names)
            e[g] = 1
            self._gen_exps.append(tuple(e))
        self.integral_index = self.index_of[tuple(b - 1 for b in self.bounds)]
        # the kernel's tables: exponent rows, and index by mixed-radix code
        self._exps = np.array(self.basis_exps, dtype=np.intp).reshape(self.dim, -1)
        self._bounds = np.array(self.bounds)
        self._radix = np.cumprod((1,) + self.bounds[:-1])
        self._index = np.empty(math.prod(self.bounds), dtype=np.intp)
        self._index[self._exps @ self._radix] = np.arange(self.dim)
        if kind == "heisenberg":
            # _rule[k, c, i] = k!·C(c,k)·C(i,k) mod p
            p = field.p
            self._rule = np.array([[[math.factorial(k) * math.comb(c, k) * math.comb(i, k) % p
                                     for i in range(p)] for c in range(p)] for k in range(p)])
        self._verify_build()

    # -- construction of elements ------------------------------------------------

    def zero(self):
        return AlgebraElement(self, np.zeros(self.dim, dtype=_INT), copy=False)

    def one(self):
        v = np.zeros(self.dim, dtype=_INT)
        v[self.identity_index] = 1
        return AlgebraElement(self, v, copy=False)

    def generator(self, g):
        if isinstance(g, str):
            g = self.gen_names.index(g)
        v = np.zeros(self.dim, dtype=_INT)
        v[self.index_of[self._gen_exps[g]]] = 1
        return AlgebraElement(self, v, copy=False)

    def generators(self):
        return [self.generator(i) for i in range(len(self.gen_names))]

    def monomial(self, exps):
        v = np.zeros(self.dim, dtype=_INT)
        v[self.index_of[tuple(exps)]] = 1
        return AlgebraElement(self, v, copy=False)

    def element(self, vec):
        return AlgebraElement(self, vec)

    def integral(self):
        v = np.zeros(self.dim, dtype=_INT)
        v[self.integral_index] = 1
        return AlgebraElement(self, v, copy=False)

    def monomial_name(self, i):
        exps = self.basis_exps[i]
        parts = []
        for name, e in zip(self.gen_names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    # -- multiplication ---------------------------------------------------------

    def _straighten(self, I, J):
        """The nonzero terms of b_I[s]·b_J[s] for every s, as arrays
        ``(owner, idx, coef)`` sorted by owner s.  The only straightening
        code: every product, check and table reads from it.

        truncated_poly: the exponent rows add, and a row that reaches a
        bound is zero.  heisenberg: x_t^c y_t^i = Σ_k k!·C(c,k)·C(i,k)
        y_t^{i-k} z^k x_t^{c-k}, z central.  Every pair lists its vectors k
        with k_t ≤ min(c_t, i_t), where the coefficient is a unit mod p, in
        order with k_1 slowest; each is then a few whole-array operations
        on the table ``_rule``.  The choices of k give distinct y exponents,
        so a product's indices are distinct.
        """
        I, J = np.asarray(I, dtype=np.intp), np.asarray(J, dtype=np.intp)
        exps = self._exps[I] + self._exps[J]
        if self.kind == "truncated_poly":
            owner = np.nonzero((exps < self._bounds).all(axis=1))[0]
            return owner, self._index[exps[owner] @ self._radix], np.ones(len(owner), dtype=_INT)
        n, p = self.heis_n, self.field.p
        c, i = self._exps[I, n + 1:], self._exps[J, :n]    # x_t of the left, y_t of the right
        # every k with k_t <= min(c_t, i_t), k_1 slowest, numbered within its pair
        choices = np.minimum(c, i) + 1
        count = choices.prod(axis=1)
        owner = np.repeat(np.arange(len(I)), count)
        rank = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
        k = np.empty((len(owner), n), dtype=np.intp)
        for t in reversed(range(n)):
            rank, k[:, t] = np.divmod(rank, choices[owner, t])
        coef = np.ones(len(owner), dtype=np.int64)
        for t in range(n):
            coef = coef * self._rule[k[:, t], c[owner, t], i[owner, t]] % p
        exps = exps[owner] + np.concatenate([-k, k.sum(axis=1, keepdims=True), -k], axis=1)
        keep = (exps < p).all(axis=1)
        return owner[keep], self._index[exps[keep] @ self._radix], coef[keep].astype(_INT)

    def _memo_terms(self, keys):
        """The terms of the basis products keyed i·dim + j, from the memo;
        the misses are straightened in one kernel call and kept."""
        memo = self._terms
        miss = sorted({key for key in keys if key not in memo})
        if miss:
            owner, idx, coef = self._straighten(*np.divmod(np.array(miss), self.dim))
            cuts = np.searchsorted(owner, np.arange(1, len(miss)))
            memo.update(zip(miss, zip(np.split(idx, cuts), np.split(coef, cuts))))
        return [memo[key] for key in keys]

    def _sum_terms(self, keys, coef):
        """(distinct keys, field sum of the coefficients at each key), with
        no array as long as the largest key."""
        keys, at = np.unique(keys, return_inverse=True)
        return keys, self.field.sum_at(at, coef, len(keys))

    def _scaled_terms(self, keys, scales):
        """The terms of the basis products keyed i·dim + j, each scaled by
        its entry of ``scales``: ``(indices, coefficients, position in
        keys of each term)``."""
        terms = self._memo_terms(keys)
        owner = np.repeat(np.arange(len(terms)), [len(idx) for idx, _ in terms])
        if not len(owner):
            return owner, owner.astype(_INT), owner
        coef = self.field.MUL[scales[owner], np.concatenate([c for _, c in terms])]
        return np.concatenate([idx for idx, _ in terms]), coef, owner

    def products(self, left, right):
        """Every product a_i·b_j of a row a_i of ``left`` with a row b_j of
        ``right`` (coefficient arrays over the basis), as column i·n + j of
        a dim × m·n array (m, n the numbers of rows).  Each pair of terms
        scales the memoized product of its basis monomials, and the terms
        are summed per distinct (index, column) key."""
        d, n = self.dim, len(right)
        la, ia = np.nonzero(left)
        rb, jb = np.nonzero(right)
        ta, tb = np.divmod(np.arange(len(la) * len(rb)), max(len(rb), 1))
        idx, coef, owner = self._scaled_terms((ia[ta] * d + jb[tb]).tolist(),
                                              self.field.MUL[left[la, ia][ta], right[rb, jb][tb]])
        out = np.zeros((d, len(left) * n), dtype=_INT)
        keys, sums = self._sum_terms(idx * out.shape[1] + (la[ta] * n + rb[tb])[owner], coef)
        out.flat[keys] = sums
        return out

    def multiply(self, a, b):
        ia, ib = np.nonzero(a.vec)[0], np.nonzero(b.vec)[0]
        scales = self.field.MUL[a.vec[ia][:, None], b.vec[ib][None, :]].ravel()
        idx, coef, _ = self._scaled_terms((ia[:, None] * self.dim + ib).ravel().tolist(), scales)
        return AlgebraElement(self, self.field.sum_at(idx, coef, self.dim), copy=False)

    def left_mult_matrix(self, a):
        """Matrix of b -> a*b on the basis (the regular representation)."""
        return Matrix(self.field, self.products(a.vec[None], np.eye(self.dim, dtype=_INT)),
                      copy=False)

    # -- relation checking (shared by morphisms and representations) ---------------

    def check_relations(self, vals, power_vanishes=None):
        """Verify the defining relations on an assignment of generator values.

        ``vals`` maps generator index -> value: algebra elements or
        representation matrices, which both multiply with ``@`` and compare
        with ``==``.  ``power_vanishes(g, b)`` decides vals[g]^b = 0; by
        default it is ``vals[g].pow(b).is_zero()``.  Raises AlgebraError on
        the first failure.
        """
        for g, bound in enumerate(self.bounds):
            if not (power_vanishes(g, bound) if power_vanishes
                    else vals[g].pow(bound).is_zero()):
                raise AlgebraError(f"relation {self.gen_names[g]}^{bound} = 0 fails")
        k = len(self.gen_names)
        if self.kind == "truncated_poly":
            for g in range(k):
                for h in range(g + 1, k):
                    if not vals[g] @ vals[h] == vals[h] @ vals[g]:
                        raise AlgebraError(
                            f"commutativity [{self.gen_names[g]},{self.gen_names[h]}] fails")
        elif self.kind == "heisenberg":
            n = self.heis_n
            zval = vals[n]
            for a in range(k):
                for b in range(a + 1, k):
                    lhs = vals[a] @ vals[b]   # earlier generator first
                    rhs = vals[b] @ vals[a]
                    paired = a < n and b > n and (b - n - 1) == a
                    if paired:
                        # a is y_t, b is x_t: x_t y_t - y_t x_t = z
                        if not rhs - lhs == zval:
                            raise AlgebraError(
                                f"relation [{self.gen_names[b]},{self.gen_names[a]}] = z fails")
                    elif not lhs == rhs:
                        raise AlgebraError(
                            f"[{self.gen_names[a]},{self.gen_names[b]}] = 0 fails")
        else:
            raise AlgebraError("no relation data for this kind")

    # -- build-time verification -----------------------------------------------------

    def _verify_build(self):
        """Unit and socle laws, the word m = m'·g of every monomial, then
        the counit law and associativity on every (b_i, b_j, g) or on
        sampled triples; each batch of products is one kernel call, and
        none of them is kept in the memo."""
        dim = self.dim
        basis, ones = np.arange(dim), np.full(dim, self.identity_index)
        owner, idx, coef = self._straighten(np.concatenate([ones, basis]),
                                            np.concatenate([basis, ones]))
        # b_1·b_j and b_j·b_1 must each be the single term b_j
        single = np.bincount(owner, minlength=2 * dim)[owner] == 1
        ok = np.zeros(2 * dim, dtype=bool)
        ok[owner[single]] = (idx[single] == owner[single] % dim) & (coef[single] == 1)
        bad = np.nonzero(~(ok[:dim] & ok[dim:]))[0]
        if len(bad):
            raise AlgebraError(f"unit law fails on basis monomial {self.monomial_name(bad[0])}")
        # socle: the integral is killed by every generator on both sides
        gens = np.array([self.index_of[exps] for exps in self._gen_exps])
        lam = np.full(len(gens), self.integral_index)
        owner, _, _ = self._straighten(np.concatenate([gens, lam]), np.concatenate([lam, gens]))
        if len(owner):
            raise AlgebraError(f"integral fails the socle check: generator "
                               f"{self.gen_names[(owner % len(gens)).min()]} does not kill it")
        # the word of m ≠ 1: m' = m/g for g its last generator, and m'·g = m
        n = len(gens)
        ms = np.nonzero(self._exps.any(axis=1))[0]
        last = n - 1 - np.argmax(self._exps[ms, ::-1] > 0, axis=1)
        prev = self._index[(self._exps[ms] - np.eye(n, dtype=np.intp)[last]) @ self._radix]
        owner, idx, coef = self._straighten(prev, gens[last])
        if not (np.array_equal(owner, np.arange(len(ms))) and np.array_equal(idx, ms)
                and (coef == 1).all()):
            raise AlgebraError("a basis monomial is not m'·g, g its last generator")
        # indexed by monomial, -1 at the identity
        self._word_prev, self._word_last = np.full(dim, -1), np.full(dim, -1)
        self._word_prev[ms], self._word_last[ms] = prev, last
        if dim <= ASSOC_EXHAUSTIVE_DIM:
            # exact: with the unit law and the words, (b_i b_j)·g = b_i·(b_j g)
            # for every generator g gives every triple, by induction on the
            # word of the third factor.  In order of j, then i, then g.
            J, I, K = (a.ravel() for a in np.meshgrid(basis, basis, gens, indexing="ij"))
            self._check_triples(I, J, K)
        else:
            self._verify_sampled()

    def _pair_name(self, i, j):
        return f"({self.monomial_name(i)}, {self.monomial_name(j)})"

    def _check_triples(self, I, J, K):
        """The counit law on the pairs (b_i, b_j) and associativity on the
        triples (b_i, b_j, b_k) of the index arrays I, J, K, all at once
        (Rajagopalan & Schulman, SIAM J. Comput. 29, 2000): b_i b_j and
        b_j b_k, then (b_i b_j) b_k and b_i (b_j b_k), in four kernel
        calls, their difference summed per (triple, basis index).  The
        first failing triple in order is named, with the counit law first
        at a triple where both fail."""
        dim, one, F, count = self.dim, self.identity_index, self.field, len(I)
        ij_at, ij, ij_coef = self._straighten(I, J)
        jk_at, jk, jk_coef = self._straighten(J, K)
        # counit is an algebra map: eps(b_i b_j) = eps(b_i) eps(b_j)
        unit = ij == one
        eps = np.bincount(ij_at[unit], weights=ij_coef[unit], minlength=count)
        counit_bad = np.nonzero(eps != ((I == one) & (J == one)))[0]
        # (b_i b_j) b_k - b_i (b_j b_k) as one sum of scaled terms
        left_at, left, left_coef = self._straighten(ij, K[ij_at])
        right_at, right, right_coef = self._straighten(I[jk_at], jk)
        triple = np.concatenate([ij_at[left_at], jk_at[right_at]])
        coef = np.concatenate([F.MUL[ij_coef[left_at], left_coef],
                               F.NEG[F.MUL[jk_coef[right_at], right_coef]]])
        keys, sums = self._sum_terms(triple * dim + np.concatenate([left, right]), coef)
        assoc_bad = keys[sums != 0] // dim
        s_counit = counit_bad[0] if len(counit_bad) else count
        s_assoc = assoc_bad[0] if len(assoc_bad) else count
        first = min(s_counit, s_assoc)
        if first == count:
            return
        i, j, k = (int(v[first]) for v in (I, J, K))
        if s_counit == first:
            raise AlgebraError(f"counit is not an algebra map at pair {self._pair_name(i, j)}")
        raise AlgebraError(f"associativity fails at triple {(i, j, k)}")

    def _verify_sampled(self):
        """``_check_triples`` on ASSOC_SAMPLES triples drawn from
        ASSOC_SEED.  Sampled because the exact set of triples (b_i, b_j, g)
        numbers dim²·#generators, about 48.8 M for u(heis_2) at p = 5."""
        draws = randbelow(random.Random(ASSOC_SEED), self.dim, 3 * ASSOC_SAMPLES)
        self._check_triples(*draws.reshape(-1, 3).T)

    # -- misc ------------------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, AlgebraPresentation)
                and self.field == other.field and self.kind == other.kind
                and self.bounds == other.bounds and self.gen_names == other.gen_names)

    def __hash__(self):
        return hash((self.field, self.kind, self.bounds, self.gen_names))

    def __repr__(self):
        if self.kind == "truncated_poly":
            rel = ", ".join(f"{n}^{b}" for n, b in zip(self.gen_names, self.bounds))
            return f"{self.field}[{','.join(self.gen_names)}]/({rel})"
        return f"u(heis_{self.heis_n}) over {self.field}"

    def to_json(self):
        out = {"kind": self.kind, "field": self.field.to_json(),
               "generators": [{"name": n, "bound": b}
                              for n, b in zip(self.gen_names, self.bounds)]}
        if self.heis_n is not None:
            out["n"] = self.heis_n
        return out

    @property
    def p(self):
        return self.field.p


# -- builders ---------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _cached_truncated(field, bounds, names):
    exps = []
    for total in itertools.product(*[range(b) for b in reversed(bounds)]):
        exps.append(tuple(reversed(total)))
    # mixed radix with the first generator varying fastest
    return AlgebraPresentation(field, "truncated_poly", names, bounds, exps)


def build_truncated_polynomial(field, bounds, names=None):
    """Commutative monomial algebra k[g_i]/(g_i^{b_i}), b_i a power of p."""
    bounds = tuple(int(b) for b in bounds)
    if not bounds:
        raise InvalidBound("need at least one generator")
    for b in bounds:
        if b < field.p or not _is_p_power(b, field.p):
            raise InvalidBound(f"bound {b} is not a positive power of p={field.p}")
    if names is None:
        names = GEN_NAMES[:len(bounds)]
    return _cached_truncated(field, bounds, tuple(names))


def build_abelian_restricted(field, cyclic_dims):
    """u of a direct sum of p-nilpotent cyclic factors of the given lengths."""
    if not cyclic_dims:
        raise InvalidBound("need at least one cyclic summand")
    bounds = [field.p ** int(n) for n in cyclic_dims]
    return build_truncated_polynomial(field, bounds)


@functools.lru_cache(maxsize=None)
def build_heisenberg(field, n=1):
    """The 2n+1 dimensional nilpotent family with [x_t, y_t] = z.

    Ordered basis of monomials y^i z^j x^l with y_1 < ... < y_n < z <
    x_1 < ... < x_n; within the basis, monomials sort by x-exponents
    descending (major), then y-exponents ascending, then z descending.
    """
    p = field.p
    if p == 2:
        warnings.warn("p = 2 collapses the commutator family; results are degenerate")
    k = 2 * n + 1
    names = tuple([f"y{t}" if n > 1 else "y" for t in range(1, n + 1)]
                  + ["z"] + [f"x{t}" if n > 1 else "x" for t in range(1, n + 1)])
    exps = []
    for combo in itertools.product(range(p), repeat=k):
        exps.append(combo)

    def order_key(e):
        ys, zj, xs = e[:n], e[n], e[n + 1:]
        return tuple(-l for l in reversed(xs)) + tuple(ys) + (-zj,)

    exps.sort(key=order_key)
    bounds = tuple([p] * k)
    return AlgebraPresentation(field, "heisenberg", names, bounds, exps, heis_n=n)


# -- morphisms --------------------------------------------------------------------


class AlgebraMorphism:
    """Algebra map determined by generator images; verified on construction.
    ``table`` holds φ of every basis monomial, read on the source's words
    as Δ is; ``apply``, ``invert``, twisting and induction read it."""

    def __init__(self, source, target, images):
        if len(images) != len(source.gen_names):
            raise AlgebraError("one image per source generator required")
        self.source = source
        self.target = target
        self.images = list(images)
        for im in self.images:
            if im.algebra != self.target:
                raise AlgebraError("image not in target algebra")
            if im.counit() != 0:
                raise NotAugmented("generator image has nonzero counit")
        self.source.check_relations(self.images)

    @classmethod
    def from_gen_map(cls, A, mapping):
        """Build an endomorphism from {name: element}, unmapped names fixed."""
        return cls(A, A, [mapping[name] if name in mapping else A.generator(name)
                          for name in A.gen_names])

    @functools.cached_property
    def table(self):
        """The dim source × dim target array whose row m is φ(b_m), formed on
        first use: φ(m) = φ(m')·φ(g) on the source's word m = m'·g, one batch
        per degree and last generator."""
        A, T = self.source, self.target
        table = np.zeros((A.dim, T.dim), dtype=_INT)
        table[A.identity_index, T.identity_index] = 1
        degree = A._exps.sum(axis=1)
        for k in range(1, degree.max() + 1):
            for g, im in enumerate(self.images):
                ms = np.nonzero((degree == k) & (A._word_last == g))[0]
                if len(ms):
                    table[ms] = T.products(table[A._word_prev[ms]], im.vec[None]).T
        return table

    def apply(self, a):
        if a.algebra != self.source:
            raise AlgebraError("element not in source algebra")
        F = self.target.field
        row = Matrix(F, a.vec[None], copy=False) @ Matrix(F, self.table, copy=False)
        return AlgebraElement(self.target, row.a[0], copy=False)

    def compose(self, other):
        """self ∘ other."""
        if other.target != self.source:
            raise AlgebraError("composition mismatch")
        return AlgebraMorphism(other.source, self.target,
                               [self.apply(im) for im in other.images])

    def is_identity(self):
        return all(im == self.source.generator(g) for g, im in enumerate(self.images)) \
            and self.source == self.target

    def invert(self):
        """The inverse automorphism ψ: φ(a) = a·Φ for the table Φ, so ψ's
        generator images are the rows of Φ⁻¹ at the generators.  Checked:
        Φ·Φ⁻¹ = I (``Matrix.inverse``), ψ's relations, and ψ's table = Φ⁻¹,
        so ψ∘φ and φ∘ψ are the identity.  NotInvertible when φ is not an
        endomorphism, Φ is singular or a check fails."""
        if self.source != self.target:
            raise NotInvertible("only endomorphisms can be inverted")
        A = self.source
        try:
            inv = Matrix(A.field, self.table, copy=False).inverse().a
            inverse = AlgebraMorphism(A, A, [A.element(inv[A.index_of[e]]) for e in A._gen_exps])
        except (MatrixError, AlgebraError) as exc:
            raise NotInvertible(f"φ is not an automorphism: {exc}") from exc
        if not np.array_equal(inverse.table, inv):
            raise NotInvertible("inverse verification failed")
        return inverse

    def __eq__(self, other):
        return (isinstance(other, AlgebraMorphism) and self.source == other.source
                and self.target == other.target
                and all(a == b for a, b in zip(self.images, other.images)))

    def __repr__(self):
        ims = ", ".join(f"{n}↦{im!r}" for n, im in zip(self.source.gen_names, self.images))
        return f"Morphism({ims})"

    def to_json(self):
        F = self.target.field
        return {"images": [[F.coeffs(int(c)) for c in im.vec] for im in self.images]}


def morphism_from_json(source, target, data):
    images = [target.element(np.array(vec, dtype=_INT))
              for vec in target.field.decode_matrix(data["images"], "images")]
    return AlgebraMorphism(source, target, images)


def base_change(A, big_field):
    """The same presentation over an extension field."""
    if A.kind == "truncated_poly":
        return build_truncated_polynomial(big_field, A.bounds, names=A.gen_names)
    if A.kind == "heisenberg":
        return build_heisenberg(big_field, A.heis_n)
    raise AlgebraError("cannot base change this kind")


def element_to_field(a, B):
    """Carry an element along base change (same presentation, bigger field)."""
    emb = a.algebra.field.embedding(B.field)
    return B.element(emb[a.vec])


def morphism_to_field(phi, B):
    return AlgebraMorphism(B, B, [element_to_field(im, B) for im in phi.images])
