"""Finite augmented algebras with ordered monomial bases.

Two families are supported, enough for every scenario in this project:

* truncated polynomial algebras  k[g1,...,gk]/(g1^b1, ..., gk^bk)  with
  p-power exponent bounds (the commutative case, including the algebras
  of cyclic p-nilpotent sums), and
* the "one relator" nilpotent family with central element z and
  [x_t, y_t] = z, all generators with p-th power zero, in the PBW basis
  of ordered monomials y^i z^j x^l.

Multiplication is by straightening to normal form; products of basis
monomials are memoized.  Every build runs a verification pass
(associativity on all triples for small dimensions, >= 10^4 sampled
triples above; unit and counit laws; the socle check for the integral)
and fails loudly rather than returning a broken algebra.
"""

import functools
import itertools
import math
import random
import warnings

import numpy as np

from .matrices import Matrix, _INT

GEN_NAMES = ("x", "y", "z", "u", "v", "s", "r")

ASSOC_EXHAUSTIVE_DIM = 64
ASSOC_SAMPLES = 10_000


class AlgebraError(ValueError):
    pass


class InvalidBound(AlgebraError):
    pass


class UnsupportedTorus(AlgebraError):
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
        return AlgebraElement(self.algebra, self.algebra.field.neg_arrays(self.vec), copy=False)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.multiply(self, other)
        return AlgebraElement(self.algebra, self.algebra.field.MUL[other, self.vec], copy=False)

    __rmul__ = __mul__

    def pow(self, n):
        out = self.algebra.one()
        base = self
        for _ in range(n):
            out = self.algebra.multiply(out, base)
        return out

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
    monomials are straightened on demand and memoized.
    ``induction_tables`` belongs to this algebra as the target of
    inductions; :func:`restrep.modules.induce` fills it.
    """

    def __init__(self, field, kind, gen_names, bounds, basis_exps, heis_n=None,
                 cyclic_dims=None, verify=True):
        self.field = field
        self.kind = kind
        self.gen_names = tuple(gen_names)
        self.bounds = tuple(bounds)
        self.heis_n = heis_n
        self.cyclic_dims = tuple(cyclic_dims) if cyclic_dims else None
        self.basis_exps = list(basis_exps)
        self.dim = len(self.basis_exps)
        self.index_of = {e: i for i, e in enumerate(self.basis_exps)}
        self.identity_index = self.index_of[tuple([0] * len(self.gen_names))]
        self._prod_cache = {}
        self.induction_tables = {}
        self._gen_exps = []
        for g in range(len(self.gen_names)):
            e = [0] * len(self.gen_names)
            e[g] = 1
            self._gen_exps.append(tuple(e))
        self.integral_index = self.index_of[tuple(b - 1 for b in self.bounds)]
        if verify:
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

    def _mono_times_mono(self, ei, ej):
        """Normal form of basis monomial product as {exp tuple: coeff}."""
        p = self.field.p
        if self.kind == "truncated_poly":
            out = tuple(a + b for a, b in zip(ei, ej))
            if any(e >= b for e, b in zip(out, self.bounds)):
                return {}
            return {out: 1}
        if self.kind == "heisenberg":
            n = self.heis_n
            ya, zb, xc = ei[:n], ei[n], ei[n + 1:]
            yi, zj, xl = ej[:n], ej[n], ej[n + 1:]
            out = {}
            ranges = [range(0, min(xc[t], yi[t]) + 1) for t in range(n)]
            for ks in itertools.product(*ranges):
                coeff = 1
                for t in range(n):
                    k = ks[t]
                    coeff = (coeff * math.factorial(k) * math.comb(xc[t], k)
                             * math.comb(yi[t], k)) % p
                if not coeff:
                    continue
                ys = tuple(ya[t] + yi[t] - ks[t] for t in range(n))
                zz = zb + zj + sum(ks)
                xs = tuple(xc[t] + xl[t] - ks[t] for t in range(n))
                if any(e >= p for e in ys) or zz >= p or any(e >= p for e in xs):
                    continue
                key = ys + (zz,) + xs
                c0 = out.get(key, 0)
                out[key] = self.field.add(c0, coeff % p)
                if not out[key]:
                    del out[key]
            return out
        raise AlgebraError(f"unknown kind {self.kind}")

    def product_vec(self, i, j):
        """Vector of basis_i * basis_j (memoized)."""
        key = (i, j)
        hit = self._prod_cache.get(key)
        if hit is not None:
            return hit
        v = np.zeros(self.dim, dtype=_INT)
        for exp, c in self._mono_times_mono(self.basis_exps[i], self.basis_exps[j]).items():
            v[self.index_of[exp]] = c
        self._prod_cache[key] = v
        return v

    def multiply(self, a, b):
        F = self.field
        out = np.zeros(self.dim, dtype=_INT)
        bi = np.nonzero(b.vec)[0]
        for i in np.nonzero(a.vec)[0]:
            ca = int(a.vec[i])
            for j in bi:
                c = F.mul(ca, int(b.vec[j]))
                out = F.add_arrays(out, F.MUL[c, self.product_vec(int(i), int(j))])
        return AlgebraElement(self, out, copy=False)

    def left_mult_matrix(self, a):
        """Matrix of b -> a*b on the basis (the regular representation)."""
        F = self.field
        m = np.zeros((self.dim, self.dim), dtype=_INT)
        for i in np.nonzero(a.vec)[0]:
            c = int(a.vec[i])
            for j in range(self.dim):
                m[:, j] = F.add_arrays(m[:, j], F.MUL[c, self.product_vec(int(i), j)])
        return Matrix(F, m, copy=False)

    # -- relation checking (shared by morphisms and representations) ---------------

    def check_relations(self, vals, mul, is_zero, eq, power_vanishes=None):
        """Verify the defining relations on an assignment of generator values.

        ``vals`` maps generator index -> value; ``mul`` multiplies values.
        ``power_vanishes(v, b)`` decides v^b = 0; by default it multiplies
        the power out.  Works for algebra elements and for representation
        matrices alike.  Raises AlgebraError on the first failure.
        """
        def multiplied_out(v, n):
            out = v
            for _ in range(n - 1):
                out = mul(out, v)
            return is_zero(out)

        power_vanishes = power_vanishes or multiplied_out
        for g, bound in enumerate(self.bounds):
            if not power_vanishes(vals[g], bound):
                raise AlgebraError(f"relation {self.gen_names[g]}^{bound} = 0 fails")
        k = len(self.gen_names)
        if self.kind == "truncated_poly":
            for g in range(k):
                for h in range(g + 1, k):
                    if not eq(mul(vals[g], vals[h]), mul(vals[h], vals[g])):
                        raise AlgebraError(
                            f"commutativity [{self.gen_names[g]},{self.gen_names[h]}] fails")
        elif self.kind == "heisenberg":
            n = self.heis_n
            zval = vals[n]
            for a in range(k):
                for b in range(a + 1, k):
                    lhs = mul(vals[a], vals[b])   # earlier generator first
                    rhs = mul(vals[b], vals[a])
                    paired = a < n and b > n and (b - n - 1) == a
                    if paired:
                        # a is y_t, b is x_t: x_t y_t - y_t x_t = z
                        if not eq(rhs - lhs, zval):
                            raise AlgebraError(
                                f"relation [{self.gen_names[b]},{self.gen_names[a]}] = z fails")
                    elif not eq(lhs, rhs):
                        raise AlgebraError(
                            f"[{self.gen_names[a]},{self.gen_names[b]}] = 0 fails")
        else:
            raise AlgebraError("no relation data for this kind")

    # -- build-time verification -----------------------------------------------------

    def _verify_build(self):
        dim = self.dim
        one_i = self.identity_index
        # unit law on every basis element
        for j in range(dim):
            lv = self.product_vec(one_i, j)
            rv = self.product_vec(j, one_i)
            expected = np.zeros(dim, dtype=_INT)
            expected[j] = 1
            if not (np.array_equal(lv, expected) and np.array_equal(rv, expected)):
                raise AlgebraError("unit law fails")
        # associativity: exhaustive for small dims, sampled above
        if dim <= ASSOC_EXHAUSTIVE_DIM:
            triples = itertools.product(range(dim), repeat=3)
        else:
            rng = random.Random(0xA550C)
            triples = ((rng.randrange(dim), rng.randrange(dim), rng.randrange(dim))
                       for _ in range(ASSOC_SAMPLES))
        for i, j, k in triples:
            ij = self.element(self.product_vec(i, j))
            jk = self.element(self.product_vec(j, k))
            lhs = self.multiply(ij, self.monomial(self.basis_exps[k]))
            rhs = self.multiply(self.monomial(self.basis_exps[i]), jk)
            if lhs != rhs:
                raise AlgebraError(f"associativity fails at triple {(i, j, k)}")
            # counit is an algebra map: epsilon(b_i b_j) = eps(b_i) eps(b_j)
            eps = self.field.mul(int(i == one_i), int(j == one_i))
            if int(ij.vec[one_i]) != eps:
                raise AlgebraError("counit is not an algebra map")
        # socle: the integral is killed by every generator on both sides
        lam = self.integral()
        for g in range(len(self.gen_names)):
            gen = self.generator(g)
            if not self.multiply(gen, lam).is_zero() or not self.multiply(lam, gen).is_zero():
                raise AlgebraError("integral fails the socle check")
        if lam.is_zero():
            raise AlgebraError("integral is zero")

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


def _log_p(b, p):
    out = 0
    while b > 1:
        b //= p
        out += 1
    return out


@functools.lru_cache(maxsize=None)
def _cached_truncated(field, bounds, names):
    exps = []
    for total in itertools.product(*[range(b) for b in reversed(bounds)]):
        exps.append(tuple(reversed(total)))
    # mixed radix with the first generator varying fastest
    return AlgebraPresentation(field, "truncated_poly", names, bounds, exps,
                               cyclic_dims=[_log_p(b, field.p) for b in bounds])


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


def build_abelian_restricted(field, cyclic_dims, torus_rank=0, names=None):
    """u of a direct sum of p-nilpotent cyclic factors of the given lengths."""
    if torus_rank:
        raise UnsupportedTorus("torus factors are not supported; only nilcyclic summands")
    if not cyclic_dims:
        raise InvalidBound("need at least one cyclic summand")
    bounds = [field.p ** int(n) for n in cyclic_dims]
    return build_truncated_polynomial(field, bounds, names=names)


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
    """Algebra map determined by generator images; verified on construction."""

    def __init__(self, source, target, images, verify=True):
        if len(images) != len(source.gen_names):
            raise AlgebraError("one image per source generator required")
        self.source = source
        self.target = target
        self.images = list(images)
        self._mono_cache = {}
        if verify:
            self._verify()

    @classmethod
    def identity(cls, A):
        return cls(A, A, A.generators(), verify=False)

    @classmethod
    def from_gen_map(cls, A, mapping, target=None):
        """Build an endomorphism from {name: element}, unmapped names fixed."""
        target = target or A
        images = []
        for i, name in enumerate(A.gen_names):
            images.append(mapping.get(name, target.generator(name)
                          if name in target.gen_names else None))
            if images[-1] is None:
                raise AlgebraError(f"no image for generator {name}")
        return cls(A, target, images)

    def _verify(self):
        for im in self.images:
            if im.algebra != self.target:
                raise AlgebraError("image not in target algebra")
            if im.counit() != 0:
                raise NotAugmented("generator image has nonzero counit")
        T = self.target
        self.source.check_relations(
            self.images,
            mul=lambda a, b: T.multiply(a, b),
            is_zero=lambda a: a.is_zero(),
            eq=lambda a, b: a == b)

    def _mono_image(self, exps):
        hit = self._mono_cache.get(exps)
        if hit is not None:
            return hit
        out = self.target.one()
        for g, e in enumerate(exps):
            for _ in range(e):
                out = self.target.multiply(out, self.images[g])
        self._mono_cache[exps] = out
        return out

    def apply(self, a):
        if a.algebra != self.source:
            raise AlgebraError("element not in source algebra")
        F = self.target.field
        out = self.target.zero()
        for i in a.support():
            c = int(a.vec[i])
            out = out + c * self._mono_image(self.source.basis_exps[i])
        return out

    def compose(self, other):
        """self ∘ other."""
        if other.target != self.source:
            raise AlgebraError("composition mismatch")
        return AlgebraMorphism(other.source, self.target,
                               [self.apply(im) for im in other.images])

    def is_identity(self):
        return all(im == self.source.generator(g) for g, im in enumerate(self.images)) \
            and self.source == self.target

    def linear_part(self):
        """Matrix of generator-coefficients of the images (k x k)."""
        A, T = self.source, self.target
        k = len(A.gen_names)
        m = np.zeros((len(T.gen_names), k), dtype=_INT)
        for g, im in enumerate(self.images):
            for h in range(len(T.gen_names)):
                m[h, g] = im.vec[T.index_of[T._gen_exps[h]]]
        return Matrix(T.field, m, copy=False)

    def invert(self):
        """Inverse automorphism, for unipotent-plus-linear generator images.

        The linear part is inverted exactly; the unipotent remainder is
        removed by fixed point iteration, which terminates because each
        correction lies in a deeper power of the augmentation ideal.
        """
        if self.source != self.target:
            raise NotInvertible("only endomorphisms can be inverted")
        A = self.source
        k = len(A.gen_names)
        L = self.linear_part()
        try:
            Linv = L.inverse()
        except Exception as exc:
            raise NotInvertible("linear part is singular") from exc
        if L == Matrix.identity(A.field, k):
            eta, mu = self, None
        else:
            gens = A.generators()
            mu_images = []
            for g in range(k):
                im = A.zero()
                for h in range(k):
                    im = im + int(Linv.a[h, g]) * gens[h]
                mu_images.append(im)
            try:
                mu = AlgebraMorphism(A, A, mu_images)
            except AlgebraError as exc:
                raise NotInvertible("linear part does not preserve relations") from exc
            eta = self.compose(mu)
        # now eta has identity linear part; iterate psi(g) <- psi(g) - (eta(psi(g)) - g)
        current = [A.generator(g) for g in range(k)]
        for _ in range(A.dim + 1):
            errs = [eta.apply(v) - A.generator(g) for g, v in enumerate(current)]
            if all(e.is_zero() for e in errs):
                break
            current = [v - e for v, e in zip(current, errs)]
        else:
            raise NotInvertible("fixed point iteration did not converge")
        eta_inv = AlgebraMorphism(A, A, current)
        inverse = eta_inv if mu is None else mu.compose(eta_inv)
        check = self.compose(inverse)
        check2 = inverse.compose(self)
        if not (check.is_identity() and check2.is_identity()):
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
    F = target.field
    images = [target.element(np.array([F.from_coeffs(c) for c in vec], dtype=_INT))
              for vec in data["images"]]
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
