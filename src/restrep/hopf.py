"""Cocommutative comultiplication structures on a fixed augmented algebra.

A comultiplication is an algebra map A -> A⊗A recorded on generators and
extended multiplicatively to the monomial basis.  An element of A⊗A is a
pair of arrays: sorted distinct int64 keys i·dim + j, the key of the
product memo of :mod:`restrep.algebra`, and their nonzero coefficients.
The axiom checks key A⊗A⊗A as (i·dim + j)·dim + k.  Δ of every basis
monomial is built at construction, one degree per batch, as Δ(m) =
Δ(m')·Δ(g) on the algebra's word m = m'·g of m, which its build has
checked.

Construction always runs the axiom suite and raises AxiomViolation on
any failure; there is no way to skip it, since every downstream tensor
computation depends on these identities.  It is exact at every
dimension: Δ is an algebra map exactly when the generator images
satisfy A's defining relations, and then the counit laws,
cocommutativity and coassociativity hold exactly when they hold on the
generators.

``Comultiplication.primitives_and_group_likes`` gives, over an extension
K, the u with K[u] a Hopf subalgebra: the primitives, one kernel holding
the counit condition u₁ = 0, and g − 1 for each group-like g.  As Δa =
Σ_m b_m⊗R_m(a) for the commuting maps R_m = (b_m*⊗id)∘Δ, g is a joint
eigenvector, of eigenvalue g_m for R_m: the space is split into the
eigenspaces of one R_m after another, every λ ∈ K ranked in one stacked
elimination, until each piece is a line, and the lines are checked.

Antipodes are deliberately not stored or computed: none of the library
structures or scenario computations ever apply one, and existence is
automatic for the listed comultiplications.
"""

import math

import numpy as np

from .algebra import AlgebraError
from .matrices import _INT, Matrix, _eliminate, _product

STRUCTURE_NAMES = (
    "lie_primitive", "wang_Ga2", "wang_Ga1xZp", "wang_ZpZp",
    "oorttate_Zp", "witt_G2", "witt_Zp2", "heisenberg_primitive",
)


class HopfError(AlgebraError):
    pass


class ShapeMismatch(HopfError):
    pass


class AxiomViolation(HopfError):
    pass


class NotAutomorphism(HopfError):
    pass


# -- A⊗A as key and coefficient arrays ------------------------------------------------

def _normal(A, keys, coef):
    """The tensor Σ coef[t]·keys[t]: coefficients summed per key, zeros
    dropped, keys sorted."""
    keys, coef = A._sum_terms(np.asarray(keys, dtype=np.int64), np.asarray(coef, dtype=_INT))
    return keys[coef != 0], coef[coef != 0]


def _add(A, *tensors):
    return _normal(A, *map(np.concatenate, zip(*tensors)))


def _expand(rows, start):
    """Each entry of ``rows`` once per position start[r] .. start[r + 1] - 1
    of its row r: (entry, position) arrays."""
    n = np.diff(start)[rows]
    entry = np.repeat(np.arange(len(rows)), n)
    return entry, np.arange(len(entry)) + (start[rows] - np.cumsum(n) + n)[entry]


def _products(A, u, v, s, t, group):
    """Σ per group of the products u[s]·v[t] of terms of u, v = (keys,
    coef) in A⊗A, for aligned index arrays s, t, group; keyed group·dim² +
    key.  Every pair of a left (right) index of u with one of v is
    straightened once, in one batch."""
    F, d = A.field, A.dim
    (ku, cu), (kv, cv) = u, v
    sides = []
    for a, b in ((ku // d, kv // d), (ku % d, kv % d)):
        (va, ra), (vb, rb) = (np.unique(x, return_inverse=True) for x in (a, b))
        idx, coef, owner = A._scaled_terms((va[:, None] * d + vb).ravel().tolist(),
                                           np.ones(len(va) * len(vb), dtype=_INT))
        start = np.searchsorted(owner, np.arange(len(va) * len(vb) + 1))
        sides.append((ra[s] * len(vb) + rb[t], start, idx, coef))
    (lrow, lstart, li, lc), (rrow, rstart, ri, rc) = sides
    x, lpos = _expand(lrow, lstart)         # each pair once per term of its left product
    y, rpos = _expand(rrow[x], rstart)      # and per term of its right product
    x, lpos = x[y], lpos[y]
    coef = F.MUL[F.MUL[F.MUL[cu[s[x]], cv[t[x]]], lc[lpos]], rc[rpos]]
    return _normal(A, (group[x] * d + li[lpos]) * d + ri[rpos], coef)


def _outer(A, scale, left, right):
    """Σ_t scale[t]·left[t]⊗right[t] over the rows of two coefficient arrays."""
    lt, li = np.nonzero(left)
    rt, rj = np.nonzero(right)
    x, y = _expand(lt, np.searchsorted(rt, np.arange(len(right) + 1)))
    t = lt[x]
    coef = A.field.MUL[A.field.MUL[scale[t], left[t, li[x]]], right[t, rj[y]]]
    return _normal(A, li[x] * A.dim + rj[y], coef)


class _Tensor:
    """An element of A⊗A as normal (keys, coefficients) arrays, with the
    operations ``AlgebraPresentation.check_relations`` applies."""

    __slots__ = ("algebra", "keys", "coef")

    def __init__(self, algebra, keys, coef):
        self.algebra, self.keys, self.coef = algebra, keys, coef

    def __matmul__(self, other):
        s, t = np.divmod(np.arange(len(self.keys) * len(other.keys)), max(len(other.keys), 1))
        return _Tensor(self.algebra, *_products(self.algebra, (self.keys, self.coef),
                                                (other.keys, other.coef), s, t, np.zeros_like(s)))

    def __sub__(self, other):
        neg = self.algebra.field.NEG[other.coef]
        return _Tensor(self.algebra, *_add(self.algebra, (self.keys, self.coef), (other.keys, neg)))

    def __eq__(self, other):
        return np.array_equal(self.keys, other.keys) and np.array_equal(self.coef, other.coef)

    def is_zero(self):
        return not len(self.keys)


# -- the comultiplication object ----------------------------------------------------


class Comultiplication:
    """An axiom-verified cocommutative algebra map A -> A⊗A.  ``images``
    holds Δ of each generator as a tensor (keys, coefficients)."""

    def __init__(self, algebra, name, images):
        self.algebra = algebra
        self.name = name
        self.images = list(images)
        self._build_table()
        self._verify_axioms()

    def _build_table(self):
        """Δ of every basis monomial m, as the keys and coefficients at
        ``_start[m]:_start[m + 1]``.  One batch per degree: Δ(m) =
        Δ(m')·Δ(g), with m = m'·g the algebra's word of m and Δ(m') from
        the batch before, keyed m·dim² + key.  So the table is the algebra
        map from the free algebra, given by the images, read on one word
        per monomial."""
        A = self.algebra
        d, d2 = A.dim, A.dim ** 2
        gen_keys, gen_coef = map(np.concatenate, zip(*self.images))
        gen_start = np.cumsum([0] + [len(k) for k, _ in self.images])
        degree = A._exps.sum(axis=1)
        keys, coef = np.array([A.identity_index * (d2 + d + 1)]), np.ones(1, dtype=_INT)
        table = [(keys, coef)]
        for k in range(1, degree.max() + 1):
            ms = np.nonzero(degree == k)[0]
            starts = np.searchsorted(keys, np.arange(d + 1) * d2)
            e1, p1 = _expand(A._word_prev[ms], starts)          # Δ(m')
            e2, p2 = _expand(A._word_last[ms][e1], gen_start)   # Δ(g)
            keys, coef = _products(A, (keys % d2, coef), (gen_keys, gen_coef),
                                   p1[e2], p2, ms[e1[e2]])
            table.append((keys, coef))
        keys, self._coef = _add(A, *table)
        self._start, self._keys = np.searchsorted(keys, np.arange(d + 1) * d2), keys % d2

    # -- evaluation ---------------------------------------------------------------

    def delta_basis(self, i):
        """Δ of basis monomial i, as (keys, coefficients)."""
        at = slice(self._start[i], self._start[i + 1])
        return self._keys[at], self._coef[at]

    def _table_terms(self, rows, scale):
        """The terms of Σ_t scale[t]·Δ(b_rows[t]): (t, key, coefficient)."""
        t, pos = _expand(rows, self._start)
        return t, self._keys[pos], self.algebra.field.MUL[scale[t], self._coef[pos]]

    def delta_of(self, a):
        """Linear extension of the basis table to an arbitrary element."""
        support = np.nonzero(a.vec)[0]
        return _normal(self.algebra, *self._table_terms(support, a.vec[support])[1:])

    def generator_terms(self, g):
        """Δ(g) as a list of (coeff, left index, right index)."""
        if isinstance(g, str):
            g = self.algebra.gen_names.index(g)
        d, (keys, coef) = self.algebra.dim, self.images[g]
        return [(c, k // d, k % d) for k, c in zip(keys.tolist(), coef.tolist())]

    def primitives_and_group_likes(self, K):
        """(a basis of the primitives, every group-like) over an extension K
        of the base field, as rows over the basis; see the module docstring."""
        A, d = self.algebra, self.algebra.dim
        one, idx = A.identity_index, np.arange(d)
        owner = np.repeat(idx, np.diff(self._start))
        coef = A.field.embedding(K)[self._coef]
        # Δ(b_i) - b_i⊗1 - 1⊗b_i in column i, on the keys that occur
        keys, at = np.unique(np.concatenate([self._keys, idx * d + one, one * d + idx]),
                             return_inverse=True)
        M = K.sum_at(at * d + np.concatenate([owner, idx, idx]),
                     np.concatenate([coef, np.full(2 * d, K.NEG[1], dtype=_INT)]), len(keys) * d)
        lam, pieces = np.arange(K.q, dtype=_INT), [np.eye(d, dtype=_INT)]
        for m in np.argsort(A._exps.sum(axis=1), kind="stable")[1:]:     # R_1 = id
            R, on_m = np.zeros((d, d), dtype=_INT), self._keys // d == m
            R[self._keys[on_m] % d, owner[on_m]] = coef[on_m]
            split = [V for V in pieces if V.shape[1] == 1]
            for V in (V for V in pieces if V.shape[1] > 1):
                S = K.sub_arrays(_product(K, R, V)[None], K.MUL[lam[:, None, None], V])
                rank = np.bincount(_eliminate(K, S.copy(), reduced=False)[1] // V.shape[1],
                                   minlength=K.q)
                split += [_product(K, V, Matrix(K, S[i], copy=False).nullspace().a)
                          for i in (rank < V.shape[1]).nonzero()[0]]
            if all(V.shape[1] == 1 for V in split):
                break
            pieces = split
        G = np.array([K.MUL[K.INV[V[one]], V[:, 0]] for V in split if V[one]], dtype=_INT)
        delta = K.sum_at((np.arange(len(G))[:, None] * d * d + self._keys).ravel(),
                         K.MUL[G[:, owner], coef].ravel(), len(G) * d * d).reshape(-1, d * d)
        group_like = (delta == K.MUL[G[:, :, None], G[:, None]].reshape(-1, d * d)).all(axis=1)
        return Matrix(K, M.reshape(-1, d), copy=False).nullspace().a.T, G[group_like]

    # -- axioms ------------------------------------------------------------------------

    def _verify_axioms(self):
        """Multiplicativity, then per generator in order the counit laws,
        cocommutativity (a key transpose) and coassociativity; the first
        failure is named.  The table is Δ read on words (``_build_table``),
        so Δ is an algebra map exactly when the images satisfy A's defining
        relations, with Δ(g)^b = Δ(g^(b-1))·Δ(g) read from the table.  Each
        law then compares two algebra maps, which agree when they agree on
        the generators."""
        A, F = self.algebra, self.algebra.field
        d, one = A.dim, A.identity_index
        vals = [_Tensor(A, *im) for im in self.images]

        def power_vanishes(g, b):
            below = A.index_of[tuple((b - 1) * e for e in A._gen_exps[g])]
            return (_Tensor(A, *self.delta_basis(below)) @ vals[g]).is_zero()
        try:
            A.check_relations(vals, power_vanishes=power_vanishes)
        except AlgebraError as exc:
            raise AxiomViolation(f"Δ is not multiplicative: {exc}") from None
        for i in (A.index_of[e] for e in A._gen_exps):
            keys, coef = self.delta_basis(i)
            u, v = np.divmod(keys, d)
            for law, side, other in (("ε⊗id", u, v), ("id⊗ε", v, u)):
                if (other[side == one].tolist(), coef[side == one].tolist()) != ([i], [1]):
                    raise AxiomViolation(f"counit law ({law}) fails on basis {i}")
            swapped = v * d + u
            order = np.argsort(swapped)
            if not (np.array_equal(swapped[order], keys) and np.array_equal(coef[order], coef)):
                raise AxiomViolation(f"cocommutativity fails on basis {i}")
            # (Δ⊗id)Δ(b_i) - (id⊗Δ)Δ(b_i), keyed (a·dim + b)·dim + c
            lt, lk, lc = self._table_terms(u, coef)
            rt, rk, rc = self._table_terms(v, F.NEG[coef])
            if len(_normal(A, np.concatenate([lk * d + v[lt], u[rt] * d * d + rk]),
                           np.concatenate([lc, rc]))[0]):
                raise AxiomViolation(f"coassociativity fails on basis {i}")

    def __repr__(self):
        return f"Comultiplication({self.name} on {self.algebra!r})"

    def to_json(self):
        F = self.algebra.field
        return {"name": self.name, "algebra": self.algebra.to_json(),
                "images": [[[i, j, F.coeffs(c)] for c, i, j in self.generator_terms(g)]
                           for g in range(len(self.images))]}


# -- the ω operator ------------------------------------------------------------------------


def omega(A, a):
    """Σ_{0<i<p} (C(p,i)/p mod p) a^i ⊗ a^{p-i}, binomials divided exactly in Z.

    This is the degree-p correction term relating the additive and
    Witt-vector style coproducts; the division by p happens in integer
    arithmetic before reduction mod p.
    """
    p = A.field.p
    powers = [A.one()]
    for _ in range(p):
        powers.append(A.multiply(powers[-1], a))
    scale = np.array([(math.comb(p, i) // p) % p for i in range(1, p)], dtype=_INT)
    return _outer(A, scale, np.array([powers[i].vec for i in range(1, p)]),
                  np.array([powers[p - i].vec for i in range(1, p)]))


# -- the named structure library --------------------------------------------------------------


def _primitive_image(A, g, shift=False):
    """g ↦ g⊗1 + 1⊗g, plus g⊗g when ``shift`` (grouplike-shifted)."""
    d, one = A.dim, A.identity_index
    gi = A.index_of[A._gen_exps[g]]
    keys = [gi * d + one, one * d + gi] + [gi * d + gi] * shift
    return _normal(A, keys, np.ones(len(keys), dtype=_INT))


def _require_shape(A, kind, n_gens=None, bounds=None):
    if A.kind != kind:
        raise ShapeMismatch(f"structure requires a {kind} algebra, got {A.kind}")
    if n_gens is not None and len(A.gen_names) != n_gens:
        raise ShapeMismatch(f"structure requires {n_gens} generators")
    if bounds is not None and A.bounds != tuple(bounds):
        raise ShapeMismatch(f"structure requires bounds {bounds}, got {A.bounds}")


def named_structure(A, name):
    """One of the library comultiplications, with generator images as published."""
    p = A.field.p
    if name == "lie_primitive":
        if A.kind not in ("truncated_poly", "heisenberg"):
            raise ShapeMismatch("lie_primitive needs a monomial-basis algebra")
        images = [_primitive_image(A, g) for g in range(len(A.gen_names))]
        return Comultiplication(A, name, images)
    if name == "heisenberg_primitive":
        _require_shape(A, "heisenberg")
        images = [_primitive_image(A, g) for g in range(len(A.gen_names))]
        return Comultiplication(A, name, images)
    if name == "wang_Ga2":
        _require_shape(A, "truncated_poly", 2, (p, p))
        x = A.generator(0)
        dy = _add(A, _primitive_image(A, 1), omega(A, x))
        return Comultiplication(A, name, [_primitive_image(A, 0), dy])
    if name == "wang_Ga1xZp":
        _require_shape(A, "truncated_poly", 2, (p, p))
        return Comultiplication(A, name,
                                [_primitive_image(A, 0), _primitive_image(A, 1, shift=True)])
    if name == "wang_ZpZp":
        _require_shape(A, "truncated_poly", 2, (p, p))
        images = [_primitive_image(A, g, shift=True) for g in (0, 1)]
        return Comultiplication(A, name, images)
    if name == "oorttate_Zp":
        _require_shape(A, "truncated_poly", 1, (p,))
        return Comultiplication(A, name, [_primitive_image(A, 0, shift=True)])
    if name == "witt_G2":
        _require_shape(A, "truncated_poly", 1, (p * p,))
        x = A.generator(0)
        im = _add(A, _primitive_image(A, 0), omega(A, x.pow(p)))
        return Comultiplication(A, name, [im])
    if name == "witt_Zp2":
        _require_shape(A, "truncated_poly", 1, (p * p,))
        return Comultiplication(A, name, [_primitive_image(A, 0, shift=True)])
    raise ShapeMismatch(f"unknown structure name {name!r}")


def custom_structure(A, images, name="custom"):
    """A user-supplied comultiplication from generator images {(i, j): c};
    axiom-verified."""
    if len(images) != len(A.gen_names):
        raise ShapeMismatch("one image per generator required")
    images = [_image_tensor(A, g, im) for g, im in zip(A.gen_names, images)]
    return Comultiplication(A, name, images)


def _image_tensor(A, g, image):
    """The tensor of the image {(i, j): c} of generator ``g``; ShapeMismatch
    naming the generator and the key unless every key is a pair of basis
    indices and every coefficient an encoded field element."""
    d, q = A.dim, A.field.q
    for key, c in image.items():
        if not (isinstance(key, tuple) and len(key) == 2
                and all(isinstance(i, (int, np.integer)) and 0 <= i < d for i in key)):
            raise ShapeMismatch(f"image of generator {g}: key {key!r} is not a pair of "
                                f"basis indices in [0, {d})")
        if not (isinstance(c, (int, np.integer)) and 0 <= c < q):
            raise ShapeMismatch(f"image of generator {g}: coefficient {c!r} at key {key!r} "
                                f"is not an element of GF({q})")
    return _normal(A, [i * d + j for i, j in image], list(image.values()))


def structure_from_json(A, data):
    images = []
    for g, im in enumerate(data["images"]):
        coef = A.field.decode_matrix([[cs] for _, _, cs in im], f"images[{g}] coefficients")
        images.append({(i, j): c for (i, j, _), (c,) in zip(im, coef)})
    return custom_structure(A, images, name=data.get("name", "custom"))


# -- twisting ---------------------------------------------------------------------------------


def twist(delta, phi):
    """The conjugated comultiplication (φ⊗φ) ∘ Δ ∘ φ⁻¹, axiom-verified."""
    A = delta.algebra
    if phi.source != A or phi.target != A:
        raise NotAutomorphism("twist needs an endomorphism of the same algebra")
    try:
        phi_inv = phi.invert()
    except AlgebraError as exc:
        raise NotAutomorphism("twisting morphism is not invertible") from exc
    # (φ⊗φ)(Σ c·b_i⊗b_j) = Σ c·φ(b_i)⊗φ(b_j) on each Δ(φ⁻¹(g)), φ(b_i) a row of φ's table
    images = [_outer(A, coef, phi.table[keys // A.dim], phi.table[keys % A.dim])
              for keys, coef in map(delta.delta_of, phi_inv.images)]
    label = ",".join(f"{n}↦{im!r}" for n, im in zip(A.gen_names, phi.images))
    return Comultiplication(A, f"{delta.name}^({label})", images)
