"""Cocommutative comultiplication structures on a fixed augmented algebra.

A comultiplication is an algebra map A -> A⊗A recorded on generators and
extended multiplicatively to the monomial basis (memoized).  Elements of
A⊗A and A⊗A⊗A are sparse dicts keyed by basis-index pairs/triples.

Construction always runs the axiom suite (coassociativity, counit law,
cocommutativity, multiplicativity on sampled pairs) and raises
AxiomViolation on any failure; there is no way to skip it, since every
downstream tensor computation depends on these identities.

Antipodes are deliberately not stored or computed: none of the library
structures or scenario computations ever apply one, and existence is
automatic for the listed comultiplications.
"""

import math
import random

import numpy as np

from .algebra import AlgebraError
from .matrices import Matrix, _INT

AXIOM_FULL_DIM = 256       # full-basis axiom checks up to this dimension
AXIOM_SAMPLES = 64         # sampled basis elements above
MULT_SAMPLES = 64          # sampled multiplicativity pairs

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


# -- sparse tensor-square / tensor-cube arithmetic -------------------------------

def t2_add_term(F, acc, key, c):
    """acc[key] += c in a sparse tensor, dropping zeros; keys are opaque
    tuples (pairs in A⊗A, triples in A⊗A⊗A)."""
    if not c:
        return
    prev = acc.get(key)
    if prev is None:
        acc[key] = c
    else:
        s = F.add(prev, c)
        if s:
            acc[key] = s
        else:
            del acc[key]


def t2_add(F, u, v):
    out = dict(u)
    for k, c in v.items():
        t2_add_term(F, out, k, c)
    return out


def t2_axpy(F, acc, c, u, key=None):
    """acc += c·u in place; ``key`` maps u's keys to acc's when they differ."""
    for k, v in u.items():
        t2_add_term(F, acc, key(k) if key else k, F.mul(c, v))


def t2_from_pair(a, b):
    """Simple tensor a⊗b as a sparse dict."""
    F = a.algebra.field
    out = {}
    for i in a.support():
        for j in b.support():
            out[(i, j)] = F.mul(int(a.vec[i]), int(b.vec[j]))
    return out


def t2_mul(A, u, v):
    """Componentwise product in A⊗A of sparse dicts.  The pairs (i1, i2) of
    left factors are the product of the sets of left indices of u and of v,
    and likewise on the right; their basis products are straightened in one
    batch, and the loop reads them from the memo."""
    if not u or not v:
        return {}
    F, d = A.field, A.dim
    (left_u, right_u), (left_v, right_v) = map(set, zip(*u)), map(set, zip(*v))
    A._memo_terms([i1 * d + i2 for i1 in left_u for i2 in left_v]
                  + [j1 * d + j2 for j1 in right_u for j2 in right_v])
    out = {}
    for (i1, j1), c1 in u.items():
        for (i2, j2), c2 in v.items():
            left_idx, left_coef = A.product_terms(i1, i2)
            if not len(left_idx):
                continue
            right_idx, right_coef = A.product_terms(j1, j2)
            right = list(zip(right_idx.tolist(), right_coef.tolist()))
            c = F.mul(c1, c2)
            for li, cl in zip(left_idx.tolist(), left_coef.tolist()):
                cl = F.mul(c, cl)
                for rj, cr in right:
                    t2_add_term(F, out, (li, rj), F.mul(cl, cr))
    return out


def t2_swap(u):
    return {(j, i): c for (i, j), c in u.items()}


def t2_counit(A, u, side):
    """(ε⊗id) (side 0) or (id⊗ε) (side 1) of a sparse tensor, as a
    coefficient vector over A."""
    v = np.zeros(A.dim, dtype=_INT)
    for key, c in u.items():
        if key[side] == A.identity_index:
            k = key[1 - side]
            v[k] = A.field.add(int(v[k]), c)
    return v


def t2_act_morphism(phi, u):
    """(φ⊗φ) applied to a sparse tensor; phi an endomorphism of A."""
    out = {}
    for (i, j), c in u.items():
        fi = phi._mono_image(phi.source.basis_exps[i])
        fj = phi._mono_image(phi.source.basis_exps[j])
        t2_axpy(phi.target.field, out, c, t2_from_pair(fi, fj))
    return out


# -- the comultiplication object ----------------------------------------------------


class Comultiplication:
    """An axiom-verified cocommutative algebra map A -> A⊗A."""

    def __init__(self, algebra, name, images, nobility_rule=None, twist_chain=(),
                 base_name=None):
        self.algebra = algebra
        self.name = name
        self.images = list(images)
        self.nobility_rule = nobility_rule
        self.twist_chain = tuple(twist_chain)   # morphisms applied, outermost last
        self.base_name = base_name or name
        self._table = {}
        if len(images) != len(algebra.gen_names):
            raise ShapeMismatch("one image per generator required")
        self._verify_axioms()

    # -- evaluation ---------------------------------------------------------------

    def delta_basis(self, i):
        hit = self._table.get(i)
        if hit is not None:
            return hit
        A = self.algebra
        out = {(A.identity_index, A.identity_index): 1}
        for g, e in enumerate(A.basis_exps[i]):
            for _ in range(e):
                out = t2_mul(A, out, self.images[g])
        self._table[i] = out
        return out

    def delta_of(self, a):
        """Linear extension of the basis table to an arbitrary element."""
        out = {}
        for i in a.support():
            t2_axpy(self.algebra.field, out, int(a.vec[i]), self.delta_basis(i))
        return out

    def generator_terms(self, g):
        """Δ(g) as a list of (coeff, left index, right index)."""
        if isinstance(g, str):
            g = self.algebra.gen_names.index(g)
        return [(c, i, j) for (i, j), c in sorted(self.images[g].items())]

    # -- axioms ------------------------------------------------------------------------

    def _sample_indices(self):
        A = self.algebra
        if A.dim <= AXIOM_FULL_DIM:
            return list(range(A.dim))
        rng = random.Random(0xC0A55)
        idx = set(rng.randrange(A.dim) for _ in range(AXIOM_SAMPLES))
        idx.add(A.identity_index)
        idx.add(A.integral_index)
        for e in A._gen_exps:
            idx.add(A.index_of[e])
        return sorted(idx)

    def _verify_axioms(self):
        A = self.algebra
        F = A.field
        for i in self._sample_indices():
            d = self.delta_basis(i)
            expected = np.zeros(A.dim, dtype=_INT)
            expected[i] = 1
            if not np.array_equal(t2_counit(A, d, 0), expected):
                raise AxiomViolation(f"counit law (ε⊗id) fails on basis {i}")
            if not np.array_equal(t2_counit(A, d, 1), expected):
                raise AxiomViolation(f"counit law (id⊗ε) fails on basis {i}")
            if t2_swap(d) != d:
                raise AxiomViolation(f"cocommutativity fails on basis {i}")
            # coassociativity as sparse tensor cubes
            lhs, rhs = {}, {}
            for (u, v), c in d.items():
                t2_axpy(F, lhs, c, self.delta_basis(u), key=lambda k: k + (v,))
                t2_axpy(F, rhs, c, self.delta_basis(v), key=lambda k: (u,) + k)
            if lhs != rhs:
                raise AxiomViolation(f"coassociativity fails on basis {i}")
        # multiplicativity on sampled pairs
        rng = random.Random(0xDE17A)
        if A.dim ** 2 <= MULT_SAMPLES:
            pairs = [(i, j) for i in range(A.dim) for j in range(A.dim)]
        else:
            pairs = [(rng.randrange(A.dim), rng.randrange(A.dim))
                     for _ in range(MULT_SAMPLES)]
        for i, j in pairs:
            prod = A.element(A.product_vec(i, j))
            if self.delta_of(prod) != t2_mul(A, self.delta_basis(i), self.delta_basis(j)):
                raise AxiomViolation(f"multiplicativity fails at pair {(i, j)}")

    # -- derived data ----------------------------------------------------------------------

    def primitive_space(self):
        """Basis of {a : Δ(a) = a⊗1 + 1⊗a}, as columns over the algebra basis."""
        A = self.algebra
        F = A.field
        one = A.identity_index
        rows = {}
        cols = []
        for i in range(A.dim):
            d = dict(self.delta_basis(i))
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

    def __repr__(self):
        return f"Comultiplication({self.name} on {self.algebra!r})"

    def to_json(self):
        F = self.algebra.field
        return {"name": self.name, "algebra": self.algebra.to_json(),
                "images": [[[i, j, F.coeffs(c)] for (i, j), c in sorted(im.items())]
                           for im in self.images]}


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
    out = {}
    for i in range(1, p):
        c = (math.comb(p, i) // p) % p
        if not c:
            continue
        t2_axpy(A.field, out, c, t2_from_pair(powers[i], powers[p - i]))
    return out


# -- the named structure library --------------------------------------------------------------


def _primitive_image(A, g):
    one = A.identity_index
    gi = A.index_of[A._gen_exps[g]]
    return {(gi, one): 1, (one, gi): 1}


def _grouplike_shift_image(A, g):
    """g ↦ g⊗1 + 1⊗g + g⊗g."""
    one = A.identity_index
    gi = A.index_of[A._gen_exps[g]]
    return {(gi, one): 1, (one, gi): 1, (gi, gi): 1}


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
        return Comultiplication(A, name, images, nobility_rule="all")
    if name == "heisenberg_primitive":
        _require_shape(A, "heisenberg")
        images = [_primitive_image(A, g) for g in range(len(A.gen_names))]
        return Comultiplication(A, name, images, nobility_rule="all")
    if name == "wang_Ga2":
        _require_shape(A, "truncated_poly", 2, (p, p))
        x = A.generator(0)
        dy = t2_add(A.field, _primitive_image(A, 1), omega(A, x))
        return Comultiplication(A, name, [_primitive_image(A, 0), dy],
                                nobility_rule="first_axis")
    if name == "wang_Ga1xZp":
        _require_shape(A, "truncated_poly", 2, (p, p))
        return Comultiplication(A, name,
                                [_primitive_image(A, 0), _grouplike_shift_image(A, 1)],
                                nobility_rule="axes")
    if name == "wang_ZpZp":
        _require_shape(A, "truncated_poly", 2, (p, p))
        return Comultiplication(A, name,
                                [_grouplike_shift_image(A, 0), _grouplike_shift_image(A, 1)],
                                nobility_rule="prime_field")
    if name == "oorttate_Zp":
        _require_shape(A, "truncated_poly", 1, (p,))
        return Comultiplication(A, name, [_grouplike_shift_image(A, 0)],
                                nobility_rule="all")
    if name == "witt_G2":
        _require_shape(A, "truncated_poly", 1, (p * p,))
        x = A.generator(0)
        im = t2_add(A.field, _primitive_image(A, 0), omega(A, x.pow(p)))
        return Comultiplication(A, name, [im], nobility_rule="all")
    if name == "witt_Zp2":
        _require_shape(A, "truncated_poly", 1, (p * p,))
        return Comultiplication(A, name, [_grouplike_shift_image(A, 0)],
                                nobility_rule="all")
    raise ShapeMismatch(f"unknown structure name {name!r}")


def custom_structure(A, images, name="custom"):
    """A user-supplied comultiplication; axiom-verified, nobility unknown."""
    return Comultiplication(A, name, images, nobility_rule=None)


def structure_from_json(A, data):
    F = A.field
    images = []
    for im in data["images"]:
        d = {}
        for i, j, cs in im:
            d[(int(i), int(j))] = F.from_coeffs(cs)
        images.append(d)
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
    images = []
    for g in range(len(A.gen_names)):
        a = phi_inv.images[g]           # φ⁻¹(g)
        d = delta.delta_of(a)
        images.append(t2_act_morphism(phi, d))
    label = ",".join(f"{n}↦{im!r}" for n, im in zip(A.gen_names, phi.images))
    return Comultiplication(A, f"{delta.name}^({label})", images,
                            nobility_rule=delta.nobility_rule,
                            twist_chain=delta.twist_chain + (phi,),
                            base_name=delta.base_name)
