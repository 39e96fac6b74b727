"""Flat points t ↦ a of the algebras, their support theory, and nobility.

A point is a flat map K[t]/t^p -> A_K recorded by the image of t; a
family enumerates representatives of the projective space of top-slice
directions over a chosen extension GF(p^e) (the stand-in for the
algebraic closure; every claim exercised here is rational over e = 2).

Support of a module is the set of family points whose restriction is
not free; equivalence and the automorphism action on points are decided
through singleton-support test modules, the one-module trick that makes
the equivalence relation computable in coordinates.  A family reads the
restriction Jordan types at all its points from batched rank chains
(:func:`restrep.matrices.rank_chains`), in chunks of at most
SCAN_BYTE_BUDGET stacked bytes.

A class is noble for Δ when it holds a flat u with K[u] a Hopf subalgebra;
a family computes its noble labels once per Δ and keeps them.  A multiple
of a point's image is in that point's class (t may be rescaled); any other
u is classed by ``class_of_image``, once per cyclic group of group-likes g,
as every g^k − 1 is in the class of g − 1.
"""

import numpy as np

from .algebra import (AlgebraError, base_change, morphism_to_field)
from .fields import field
from .matrices import JordanType, Matrix, chain_bytes, nilpotent_jordan_type, rank_chains
from .modules import base_change_rep, induce_trivial

SCAN_BYTE_BUDGET = 1 << 26   # peak bytes one stacked chunk of a point scan may allocate


class PointError(AlgebraError):
    pass


class NotFlat(PointError):
    pass


def normalize_coords(F, coords):
    """Scale so the last nonzero coordinate is 1."""
    coords = tuple(int(c) for c in coords)
    if not any(coords) or not all(0 <= c < F.q for c in coords):
        raise PointError(f"{coords!r} are not the coordinates of a point over GF({F.q})")
    inv = F.inv([c for c in coords if c][-1])
    return tuple(F.mul(inv, c) for c in coords)


def projective_coords(q, k):
    """The normalized coordinates of P^{k-1}(GF(q)): by the position of the
    last nonzero coordinate, a 1, then those below it in encoded order."""
    for last in range(k):
        for combo in np.ndindex(*([q] * last)):
            yield tuple(int(c) for c in combo) + (1,) + (0,) * (k - last - 1)


def coord_label(F, coords):
    return "[" + ":".join(F.fmt(c) for c in coords) + "]"


class PiPoint:
    """A flat map t ↦ image into the base-changed algebra."""

    def __init__(self, algebra_K, image, coords=None, check_flat=True):
        self.algebra = algebra_K
        self.field = algebra_K.field
        self.image = image
        self.coords = coords
        self.label = coord_label(self.field, coords) if coords is not None else "<custom>"
        if image.counit() != 0:
            raise NotFlat("image must lie in the augmentation ideal")
        p = self.field.p
        if not image.pow(p).is_zero():
            raise NotFlat("image^p != 0")
        if check_flat:
            jt = nilpotent_jordan_type(algebra_K.left_mult_matrix(image))
            if not jt.is_free(p):
                raise NotFlat(f"free module restricts with Jordan type {jt}")

    def __repr__(self):
        return f"PiPoint({self.label} on {self.algebra!r})"


def top_slice_image(A, coords):
    """Σ c_g · g^(bound_g / p): the canonical direction for given coordinates."""
    p = A.field.p
    out = A.zero()
    for g, c in enumerate(coords):
        if c:
            out = out + int(c) * A.generator(g).pow(A.bounds[g] // p)
    return out


class SupportSet:
    """A subset of an enumerated point family, by point labels."""

    def __init__(self, labels, family_desc):
        self.labels = frozenset(labels)
        self.family = family_desc

    def __eq__(self, other):
        return isinstance(other, SupportSet) and self.labels == other.labels

    def __le__(self, other):
        return self.labels <= other.labels

    def __or__(self, other):
        return SupportSet(self.labels | other.labels, self.family)

    def __and__(self, other):
        return SupportSet(self.labels & other.labels, self.family)

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        return label in self.labels

    def sorted(self):
        return sorted(self.labels)

    def __repr__(self):
        return "{" + ", ".join(self.sorted()) + "}"

    def to_json(self):
        return {"family": self.family, "points": self.sorted()}


class PointFamily:
    """All points of the projective coordinate space over GF(p^e).

    Representatives are normalized (last nonzero coordinate 1) and
    enumerated deterministically: [1:0:...:0] style axis points first by
    axis, then the affine charts in increasing encoded order.
    """

    def __init__(self, A, ext_degree=2, check_flat=True):
        self.base_algebra = A
        base = A.field
        if base.e > 1 and ext_degree % base.e:
            raise PointError("extension degree must be a multiple of the base degree")
        self.K = field(base.p, ext_degree) if ext_degree != base.e else base
        self.A_K = A if self.K == base else base_change(A, self.K)
        self.ext_degree = ext_degree
        self.check_flat = check_flat
        self.points = self._enumerate()
        self.by_label = {pt.label: pt for pt in self.points}
        self.desc = f"P^{len(A.gen_names) - 1}(GF({base.p}^{ext_degree}))"
        self._noble = {}

    def _enumerate(self):
        """The points; with ``check_flat``, the regular module restricts
        freely at each, checked on all of them in one scan."""
        A_K, K = self.A_K, self.K
        pts = [PiPoint(A_K, top_slice_image(A_K, coords), coords=coords, check_flat=False)
               for coords in projective_coords(K.q, len(A_K.gen_names))]
        if self.check_flat:
            types = self._scan(pts, lambda pt: A_K.left_mult_matrix(pt.image), A_K.dim)
            for jt in types.values():
                if not jt.is_free(K.p):
                    raise NotFlat(f"free module restricts with Jordan type {jt}")
        return pts

    def _scan(self, points, action, n):
        """{label: Jordan type of the n×n matrix action(point)} for the
        points, in order: one :func:`rank_chains` call per chunk of points,
        each chunk as large as SCAN_BYTE_BUDGET allows (at least one
        point), decided before any of its matrices is stacked."""
        size = max(1, SCAN_BYTE_BUDGET // max(1, chain_bytes(self.K, n)))
        out = {}
        for lo in range(0, len(points), size):
            chunk = points[lo:lo + size]
            chains = rank_chains([action(pt) for pt in chunk])
            out.update((pt.label, JordanType.of_chain(c)) for pt, c in zip(chunk, chains))
        return out

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def point(self, coords):
        pt = self.by_label.get(coord_label(self.K, normalize_coords(self.K, coords)))
        if pt is None:
            raise PointError(f"{tuple(coords)!r} are not the coordinates of a point of {self.desc}")
        return pt

    def lift(self, M):
        """Base change a module over the base algebra to the family field."""
        return M if M.algebra == self.A_K else base_change_rep(M, self.K)

    def jordan_types(self, M):
        """{label: Jordan type of M pulled back along the point}, for every
        point in order, from one batched scan."""
        M_K = self.lift(M)
        return self._scan(self.points, lambda pt: M_K.act(pt.image), M_K.dim)

    def support(self, M):
        p = self.K.p
        return SupportSet([label for label, jt in self.jordan_types(M).items()
                           if not jt.is_free(p)], self.desc)

    def class_of_image(self, image_K):
        """The class of the flat map t ↦ image: the support of its own test
        module, induced from the trivial module along it, which is that
        class alone."""
        det = self.support(induce_trivial(self.A_K, image_K))
        if len(det) != 1:
            raise PointError(f"image detects {det!r}, not a single class")
        return det.sorted()[0]

    def noble_labels(self, delta):
        """The labels of the classes noble for Δ, computed on first use and
        kept per Δ (see the module docstring)."""
        noble = self._noble.get(delta)
        if noble is None:
            A_K, K, p = self.A_K, self.K, self.K.p
            P, G = delta.primitives_and_group_likes(K)
            lines = np.array(list(projective_coords(K.q, len(P))), dtype=P.dtype)
            groups = [[u] for u in (Matrix(K, lines) @ Matrix(K, P)).a] if len(P) else []
            one, seen = A_K.one(), set()
            for g in map(A_K.element, G):
                if g.vec.tobytes() not in seen and g != one:
                    powers = [g]
                    while len(powers) < p:
                        powers.append(powers[-1] @ g)       # g, ..., g^p
                    seen.update(h.vec.tobytes() for h in powers[:-1])
                    if powers[-1] == one:                   # (g - 1)^p = 0
                        groups.append([(h - one).vec for h in powers[:-1]])
            top = [A_K.index_of[tuple(b // p * (i == g) for i, b in enumerate(A_K.bounds))]
                   for g in range(len(A_K.bounds))]
            hits = [[u[top] for u in us if np.count_nonzero(u[top]) == np.count_nonzero(u)]
                    for us in groups]
            noble = {coord_label(K, normalize_coords(K, hit[0])) for hit in hits if hit}
            others = [A_K.element(us[0]) for us, hit in zip(groups, hits) if not hit]
            chains = rank_chains([A_K.left_mult_matrix(u) for u in others])
            noble.update(self.class_of_image(u) for u, c in zip(others, chains)
                         if JordanType.of_chain(c).is_free(p))
            self._noble[delta] = noble
        return noble


def support(M, family):
    return family.support(M)


def aut_action_on_point(phi, point, family):
    """Label of the class of φ ∘ α, by ``class_of_image``."""
    phi_K = morphism_to_field(phi, family.A_K) if phi.source.field != family.K else phi
    moved = phi_K.apply(point.image)
    return family.class_of_image(moved)


def is_isotropy(phi, point, family):
    return aut_action_on_point(phi, point, family) == point.label


# -- nobility -------------------------------------------------------------------------


def nobility(delta, coords, family):
    """"noble" or "ignoble" at the family's point ``coords`` for Δ."""
    return "noble" if family.point(coords).label in family.noble_labels(delta) else "ignoble"
