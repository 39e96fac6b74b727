"""The p = 2 Klein-case toolkit over k[x,y]/(x², y²).

For a point direction s2 = ax + by and a complementary s1, the family
of even dimensional indecomposables V_2n supported only at that point is
realized by the block matrices

    s1 ↦ [[0, I_n], [0, 0]],     s2 ↦ [[0, N_n], [0, 0]],

with N_n the upper triangular nilpotent block; each V_2n is built and
verified once per point (and basis choice) and kept on the context.
Every module supported at a single point splits as ⊕ a_n V_2n ⊕ cP.
Since dim Hom(V_2m, V_2n) = mn + min(m, n) and dim Hom(V_2m, P) = 2m
(checked by ``hom_table``), e_m = dim Hom(V_2m, M) − m·dim M/2 is
Σ_n a_n·min(m, n), so the multiplicities are its second differences and c
follows from dim M; c must equal the free rank.

V_2m is presented on generators u_1..u_m by the chain relations
s2·u_1 = 0 and s2·u_i = s1·u_{i-1}, so Hom(V_2m, M) is the kernel of one
block system in the images of the u_i (``modules.hom_from_relations``).
One elimination of that system at the largest m gives every dimension;
the generic intertwiner solver cross-checks the H table.

Every Δ is cocommutative, so the swap V_2m⊗V_2n → V_2n⊗V_2m is an
isomorphism, and the product rows decompose each unordered pair once
(``check_basev_formula``).
"""

import numpy as np

from .algebra import build_truncated_polynomial
from .fields import field, sampling_extension
from .hopf import named_structure
from .matrices import Matrix
from .modules import (Representation, RepresentationError, _check_intertwiner, direct_sum,
                      free_rank, hom_from_free, hom_from_relations, hom_space,
                      hom_space_from_sum, invertible_combination, regular_module,
                      relation_system, swap_permutation, tensor)
from .pipoints import PointFamily, coord_label, nobility, normalize_coords

WANG_STRUCTURES = ("lie_primitive", "wang_Ga2", "wang_Ga1xZp", "wang_ZpZp")


class KleinError(RepresentationError):
    pass


class DegenerateBasis(KleinError):
    pass


class PointNotIgnoble(KleinError):
    pass


class VerificationFailed(KleinError):
    pass


class BadSupport(KleinError):
    pass


class BasevModule:
    """One indecomposable V_2n at a point, with its chosen s1, s2."""

    def __init__(self, coords, label, n, rep, s1, s2):
        self.coords = coords
        self.label = label
        self.n = n
        self.rep = rep
        self.s1 = s1
        self.s2 = s2

    @property
    def dim(self):
        return 2 * self.n

    def __repr__(self):
        return f"V_{2 * self.n}({self.label})"


class MultiplicityVector:
    """Green-ring coordinates: a_n copies of V_2n plus c free summands.

    ``certificate`` is ``(R, W)`` when ``decompose`` found the vector: the
    rebuild R and an invertible intertwiner W from R to the module."""

    certificate = None

    def __init__(self, a, c):
        self.a = {int(n): int(m) for n, m in a.items() if m}
        self.c = int(c)

    @property
    def dimension(self):
        return sum(2 * n * m for n, m in self.a.items()) + 4 * self.c

    def __eq__(self, other):
        return isinstance(other, MultiplicityVector) and self.a == other.a and self.c == other.c

    def __repr__(self):
        parts = [f"{m}V{2 * n}" if m > 1 else f"V{2 * n}"
                 for n, m in sorted(self.a.items())]
        if self.c:
            parts.append(f"{self.c}P" if self.c > 1 else "P")
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"a": {str(n): m for n, m in sorted(self.a.items())}, "c": self.c}


class KleinContext:
    """Shared algebra, point family, structures and Hom tables over GF(2^e)."""

    def __init__(self, ext_degree=2, seed=0, trials=24):
        self.K = field(2, ext_degree)
        self.A = build_truncated_polynomial(self.K, [2, 2])
        self.family = PointFamily(self.A, ext_degree=ext_degree)
        self.P = regular_module(self.A).relabel("P")
        self.seed = seed
        self.trials = trials
        self._structures = {}
        self._basev = {}          # (point, n, basis choice) -> BasevModule
        self._swapped = {}        # (Δ, point, n, m), n < m -> its vector, until row (m, n)
        self._hom_table = None

    def structure(self, name):
        hit = self._structures.get(name)
        if hit is None:
            hit = named_structure(self.A, name)
            self._structures[name] = hit
        return hit

    # -- the indecomposables ---------------------------------------------------

    def point_elements(self, coords, basis_choice=None):
        """``(s1, s2, C)`` at a point [a:b]: s2 = ax + by, s1 = cx + dy for
        the basis choice (c, d), by default x unless the point is [1:0],
        and C = [[c, a], [d, b]], whose columns are their coordinates over
        (x, y).  DegenerateBasis when s1 and s2 are dependent."""
        K = self.K
        a, b = (int(v) for v in normalize_coords(K, coords))
        if basis_choice is None:
            basis_choice = (1, 0) if b else (0, 1)
        c, d = (int(v) for v in basis_choice)
        if K.sub(K.mul(c, b), K.mul(d, a)) == 0:
            raise DegenerateBasis("s1 and s2 are linearly dependent")
        x, y = self.A.generators()
        return c * x + d * y, a * x + b * y, Matrix(K, [[c, a], [d, b]])

    def basev(self, coords, n, basis_choice=None):
        """V_2n at the point, built and verified once per (point, n, basis choice)."""
        K = self.K
        coords = normalize_coords(K, coords)
        key = (coords, n, None if basis_choice is None else tuple(map(int, basis_choice)))
        if key in self._basev:
            return self._basev[key]
        s1, s2, coeff = self.point_elements(coords, basis_choice)
        # s1 acts by E⊗I_n and s2 by E⊗N_n, E = [[0, 1], [0, 0]]; x =
        # alpha s1 + beta s2 and y likewise: the columns of C's inverse
        E = Matrix.jordan_block(K, 2)
        I_n, N_n = Matrix.identity(K, n), Matrix.jordan_block(K, n)
        sol = coeff.inverse().a
        act_x, act_y = (Matrix.kron([(sol[0, j], E, I_n), (sol[1, j], E, N_n)]) for j in (0, 1))
        label = coord_label(K, coords)
        rep = Representation(self.A, [act_x, act_y], label=f"V{2 * n}({label})")
        self._basev[key] = BasevModule(coords, label, n, rep, s1, s2)
        return self._basev[key]

    # -- Hom machinery -----------------------------------------------------------

    @staticmethod
    def _chain_relations(s1, s2, m):
        """V_2m on generators u_1..u_m: s2·u_1 = 0 and s2·u_i − s1·u_{i−1} = 0."""
        return [[(s2, 0)]] + [[(s2, i), (-s1, i - 1)] for i in range(1, m)]

    def basev_hom_dims(self, M, coords, up_to):
        """dim Hom(V_2m, M) for m = 1..up_to, from one elimination.

        Block row i of the chain system at m = up_to involves only the
        first i block columns, so its first m·dim rows are the system of
        V_2m, whose rank is the number of pivot columns below m·dim in the
        echelon form of the transposed system.
        """
        s1, s2, _ = self.point_elements(coords)
        system = relation_system(M, self._chain_relations(s1, s2, up_to), up_to)
        pivots = system.transpose().pivots()
        ranks = np.searchsorted(pivots, M.dim * np.arange(1, up_to + 1))
        return [m * M.dim - int(r) for m, r in zip(range(1, up_to + 1), ranks)]

    def basev_hom_basis(self, V, M):
        """Hom(V_2m, M) from the chain presentation, as a ``HomSpace``: the
        images (w_1..w_m) of the u_i satisfy the chain relations, and the
        basis l_1..l_m, u_1..u_m of V_2m maps to s1·w_1..s1·w_m, w_1..w_m."""
        m = V.n
        one = self.A.one()
        spanning = [(V.s1, i) for i in range(m)] + [(one, i) for i in range(m)]
        return hom_from_relations(M, self._chain_relations(V.s1, V.s2, m), spanning)

    GENERIC_H_CAP = 8

    def hom_table(self, cap):
        """H[m][n] = dim Hom(V_2m, V_2n) and h[m] = dim Hom(V_2m, P).

        Values are independent of the point; they are computed at the
        reference point [1:0] from the chain presentation.  Up to
        GENERIC_H_CAP the generic intertwiner solver runs too and must
        agree; beyond that the chain system alone extends the table.
        KleinError unless H[m][n] = mn + min(m, n) and h[m] = 2m, the closed
        form that ``decompose``'s second differences assume.
        """
        if self._hom_table and self._hom_table[0] >= cap:
            return self._hom_table[1], self._hom_table[2]
        ref = (1, 0)
        vs = [self.basev(ref, n) for n in range(1, cap + 1)]
        H = {m: {} for m in range(1, cap + 1)}
        for n in range(1, cap + 1):
            col = self.basev_hom_dims(vs[n - 1].rep, ref, cap)
            for m in range(1, cap + 1):
                H[m][n] = col[m - 1]
        hcol = self.basev_hom_dims(self.P, ref, cap)
        h = {m: hcol[m - 1] for m in range(1, cap + 1)}
        gcap = min(cap, self.GENERIC_H_CAP)
        for m in range(1, gcap + 1):
            for n in range(1, gcap + 1):
                generic = len(hom_space(vs[m - 1].rep, vs[n - 1].rep))
                if generic != H[m][n]:
                    raise KleinError(
                        f"Hom solvers disagree at ({m},{n}): {generic} vs {H[m][n]}")
            if len(hom_space(vs[m - 1].rep, self.P)) != h[m]:
                raise KleinError(f"Hom solvers disagree at ({m},P)")
        for m in range(1, cap + 1):
            if h[m] != 2 * m or any(H[m][n] != m * n + min(m, n) for n in range(1, cap + 1)):
                raise KleinError(f"Hom table row {m} is not mn + min(m, n) and 2m")
        self._hom_table = (cap, H, h)
        return H, h

    # -- decomposition ----------------------------------------------------------------

    def decompose(self, M, coords):
        """Multiplicities of ⊕ a_n V_2n(point) ⊕ cP isomorphic to M.

        Checks that M is supported at the point, reads a_m as the second
        difference 2e_m − e_(m−1) − e_(m+1) of e_m = dim Hom(V_2m, M) −
        m·dim M/2 (e_0 = 0, e_(cap+1) = e_cap), demands a_m ≥ 0 and c =
        (dim M − Σ 2n·a_n)/4 equal to the free rank, and certifies the
        rebuild against M with an explicit invertible intertwiner.
        """
        coords = normalize_coords(self.K, coords)
        label = coord_label(self.K, coords)
        supp = self.family.support(M)
        if not supp.labels <= {label}:
            raise BadSupport(f"support {supp!r} is not inside {{{label}}}")
        cfree = free_rank(M)
        rest = M.dim - 4 * cfree
        if rest < 0 or rest % 2:
            raise VerificationFailed("dimension bookkeeping is impossible")
        cap = max(1, rest // 2)
        self.hom_table(cap)         # KleinError unless the closed form below holds
        e = [0] + [h - m * M.dim // 2 for m, h in enumerate(self.basev_hom_dims(M, coords, cap), 1)]
        e.append(e[-1])
        a = {m: 2 * e[m] - e[m - 1] - e[m + 1] for m in range(1, cap + 1)}
        if min(a.values()) < 0:
            raise VerificationFailed(f"negative multiplicities {a}")
        # c = (dim M − Σ 2n·a_n)/4 is the free rank exactly when Σ 2n·a_n = rest
        if sum(2 * n * v for n, v in a.items()) != rest:
            raise VerificationFailed(f"multiplicities {a} leave a free part other than "
                                     f"the free rank {cfree}")
        mv = MultiplicityVector(a, cfree)
        rebuilt, hom_solver = self.rebuild(coords, mv)
        if rebuilt.dim != M.dim:
            raise VerificationFailed("rebuild dimension mismatch")
        witness = self._certify(rebuilt, M, hom_solver)
        if witness is None:
            raise VerificationFailed("no invertible intertwiner found for rebuild")
        mv.certificate = (rebuilt, witness)
        return mv

    def rebuild(self, coords, mv):
        """(⊕ a_n V_2n ⊕ cP, Hom solver) for the multiplicity vector."""
        parts = []
        solvers = []
        for n, m in sorted(mv.a.items()):
            v = self.basev(coords, n)
            parts += [v.rep] * m
            solvers += [lambda _, N, v=v: self.basev_hom_basis(v, N)] * m
        parts += [self.P] * mv.c
        solvers += [hom_from_free] * mv.c
        if not parts:
            raise VerificationFailed("empty rebuild")
        rep = direct_sum(parts, label=f"rebuild({mv!r})")
        return rep, lambda N: hom_space_from_sum(parts, N, solvers)

    def _certify(self, R, M, hom_solver):
        """An invertible intertwiner R -> M in the solver's Hom space, found
        with the context's trials and seed, or None."""
        space = hom_solver(M)
        if not space:
            return None
        K = sampling_extension(self.K, M.dim)
        return invertible_combination(space, R, M, K, self.trials, self.seed)[0]

    # -- the published product checks ------------------------------------------------

    def expected_product(self, n, m):
        lo = min(n, m)
        return MultiplicityVector({lo: 2}, n * m - lo)

    def check_basev_formula(self, structure_name, coords, n, m):
        """Tensor two indecomposables, decompose, compare with the noble formula.

        Row (n, m), n > m, transports row (m, n) once that is certified on
        this context: V_2n⊗V_2m is V_2m⊗V_2n conjugated by the swap τ
        (``swap_permutation``), so it has the same multiplicities, with the
        same rebuild R and the witness τ·W.  τ·W is W with its rows
        permuted, so invertible, and is checked as an intertwiner from R to
        the new product.  Row (m, n)'s vector is kept until then."""
        delta = self.structure(structure_name) if isinstance(structure_name, str) \
            else structure_name
        coords = normalize_coords(self.K, coords)
        vn = self.basev(coords, n)
        vm = self.basev(coords, m)
        T = tensor(vn.rep, vm.rep, delta)
        noble = nobility(delta, coords, self.family)
        fr = free_rank(T)
        expected = self.expected_product(n, m)
        report = {
            "structure": delta.name, "point": coord_label(self.K, coords),
            "n": n, "m": m, "noble": noble == "noble",
            "expected": repr(expected),
            "free_rank": fr, "free_rank_expected": n * m - min(n, m),
            "free_rank_match": fr == n * m - min(n, m),
            "s2_annihilates_product": T.act(vn.s2).is_zero(),
        }
        try:
            mv = self._swapped.pop((delta, coords, m, n), None)    # found only for n > m
            if mv is None:
                mv = self.decompose(T, coords)
                if n < m:
                    self._swapped[delta, coords, n, m] = mv
            else:
                R, W = mv.certificate
                tau = swap_permutation(vm.rep, vn.rep)
                _check_intertwiner(Matrix(W.field, W.a[tau], copy=False), R, T)
            report["computed"] = repr(mv)
            report["matches_noble_formula"] = (mv == expected)
        except KleinError as exc:
            report["computed"] = f"error: {exc}"
            report["matches_noble_formula"] = False
        # the published formula is asserted at subalgebra points; elsewhere
        # the free part is still pinned and any formula deviation is flagged
        if report["noble"]:
            report["match"] = report["matches_noble_formula"]
            report["deviation_flagged"] = False
        else:
            report["match"] = report["free_rank_match"]
            report["deviation_flagged"] = not report["matches_noble_formula"]
        return report

    def check_pb_witness(self, structure_name, coords):
        """Certify V(p) ⊗_Δ V(p) ≇ V(p) ⊗̃ V(p) at an ignoble point.

        Deterministic: the Lie product is annihilated by s2, the deformed
        product is not, and s2-annihilation is an isomorphism invariant.
        """
        delta = self.structure(structure_name) if isinstance(structure_name, str) \
            else structure_name
        coords = normalize_coords(self.K, coords)
        noble = nobility(delta, coords, self.family)
        if noble != "ignoble":
            raise PointNotIgnoble(f"{coord_label(self.K, coords)} is noble for {delta.name}")
        v = self.basev(coords, 1)
        T_delta = tensor(v.rep, v.rep, delta)
        T_lie = tensor(v.rep, v.rep, self.structure("lie_primitive"))
        deformed_nonzero = not T_delta.act(v.s2).is_zero()
        lie_zero = T_lie.act(v.s2).is_zero()
        return {
            "structure": delta.name, "point": coord_label(self.K, coords),
            "deformed_s2_action_nonzero": deformed_nonzero,
            "lie_s2_action_zero": lie_zero,
            "witness_found": deformed_nonzero and lie_zero,
        }
