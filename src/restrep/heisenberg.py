"""Explicit computations for u of the 3-dimensional nilpotent family, p odd.

Two independent constructions of the modules V_r = A/Ax^r are diffed
entrywise: the generic induction through A ⊗_{k[x]/x^p} J_r, and the
explicit block matrices (the M/F/L_r/O_r family) transcribed from their
published displays.  The index conventions of those displays are subtle
(three different arrow directions), so a single-path build could
silently transpose a block; the cross-check rules that out.

The rank table compares computed ranks of L_r + O_r and its square
against the published closed forms and flags mismatches; the count
certificate compares the number of 1-blocks on both sides of the
restriction identity for the twisted module and certifies they differ.

Also here: the wild-abelian isotropy scenarios (the two dimensional
case, the three generator p = 2 case, equal and mixed prime-power
bounds), each producing a verified point-fixing automorphism whose
twisted induced module restricts neither trivially nor freely.
"""

import numpy as np

from .algebra import (AlgebraError, AlgebraMorphism, build_abelian_restricted,
                      build_heisenberg, build_truncated_polynomial)
from .fields import field
from .hopf import named_structure
from .matrices import Matrix, _INT, JordanType, nilpotent_jordan_type, rank_chain
from .modules import (HomSpace, Representation, RepresentationError, direct_sum,
                      hom_from_cyclic, hom_space, hom_space_from_sum, induce,
                      induce_trivial, iso_test, jordan_block_module,
                      pbw_cosets, restrict, tensor)
from .pipoints import PiPoint, PointFamily, is_isotropy


class CrossCheckFailed(RepresentationError):
    pass


class HypothesisNotMet(RepresentationError):
    pass


# -- the explicit block matrices --------------------------------------------------


def block_M(F):
    """p x p blocks of size p: block (i-1, i) = i·N_p for i = 1..p-1."""
    p = F.p
    D = Matrix(F, np.diag(np.arange(1, p), k=1))
    return Matrix.kron([(1, D, Matrix.jordan_block(F, p))])


def block_F(F):
    """p x p blocks of size p: E in block (p-1, 0)."""
    p = F.p
    m = np.zeros((p * p, p * p), dtype=_INT)
    m[(p - 1) * p, p - 1] = 1
    return Matrix(F, m, copy=False)


def block_L(F, r):
    """r x r blocks of size p^2: M on the diagonal, identities above."""
    return Matrix.kron([(1, Matrix.identity(F, r), block_M(F)),
                        (1, Matrix.jordan_block(F, r), Matrix.identity(F, F.p * F.p))])


def block_O(F, r):
    """Block diagonal with F blocks: the action of (yz)^{p-1}."""
    return Matrix.kron([(1, Matrix.identity(F, r), block_F(F))])


# -- scenario construction -----------------------------------------------------------


def paper_order_permutation(p, r):
    """Permutation from induced order (coset-major) to the display order.

    Induced basis: (coset index i·p + (p-1-j), J_r index m); display
    position: m·p² + i·p + (p-1-j).  The coset enumeration inherits the
    algebra's basis order, which already sorts the x-degree-0 monomials
    by (i ascending, j descending).
    """
    return np.arange(r * p * p).reshape(p * p, r).T.ravel()


class HeisenbergScenario:
    """All data for one (p, r): algebra, module, matrices."""

    def __init__(self, p, r):
        if p == 2 or not (1 <= r <= p):
            raise RepresentationError("need p odd prime and 1 <= r <= p")
        self.p, self.r = p, r
        self.F = field(p)
        self.algebra = build_heisenberg(self.F)
        A = self.algebra
        self.yz_term = A.multiply(A.generator("y"), A.generator("z")).pow(p - 1)
        self.L = block_L(self.F, r)
        self.O = block_O(self.F, r)
        self.X = self.L + self.O   # L_r + O_r, its rank chain memoized once
        self.V = self._induced_module()
        self._cross_check()

    def _induced_module(self):
        A = self.algebra
        phi, cosets = pbw_cosets(A, A.generator("x"), prefer="x")
        B = phi.source
        Jr = jordan_block_module(B, self.r)
        raw = induce(Jr, phi, cosets)
        perm = paper_order_permutation(self.p, self.r)
        return Representation(A, [Matrix(self.F, m.a[np.ix_(perm, perm)], copy=False)
                                  for m in raw.actions], label=f"V_{self.r}", verify=False)

    def _cross_check(self):
        A = self.algebra
        got_x = self.V.act(A.generator("x"))
        if got_x != self.L:
            raise CrossCheckFailed(f"x action differs from L_{self.r}")
        got_o = self.V.act(self.yz_term)
        if got_o != self.O:
            raise CrossCheckFailed(f"(yz)^(p-1) action differs from O_{self.r}")
        try:
            nilpotent_jordan_type(self.X)
        except Exception as exc:
            raise CrossCheckFailed("L_r + O_r is not nilpotent") from exc

    def twisted_restriction(self):
        """Jordan type of the module restricted along the moved subalgebra."""
        return nilpotent_jordan_type(self.X)

    def untwisted_restriction(self):
        return nilpotent_jordan_type(self.L)


# -- the published rank formulas (and the computed corrections) ------------------------


def rank_formula(p, r):
    if r == 1:
        return (p - 1) ** 2 + 1
    return r * p * p - 2 * r * p + r * r


def rho_published(p, r):
    """rank((L_r+O_r)^2) as published (wrong for 3 <= r < p; see rank_table)."""
    if r == 1:
        return (p - 2) ** 2
    if r == 2:
        return 2 * p * p - 8 * p + 11
    if r == p:
        return p * p * (p - 2)
    base = r * p * p - 2 * p * r + r * r - 4 * r
    return base if r % 3 == 0 else base + 2


def rho_derived(p, r):
    """rank((L_r+O_r)^2) as computed from the matrices themselves."""
    if r in (1, 2) or r == p:
        return rho_published(p, r)
    return r * p * p - 4 * r * p + 2 * r * r + 2


def tau_published(p, r):
    if r == 1 or r == p:
        return 0
    if r == 2:
        return 3
    base = (2 * p - 4) * r - r * r
    return base if r % 3 == 0 else base + 2


def tau_derived(p, r):
    """Number of 1-blocks in the twisted restriction of V_r, as computed."""
    if r == 1 or r == p:
        return 0
    return 3 if r == 2 else 2


def tau_sum_published(p):
    """2 Σ τ(r) for r = 2..p-1, the published closed forms; None for a p
    that has none."""
    return {3: 6, 5: 44, 7: 226}.get(p)


def tau_sum_derived(p):
    return 4 * p - 6


def rank_table(p, use_scenarios=False):
    """Per-r table of computed ranks against the published forms.

    Mismatches are flagged, not hidden: the published square-rank cases
    for 3 <= r < p disagree with the matrices (both construction paths
    agree with each other), so those rows carry match=False against the
    published value and match=True against the derived one.  With the
    scenarios, rank(X) and rank(X²) are read from X's rank chain, already
    formed; without, rank(X²) is the rank of one product, the echelon rows
    of X's row space times X, whose rows span the row space of X².
    """
    F = field(p)
    rows = []
    for r in range(1, p + 1):
        X = HeisenbergScenario(p, r).X if use_scenarios else block_L(F, r) + block_O(F, r)
        dim = r * p * p
        if use_scenarios:
            rank, rank2 = (rank_chain(X) + (0,))[1:3]
        else:
            rank = X.rank()
            rank2 = (Matrix(F, X._echelon, copy=False) @ X).rank()
        nullity = dim - rank
        tau = dim - 2 * rank + rank2
        rows.append({
            "p": p, "r": r, "dim": dim,
            "rank": rank, "rank_expected": rank_formula(p, r),
            "rank_match": rank == rank_formula(p, r),
            "nullity": nullity, "nullity_expected": dim - rank_formula(p, r),
            "rank_sq": rank2,
            "rho_published": rho_published(p, r),
            "rho_published_match": rank2 == rho_published(p, r),
            "rho_derived": rho_derived(p, r),
            "rho_derived_match": rank2 == rho_derived(p, r),
            "tau": tau,
            "tau_published": tau_published(p, r),
            "tau_published_match": tau == tau_published(p, r),
            "tau_derived": tau_derived(p, r),
            "tau_derived_match": tau == tau_derived(p, r),
        })
    return rows


def expected_L1_partition(p):
    """3J2 + 2J3 + ... + 2J_{p-1} + J_p."""
    parts = [2, 2, 2] + [s for s in range(3, p) for _ in (0, 1)] + [p]
    return JordanType(parts)


def expected_mackey_partition(p):
    """2J1 + 2J2 + ... + 2J_{p-1} + J_p: the untwisted restriction of V_1."""
    parts = [s for s in range(1, p) for _ in (0, 1)] + [p]
    return JordanType(parts)


def cgm_check(p):
    """The count certificate: the twisted restriction identity fails.

    Left side: number of 1-blocks in (V_1 twisted-restriction) squared,
    which is the sum of c_r**2 over r < p for the block multiplicities
    c_r of L_1's restriction (verified against a direct tensor computation
    at p = 3).  Right side: 2 Σ τ(r) for 2 <= r < p from the computed rank
    table.  The certificate is that they differ (legitimacy of both
    sides is re-derived, not assumed).
    """
    F = field(p)
    rows = rank_table(p)
    sc1 = HeisenbergScenario(p, 1)
    jt_twisted = sc1.twisted_restriction()
    jt_untwisted = sc1.untwisted_restriction()
    blocks = jt_twisted.blocks()
    left = sum(c * c for s, c in blocks.items() if s < p)
    direct_left = None
    if p == 3:
        # independent route: Jordan type of the twisted restriction squared
        I_d = Matrix.identity(F, p * p)
        T = Matrix.kron([(1, sc1.X, I_d), (1, I_d, sc1.X)])
        direct_left = nilpotent_jordan_type(T).multiplicity(1)
    right = 2 * sum(row["tau"] for row in rows if 2 <= row["r"] <= p - 1)
    # membership of the automorphism in the point's isotropy group: the
    # twisted restriction keeps a 2-block, hence stays non-free, hence the
    # moved point still supports V_1 (whose support is the single x-line).
    sc_support = heis_support_scan(p)
    published = tau_sum_published(p)
    report = {
        "p": p,
        "left_one_blocks": left,
        "left_formula": 9 + 4 * (p - 3),
        "left_matches_formula": left == 9 + 4 * (p - 3),
        "direct_left_p3": direct_left,
        "right_twice_tau_sum": right,
        "right_published": published,
        "right_matches_published": None if published is None else right == published,
        "right_derived": tau_sum_derived(p),
        "right_matches_derived": right == tau_sum_derived(p),
        "identity_fails": left != right,
        "twisted_restriction": str(jt_twisted),
        "twisted_matches_expected": jt_twisted == expected_L1_partition(p),
        "untwisted_restriction": str(jt_untwisted),
        "untwisted_matches_mackey": jt_untwisted == expected_mackey_partition(p),
        "twisted_has_2_block": jt_twisted.multiplicity(2) > 0,
        "twisted_not_free": not jt_twisted.is_free(p),
        "isotropy_argument": (jt_twisted.multiplicity(2) > 0
                              and sc_support["support_is_x_line"]),
        "V1_support_scan": sc_support,
    }
    return report


def heis_support_scan(p):
    """Restriction Jordan types of V_1 over P^2(GF(p)), read from one
    family scan.

    Confirms the support of V_1 is exactly the x-line: the z and y
    directions (and every other one) restrict freely.  Flatness of the
    scan family is verified exhaustively at p = 3 and on the point that
    matters (plus the regular-module check being a theorem for the
    nullcone directions) at larger p, to stay inside the time budget.
    """
    sc = HeisenbergScenario(p, 1)
    A, V = sc.algebra, sc.V
    fam = PointFamily(A, ext_degree=1, check_flat=(p <= 3))
    if p > 3:
        PiPoint(A, A.generator("x"), coords=(0, 0, 1), check_flat=True)
    free = {label: jt.is_free(p) for label, jt in fam.jordan_types(V).items()}
    detected = [label for label, f in free.items() if not f]
    return {"detected": detected, "support_is_x_line": detected == ["[0:0:1]"],
            "z_direction_free": free[fam.point((0, 1, 0)).label],
            "y_direction_free": free[fam.point((1, 0, 0)).label]}


def index_scaling_check(p=3):
    """The two-parameter family consistency check at n = 2.

    Induction up the central inclusion multiplies every restriction
    multiplicity by the index p²; the restriction of the induced V_1
    over the 5-dimensional family is checked against p² times the
    Mackey partition of the n = 1 case.
    """
    F = field(p)
    H2 = build_heisenberg(F, 2)
    x1 = H2.generator("x1")
    V = induce_trivial(H2, x1, label="V_1(n=2)", prefer="x1")
    jt = nilpotent_jordan_type(V.act(x1))
    scale = p * p
    base = expected_mackey_partition(p).blocks()
    expected = JordanType([s for s, c in base.items() for _ in range(scale * c)])
    return {"p": p, "n": 2, "restriction": str(jt),
            "expected": str(expected), "match": jt == expected}


# -- wild abelian isotropies -----------------------------------------------------------


def _neither_trivial_nor_free(jt, bound):
    return (not jt.is_free(bound)) and any(s > 1 for s in jt.parts)


def _twisted_induced(A, phi, coords, image, r=1, label="V"):
    """``(fixed, M, M_tw, jt)``: whether φ fixes the point ``coords``, the
    module M induced along t ↦ image, its twist by φ⁻¹, which is the
    restriction along φ (g acts by φ(g)), and the Jordan type of that
    twist along the image."""
    fam = PointFamily(A, ext_degree=1)
    fixed = is_isotropy(phi, fam.point(coords), fam)
    M = induce_trivial(A, image, r=r, label=label)
    M_tw = restrict(M, phi)
    return fixed, M, M_tw, nilpotent_jordan_type(M_tw.act(image))


def wild_abelian_isotropy_check(case, p=None, n=None, m=None):
    """Build the named automorphism, verify it fixes the point, and certify
    that the twisted induced module restricts neither trivially nor freely.

    Cases: twodim (p > 2), klein3gen (p = 2), mixed(n, m) for odd p with
    n = m, and equal2power(n) at p = 2.  HypothesisNotMet when the
    certificate fails (e.g. p = 2 mixed bounds, where the twisted
    restriction comes out free).
    """
    if case == "twodim":
        p = 3 if p is None else p
        if p == 2:
            return {"case": case, "p": 2, "applicable": False,
                    "note": "no PA violation at p=2 (the construction needs p > 2)"}
        A = build_truncated_polynomial(field(p), [p, p])
        x, y = A.generators()
        phi = AlgebraMorphism.from_gen_map(A, {"y": y + x.pow(2)})
        fixed, M, M_tw, jt = _twisted_induced(A, phi, (0, 1), y, label="M")
        # tensor-square identity holds untwisted and fails twisted
        lie = named_structure(A, "lie_primitive")
        T = tensor(M, M, lie)
        pM = direct_sum([M] * p)
        iso = iso_test(pM, T,
                       hom_fwd=lambda: hom_space_from_sum([M] * p, T, [hom_from_cyclic] * p),
                       hom_rev=lambda: hom_from_cyclic_sum_rev(T, M, p))
        T_tw = tensor(M_tw, M_tw, lie)
        jt_ttw = nilpotent_jordan_type(T_tw.act(y))
        jt_sum = nilpotent_jordan_type(direct_sum([M_tw] * p).act(y))
        report = {
            "case": case, "p": p, "applicable": True,
            "isotropy_fixed_point": fixed,
            "restriction": str(jt),
            "max_part": jt.max_part,
            "max_part_expected": (p + 1) // 2,
            "tensor_square_untwisted_splits": iso.verdict == "isomorphic",
            "twisted_square_restriction": str(jt_ttw),
            "twisted_square_has_full_block": jt_ttw.multiplicity(p) > 0,
            "sum_restriction": str(jt_sum),
            "sum_lacks_full_block": jt_sum.multiplicity(p) == 0,
            "hypothesis_met": fixed and _neither_trivial_nor_free(jt, p),
        }
        report["pa_violation_certified"] = (
            report["twisted_square_has_full_block"] and report["sum_lacks_full_block"])
    elif case == "klein3gen":
        A = build_abelian_restricted(field(2), [1, 1, 1])
        x, y, z = A.generators()
        phi = AlgebraMorphism.from_gen_map(A, {"x": x + A.multiply(y, z)})
        fixed, _, _, jt = _twisted_induced(A, phi, (1, 0, 0), x)
        report = {"case": case, "p": 2, "applicable": True,
                  "isotropy_fixed_point": fixed,
                  "restriction": str(jt),
                  "has_J2": jt.multiplicity(2) > 0,
                  "hypothesis_met": fixed and _neither_trivial_nor_free(jt, 2)}
    elif case == "mixed":
        p = 3 if p is None else p
        n, m = (2 if n is None else n), (2 if m is None else m)
        A = build_abelian_restricted(field(p), [n, m])
        x, y = A.generators()
        try:
            phi = AlgebraMorphism.from_gen_map(A, {"x": x + y.pow(2)})
        except AlgebraError as exc:
            raise HypothesisNotMet(
                f"x ↦ x + y² is not an automorphism of bounds (p^{n}, p^{m}): {exc}")
        fixed, _, _, jt = _twisted_induced(A, phi, (1, 0), x.pow(p ** (n - 1)))
        report = {"case": case, "p": p, "n": n, "m": m, "applicable": True,
                  "isotropy_fixed_point": fixed,
                  "restriction": str(jt),
                  "intermediate_part": jt.has_part_strictly_between(1, p),
                  "hypothesis_met": fixed and _neither_trivial_nor_free(jt, p)}
    elif case == "equal2power":
        n = 2 if n is None else n
        if n < 2:
            raise HypothesisNotMet("need n >= 2 for the equal two-power case")
        A = build_abelian_restricted(field(2), [n, n])
        x, y = A.generators()
        shift = 2 ** n - 2
        phi = AlgebraMorphism.from_gen_map(A, {"x": x + y.pow(shift)})
        fixed, _, _, jt = _twisted_induced(A, phi, (1, 0), x, r=n)
        bound = 2 ** n
        report = {"case": case, "p": 2, "n": n, "applicable": True,
                  "isotropy_fixed_point": fixed,
                  "shift_exponent": shift,
                  "restriction": str(jt),
                  "J2_count": jt.multiplicity(2),
                  "exactly_two_J2": jt.multiplicity(2) == 2,
                  "rest_are_J1": all(s in (1, 2) for s in jt.parts),
                  "intermediate_part": jt.has_part_strictly_between(1, bound),
                  "hypothesis_met": fixed and _neither_trivial_nor_free(jt, bound)}
    else:
        raise RepresentationError(f"unknown case {case!r}")
    if not report["hypothesis_met"]:
        raise HypothesisNotMet(str(report))
    return report


def hom_from_cyclic_sum_rev(T, M, copies):
    """Hom(T, ⊕ copies of M): read row by row, a map is its row blocks, maps
    in Hom(T, M), one after another; so its kernel is the generic kernel of
    Hom(T, M) once per copy, block diagonally."""
    [(ker, _, _)] = hom_space(T, M).blocks
    blocks = Matrix.kron([(1, Matrix.identity(ker.field, copies), ker)])
    return HomSpace.reshaped(blocks, (copies * M.dim, T.dim))
