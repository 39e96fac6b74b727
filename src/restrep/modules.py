"""Module representations as tuples of generator action matrices.

A representation is verified against the algebra's defining relations at
construction (and tensor products are re-verified), so a bad coproduct
extension or induction table fails immediately instead of corrupting a
scenario downstream.

The isomorphism oracle is randomized with an explicit witness: negative
answers come from deterministic fingerprints (dimension, Jordan type of
each generator action, socle rank, Hom dimensions both ways), positive
answers from an invertible random combination of a Hom-space basis over
an extension field, and the inconclusive case reports the failure bound
(dim/q)^trials.
"""

import random

import numpy as np

from .algebra import (AlgebraError, AlgebraMorphism, base_change, build_heisenberg,
                      build_truncated_polynomial)
from .fields import sampling_extension
from .matrices import Matrix, NotNilpotent, _INT, nilpotent_jordan_type, rank_chain

HOM_BYTE_BUDGET = 1 << 30   # peak bytes the generic intertwiner solve may allocate


class RepresentationError(AlgebraError):
    pass


class AlgebraMismatch(RepresentationError):
    pass


class NotFreeBasis(RepresentationError):
    pass


class HomTooLarge(RepresentationError):
    pass


class NotAnIntertwiner(RepresentationError):
    pass


def _power_vanishes(m, b):
    """m^b = 0, certified by the rank chain (whose length is the nilpotency
    index plus one); the chain is memoized, so Jordan types reuse it."""
    try:
        return len(rank_chain(m)) - 1 <= b
    except NotNilpotent:
        return False


class Representation:
    """An algebra module given by one action matrix per generator.

    ``cyclic_data`` is ``(image, cosets)`` for a cyclic module A·v whose
    generator has annihilator A·image and whose basis vectors are c·v for
    the coset elements c: the presentation, one relation image·v = 0,
    from which ``hom_from_cyclic`` solves Hom.  None otherwise.
    """

    def __init__(self, algebra, actions, label="", verify=True, cyclic_data=None):
        self.algebra = algebra
        self.actions = list(actions)
        if not self.actions:
            raise RepresentationError("need one action per generator")
        self.dim = self.actions[0].rows
        for m in self.actions:
            if m.shape != (self.dim, self.dim) or m.field != algebra.field:
                raise RepresentationError("action matrices must be square over the base field")
        if len(self.actions) != len(algebra.gen_names):
            raise RepresentationError("one action per generator required")
        self.label = label
        self.cyclic_data = cyclic_data
        self._act_cache = {}       # basis index -> action of that monomial
        self._elem_cache = {}      # element coefficients -> its action
        if verify:
            self.verify_relations()

    def verify_relations(self):
        if self.dim == 0:
            return
        self.algebra.check_relations(
            self.actions,
            mul=lambda a, b: a @ b,
            is_zero=lambda m: m.is_zero(),
            eq=lambda a, b: a == b,
            power_vanishes=_power_vanishes)

    # -- evaluation -------------------------------------------------------------

    def act_monomial(self, i):
        hit = self._act_cache.get(i)
        if hit is not None:
            return hit
        out = Matrix.identity(self.algebra.field, self.dim)
        for g, e in enumerate(self.algebra.basis_exps[i]):
            if e:
                out = out @ self.actions[g].pow(e)
        self._act_cache[i] = out
        return out

    def act(self, a):
        """Action matrix of an arbitrary algebra element, memoized per element."""
        if a.algebra != self.algebra:
            raise AlgebraMismatch("element belongs to another algebra")
        key = a.vec.tobytes()
        out = self._elem_cache.get(key)
        if out is None:
            out = Matrix.zeros(self.algebra.field, self.dim)
            for i in a.support():
                out = out + self.act_monomial(i).scale(int(a.vec[i]))
            self._elem_cache[key] = out
        return out

    def __repr__(self):
        return f"Rep({self.label or '?'}, dim={self.dim} over {self.algebra!r})"

    def relabel(self, label):
        self.label = label
        return self

    def to_json(self):
        return {"algebra": self.algebra.to_json(), "dim": self.dim,
                "label": self.label,
                "actions": [m.to_json()["entries"] for m in self.actions]}


# -- constructors -----------------------------------------------------------------


def trivial_module(A):
    """The one dimensional module through the counit (all generators act 0)."""
    z = Matrix.zeros(A.field, 1)
    return Representation(A, [z.copy() for _ in A.gen_names], label="k")


def regular_module(A):
    """A as a left module over itself."""
    return Representation(A, [A.left_mult_matrix(g) for g in A.generators()],
                          label="A")


def jordan_block_module(A, i):
    """The i dimensional module over a one generator algebra k[t]/t^b.

    Basis (t^{i-1}v, ..., tv, v); the generator acts by the upper
    triangular nilpotent block.
    """
    if len(A.gen_names) != 1:
        raise RepresentationError("Jordan block modules need a one generator algebra")
    if not (1 <= i <= A.bounds[0]):
        raise RepresentationError(f"block size {i} out of range 1..{A.bounds[0]}")
    return Representation(A, [Matrix.jordan_block(A.field, i)], label=f"J{i}")


def direct_sum(reps, label=None):
    if not reps:
        raise RepresentationError("empty direct sum")
    A = reps[0].algebra
    F = A.field
    dim = sum(r.dim for r in reps)
    actions = []
    for g in range(len(A.gen_names)):
        m = np.zeros((dim, dim), dtype=_INT)
        off = 0
        for r in reps:
            if r.algebra != A:
                raise AlgebraMismatch("direct sum over mixed algebras")
            m[off:off + r.dim, off:off + r.dim] = r.actions[g].a
            off += r.dim
        actions.append(Matrix(F, m, copy=False))
    lab = label or ("+".join(r.label or "?" for r in reps))
    return Representation(A, actions, label=lab, verify=False)


def conjugate(M, S):
    """The same module in a new basis: actions S ρ S⁻¹."""
    Sinv = S.inverse()
    return Representation(M.algebra, [S @ a @ Sinv for a in M.actions],
                          label=f"{M.label}^conj", verify=False)


def base_change_rep(M, big_field):
    B = base_change(M.algebra, big_field)
    return Representation(B, [m.map_field(big_field) for m in M.actions],
                          label=M.label, verify=False)


# -- the tensor, restriction, induction, twist operations ---------------------------


def tensor(M, N, delta):
    """M ⊗ N with the action through the comultiplication ``delta``."""
    if M.algebra != N.algebra or delta.algebra != M.algebra:
        raise AlgebraMismatch("tensor factors over different algebras")
    F = M.algebra.field
    dim = M.dim * N.dim
    actions = []
    for g in range(len(M.algebra.gen_names)):
        acc = Matrix.zeros(F, dim)
        for c, i, j in delta.generator_terms(g):
            term = M.act_monomial(i).kron(N.act_monomial(j))
            acc = acc + term.scale(c)
        actions.append(acc)
    return Representation(M.algebra, actions,
                          label=f"({M.label})⊗({N.label})")


def restrict(M, phi):
    """Pull back along an algebra map phi: B -> A; generators of B act by phi images."""
    if phi.target != M.algebra:
        raise AlgebraMismatch("restriction map does not land in the module's algebra")
    actions = [M.act(im) for im in phi.images]
    return Representation(phi.source, actions, label=f"{M.label}↓", verify=True)


def twist_module(M, phi):
    """Base change along an automorphism: g acts by the action of φ⁻¹(g).

    For cyclic M the twist is cyclic on the same vector v: a acts on v as
    φ⁻¹(a) does in M, so the annihilator becomes A·φ(image) and the basis
    vector c·v of M is φ(c)·v in the twist.
    """
    phi_inv = phi.invert()
    actions = [M.act(im) for im in phi_inv.images]
    cyclic = None
    if M.cyclic_data is not None:
        image, cosets = M.cyclic_data
        cyclic = (phi.apply(image), [phi.apply(c) for c in cosets])
    return Representation(M.algebra, actions, label=f"{M.label}^φ", verify=True,
                          cyclic_data=cyclic)


def _induction_table(phi, cosets):
    """Re-expression data g·c_i = Σ_j c_j φ(b) for an induction, cached.

    The expansion matrix E has the products c_i·φ(b) as its columns
    (coset-major).  It is formed once: its rank proves the c_i·φ(b) are a
    basis of A (n pivots inside E, NotFreeBasis otherwise), and one solve
    E W = moved, whose right-hand side holds the columns g·c_i of every
    generator g, gives the whole table; E W == moved is then checked
    exactly.  When E has exactly one nonzero in every row and column (the
    c_i·φ(b) are scaled basis monomials), that count is its rank, and the
    solve and the check are gathers (``_monomial_solve``).  Returns, per
    generator, the r x dim B x r array W[cj, b, ci].  The cache is the
    target algebra's ``induction_tables``, so it lives as long as that
    algebra.
    """
    B, A = phi.source, phi.target
    F = A.field
    r, dB = len(cosets), B.dim
    key = (B, tuple(im.vec.tobytes() for im in phi.images),
           tuple(c.vec.tobytes() for c in cosets))
    hit = A.induction_tables.get(key)
    if hit is not None:
        return hit
    phi_basis = [phi.apply(B.monomial(B.basis_exps[j])) for j in range(dB)]
    E = Matrix(F, np.array([A.multiply(c, pb).vec for c in cosets for pb in phi_basis],
                           dtype=_INT).T, copy=False)
    monomial = (E.is_square() and (np.count_nonzero(E.a, axis=0) == 1).all()
                and (np.count_nonzero(E.a, axis=1) == 1).all())
    if not monomial and E.rank() != A.dim:
        raise NotFreeBasis("coset elements do not give a free basis")
    # row-major, so the gathers of _monomial_solve run along rows
    moved = np.ascontiguousarray(np.array([A.multiply(gen, c).vec for gen in A.generators()
                                           for c in cosets], dtype=_INT).T)
    if monomial:
        W, col, d = _monomial_solve(E, moved)
    else:
        W = E.solve(Matrix(F, moved, copy=False)).a
    per_gen = []
    for g, name in enumerate(A.gen_names):
        # one generator's columns at a time, so the float product stays small
        cols = slice(g * r, (g + 1) * r)
        w = W[:, cols]
        if monomial:
            ok = np.array_equal(F.MUL[d[:, None], w[col]], moved[:, cols])
        else:
            ok = E @ Matrix(F, w, copy=False) == Matrix(F, moved[:, cols], copy=False)
        if not ok:
            raise RepresentationError(f"induction table fails E·W = {name}·c")
        per_gen.append(w.reshape(r, dB, r))
    A.induction_tables[key] = per_gen
    return per_gen


def _monomial_solve(E, rhs):
    """(W, col, d) with E·W = rhs, for a square E with exactly one nonzero
    in every row and column, d[i] = E[i, col[i]].

    Row i of E·W is then d[i]·W[col[i]], so W[col] = d⁻¹·rhs; only the
    rows with d ≠ 1 are scaled.
    """
    F = E.field
    col = (E.a != 0).argmax(axis=1)
    d = E.a[np.arange(E.rows), col]
    W = np.empty_like(rhs)
    W[col] = rhs
    scale = (d != 1).nonzero()[0]
    if len(scale):
        W[col[scale]] = F.MUL[F.INV[d[scale]][:, None], rhs[scale]]
    return W, col, d


def induce(M, phi, cosets):
    """A ⊗_B M for an embedding phi: B -> A, free on the given coset elements.

    ``cosets`` are elements of A such that the c_i · φ(b_j) form a basis
    of A (NotFreeBasis otherwise).  Basis of the result: coset-major pairs
    (c_i, m_k); generator g acts by Σ_b W_b ⊗ ρ_M(b), W_b = W[:, b, :].
    """
    B, A = phi.source, phi.target
    if M.algebra != B:
        raise AlgebraMismatch("module is not over the source of the embedding")
    F = A.field
    r, dB = len(cosets), B.dim
    if r * dB != A.dim:
        raise NotFreeBasis(f"{r} cosets x dim {dB} != dim {A.dim}")
    actions = []
    for w in _induction_table(phi, cosets):
        acc = Matrix.zeros(F, r * M.dim)
        for b in range(dB):
            if w[:, b, :].any():
                acc = acc + Matrix(F, w[:, b, :]).kron(M.act_monomial(b))
        actions.append(acc)
    return Representation(A, actions, label=f"{M.label}↑", verify=True)


def pbw_cosets(A, image, r=1, prefer=None):
    """Coset monomials making A free over the image of k[t]/t^{p^r}, t ↦ image.

    Tries, in generator order (``prefer`` first if given), the monomials
    with that generator's exponent below bound/p^r; the first choice for
    which the expansion matrix is invertible wins.  The test builds the
    winner's induction table, which ``induce`` then reads from the cache.
    NotFreeBasis if no choice works.
    """
    F = A.field
    pr = F.p ** r
    B = build_truncated_polynomial(F, [pr], names=("t",))
    phi = AlgebraMorphism(B, A, [image])
    order = list(range(len(A.bounds)))
    if prefer is not None:
        if isinstance(prefer, str):
            prefer = A.gen_names.index(prefer)
        order.remove(prefer)
        order.insert(0, prefer)
    for g in order:
        bound = A.bounds[g]
        if bound % pr:
            continue
        cap = bound // pr
        cosets = [A.monomial(e) for e in A.basis_exps if e[g] < cap]
        if len(cosets) * pr != A.dim:
            continue
        try:
            _induction_table(phi, cosets)
        except NotFreeBasis:
            continue
        return phi, cosets
    raise NotFreeBasis("no PBW complement found for this image")


def induce_trivial(A, image, r=1, label=None, prefer=None):
    """The induced module of the trivial module along t ↦ image.

    The result is cyclic, generated by the identity coset; the image and
    coset elements are kept (``cyclic_data``) for the closed-form Hom
    description used by the fast iso paths.
    """
    phi, cosets = pbw_cosets(A, image, r, prefer=prefer)
    M = induce(trivial_module(phi.source), phi, cosets)
    return Representation(A, M.actions, label=label or M.label, verify=False,
                          cyclic_data=(image, cosets))


# -- Hom spaces and the isomorphism oracle ---------------------------------------------


class HomSpace:
    """Hom(P, N) over F, held as kernels of solves from which maps are
    assembled on demand: spun, as in the MeatAxe (Parker 1984; Lux &
    Szőke, Exp. Math. 12, 2003).

    ``blocks`` lists ``(ker, assemble, col)``: ``ker`` (D × k over F) is
    the kernel of one solve, and ``assemble(w)`` maps a D × r matrix over
    an extension of F to the r × dim N × width array of the maps its
    columns give, placed from source column ``col`` on.  The basis is the
    blocks' kernel columns in order.  Assembly is linear, so Σ c_i·f_i is
    the assembly of ker·c: :meth:`combine` forms no basis map, and
    :meth:`maps` is the only place that does.
    """

    def __init__(self, shape, blocks):
        self.field = blocks[0][0].field
        self.shape = shape              # (dim N, dim P)
        self.blocks = blocks

    @classmethod
    def reshaped(cls, ker, shape):
        """One block whose maps are the columns of ``ker`` read row by row."""
        return cls(shape, [(ker, lambda w: w.a.T.reshape((w.cols,) + shape), 0)])

    def __len__(self):
        return sum(ker.cols for ker, _, _ in self.blocks)

    def maps(self):
        """The basis maps, in order."""
        return [Matrix(self.field, f, copy=False)
                for f in self.spin(np.eye(len(self), dtype=_INT), self.field)]

    def combine(self, c, K):
        """Σ c_i·f_i over the extension K."""
        return Matrix(K, self.spin(np.array(c, dtype=_INT)[:, None], K)[0], copy=False)

    def spin(self, C, K):
        """The r × dim N × dim P array of the maps Σ_i C[i, t]·f_i over K,
        one for each column t of the k × r array C.  Blocks that share a
        kernel (copies of one summand) share its product and assembly."""
        r = C.shape[1]
        out = np.zeros((r,) + self.shape, dtype=_INT)
        starts = np.cumsum([0] + [ker.cols for ker, _, _ in self.blocks])
        for ker in {id(b[0]): b[0] for b in self.blocks}.values():
            idx = [i for i, b in enumerate(self.blocks) if b[0] is ker]
            coeffs = np.hstack([C[starts[i]:starts[i + 1]] for i in idx])
            spun = self.blocks[idx[0]][1](ker.map_field(K) @ Matrix(K, coeffs, copy=False))
            for i, maps in zip(idx, spun.reshape((len(idx), r) + spun.shape[1:])):
                col = self.blocks[i][2]
                out[:, :, col:col + maps.shape[2]] = maps
        return out


def hom_space(M, N):
    """The intertwiner space {F : F ρ_M(g) = ρ_N(g) F for all g}, solved as
    one Kronecker system in the entries of F, as a :class:`HomSpace` whose
    maps are its kernel columns read row by row.

    HomTooLarge, before anything is allocated, when the solve's peak
    memory would exceed HOM_BYTE_BUDGET.
    """
    if M.algebra != N.algebra:
        raise AlgebraMismatch("Hom between modules over different algebras")
    F = M.algebra.field
    n_unknown = M.dim * N.dim
    n_gens = len(M.algebra.gen_names)
    # peak: the (n_gens·n) x n int16 system, plus its elimination working
    # copy and up to four row-update temporaries of that size, int32 over
    # a prime field and int16 otherwise
    need = n_gens * n_unknown * n_unknown * (2 + 5 * (4 if F.e == 1 else 2))
    if need > HOM_BYTE_BUDGET:
        raise HomTooLarge(f"Hom solve with {n_unknown} unknowns needs {need} bytes, "
                          f"over the budget of {HOM_BYTE_BUDGET}")
    big = np.empty((n_gens * n_unknown, n_unknown), dtype=_INT)
    Im = Matrix.identity(F, M.dim)
    In = Matrix.identity(F, N.dim)
    for g in range(n_gens):
        A_g = N.actions[g]
        B_g = M.actions[g]
        big[g * n_unknown:(g + 1) * n_unknown] = (A_g.kron(Im) - In.kron(B_g.transpose())).a
    return HomSpace.reshaped(Matrix(F, big, copy=False).nullspace(), (N.dim, M.dim))


def dim_hom(M, N):
    return len(hom_space(M, N))


def hom_space_from_sum(parts, N, solvers):
    """Hom(⊕ parts, N): the blocks of the spaces ``solvers[i](parts[i], N)``
    side by side.  A summand repeated with the same solver (the same two
    objects) is solved once, and its copies share that kernel.  No map is
    formed here: ``maps()`` is the only place that forms basis maps, and
    :func:`invertible_combination` checks every witness it spins."""
    solved, blocks, col = {}, [], 0
    for r, solver in zip(parts, solvers):
        if (r, solver) not in solved:
            solved[r, solver] = solver(r, N)
        blocks += [(ker, assemble, col + c) for ker, assemble, c in solved[r, solver].blocks]
        col += r.dim
    return HomSpace((N.dim, col), blocks)


def relation_system(N, relations, n_gens):
    """The block matrix [ρ_N(r_ij)] of the relations Σ_j r_ij·g_j = 0 on
    ``n_gens`` generators: block row i, block column j.  Its kernel holds
    the generator images (w_j) in N that satisfy every relation."""
    d = N.dim
    system = np.zeros((len(relations) * d, n_gens * d), dtype=_INT)
    for i, row in enumerate(relations):
        for r, j in row:
            system[i * d:(i + 1) * d, j * d:(j + 1) * d] = N.act(r).a
    return Matrix(N.algebra.field, system, copy=False)


def hom_from_relations(N, relations, spanning):
    """Hom(P, N) for a module P presented by generators g_j and relations.

    ``relations`` lists the rows Σ_j r_ij·g_j = 0 as lists of (r_ij, j)
    pairs, r_ij an algebra element; ``spanning`` lists P's basis vectors
    c_t·g_{j_t} as (c_t, j_t) pairs, in basis order.  A map is fixed by the
    images w_j of the generators, which run over the kernel of
    :func:`relation_system`.  Column t of a map is ρ_N(c_t)·w_{j_t}, so
    spinning maps from kernel vectors takes one product per generator.
    The returned :class:`HomSpace` keeps the kernel: ``maps()`` spins all
    of it and is the only place the basis maps are formed, ``combine`` the
    one vector ker·c.
    """
    F = N.algebra.field
    d = N.dim
    gens = []
    for j in range(1 + max(j for _, j in spanning)):
        ts = [t for t, (_, jt) in enumerate(spanning) if jt == j]
        stacked = np.vstack([N.act(spanning[t][0]).a for t in ts])
        gens.append((Matrix(F, stacked, copy=False), ts))
    ker = relation_system(N, relations, len(gens)).nullspace()

    def assemble(w):
        K = w.field
        out = np.empty((w.cols, d, len(spanning)), dtype=_INT)
        for j, (stacked, ts) in enumerate(gens):
            images = stacked.map_field(K) @ Matrix(K, w.a[j * d:(j + 1) * d], copy=False)
            out[:, :, ts] = images.a.reshape(len(ts), d, -1).transpose(2, 1, 0)
        return out

    return HomSpace((d, len(spanning)), [(ker, assemble, 0)])


def hom_from_cyclic(M, N):
    """Hom(M, N) for a cyclic module M = A·v with annihilator A·image: one
    relation image·v = 0, spanned by the cosets c·v."""
    image, cosets = M.cyclic_data
    return hom_from_relations(N, [[(image, 0)]], [(c, 0) for c in cosets])


def hom_from_free(P, N):
    """Hom(A, N) ≅ N: the free module on one generator, no relations,
    spanned by the basis monomials."""
    A = N.algebra
    if P.dim != A.dim:
        raise RepresentationError("free summand has wrong dimension")
    return hom_from_relations(N, [], [(A.monomial(e), 0) for e in A.basis_exps])


class IsoReport:
    def __init__(self, verdict, witness=None, reason="", fingerprints=None,
                 trials=0, bound=None):
        self.verdict = verdict          # "isomorphic" | "not_isomorphic" | "probably_not"
        self.witness = witness
        self.reason = reason
        self.fingerprints = fingerprints or {}
        self.trials = trials
        self.bound = bound

    def __bool__(self):
        return self.verdict == "isomorphic"

    def __repr__(self):
        extra = f", reason={self.reason}" if self.reason else ""
        return f"IsoReport({self.verdict}{extra})"

    def to_json(self):
        return {"verdict": self.verdict,
                "witness": self.witness.to_json() if self.witness else None,
                "reason": self.reason,
                "fingerprints": {k: str(v) for k, v in self.fingerprints.items()},
                "trials": self.trials,
                "bound": self.bound}


def _fingerprints(M):
    fp = {"dim": M.dim}
    for g, name in enumerate(M.algebra.gen_names):
        fp[f"jordan:{name}"] = nilpotent_jordan_type(M.actions[g])
    fp["socle_rank"] = free_rank(M)
    return fp


def iso_test(M, N, trials=24, seed=0, hom_fwd=None, hom_rev=None):
    """Randomized isomorphism oracle with deterministic fingerprint pre-pass.

    ``hom_fwd``/``hom_rev`` optionally supply Hom(M,N) and Hom(N,M) as
    :class:`HomSpace` values (used for structured modules whose intertwiner
    spaces have a direct description); otherwise the generic solver runs.
    """
    if M.algebra != N.algebra:
        raise AlgebraMismatch("iso test across different algebras")
    if M.dim != N.dim:
        return IsoReport("not_isomorphic", reason="dimension",
                         fingerprints={"dim_M": M.dim, "dim_N": N.dim})
    if M.dim == 0:
        return IsoReport("isomorphic", witness=Matrix.zeros(M.algebra.field, 0, 0))
    fpM, fpN = _fingerprints(M), _fingerprints(N)
    for key in fpM:
        if fpM[key] != fpN[key]:
            return IsoReport("not_isomorphic", reason=f"fingerprint {key}",
                             fingerprints={f"M {key}": fpM[key], f"N {key}": fpN[key]})
    fwd = hom_fwd() if hom_fwd is not None else hom_space(M, N)
    rev = hom_rev() if hom_rev is not None else hom_space(N, M)
    if len(fwd) != len(rev):
        return IsoReport("not_isomorphic", reason="hom dimensions differ",
                         fingerprints={"dim Hom(M,N)": len(fwd), "dim Hom(N,M)": len(rev)})
    if not fwd:
        return IsoReport("not_isomorphic", reason="Hom(M,N) = 0", fingerprints=fpM)
    K = sampling_extension(M.algebra.field, M.dim)
    witness, used = invertible_combination(fwd, M, N, K, trials, seed)
    if witness is not None:
        return IsoReport("isomorphic", witness=witness, fingerprints=fpM, trials=used)
    bound = (M.dim / K.q) ** trials
    return IsoReport("probably_not", reason="no invertible combination found",
                     fingerprints=fpM, trials=trials, bound=bound)


def invertible_combination(space, source, target, K, trials, seed):
    """``(witness, draws)``: the first invertible random combination of the
    maps of the :class:`HomSpace` ``space`` from ``source`` to ``target``
    over the extension K, or ``(None, trials)``.

    Each draw takes one ``randrange(K.q)`` per basis map, in basis order,
    from ``random.Random(seed)``, so a seed replays the same combinations.
    A combination is spun from its coefficients (``space.combine``), so no
    basis map is formed (only ``space.maps()`` forms them).  An invertible combination is returned only once
    W·ρ_source(g) = ρ_target(g)·W holds over K for every generator g, so
    the space is never trusted; NotAnIntertwiner names the first generator
    that fails.
    """
    n = space.shape[0]
    rng = random.Random(seed)
    for t in range(trials):
        combo = space.combine([rng.randrange(K.q) for _ in range(len(space))], K)
        if combo.rank() == n:
            _check_intertwiner(combo, source, target)
            return combo, t + 1
    return None, trials


def _check_intertwiner(W, source, target):
    K = W.field
    for g, name in enumerate(source.algebra.gen_names):
        if W @ source.actions[g].map_field(K) != target.actions[g].map_field(K) @ W:
            raise NotAnIntertwiner(f"witness fails W·ρ({name}) = ρ({name})·W "
                                   f"from {source.label or '?'} to {target.label or '?'}")


def free_rank(M):
    """Multiplicity of the free module among the direct summands of M.

    Equals the rank of the action of the socle integral (the algebra is
    local, so free = projective = injective here).
    """
    return M.act(M.algebra.integral()).rank()


def rep_from_json(data, algebra=None):
    from .fields import field_from_json
    if algebra is None:
        adata = data["algebra"]
        F = field_from_json(adata["field"])
        if adata["kind"] == "truncated_poly":
            algebra = build_truncated_polynomial(
                F, [g["bound"] for g in adata["generators"]],
                names=tuple(g["name"] for g in adata["generators"]))
        elif adata["kind"] == "heisenberg":
            algebra = build_heisenberg(F, adata.get("n", 1))
        else:
            raise RepresentationError("unknown algebra kind in JSON")
    F = algebra.field
    actions = [Matrix(F, F.decode_matrix(entries, f"actions[{g}]"))
               for g, entries in enumerate(data["actions"])]
    return Representation(algebra, actions, label=data.get("label", ""))
