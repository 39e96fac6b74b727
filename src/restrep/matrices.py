"""Dense exact matrices over GF(p^e).

Entries are encoded scalars (see :mod:`restrep.fields`) held in numpy
int16 arrays; all arithmetic is exact.

Products go through BLAS.  Over GF(p) every partial sum of an inner-k
product is a non-negative integer at most k·(p-1)², so the product runs
in float32 while k·(p-1)² < 2**24 and in float64 below 2**53; it is cast
to integers and reduced mod p in place.  Over GF(p^e), with a = Σ a_i w^i
(w the field generator), a·b = Σ_i a_i (w^i b): the digits of the left
factor times a table of the digits of w^i·b is one product of inner
dimension k·e under the same rule, and its reduced digits are combined
by place value.

Kronecker sums Σ c·X⊗Y are computed as one such product, of inner
dimension the number of terms: the vec(X) columns times the scaled vec(Y)
rows, reordered (Van Loan & Pitsianis, 1993; see :meth:`Matrix.kron`).

Elimination runs in batched-pivot rounds (see :func:`_eliminate`): each
unowned leading column is owned by the lowest row leading there, every
other row is reduced by the owner of its lead in one update per round,
and rounds end when the leads are distinct.  The same rounds reduce a
stack (b, r, c) of same-shape matrices at once, a pivot being owned per
(member, column), and give each member what its own call would; a 2-D
array is a stack of one.  The reduced echelon form, its pivot columns
and the nullspace basis derived from it are canonical.  The echelon
rows that ``rank()`` keeps span the row space with distinct leading
columns and leading 1s, but which rows they are depends on which row
owned each pivot.

Jordan types are read off the rank chain (n, rank m, rank m^2, ..., 0).
Short chains take one product and one elimination per power; a chain
that must have at least ⌈n/κ⌉ >= 8 steps (κ = n - rank m, n >= 40) takes
the kernel ladder, which grows ker m ⊂ ker m^2 ⊂ ... from one
elimination of [m | I] (see :func:`rank_chain`).  :func:`rank_chains`
runs the short chains of many same-shape matrices together: one stacked
elimination and one stacked product per step, with :func:`chain_bytes`
bounding its memory per member.
"""

import functools

import numpy as np

from .fields import field_from_json

_INT = np.int16


class MatrixError(ValueError):
    pass


class FieldMismatch(MatrixError):
    pass


class NotNilpotent(MatrixError):
    """A matrix is not nilpotent; ``member`` is its index in the list given
    to :func:`rank_chains`, None for a single matrix."""

    def __init__(self, member=None):
        super().__init__("matrix is not nilpotent")
        self.member = member


def _exact_float(p, inner):
    """(float, int) dtypes for an exact product of entries in [0, p).

    Every partial sum of an inner-``inner`` product is a non-negative
    integer at most inner·(p-1)², so float32 is exact below 2**24 and
    float64 below 2**53; the int dtype holds the same range.
    """
    bound = inner * (p - 1) ** 2
    if bound < 1 << 24:
        return np.float32, np.int32
    if bound < 1 << 53:
        return np.float64, np.int64
    raise MatrixError(f"inner dimension {inner} is too large for an exact product over GF({p})")


@functools.lru_cache(maxsize=None)
def _plane_tables(F, flt):
    """Digit tables of GF(p^e) for products: as ``flt``, the (q, e) digits
    of each element b and the (e·q, e) digits of w^i·b in row i·q + b (w the
    field generator; w^i is encoded p^i for i < e); the row offsets i·q as
    an (e, 1) int32 column; and the place values p^d, int32 like the
    digits they recombine, so that no int64 copy of the digits is made."""
    e, q = F.e, F.q
    place = F.p ** np.arange(e, dtype=np.int32)
    shifted = F._digits[F.MUL[:, place].T].reshape(e * q, e)
    offsets = (q * np.arange(e, dtype=np.int32))[:, None]
    return F._digits.astype(flt), shifted.astype(flt), offsets, place


class Matrix:
    """A dense matrix over GF(p^e).

    Matrix values are immutable: nothing writes into ``a`` after
    construction.  That is what lets a matrix memoize its rank chain and
    the echelon rows of its first ``rank()``, which later calls read their
    rank from: a basis of the row space in echelon form with leading 1s,
    whose rows depend on which row owned each pivot in the elimination
    rounds.  ``rref``, its pivots,
    ``nullspace`` and ``solve`` are canonical.
    """

    __slots__ = ("field", "a", "_echelon", "_rank_chain")

    def __init__(self, field_spec, data, copy=True):
        a = np.array(data, dtype=_INT, copy=copy)
        if a.ndim != 2:
            raise MatrixError("matrix data must be 2-dimensional")
        self.field = field_spec
        self.a = a
        self._echelon = None      # echelon rows left by rank()
        self._rank_chain = None   # memo of rank_chain()

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field_spec, rows, cols=None):
        cols = rows if cols is None else cols
        return cls(field_spec, np.zeros((rows, cols), dtype=_INT), copy=False)

    @classmethod
    def identity(cls, field_spec, n):
        return cls(field_spec, np.eye(n, dtype=_INT), copy=False)

    @classmethod
    def jordan_block(cls, field_spec, n):
        """Upper triangular nilpotent block: ones on the superdiagonal."""
        return cls(field_spec, np.eye(n, k=1, dtype=_INT), copy=False)

    # -- basics ----------------------------------------------------------------

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    def is_zero(self):
        return not self.a.any()

    def is_square(self):
        return self.rows == self.cols

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.a.shape == other.a.shape and np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((self.field, self.a.shape, self.a.tobytes()))

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Matrix(self.field, self.field.add_arrays(self.a, other.a), copy=False)

    def __sub__(self, other):
        self._check(other)
        return Matrix(self.field, self.field.sub_arrays(self.a, other.a), copy=False)

    def scale(self, c):
        return Matrix(self.field, self.field.MUL[c, self.a], copy=False)

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise MatrixError("inner dimensions differ")
        return Matrix(self.field, _product(self.field, self.a, other.a), copy=False)

    def transpose(self):
        return Matrix(self.field, self.a.T)

    @classmethod
    def kron(cls, terms):
        """Σ c·X⊗Y over a nonempty list of ``(c, X, Y)`` terms of one X shape
        and one Y shape, row-major (i_X·rows_Y + i_Y); X⊗Y is ``[(1, X, Y)]``.

        Entry (i, j, k, l) is Σ_t c_t·X_t[i, j]·Y_t[k, l]: one product of inner
        dimension T, the vec(X_t) as columns times the c_t·vec(Y_t) as rows,
        reordered from (r·c) × (r'·c') to (r·r') × (c·c') (Van Loan &
        Pitsianis, 1993)."""
        if not terms:
            raise MatrixError("empty Kronecker sum")
        _, X0, Y0 = terms[0]
        F, (r, c), (r2, c2) = X0.field, X0.shape, Y0.shape
        if any(X.field != F or Y.field != F for _, X, Y in terms):
            raise FieldMismatch("Kronecker terms over different fields")
        if any(X.shape != X0.shape or Y.shape != Y0.shape for _, X, Y in terms):
            raise MatrixError("Kronecker terms differ in shape")
        U = np.stack([X.a.ravel() for _, X, _ in terms], axis=1)
        V = np.stack([F.MUL[coef, Y.a].ravel() for coef, _, Y in terms])
        P = (cls(F, U, copy=False) @ cls(F, V, copy=False)).a
        return cls(F, P.reshape(r, c, r2, c2).transpose(0, 2, 1, 3).reshape(r * r2, c * c2),
                   copy=False)

    # -- elimination -----------------------------------------------------------------

    def rank(self):
        if self._echelon is None:
            A = self.a.copy()
            prow, _ = _eliminate(self.field, A, reduced=False)
            self._echelon = A[prow]
        return len(self._echelon)

    def pivots(self):
        """Leading columns of the echelon rows that ``rank()`` keeps, by
        increasing column: the pivot columns of the rref too."""
        return tuple((self._echelon != 0).argmax(axis=1).tolist()) if self.rank() else ()

    def rref(self):
        A = self.a.copy()
        prow, pcols = _eliminate(self.field, A, reduced=True)
        R = np.zeros_like(A)
        R[:len(prow)] = A[prow]
        return Matrix(self.field, R, copy=False), tuple(pcols.tolist())

    def nullspace(self):
        """Canonical kernel basis, one column per free column of the rref."""
        A = self.a.copy()
        prow, pcols = _eliminate(self.field, A, reduced=True)
        return Matrix(self.field, _kernel(self.field, A[prow], pcols, self.cols), copy=False)

    def solve(self, rhs):
        """A particular solution of self @ X = rhs, or None if inconsistent.

        Free variables are set to zero, so the answer is canonical.  The
        augmented matrix [self | rhs] is the only full-size array: it is
        reduced in place.
        """
        self._check(rhs)
        if rhs.rows != self.rows:
            raise MatrixError("rhs row count mismatch")
        aug = np.hstack([self.a, rhs.a])
        prow, pcols = _eliminate(self.field, aug, reduced=True)
        n = self.cols
        if len(pcols) and pcols[-1] >= n:
            return None
        out = np.zeros((n, rhs.cols), dtype=_INT)
        out[pcols] = aug[prow, n:]
        return Matrix(self.field, out, copy=False)

    def inverse(self):
        if not self.is_square():
            raise MatrixError("inverse of a non-square matrix")
        sol = self.solve(Matrix.identity(self.field, self.rows))
        if sol is None or (self @ sol != Matrix.identity(self.field, self.rows)):
            raise MatrixError("matrix is singular")
        return sol

    # -- structure helpers --------------------------------------------------------------

    def hstack(self, other):
        self._check(other)
        return Matrix(self.field, np.hstack([self.a, other.a]), copy=False)

    def vstack(self, other):
        self._check(other)
        return Matrix(self.field, np.vstack([self.a, other.a]), copy=False)

    def map_field(self, big):
        """Entrywise embedding into an extension field."""
        emb = self.field.embedding(big)
        return Matrix(big, emb[self.a], copy=False)

    def to_json(self):
        F = self.field
        return {"field": F.to_json(), "rows": self.rows, "cols": self.cols,
                "entries": [[F.coeffs(int(v)) for v in row] for row in self.a]}

    @classmethod
    def from_json(cls, data):
        F = field_from_json(data)
        m = cls(F, F.decode_matrix(data["entries"], "entries"))
        if m.shape != (data["rows"], data["cols"]):
            raise MatrixError("matrix JSON shape mismatch")
        return m

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    def __str__(self):
        return "\n".join(" ".join(self.field.fmt(int(v)).rjust(3) for v in row)
                         for row in self.a)


def _leads(X):
    """(mask of the nonzero rows of X, their leading columns)."""
    nz = X != 0
    k = nz.argmax(axis=1)
    keep = nz[np.arange(len(k)), k]
    return keep, k[keep]


def _mod(x, p):
    """x mod p, in place (numpy divides by a scalar far faster than it
    takes a remainder)."""
    q = x // p
    q *= p
    x -= q
    return x


def _product(F, a, b):
    """a @ b over F for int16 arrays: two matrices, or two stacks of them
    multiplied member by member."""
    p, e = F.p, F.e
    k = a.shape[-1]
    flt, intg = _exact_float(p, e * k)
    if e == 1:
        return _mod((a.astype(flt) @ b.astype(flt)).astype(intg), p).astype(_INT)
    # a·b = Σ_i a_i (w^i b): the digits of a, r x (k·e), times the digits of
    # w^i·b, (k·e) x (c·e), give the digits of the product; both operands
    # are single takes in their final layout, the right one of rows i·q + b
    # over a (k, e, c) index grid
    c = b.shape[-1]
    digits, shifted, offsets, place = _plane_tables(F, flt)
    da = digits[a].reshape(a.shape[:-1] + (k * e,))
    db = np.take(shifted, b[..., :, None, :] + offsets, axis=0)
    prod = _mod((da @ db.reshape(b.shape[:-2] + (k * e, c * e))).astype(intg), p)
    return (prod.reshape(a.shape[:-1] + (c, e)) @ place).astype(_INT)


def _axpy(F, X, f, Y):
    """Rows X - f·Y over F, one factor per row of X (Y may be one row).

    Over GF(p) the difference lies in (-(p-1)², p), which int32 holds.
    """
    if F.e == 1:
        out = X.astype(np.int32)
        out -= f.astype(np.int32)[:, None] * Y
        return _mod(out, F.p)
    return F.sub_arrays(X, F.MUL[f[:, None], Y])


def _kernel(F, R, pcols, cols):
    """Kernel basis of a reduced echelon form: R holds its nonzero rows,
    whose pivots are ``pcols``; one column per free column, with a 1 there
    and -R at the pivots."""
    free = np.ones(cols, dtype=bool)
    free[pcols] = False
    free = free.nonzero()[0]
    out = np.zeros((cols, len(free)), dtype=_INT)
    out[free, np.arange(len(free))] = 1
    out[pcols] = F.NEG[R[:, free]]
    return out


def _eliminate(F, A, reduced):
    """Bring the int16 array A to row echelon form in place, by rounds.

    A is one matrix (r, c) or a stack (b, r, c) of them, each member
    eliminated on its own: rows are numbered through the stack, as rows of
    A.reshape(b·r, c), and a pivot is owned per (member, column), under the
    key m·c + column.  A round gives each unowned key to the lowest row
    that leads there, scaled to a leading 1; every other row is reduced by
    the owner of its key, all in one update over the columns from the
    smallest lead in the stack on, and only those rows get their leads
    recomputed.  Rounds end when the keys are distinct.  A member's rows
    see exactly the rounds of its own 2-D call, and a stack of one keys by
    column alone.  With ``reduced`` each member's pivot columns with entries
    above their pivot are then cleared, last column first (a column clean
    after the rounds stays clean).  Returns (pivot rows, pivot keys), by
    increasing key (a 2-D A's keys are its pivot columns); every other row
    of A ends zero.
    """
    if A.ndim == 2:
        b, c, X, base = 1, A.shape[1], A, None
    else:
        b, r, c = A.shape
        X = A.reshape(b * r, c)
        base = np.repeat(np.arange(0, b * c, c), r) if b > 1 else None   # m·c of each row
    owner = np.full(b * c, -1, dtype=np.intp)
    if c:
        keep, lead = _leads(X)
        active = keep.nonzero()[0]
    else:
        active = lead = owner
    while len(active):
        key = lead if base is None else base[active] + lead
        src = owner[key]
        fresh = src < 0
        if fresh.any():
            # the lowest row at each unowned key owns it (duplicate keys
            # are settled by a minimum, not by the order of the writes)
            fa, fl = active[fresh], lead[fresh]
            fk = fl if base is None else key[fresh]
            owner[fk] = fa
            won = owner[fk] == fa
            if not won.all():
                np.minimum.at(owner, fk, fa)
                won = owner[fk] == fa
            fa, fl = fa[won], fl[won]
            head = X[fa, fl]
            scale = (head != 1).nonzero()[0]
            if len(scale):
                rs = fa[scale]
                X[rs] = F.MUL[F.INV[head[scale]][:, None], X[rs]]
            src = owner[key]
            move = src != active
            active, lead, src = active[move], lead[move], src[move]
            if not len(active):
                break
        c0 = lead.min()
        f = X[active, lead]
        block = _axpy(F, X[active, c0:], f, X[src, c0:])
        X[active, c0:] = block
        keep, lead = _leads(block)
        active, lead = active[keep], lead + c0
    keys = (owner >= 0).nonzero()[0]
    prow = owner[keys]
    if reduced and b == 1:
        _clear_above(F, X, prow, keys)
    elif reduced:
        cuts = np.searchsorted(keys, np.arange(b + 1) * c)
        for m in range(b):
            lo, hi = cuts[m], cuts[m + 1]
            _clear_above(F, X, prow[lo:hi], keys[lo:hi] - m * c)
    return prow, keys


def _clear_above(F, X, prow, pcols):
    """Clear the entries above the pivots (rows ``prow`` of X, leading 1s
    at ``pcols``, by increasing column), last column first."""
    if len(prow) > 1:
        U = X[prow[:, None], pcols]
        if np.count_nonzero(U) > len(prow):
            for j in (np.count_nonzero(U, axis=0) > 1).nonzero()[0][::-1]:
                above = U[:j, j].nonzero()[0]
                rs, c = prow[above], pcols[j]
                X[rs, c:] = _axpy(F, X[rs, c:], U[above, j], X[prow[j], c:][None, :])


class JordanType:
    """Partition of block sizes of a nilpotent operator, largest first."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(sorted(parts, reverse=True))

    @classmethod
    def of_chain(cls, chain):
        """The partition with #{parts >= s} = rank(m^{s-1}) - rank(m^s), from
        a rank chain (n, rank m, rank m^2, ..., 0)."""
        ranks = tuple(chain) + (0,)
        parts = []
        for s in range(1, len(ranks) - 1):
            ge_s = ranks[s - 1] - ranks[s]
            ge_s1 = ranks[s] - ranks[s + 1]
            parts.extend([s] * (ge_s - ge_s1))
        return cls(parts)

    @property
    def dimension(self):
        return sum(self.parts)

    @property
    def max_part(self):
        return self.parts[0] if self.parts else 0

    def multiplicity(self, s):
        return self.parts.count(s)

    def blocks(self):
        out = {}
        for s in self.parts:
            out[s] = out.get(s, 0) + 1
        return out

    def is_free(self, bound):
        """All blocks of the maximal size allowed by the acting algebra."""
        return all(s == bound for s in self.parts)

    def has_part_strictly_between(self, lo, hi):
        return any(lo < s < hi for s in self.parts)

    def __eq__(self, other):
        return isinstance(other, JordanType) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __str__(self):
        if not self.parts:
            return "0"
        items = sorted(self.blocks().items(), reverse=True)
        return "+".join((f"{c}J{s}" if c > 1 else f"J{s}") for s, c in items)

    __repr__ = __str__


LADDER_MIN_DIM = 40
LADDER_MIN_STEPS = 8


def rank_chain(m):
    """``(n, rank(m), rank(m^2), ..., 0)`` of a nilpotent square matrix.

    Two algorithms give the same chain, and the first elimination picks
    one.  Ranking m gives κ = n - rank(m), the number of Jordan blocks;
    each step lowers the rank by at most κ, so the chain has at least
    ⌈n/κ⌉ steps.  When n >= 40 and ⌈n/κ⌉ >= 8 the chain takes the kernel
    ladder (``_ladder_chain``: one elimination of [m | I], then products
    of about one n×n×n product in all); otherwise the step loop
    (``_step_chain``: one r_s×n×n product and one elimination per step),
    which reuses that first elimination.  The crossover, as the ladder's
    time over the step loop's on the distinct chains of one seed-0 report
    of each benchmark workload (best of 3 each; median, range):
    at ⌈n/κ⌉ <= 7, klein's index-2 chains 4.1 (2.2–45) and heisenberg's
    1.4 (0.5–45); at ⌈n/κ⌉ >= 8, witt's chains below n = 40 1.26
    (1.03–1.9) and from n = 40 on 0.67 (0.03–1.5).  Witt's J25⊗J25 at
    p = 5 (n = 625) goes 98 → 41 ms, and J49⊗J49 at p = 7 (n = 2401)
    6.0 → 0.75 s.  κ = 0 means m is invertible: the step loop raises
    NotNilpotent at once.  The chain is memoized on m; its length minus
    one is the nilpotency index.
    """
    if not m.is_square():
        raise MatrixError("rank chain of a non-square matrix")
    if m._rank_chain is None:
        ladder = _takes_ladder(m.rows, 0 if m.is_zero() else m.rank())
        m._rank_chain = _ladder_chain(m) if ladder else _step_chain(m)
    return m._rank_chain


def _takes_ladder(n, rank):
    """Whether an n×n matrix of this rank takes the kernel ladder."""
    kappa = n - rank
    return bool(kappa) and n >= LADDER_MIN_DIM and -(-n // kappa) >= LADDER_MIN_STEPS


def _step_chain(m):
    """The rank chain by steps: rowspace(m^s) = rowspace(m^{s-1}) · m, so
    each step multiplies the echelon basis of the previous row space
    (r x n) by m and ranks the product; no power of m is formed.  The row
    spaces shrink until they stop, so a nonzero rank that repeats proves m
    is not nilpotent (NotNilpotent)."""
    chain = [m.rows]
    step = m
    while chain[-1]:
        r = 0 if step.is_zero() else step.rank()
        if r == chain[-1]:
            raise NotNilpotent()
        chain.append(r)
        if r:
            step = Matrix(m.field, step._echelon, copy=False) @ m
    return tuple(chain)


def rank_chains(mats):
    """:func:`rank_chain` of each of ``mats``, square matrices of one shape
    over one field, as a list: the step loop run on all of them at once.

    A step ranks the stack of the members' current row spaces in one
    :func:`_eliminate` and multiplies the stack of their echelon rows,
    padded with zero rows to the largest rank, by the stack of the members
    in one product; a member leaves the batch when its rank reaches 0.  A
    member whose first elimination sends it to the kernel ladder under
    :func:`rank_chain`'s rule runs alone there.  Each chain, and the
    echelon rows of the member's rank, is memoized on its matrix, and a
    memoized chain is not recomputed.  NotNilpotent names the first member
    found not nilpotent; :func:`chain_bytes` bounds the memory per member.
    """
    todo = [i for i, m in enumerate(mats) if m._rank_chain is None]
    if todo:
        F, shape = mats[todo[0]].field, mats[todo[0]].shape
        if any(mats[i].field != F or mats[i].shape != shape for i in todo):
            raise MatrixError("rank chains of matrices of different fields or shapes")
        if shape[0] != shape[1]:
            raise MatrixError("rank chain of a non-square matrix")
        _batch_chains(F, shape[0], [mats[i] for i in todo], todo)
    return [m._rank_chain for m in mats]


def _batch_chains(F, n, mats, names):
    """Memoize the rank chains of ``mats`` (n×n, none memoized yet);
    ``names`` are their indices for NotNilpotent."""
    if not n:
        for m in mats:
            m._rank_chain = (0,)
        return
    M = np.stack([m.a for m in mats])
    E = _stack_echelons(F, M.copy())
    for m, e in zip(mats, E):
        if m._echelon is None:
            m._echelon = e
    step = []
    for t, (m, e) in enumerate(zip(mats, E)):
        if not _takes_ladder(n, len(e)):
            step.append(t)
            continue
        try:
            m._rank_chain = _ladder_chain(m)
        except NotNilpotent:
            raise NotNilpotent(names[t]) from None
    chains = {t: [n] for t in step}
    E = [E[t] for t in step]
    if len(step) < len(mats):
        M = M[step]
    while True:
        for t, e in zip(step, E):
            if len(e) == chains[t][-1]:
                raise NotNilpotent(names[t])
            chains[t].append(len(e))
            if not len(e):
                mats[t]._rank_chain = tuple(chains[t])
        go = [k for k, e in enumerate(E) if len(e)]
        if not go:
            return
        if len(go) < len(step):
            step, E, M = [step[k] for k in go], [E[k] for k in go], M[go]
        P = np.zeros((len(step), max(map(len, E)), n), dtype=_INT)
        for k, e in enumerate(E):
            P[k, :len(e)] = e
        E = _stack_echelons(F, _product(F, P, M))


def _stack_echelons(F, S):
    """The echelon rows of each member of the stack S (b, r, n), which is
    reduced in place: a list of (rank, n) arrays."""
    b, r, n = S.shape
    prow, keys = _eliminate(F, S, reduced=False)
    return np.split(S.reshape(b * r, n)[prow], np.searchsorted(keys, np.arange(n, b * n, n)))


def chain_bytes(F, n):
    """Peak bytes :func:`rank_chains` allocates per n×n member, counted per
    entry.  Held throughout: the stack of the members, the product being
    ranked, the padded echelon rows and the rows split off them, int16
    (8).  On top, the larger of an elimination round (18: row gathers,
    int32 temporaries and the intp indices numpy makes for table lookups)
    and a product: over GF(p) the float factors and result (3f); over
    GF(p^e) the float digit planes of both factors and of the result,
    f·(e² + 2e), and their integer digits and take indices (8e); f is the
    itemsize of the exact product's float dtype."""
    e = F.e
    f = np.dtype(_exact_float(F.p, e * n)[0]).itemsize
    product = 3 * f if e == 1 else f * (e * e + 2 * e) + 8 * e
    return (8 + max(18, product)) * n * n


def _ladder_chain(m):
    """The rank chain by the kernel ladder: the flag ker m ⊂ ker m^2 ⊂ ...
    from one factorization of m, as in the MeatAxe's nilpotent and Jordan
    routines (Parker 1984; Lux & Szőke, Exp. Math. 12, 2003).

    The rref of [m | I] is [[U, P], [0, L]]: U, the rref of m with pivot
    columns ``piv``, gives the basis K of ker m; L (κ × n) is the left
    kernel, so y lies in im m exactly when L·y = 0; and x[piv] = P·y,
    zero elsewhere, solves m·x = y for every such y.  ker m^{s+1} is ker m
    plus the preimages of ker m^s ∩ im m, so each step takes the rref of
    C = L·K (κ × dim K): its free columns c give the vectors
    Y = K[:, c] - K[:, pivots of C]·R_C[:, c] of that intersection, and
    their preimages P·Y are appended to K (and L·P·Y to C).  A free column
    of C stays free as columns are appended, with the same Y, so only new
    free columns are lifted.  rank(m^s) = n - dim K; a step that lifts
    nothing while dim K < n proves m is not nilpotent (NotNilpotent).
    """
    F, n = m.field, m.rows
    if not n:
        return (0,)
    R, pivots = m.hstack(Matrix.identity(F, n)).rref()
    piv = np.array([c for c in pivots if c < n], dtype=np.intp)
    r = len(piv)
    if r == n:
        raise NotNilpotent()
    P = Matrix(F, R.a[:r, n:], copy=False)
    L = Matrix(F, R.a[r:, n:], copy=False)
    # lift = [P; L[:, piv]·P], so lift·Y holds both P·Y and L·(P·Y)
    lift = P.vstack(Matrix(F, L.a[:, piv], copy=False) @ P)
    K = np.zeros((n, n), dtype=_INT)
    K[:, :n - r] = _kernel(F, R.a[:r, :n], piv, n)
    C = np.zeros((n - r, n), dtype=_INT)
    C[:, :n - r] = (L @ Matrix(F, K[:, :n - r], copy=False)).a
    chain = [n, r]
    done, k = 0, n - r   # columns of C read so far, dim K
    while k < n:
        RC, cpiv = Matrix(F, C[:, :k], copy=False).rref()
        cpiv = list(cpiv)
        free = np.ones(k, dtype=bool)
        free[cpiv] = False
        new = free[done:].nonzero()[0] + done
        if not len(new):
            raise NotNilpotent()
        Y = K[:, new]
        if cpiv:
            comb = Matrix(F, K[:, cpiv], copy=False) @ Matrix(F, RC.a[:len(cpiv), new])
            Y = F.sub_arrays(Y, comb.a)
        Z = (lift @ Matrix(F, Y, copy=False)).a
        done, k = k, k + len(new)
        K[piv, done:k] = Z[:r]
        C[:, done:k] = Z[r:]
        chain.append(n - k)
    return tuple(chain)


def nilpotent_jordan_type(m):
    """The Jordan type of m read off :func:`rank_chain`; raises
    NotNilpotent when m is not nilpotent."""
    return JordanType.of_chain(rank_chain(m))
