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

Elimination runs in batched-pivot rounds (see :func:`_eliminate`): each
unowned leading column is owned by the lowest row leading there, every
other row is reduced by the owner of its lead in one update per round,
and rounds end when the leads are distinct.  The reduced echelon form,
its pivot columns and the nullspace basis derived from it are canonical.
The echelon rows that ``rank()`` keeps span the row space with distinct
leading columns and leading 1s, but which rows they are depends on which
row owned each pivot.

Jordan types are read off the rank chain (n, rank m, rank m^2, ..., 0).
Short chains take one product and one elimination per power; a chain
that must have at least ⌈n/κ⌉ >= 8 steps (κ = n - rank m, n >= 40) takes
the kernel ladder, which grows ker m ⊂ ker m^2 ⊂ ... from one
elimination of [m | I] (see :func:`rank_chain`).
"""

import functools

import numpy as np

from .fields import field

_INT = np.int16


class MatrixError(ValueError):
    pass


class FieldMismatch(MatrixError):
    pass


class NotNilpotent(MatrixError):
    pass


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
    """Digit tables of GF(p^e) for products, as ``flt``: the (q, e) digits
    of each element b, the (q, e, e) digits of w^i·b for each i (w the
    field generator), and the place values p^d."""
    e = F.e
    powers = np.zeros((2 * e - 1, e), dtype=np.int64)   # digits of w^0 .. w^(2e-2)
    w = 1
    for k in range(2 * e - 1):
        powers[k] = F.coeffs(w)
        w = F._scalar_mul(w, F.p)   # multiply by the generator w (encoded p)
    pair = powers[np.add.outer(np.arange(e), np.arange(e))]          # [i, j] -> w^(i+j)
    shifted = np.einsum("bj,ijd->bid", F._digits, pair) % F.p
    return F._digits.astype(flt), shifted.astype(flt), F.p ** np.arange(e, dtype=np.int64)


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
        a = np.zeros((n, n), dtype=_INT)
        for i in range(n - 1):
            a[i, i + 1] = 1
        return cls(field_spec, a, copy=False)

    @classmethod
    def random(cls, field_spec, rows, cols, rng):
        a = np.array([rng.randrange(field_spec.q) for _ in range(rows * cols)], dtype=_INT)
        return cls(field_spec, a.reshape(rows, cols), copy=False)

    @classmethod
    def random_invertible(cls, field_spec, n, rng):
        while True:
            m = cls.random(field_spec, n, n, rng)
            if m.rank() == n:
                return m

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

    def copy(self):
        return Matrix(self.field, self.a)

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

    def __neg__(self):
        return Matrix(self.field, self.field.neg_arrays(self.a), copy=False)

    def scale(self, c):
        return Matrix(self.field, self.field.MUL[c, self.a], copy=False)

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise MatrixError("inner dimensions differ")
        F = self.field
        p, e = F.p, F.e
        r, k, c = self.rows, self.cols, other.cols
        flt, intg = _exact_float(p, e * k)
        if e == 1:
            prod = (self.a.astype(flt) @ other.a.astype(flt)).astype(intg)
            return Matrix(F, _mod(prod, p).astype(_INT), copy=False)
        # a·b = Σ_i a_i (w^i b): the digits of self, r x (k·e), times the
        # digits of w^i·b, (k·e) x (c·e), give the digits of the product
        digits, shifted, place = _plane_tables(F, flt)
        da = digits[self.a].reshape(r, k * e)
        db = shifted[other.a].transpose(0, 2, 1, 3).reshape(k * e, c * e)
        prod = _mod((da @ db).astype(intg), p).reshape(r, c, e)
        return Matrix(F, (prod @ place).astype(_INT), copy=False)

    def pow(self, n):
        if not self.is_square():
            raise MatrixError("power of a non-square matrix")
        out = Matrix.identity(self.field, self.rows)
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return out

    def transpose(self):
        return Matrix(self.field, self.a.T)

    def kron(self, other):
        """Kronecker product with row-major pair ordering (i_a*rows_b + i_b)."""
        self._check(other)
        F = self.field
        ra, ca = self.shape
        rb, cb = other.shape
        big = F.MUL[self.a[:, None, :, None], other.a[None, :, None, :]]
        return Matrix(F, big.reshape(ra * rb, ca * cb), copy=False)

    # -- elimination -----------------------------------------------------------------

    def rank(self):
        if self._echelon is None:
            A = self.a.copy()
            prow, _ = _eliminate(self.field, A, reduced=False)
            self._echelon = A[prow]
        return len(self._echelon)

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
        F = field(int(data["field"]["p"]), int(data["field"].get("e", 1)))
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

    A round gives each unowned leading column to the lowest row that leads
    there, scaled to a leading 1; every other row is reduced by the owner
    of its leading column, all in one update over the columns from the
    smallest such lead on, and only those rows get their leads recomputed.
    Rounds end when the leads are distinct.  With ``reduced`` the pivot
    columns with entries above their pivot are then cleared, last column
    first (a column clean after the rounds stays clean).  Returns (pivot
    rows of A, pivot columns), by increasing column; every other row of A
    ends zero.
    """
    cols = A.shape[1]
    owner = np.full(cols, -1, dtype=np.intp)
    if cols:
        keep, lead = _leads(A)
        active = keep.nonzero()[0]
    else:
        active = lead = owner
    while len(active):
        src = owner[lead]
        fresh = src < 0
        if fresh.any():
            # the lowest row at each unowned lead owns it (duplicate leads
            # are settled by a minimum, not by the order of the writes)
            fa, fl = active[fresh], lead[fresh]
            owner[fl] = fa
            won = owner[fl] == fa
            if not won.all():
                np.minimum.at(owner, fl, fa)
                won = owner[fl] == fa
            fa, fl = fa[won], fl[won]
            head = A[fa, fl]
            scale = (head != 1).nonzero()[0]
            if len(scale):
                rs = fa[scale]
                A[rs] = F.MUL[F.INV[head[scale]][:, None], A[rs]]
            src = owner[lead]
            move = src != active
            active, lead, src = active[move], lead[move], src[move]
            if not len(active):
                break
        c0 = lead.min()
        f = A[active, lead]
        block = _axpy(F, A[active, c0:], f, A[src, c0:])
        A[active, c0:] = block
        keep, lead = _leads(block)
        active, lead = active[keep], lead + c0
    pcols = (owner >= 0).nonzero()[0]
    prow = owner[pcols]
    if reduced and len(prow) > 1:
        U = A[prow[:, None], pcols]
        if np.count_nonzero(U) > len(prow):
            for j in (np.count_nonzero(U, axis=0) > 1).nonzero()[0][::-1]:
                above = U[:j, j].nonzero()[0]
                rs, c = prow[above], pcols[j]
                A[rs, c:] = _axpy(F, A[rs, c:], U[above, j], A[prow[j], c:][None, :])
    return prow, pcols


class JordanType:
    """Partition of block sizes of a nilpotent operator, largest first."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(sorted(parts, reverse=True))

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
        n = m.rows
        kappa = n - (0 if m.is_zero() else m.rank())
        ladder = kappa and n >= LADDER_MIN_DIM and -(-n // kappa) >= LADDER_MIN_STEPS
        m._rank_chain = _ladder_chain(m) if ladder else _step_chain(m)
    return m._rank_chain


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
            raise NotNilpotent("matrix is not nilpotent")
        chain.append(r)
        if r:
            step = Matrix(m.field, step._echelon, copy=False) @ m
    return tuple(chain)


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
        raise NotNilpotent("matrix is not nilpotent")
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
            raise NotNilpotent("matrix is not nilpotent")
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
    """Partition with #{parts >= s} = rank(m^{s-1}) - rank(m^s).

    Read off :func:`rank_chain`; raises NotNilpotent when m is not nilpotent.
    """
    ranks = rank_chain(m) + (0,)
    parts = []
    for s in range(1, len(ranks) - 1):
        ge_s = ranks[s - 1] - ranks[s]
        ge_s1 = ranks[s] - ranks[s + 1]
        parts.extend([s] * (ge_s - ge_s1))
    return JordanType(parts)
