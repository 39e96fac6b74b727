"""Dense exact matrices over GF(p^e).

Entries are encoded scalars (see :mod:`restrep.fields`) held in numpy
int16 arrays; all arithmetic is table-driven and exact.  Echelon pivoting
is fixed (leftmost pivot column, topmost nonzero row) so ranks, reduced
forms and nullspace bases are canonical across runs.

Matrix products over prime fields go through float64 BLAS (entries are
< p and the accumulated dot products stay far below 2**53, so this is
exact); extension fields use q x q multiplication-table gathers.
"""

import numpy as np

from .fields import field

_INT = np.int16

_POWER_DIGITS = {}


def _power_digit_table(F):
    """Digits of w^k mod the modulus, k = 0..2e-2, for plane recombination."""
    key = (F.p, F.e)
    hit = _POWER_DIGITS.get(key)
    if hit is None:
        e = F.e
        hit = np.zeros((2 * e - 1, e), dtype=np.int64)
        w = 1
        for k in range(2 * e - 1):
            hit[k] = F.coeffs(w)
            w = F._scalar_mul(w, F.p)  # multiply by the generator w (encoded p)
        _POWER_DIGITS[key] = hit
    return hit


class MatrixError(ValueError):
    pass


class FieldMismatch(MatrixError):
    pass


class NotNilpotent(MatrixError):
    pass


class Matrix:
    """A dense matrix over GF(p^e).

    Matrix values are immutable: nothing writes into ``a`` after
    construction.  That is what lets a matrix memoize its rank chain and
    keep the echelon rows of its last ``rank()``.
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
        a = np.array([[rng.randrange(field_spec.q) for _ in range(cols)]
                      for _ in range(rows)], dtype=_INT)
        return cls(field_spec, a, copy=False)

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
        if F.e == 1:
            prod = (self.a.astype(np.float64) @ other.a.astype(np.float64)) % F.p
            return Matrix(F, prod.astype(_INT), copy=False)
        # digit-plane decomposition: e^2 exact float products, then reduce
        # the w powers through the modulus expansion table
        p, e = F.p, F.e
        da = F._digits[self.a].astype(np.float64)      # rows x inner x e
        db = F._digits[other.a].astype(np.float64)     # inner x cols x e
        planes = np.zeros((self.rows, other.cols, e), dtype=np.int64)
        red = _power_digit_table(F)                    # (2e-1) x e
        for i in range(e):
            for j in range(e):
                prod = (da[:, :, i] @ db[:, :, j]).astype(np.int64) % p
                if not prod.any():
                    continue
                for d in range(e):
                    c = red[i + j, d]
                    if c:
                        planes[:, :, d] += c * prod
        planes %= p
        out = np.zeros((self.rows, other.cols), dtype=np.int64)
        for d in reversed(range(e)):
            out = out * p + planes[:, :, d]
        return Matrix(F, out.astype(_INT), copy=False)

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

    def _eliminate(self, reduced, limit=None):
        F = self.field
        prime = F.e == 1
        work = np.int32 if prime else _INT
        A = self.a.astype(work, copy=True)
        p = F.p
        rows, cols = A.shape
        limit = cols if limit is None else limit
        pivots = []
        r = 0
        for c in range(limit):
            col = A[r:, c]
            nz = np.nonzero(col)[0]
            if len(nz) == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                A[[r, i]] = A[[i, r]]
            inv = int(F.INV[A[r, c]])
            if inv != 1:
                A[r] = (A[r] * inv) % p if prime else F.MUL[inv, A[r]]
            if reduced:
                sel = np.nonzero(A[:, c])[0]
                sel = sel[sel != r]
            else:
                below = np.nonzero(A[r + 1:, c])[0]
                sel = below + r + 1
            if len(sel):
                factors = A[sel, c]
                if prime:
                    A[sel] = (A[sel] - factors[:, None] * A[r][None, :]) % p
                else:
                    A[sel] = F.sub_arrays(A[sel], F.MUL[factors[:, None], A[r][None, :]])
            pivots.append(c)
            r += 1
            if r == rows:
                break
        return A.astype(_INT, copy=False), tuple(pivots)

    def rank(self):
        A, pivots = self._eliminate(reduced=False)
        self._echelon = A[:len(pivots)]
        return len(pivots)

    def rref(self):
        A, pivots = self._eliminate(reduced=True)
        return Matrix(self.field, A, copy=False), pivots

    def nullspace(self):
        """Canonical kernel basis, one column per free column of the rref."""
        R, pivots = self.rref()
        F = self.field
        free = [c for c in range(self.cols) if c not in pivots]
        if not free:
            return Matrix.zeros(F, self.cols, 0)
        out = np.zeros((self.cols, len(free)), dtype=_INT)
        out[free, np.arange(len(free))] = 1
        out[list(pivots)] = F.NEG[R.a[:len(pivots)][:, free]]
        return Matrix(F, out, copy=False)

    def solve(self, rhs):
        """A particular solution of self @ X = rhs, or None if inconsistent.

        Free variables are set to zero, so the answer is canonical.
        """
        self._check(rhs)
        if rhs.rows != self.rows:
            raise MatrixError("rhs row count mismatch")
        aug = Matrix(self.field, np.hstack([self.a, rhs.a]), copy=False)
        R, pivots = aug._eliminate(reduced=True)
        n = self.cols
        for c in pivots:
            if c >= n:
                return None
        out = np.zeros((n, rhs.cols), dtype=_INT)
        for i, c in enumerate(pivots):
            out[c] = R[i, n:]
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

    def column(self, j):
        return Matrix(self.field, self.a[:, j:j + 1])

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
        rows = [[F.from_coeffs(cell) for cell in row] for row in data["entries"]]
        m = cls(F, rows)
        if m.shape != (data["rows"], data["cols"]):
            raise MatrixError("matrix JSON shape mismatch")
        return m

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    def __str__(self):
        return "\n".join(" ".join(self.field.fmt(int(v)).rjust(3) for v in row)
                         for row in self.a)


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


def rank_chain(m):
    """``(n, rank(m), rank(m^2), ..., 0)`` of a nilpotent square matrix.

    rowspace(m^s) = rowspace(m^{s-1}) · m, so each step multiplies the
    echelon basis of the previous row space (r x n) by m and ranks the
    product; no power of m is formed.  The row spaces shrink until they
    stop, so a nonzero rank that repeats proves m is not nilpotent
    (NotNilpotent).  The chain is memoized on m; its length minus one is
    the nilpotency index.
    """
    if not m.is_square():
        raise MatrixError("rank chain of a non-square matrix")
    if m._rank_chain is None:
        chain = [m.rows]
        step = m
        while chain[-1]:
            r = 0 if step.is_zero() else step.rank()
            if r == chain[-1]:
                raise NotNilpotent("matrix is not nilpotent")
            chain.append(r)
            if r:
                step = Matrix(m.field, step._echelon, copy=False) @ m
        m._rank_chain = tuple(chain)
    return m._rank_chain


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


# -- subspace calculus (column-span subspaces as matrices) -----------------------

def column_space(m):
    """Canonical basis of the column span (columns of the result)."""
    R, pivots = m.transpose().rref()
    keep = R.a[:len(pivots)] if pivots else np.zeros((0, m.rows), dtype=_INT)
    return Matrix(m.field, keep.T)


def image_space(m, space):
    """Basis of m @ span(space)."""
    return column_space(m @ space)


def preimage_space(m, space):
    """Basis of {v : m @ v in span(space)}."""
    F = m.field
    if space.cols == 0:
        return m.nullspace()
    stacked = m.hstack(-space)
    ker = stacked.nullspace()
    vpart = Matrix(F, ker.a[:m.cols, :])
    return column_space(vpart)


def intersect_spaces(s, t):
    """Basis of span(s) ∩ span(t)."""
    F = s.field
    if s.cols == 0 or t.cols == 0:
        return Matrix.zeros(F, s.rows, 0)
    ker = s.hstack(-t).nullspace()
    combo = Matrix(F, ker.a[:s.cols, :])
    return column_space(s @ combo)


def full_space(field_spec, n):
    return Matrix.identity(field_spec, n)
