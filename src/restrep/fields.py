"""Exact arithmetic in GF(p^e).

Scalars are plain Python ints in ``range(q)``, ``q = p**e``, encoding the
coefficient vector of a residue polynomial in base p: the integer
``a0 + a1*p + ... + a_{e-1}*p^{e-1}`` stands for ``a0 + a1*w + ...`` where
``w`` is a root of the field's modulus.  This keeps scalars hashable and
lets whole matrices live in numpy integer arrays, with arithmetic done
through precomputed q x q tables (addition is plain XOR when p = 2).

The modulus for (p, e) is chosen deterministically: the monic irreducible
of degree e whose coefficient-encoding integer is smallest.  Embeddings
between extensions of the same characteristic are computed by root
finding, so no compatibility conditions on the moduli are required.
"""

import functools

import numpy as np

TABLE_CAP = 4096  # largest q for which q x q tables are built

_INT = np.int16


class FieldError(ValueError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- polynomial helpers over GF(p), coefficient lists low-to-high ----------

def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mulmod(f, g, m, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_rem(out, m, p)


def _poly_rem(f, m, p):
    f = list(f)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(f) > dm:
        c = (f[-1] * inv_lead) % p
        if c:
            off = len(f) - 1 - dm
            for i, a in enumerate(m):
                f[off + i] = (f[off + i] - c * a) % p
        f.pop()
    return _poly_trim(f)


def _poly_powmod(f, n, m, p):
    out = [1]
    f = _poly_rem(f, m, p)
    while n:
        if n & 1:
            out = _poly_mulmod(out, f, m, p)
        f = _poly_mulmod(f, f, m, p)
        n >>= 1
    return out


def _poly_sub(f, g, p):
    n = max(len(f), len(g))
    f = f + [0] * (n - len(f))
    g = g + [0] * (n - len(g))
    return _poly_trim([(a - b) % p for a, b in zip(f, g)])


def _poly_gcd(f, g, p):
    f, g = _poly_trim(list(f)), _poly_trim(list(g))
    while g:
        f, g = g, _poly_rem(f, g, p)
    return f


def _is_irreducible(f, p):
    """Rabin test: f monic of degree e over GF(p)."""
    e = len(f) - 1
    x = [0, 1]
    xq = _poly_powmod(x, p ** e, f, p)
    if _poly_sub(xq, x, p):
        return False
    primes, ee, ell = [], e, 2
    while ee > 1:
        if ee % ell == 0:
            primes.append(ell)
            while ee % ell == 0:
                ee //= ell
        ell += 1
    for ell in primes:
        diff = _poly_sub(_poly_powmod(x, p ** (e // ell), f, p), x, p)
        if not diff:
            return False
        if len(_poly_gcd(f, diff, p)) > 1:
            return False
    return True


def _find_modulus(p, e):
    """Smallest-encoded monic irreducible of degree e over GF(p)."""
    if e == 1:
        return (0, 1)
    for enc in range(p ** e):
        f = []
        v = enc
        for _ in range(e):
            f.append(v % p)
            v //= p
        f.append(1)
        if _is_irreducible(f, p):
            return tuple(f)
    raise FieldError(f"no irreducible of degree {e} over GF({p})")


class FieldSpec:
    """GF(p^e) with table-driven arithmetic on integer-encoded scalars."""

    def __init__(self, p, e=1):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if e < 1:
            raise FieldError("extension degree must be >= 1")
        q = p ** e
        if q > TABLE_CAP:
            raise FieldError(f"field size {q} exceeds table cap {TABLE_CAP}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _find_modulus(p, e)
        self.zero = 0
        self.one = 1
        self._build_tables()
        self._embeddings = {}

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a):
        """Base-p digits of the encoded scalar (length e, low degree first)."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def from_coeffs(self, cs):
        a = 0
        for c in reversed(list(cs)):
            a = a * self.p + (c % self.p)
        return a

    def decode_matrix(self, rows, where):
        """Encoded entries of a JSON matrix of coefficient lists (low degree
        first).  FieldError naming the entry as ``where[i][j]`` unless each
        list has at most e digits, all integers in [0, p)."""
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                if not (isinstance(cell, list) and len(cell) <= self.e
                        and all(type(c) is int and 0 <= c < self.p for c in cell)):
                    raise FieldError(f"{where}[{i}][{j}]: {cell!r} is not a GF({self.q}) "
                                     f"coefficient list (length <= {self.e}, digits in [0, {self.p}))")
        return [[self.from_coeffs(cell) for cell in row] for row in rows]

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        idx = np.arange(q, dtype=np.int64)
        digits = np.zeros((q, e), dtype=np.int64)
        v = idx.copy()
        for i in range(e):
            digits[:, i] = v % p
            v //= p
        self._digits = digits

        if p == 2:
            self.ADD = None  # addition is XOR
        else:
            s = (digits[:, None, :] + digits[None, :, :]) % p
            self.ADD = self._recombine(s).astype(_INT)

        neg = self._recombine((-digits) % p)
        self.NEG = neg.astype(_INT)

        if e == 1:
            mul = (idx[:, None] * idx[None, :]) % p
            self.MUL = mul.astype(_INT)
        else:
            gen = self._find_primitive()
            exp = np.zeros(q - 1, dtype=np.int64)
            log = np.zeros(q, dtype=np.int64)
            a = 1
            for k in range(q - 1):
                exp[k] = a
                log[a] = k
                a = self._scalar_mul(a, gen)
            mul = np.zeros((q, q), dtype=np.int64)
            lo = log[1:]
            mul[1:, 1:] = exp[(lo[:, None] + lo[None, :]) % (q - 1)]
            self.MUL = mul.astype(_INT)
            self._exp, self._log, self._gen = exp, log, gen

        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            inv[a] = int(np.nonzero(self.MUL[a] == 1)[0][0])
        self.INV = inv.astype(_INT)

    def _recombine(self, digit_array):
        out = np.zeros(digit_array.shape[:-1], dtype=np.int64)
        for i in reversed(range(self.e)):
            out = out * self.p + digit_array[..., i]
        return out

    def _scalar_mul(self, a, b):
        """Product of two encoded scalars by direct polynomial arithmetic."""
        p, e = self.p, self.e
        fa, fb = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(fa):
            if x:
                for j, y in enumerate(fb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        rem = _poly_rem(prod, list(self.modulus), p)
        return self.from_coeffs(rem + [0] * (e - len(rem)))

    def _find_primitive(self):
        q = self.q
        target = q - 1
        for g in range(2, q):
            a, order = g, 1
            while a != 1:
                a = self._scalar_mul(a, g)
                order += 1
                if order > target:
                    break
            if order == target:
                return g
        raise FieldError("no primitive element found")

    # -- scalar operations ---------------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        return int(self.ADD[a, b])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return int(self.NEG[a])

    def mul(self, a, b):
        return int(self.MUL[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self.INV[a])

    def pow(self, a, n):
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    # -- vectorised operations on encoded numpy arrays -----------------------

    def add_arrays(self, x, y):
        if self.p == 2:
            return np.bitwise_xor(x, y)
        return self.ADD[x, y]

    def sub_arrays(self, x, y):
        return self.add_arrays(x, y if self.p == 2 else self.NEG[y])   # -y = y in characteristic 2

    def neg_arrays(self, x):
        return self.NEG[x]

    def sum_at(self, idx, x, size):
        """Length-``size`` array whose entry k is the field sum of the x[i]
        with idx[i] == k (digit planes summed as integers, then reduced)."""
        digits = self._digits[x]
        out = np.zeros(size, dtype=np.int64)
        for d in reversed(range(self.e)):
            out *= self.p
            out += np.bincount(idx, weights=digits[:, d], minlength=size).astype(np.int64) % self.p
        return out.astype(_INT)

    # -- embeddings ------------------------------------------------------------

    def embedding(self, big):
        """Encoded-value table mapping this field into the extension ``big``.

        Requires same characteristic and e | big.e; the image of the
        generator is the smallest root of this field's modulus in ``big``.
        """
        key = (big.p, big.e)
        if key in self._embeddings:
            return self._embeddings[key]
        if big.p != self.p or big.e % self.e:
            raise FieldError(f"GF({self.p}^{self.e}) does not embed in GF({big.p}^{big.e})")
        if self.e == 1:
            table = np.arange(self.q, dtype=_INT)  # prime field is the same encoding
            self._embeddings[key] = table
            return table
        elems = np.arange(big.q, dtype=_INT)
        val = np.zeros(big.q, dtype=_INT)
        for c in reversed(self.modulus):
            val = big.add_arrays(big.MUL[val, elems], _INT(c % self.p))
        roots = np.nonzero(val == 0)[0]
        if len(roots) == 0:
            raise FieldError("modulus has no root in extension")
        alpha = int(roots[0])
        table = np.zeros(self.q, dtype=_INT)
        for a in range(self.q):
            acc = 0
            for c in reversed(self.coeffs(a)):
                acc = big.add(big.mul(acc, alpha), c)
            table[a] = acc
        self._embeddings[key] = table
        return table

    # -- misc --------------------------------------------------------------------

    def fmt(self, a):
        """Deterministic human form: ints for prime fields, polynomials in w above."""
        if self.e == 1:
            return str(int(a))
        cs = self.coeffs(int(a))
        terms = []
        for i in reversed(range(self.e)):
            c = cs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                pw = "w" if i == 1 else f"w^{i}"
                terms.append(head + pw)
        return "+".join(terms) if terms else "0"

    def parse(self, text):
        """Inverse of :meth:`fmt` (also accepts bare encoded integers)."""
        text = text.strip()
        if text.lstrip("-").isdigit():
            return int(text) % self.q if self.e == 1 else int(text)
        total = 0
        for term in text.replace("-", "+-").split("+"):
            term = term.strip()
            if not term:
                continue
            neg = term.startswith("-")
            if neg:
                term = term[1:]
            if "w" not in term:
                c, i = int(term), 0
            else:
                head, _, tail = term.partition("w")
                c = int(head) if head else 1
                i = int(tail.lstrip("^")) if tail else 1
            if neg:
                c = -c
            total = self.add(total, self.from_coeffs([0] * i + [c % self.p]))
        return total

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"GF({self.p})" if self.e == 1 else f"GF({self.p}^{self.e})"

    def to_json(self):
        return {"p": self.p, "e": self.e}


@functools.lru_cache(maxsize=None)
def field(p, e=1):
    return FieldSpec(p, e)


def field_from_json(data):
    return field(int(data["p"]), int(data.get("e", 1)))


def sampling_extension(base, dim):
    """Least extension of ``base`` with q > 4*dim, for randomized iso tests."""
    e = base.e
    while base.p ** e <= 4 * dim:
        e += base.e
    return field(base.p, e)
