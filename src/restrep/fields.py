"""Exact arithmetic in GF(p^e).

Scalars are plain Python ints in ``range(q)``, ``q = p**e``, encoding the
coefficient vector of a residue polynomial in base p: the integer
``a0 + a1*p + ... + a_{e-1}*p^{e-1}`` stands for ``a0 + a1*w + ...`` where
``w`` is a root of the field's modulus.  This keeps scalars hashable and
lets whole matrices live in numpy integer arrays, with arithmetic done
through precomputed q x q tables (addition is plain XOR when p = 2).

Every table is int16 and has one construction for every (p, e), e = 1
included.  NEG and ADD come from the base-p digits, one digit at a time.
MUL and INV come from one log/exp walk over the powers of the least
primitive element g: multiplying by w is a digit shift and one reduction
by the modulus, multiplying by g is a sum of those, and MUL[a, b] is
exp[log a + log b], gathered in row blocks, so no build holds a q x q
array beyond the tables it keeps.

The modulus for (p, e) is chosen deterministically: the monic irreducible
of degree e whose coefficient-encoding integer is smallest.  Embeddings
between extensions of the same characteristic are computed by root
finding, so no compatibility conditions on the moduli are required.
"""

import functools
import math

import numpy as np

TABLE_CAP = 4096  # largest q for which q x q tables are built

_INT = np.int16


class FieldError(ValueError):
    pass


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _prime_factors(n):
    out, d = [], 2
    while n > 1:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out


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
    for ell in _prime_factors(e):
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
        f = [enc // p ** i % p for i in range(e)] + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise FieldError(f"no irreducible of degree {e} over GF({p})")


class FieldSpec:
    """GF(p^e) with table-driven arithmetic on integer-encoded scalars."""

    def __init__(self, p, e=1):
        if e < 1:
            raise FieldError("extension degree must be >= 1")
        # the size first: p^e is formed only once e is below log2 of the cap
        if p > TABLE_CAP or e > TABLE_CAP.bit_length() or p ** e > TABLE_CAP:
            raise FieldError(f"GF(p^e) with p = {p}, e = {e} exceeds table cap {TABLE_CAP}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        q = p ** e
        self.p, self.e, self.q = p, e, q
        self.modulus = _find_modulus(p, e)
        self._build_tables()
        self._embeddings = {}

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a):
        """Base-p digits of the encoded scalar (length e, low degree first)."""
        return self._digits[a].tolist()

    def from_coeffs(self, cs):
        a = 0
        for c in reversed(list(cs)):
            a = a * self.p + (c % self.p)
        return a

    def decode_matrix(self, rows, where):
        """Encoded entries of a JSON matrix of coefficient lists (low degree
        first).  FieldError naming the entry as ``where[i][j]`` unless each
        list has at most e digits, all integers in [0, p)."""
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise FieldError(f"{where}: {rows!r} is not a list of rows")
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                if not (isinstance(cell, list) and len(cell) <= self.e
                        and all(type(c) is int and 0 <= c < self.p for c in cell)):
                    raise FieldError(f"{where}[{i}][{j}]: {cell!r} is not a GF({self.q}) "
                                     f"coefficient list (length <= {self.e}, digits in [0, {self.p}))")
        return [[self.from_coeffs(cell) for cell in row] for row in rows]

    def _build_tables(self):
        """NEG, ADD, MUL and INV in int16 (see the module docstring)."""
        p, e, q = self.p, self.e, self.q
        place = p ** np.arange(e)
        D = self._digits = (np.arange(q)[:, None] // place % p).astype(_INT)
        self.NEG = (-D % p @ place).astype(_INT)
        if p == 2:
            self.ADD = None  # addition is XOR
        else:
            # one digit per step: ADD[a'p + a0, b'p + b0] = p·ADD[a', b'] + (a0 + b0) % p
            r = np.arange(p, dtype=_INT)
            digit_add = np.add.outer(r, r) % p
            self.ADD = digit_add
            for _ in range(e - 1):
                n = len(self.ADD) * p
                self.ADD = (p * self.ADD[:, None, :, None] + digit_add[:, None, :]).reshape(n, n)

        # a·w shifts the digits up and reduces the carried top digit by the
        # modulus; a·g sums the digits of a·w^i times the digits g_i
        up = np.zeros((q, e), dtype=_INT)
        up[:, 1:] = D[:, :-1]
        times_w = (up - D[:, -1:] * np.array(self.modulus[:e])) % p @ place
        acc, a = np.zeros((q, e), dtype=np.int64), np.arange(q)
        for gi in self.coeffs(self._primitive()):
            acc += np.int64(gi) * D[a]
            a = times_w[a]
        times_g = (acc % p @ place).tolist()
        exp, a = [], 1
        for _ in range(q - 1):
            exp.append(a)
            a = times_g[a]

        # ext is exp twice and then zeros, and log 0 = 2(q-1), so a sum of
        # logs reads a product and any sum with log 0 reads 0; INV[0] reads
        # ext[-(q-1)], also 0
        log = np.empty(q, dtype=_INT)
        log[exp] = np.arange(q - 1)
        log[0] = 2 * (q - 1)
        ext = np.zeros(4 * q - 3, dtype=_INT)
        ext[:2 * (q - 1)] = exp * 2
        self.MUL = np.empty((q, q), dtype=_INT)
        rows = max(1, (1 << 16) // q)
        for lo in range(0, q, rows):
            np.take(ext, log[lo:lo + rows, None] + log, out=self.MUL[lo:lo + rows])
        self.INV = ext[q - 1 - log]

    def _primitive(self):
        """Least encoded g whose power (q-1)/l is not 1 for any prime l | q-1."""
        p, q, m = self.p, self.q, list(self.modulus)
        for g in range(1, q):
            if all(_poly_powmod(self.coeffs(g), (q - 1) // l, m, p) != [1]
                   for l in _prime_factors(q - 1)):
                return g

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

    # -- vectorised operations on encoded numpy arrays -----------------------

    def add_arrays(self, x, y):
        if self.p == 2:
            return np.bitwise_xor(x, y)
        return self.ADD[x, y]

    def sub_arrays(self, x, y):
        return self.add_arrays(x, y if self.p == 2 else self.NEG[y])   # -y = y in characteristic 2

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
        # alpha, the smallest root of this field's modulus in big, then every
        # element's image as a polynomial in alpha, by Horner over the digits
        elems = np.arange(big.q, dtype=_INT)
        val = np.zeros(big.q, dtype=_INT)
        for c in reversed(self.modulus):
            val = big.add_arrays(big.MUL[val, elems], _INT(c))
        alpha = np.flatnonzero(val == 0)[0]
        table = np.zeros(self.q, dtype=_INT)
        for i in reversed(range(self.e)):
            table = big.add_arrays(big.MUL[table, alpha], self._digits[:, i])
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


_JSON_KINDS = {int: "an integer", str: "a string", dict: "an object", list: "a list"}


def json_get(data, key, kind, error=FieldError, default=None):
    """``data[key]`` (``default`` when it is absent and not None), which must
    be a JSON value of type ``kind`` (int, str, dict or list); ``error`` naming
    the key otherwise."""
    v = data[key] if default is None else data.get(key, default)
    if type(v) is not kind:
        raise error(f"{key!r} must be {_JSON_KINDS[kind]}, not {v!r}")
    return v


def field_from_json(data):
    """The field named by the ``field`` object of a JSON record."""
    f = json_get(data, "field", dict)
    return field(json_get(f, "p", int), json_get(f, "e", int, default=1))


def sampling_extension(base, dim):
    """Least extension of ``base`` with q > 4*dim, for randomized iso tests."""
    e = base.e
    while base.p ** e <= 4 * dim:
        e += base.e
    return field(base.p, e)
