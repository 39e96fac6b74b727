"""Exact arithmetic in GF(p^e).

Scalars are plain Python ints in ``range(q)``, ``q = p**e``, encoding the
coefficient vector of a residue polynomial in base p: the integer
``a0 + a1*p + ... + a_{e-1}*p^{e-1}`` stands for ``a0 + a1*w + ...`` where
``w`` is a root of the field's modulus.  This keeps scalars hashable and
lets whole matrices live in numpy integer arrays, with arithmetic done
through precomputed q x q tables (addition is plain XOR when p = 2).

Every table is int16 and has one construction for every (p, e), e = 1
included.  NEG and ADD come from the base-p digits, one digit at a time.
Multiplying by any g is GF(p)-linear on the digits, so each map a ↦ a·g
is one product.  MUL and INV come from one walk 1, g, g², … over the
powers of a primitive element g: MUL[a, b] is exp[log a + log b],
gathered in row blocks, so no build holds a q x q array beyond the
tables it keeps.

The modulus for (p, e) is the monic irreducible of degree e whose
coefficient-encoding integer is smallest, by Rabin's test read off the
walk of w; g is w when that walk is exp, else the least encoded element
whose walk has q - 1 steps (MUL and INV do not depend on g); the
search's digits, map a ↦ a·w and walk of w are reused.  Embeddings
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


def _linear(D, rows, p):
    """The GF(p)-linear map a ↦ Σ a_i·rows[i] on encoded scalars (D: the
    float32 digits of every scalar): one float32 product, exact since every
    sum is at most e·(p-1)² < 2^24."""
    x = (D @ rows).astype(np.int32)
    x -= x // p * p
    return x @ p ** np.arange(len(rows), dtype=np.int32)


def _times_w(D, f, p):
    """a ↦ a·w in GF(p)[w]/(f), for f monic of degree e given by its low e
    coefficients: w·w^i is w^(i+1), and w·w^(e-1) is -f."""
    rows = np.eye(len(f), k=1, dtype=np.float32)
    rows[-1] = np.negative(f) % p
    return _linear(D, rows, p)


def _times(D, times_w, g, p):
    """a ↦ a·g, whose row i is the digits of w^i·g."""
    rows = [g]
    while len(rows) < D.shape[1]:
        rows.append(times_w[rows[-1]])
    return _linear(D, D[rows], p)


def _cycle(step):
    """1, step[1], step[step[1]], … up to the walk's return to 1."""
    step, out, a = step.tolist(), [1], int(step[1])
    while a != 1:
        out.append(a)
        a = step[a]
    return out


def _find_modulus(p, e):
    """``(f, D, a ↦ a·w, the walk 1, w, w², …)``: the smallest-encoded monic
    irreducible f of degree e over GF(p) and the float32 digits D of every
    scalar (at e = 1, f = t and no walk).  By Rabin's test on the walk, which
    returns to 1 as f(0) ≠ 0 (w^k is entry k mod its length): w^q = w and,
    for every prime l | e, a ↦ a·h is injective for h = w^(p^(e/l)) − w."""
    q, w = p ** e, p
    D = (np.arange(q)[:, None] // p ** np.arange(e) % p).astype(np.float32)
    if e == 1:
        return (0, 1), D, None, None
    primes = [l for l in range(2, e + 1) if e % l == 0 and _is_prime(l)]
    for f in D[1:]:
        if not f[0]:
            continue
        times_w = _times_w(D, f, p)
        walk = _cycle(times_w)

        def minus_w_is_unit(k):
            h = (D[walk[k % len(walk)]] - D[w]) % p @ p ** np.arange(e)
            return np.count_nonzero(_times(D, times_w, int(h), p) == 0) == 1

        if walk[q % len(walk)] == w and all(minus_w_is_unit(p ** (e // l)) for l in primes):
            return tuple(f.astype(int).tolist()) + (1,), D, times_w, walk
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
        self.modulus, D, times_w, walk = _find_modulus(p, e)
        self._build_tables(D, times_w, walk)
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

    def _build_tables(self, Df, times_w, walk):
        """NEG, ADD, MUL and INV in int16 (see the module docstring), from
        the modulus search's digits, map a ↦ a·w and walk of w."""
        p, e, q = self.p, self.e, self.q
        place = p ** np.arange(e)
        D = self._digits = Df.astype(_INT)
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

        # the generator g is the first from w = p on (from 1 at e = 1, where
        # w = 0) whose walk takes q - 1 steps: a constant's order divides p - 1
        walks = (walk if g == p else _cycle(_times(Df, times_w, g, p))
                 for g in range(p if e > 1 else 1, q))
        exp = next(cycle for cycle in walks if len(cycle) == q - 1)

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


def randbelow(rng, n, count):
    """``[rng.randrange(n) for _ in range(count)]`` as an index array, with
    ``rng`` left in the same state; 1 <= n < 2^32.

    ``randrange(n)`` keeps the top k = n.bit_length() bits of the
    generator's next 32-bit word and draws again while that is >= n, so
    its stream is the accepted words in order.  One ``getrandbits(32·need)``
    call returns the next ``need`` words, little-endian; values >= n are
    dropped and exactly the shortfall is drawn again, so no word past the
    last accepted one is taken."""
    k = n.bit_length()
    if not 1 <= k <= 32:
        raise ValueError(f"randbelow needs 1 <= n < 2^32, got {n}")
    parts, need = [np.zeros(0, dtype=np.intp)], count
    while need:
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"),
                              dtype="<u4") >> (32 - k)
        parts.append(words[words < n].astype(np.intp))
        need -= len(parts[-1])
    return np.concatenate(parts)
