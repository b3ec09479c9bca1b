"""Exact arithmetic in small finite fields.

An element of GF(p**m) is a plain int in [0, p**m): its base-p digits are the
coefficients of the residue polynomial, lowest degree first.  Field
multiplication runs on exp/log tables built once per field, so everything is
integer arithmetic end to end.

The defining modulus of GF(p**m) is the first monic degree-m polynomial, in
ascending integer encoding, whose powers of x run through the whole
multiplicative group and which is norm compatible with the subfield moduli.
That pins down one canonical table per order, makes the element x (the int p)
a generator whenever m > 1, and makes every subfield embedding a scaling of
discrete logs.  The search screens the constant term and the roots in GF(p)
first, then tests a batch of candidates per numpy operation; the exp table
is built by doubling, one matrix product per power of two.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    Contradiction,
    NotASubfield,
    NotGaloisStable,
    NotInSubfield,
    NotPrime,
    NotQuadraticTower,
    TooLarge,
    UnsupportedAlphabet,
)

MAX_FIELD_ORDER = 1 << 16
MAX_TABLE_ORDER = 256


def _digits(x: int, p: int, m: int) -> list[int]:
    return [x // p**i % p for i in range(m)]


def _digit_add(a: int, b: int, p: int) -> int:
    out = 0
    shift = 1
    while a or b:
        a, ra = divmod(a, p)
        b, rb = divmod(b, p)
        out += ((ra + rb) % p) * shift
        shift *= p
    return out


def _digit_neg(a: int, p: int) -> int:
    out = 0
    shift = 1
    while a:
        a, ra = divmod(a, p)
        out += ((p - ra) % p) * shift
        shift *= p
    return out


def _prime_power_parts(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n by trial division, primes ascending;
    empty for n < 2."""
    parts = []
    r = 2
    while r * r <= n:
        if n % r == 0:
            a = 0
            while n % r == 0:
                n //= r
                a += 1
            parts.append((r, a))
        r += 1
    if n > 1:
        parts.append((n, 1))
    return parts


# candidates per batch: one batch holds the modulus of every order up to
# 4096, and a batch's arrays for GF(2**16) stay near 100 KB
MODULUS_BATCH = 128


def _x_powers_below_2m(lows: np.ndarray, p: int) -> np.ndarray:
    """x**s mod x^m + low(x) for s < 2m, one stack per row of lows (base-p
    digits, lowest first): shape (n, 2m, m).  Rows 1..m of a stack are the
    matrix of multiplication by x, on row vectors.  The dtype is the
    smallest that holds a sum of 2m products of coefficients."""
    n, m = lows.shape
    out = np.zeros((n, 2 * m, m), np.min_scalar_type(2 * m * p * p))
    out[:, np.arange(m), np.arange(m)] = 1
    fold = (p - lows) % p  # x**m = -low(x)
    for s in range(m, 2 * m):
        out[:, s, 1:] = out[:, s - 1, :-1]
        out[:, s] = (out[:, s] + out[:, s - 1, -1:] * fold) % p
    return out


def _mul_rows(a: np.ndarray, b: np.ndarray, powers: np.ndarray, p: int) -> np.ndarray:
    """a * b row by row, each row modulo its own x^m + low(x); powers is
    _x_powers_below_2m of the lows."""
    n, m = a.shape
    # row i of the padded grid, read back at stride 2m, sits i places to the
    # right, so summing the rows convolves a with b (whose x**(2m-1) is 0)
    grid = np.zeros((n, m, 2 * m + 1), a.dtype)
    np.multiply(a[:, :, None], b[:, None, :], out=grid[:, :, :m])
    conv = grid.reshape(n, m * (2 * m + 1))[:, : 2 * m * m].reshape(n, m, 2 * m)
    return np.matmul(conv.sum(axis=1, dtype=a.dtype)[:, None] % p, powers)[:, 0] % p


@functools.lru_cache(maxsize=None)
def _find_modulus_low(p: int, m: int) -> int:
    """The first low, ascending, for which x is primitive and norm
    compatible modulo x^m + low(x).

    x is primitive when x**(q-1) = 1 and x**((q-1)/r) != 1 for every prime r
    dividing q - 1.  x is norm compatible when x**((q-1)/(p**d-1)) is a root
    of the GF(p**d) modulus for every maximal proper divisor d of m, whose
    own modulus is compatible in turn: then every subfield embedding is a
    scaling of discrete logs, and embeddings compose.

    Two screens drop candidates this excludes before any power of x is
    taken.  Down at GF(p), compatibility says the norm of x, (-1)**m *
    low(0), is GF(p)'s generator -low_1, which fixes the constant term; and
    for m > 1 a root in GF(p) makes the modulus reducible.  The remaining
    tests run on a whole batch per array operation, as powers of x built
    from the squares x**(2**k); each sees only the rows that passed so far.
    """
    q = p**m
    # x**e must (False: must not) be a root of the monic polynomial whose
    # coefficients below the leading 1 are listed; z - 1 has [p - 1]
    checks = [(q - 1, [p - 1], True)]
    checks += [((q - 1) // r, [p - 1], False) for r, _ in _prime_power_parts(q - 1)]
    for d in (m // r for r, _ in _prime_power_parts(m)):
        checks.append(((q - 1) // (p**d - 1), _digits(_find_modulus_low(p, d), p, d), True))
    first, stride = (0, 1) if m == 1 else ((-1) ** (m + 1) * _find_modulus_low(p, 1) % p, p)
    vander = np.arange(p)[:, None] ** np.arange(m + 1) % p if m > 1 else None
    for start in range(0, q // stride, MODULUS_BATCH):
        low = first + stride * np.arange(start, min(start + MODULUS_BATCH, q // stride))
        if m > 1:  # f(a) != 0 for every a in GF(p)
            digits = low[:, None] // p ** np.arange(m) % p
            low = low[((digits @ vander[:, :m].T + vander[:, m]) % p).all(axis=1)]
        powers = _x_powers_below_2m(low[:, None] // p ** np.arange(m) % p, p)
        squares = [powers[:, 1]]
        for _ in range((q - 1).bit_length() - 1):
            squares.append(_mul_rows(squares[-1], squares[-1], powers, p))
        squares = np.stack(squares, axis=1)
        for e, coeffs, root in checks:
            bits = [k for k in range(e.bit_length()) if e >> k & 1]
            v = squares[:, bits[0]]
            for k in bits[1:]:
                v = _mul_rows(v, squares[:, k], powers, p)
            acc = (v + coeffs[-1] * np.eye(1, m, dtype=v.dtype)) % p  # Horner
            for c in reversed(coeffs[:-1]):
                acc = _mul_rows(acc, v, powers, p)
                acc[:, 0] = (acc[:, 0] + c) % p
            keep = acc.any(axis=1) != root
            low, powers, squares = low[keep], powers[keep], squares[keep]
        if len(low):
            return int(low[0])
    raise Contradiction(f"no primitive modulus found for GF({p}**{m})")


def _powers_of_x(p: int, m: int, low: tuple[int, ...]) -> np.ndarray:
    """x**0 .. x**(p**m - 1) modulo x^m + low(x), as elements.

    Doubling: with the first n powers in hand, the next n are those rows
    times x**n, one product by the matrix of multiplication by x**n, which
    is squared for the next round.  For m == 1, x reduces to the constant
    -low, so these are the powers of g = -low mod p.
    """
    q = p**m
    step = _x_powers_below_2m(np.array([low]), p)[0, 1 : m + 1]
    rows = np.zeros((q, m), step.dtype)
    rows[0, 0] = n = 1
    while n < q:
        take = min(n, q - n)
        rows[n : n + take] = rows[:take] @ step % p
        step = step @ step % p
        n += take
    return rows @ p ** np.arange(m, dtype=np.uint32)


class FieldTable:
    """One finite field: exp/log tables plus scalar arithmetic."""

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.q = q = p**m
        # modulus coefficients, constant term first, monic leading 1
        self.modulus = tuple(_digits(_find_modulus_low(p, m), p, m)) + (1,)
        exp = _powers_of_x(p, m, self.modulus[:-1])
        log = np.full(q, -1, np.int32)
        log[exp[:-1]] = np.arange(q - 1)
        if exp[-1] != 1 or (log[exp[:-1]] != np.arange(q - 1)).any():
            raise Contradiction(f"exp table for GF({q}) did not close")
        self.exp_table = tuple(exp[:-1].tolist()) * 2
        self.log_table = tuple(log.tolist())
        self.generator = self.exp_table[1] if q > 2 else 1
        self._np = None

    def __repr__(self):
        return f"GF({self.q})"

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return _digit_add(a, b, self.p)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (self.p - a) % self.p
        return _digit_neg(a, self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_table[self.log_table[a] + self.log_table[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp_table[self.q - 1 - self.log_table[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self.exp_table[(self.log_table[a] * e) % (self.q - 1)]

    def np_tables(self) -> SimpleNamespace:
        """Dense uint8 tables for vectorized kernels: add, sub, mul, neg, inv
        (inv[0] = 0) and digits, row a the base-p digits of a, lowest first."""
        if self._np is None:
            if self.q > MAX_TABLE_ORDER:
                raise TooLarge(
                    f"vectorized tables support order <= {MAX_TABLE_ORDER}, got {self.q}"
                )
            p, q = self.p, self.q
            xs = p ** np.arange(self.m)
            digits = np.arange(q)[:, None] // xs % p
            add = ((digits[:, None] + digits) % p) @ xs
            neg = (-digits % p) @ xs
            exp = np.array(self.exp_table)
            # log 0 is read as 0, then the zero row and column are cleared
            log = np.maximum(self.log_table, 0)
            mul = exp[log[:, None] + log]
            mul[0] = mul[:, 0] = 0
            inv = (mul == 1).argmax(axis=1)  # row 0 holds no 1: inv[0] = 0
            tables = dict(add=add, sub=add[:, neg], mul=mul, neg=neg, inv=inv, digits=digits)
            self._np = SimpleNamespace(**{k: v.astype(np.uint8) for k, v in tables.items()})
        return self._np


def _spot_check(f: FieldTable) -> None:
    q = f.q
    picks = sorted({1, f.generator, q - 1, (q // 2) or 1, f.exp_table[(q - 1) // 2]})
    for a in picks:
        if f.mul(a, f.inv(a)) != 1:
            raise Contradiction(f"inverse check failed in GF({q})")
        for b in picks:
            for c in picks:
                left = f.mul(a, f.add(b, c))
                right = f.add(f.mul(a, b), f.mul(a, c))
                if left != right:
                    raise Contradiction(f"distributivity check failed in GF({q})")
                if f.mul(f.mul(a, b), c) != f.mul(a, f.mul(b, c)):
                    raise Contradiction(f"associativity check failed in GF({q})")


@functools.lru_cache(maxsize=None)
def build_field(p: int, m: int = 1) -> FieldTable:
    # a p or m past the size cap is refused without trial division or p**m
    if p <= MAX_FIELD_ORDER and _prime_power_parts(p) != [(p, 1)]:
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise TooLarge(f"extension degree must be positive, got {m}")
    if p > MAX_FIELD_ORDER or m >= MAX_FIELD_ORDER.bit_length() or p**m > MAX_FIELD_ORDER:
        raise TooLarge(f"field order {p}**{m} exceeds {MAX_FIELD_ORDER}")
    f = FieldTable(p, m)
    _spot_check(f)
    return f


def field_for_order(q: int) -> FieldTable:
    """The canonical field with exactly q elements."""
    if q < 2:
        raise UnsupportedAlphabet(f"no field of order {q}")
    if q > MAX_FIELD_ORDER:
        raise TooLarge(f"field order {q} exceeds {MAX_FIELD_ORDER}")
    parts = _prime_power_parts(q)
    if len(parts) > 1:
        raise UnsupportedAlphabet(f"{q} is not a prime power")
    return build_field(*parts[0])


def subfield_order(field: FieldTable) -> int:
    """q such that the field is GF(q**2)."""
    if field.m % 2:
        raise NotQuadraticTower(f"GF({field.q}) is not a quadratic extension")
    return field.p ** (field.m // 2)


def conjugate(field: FieldTable, a: int) -> int:
    """Frobenius a -> a**q over GF(q**2)."""
    q0 = subfield_order(field)
    if a == 0:
        return 0
    return field.exp_table[(field.log_table[a] * q0) % (field.q - 1)]


@functools.lru_cache(maxsize=None)
def conjugate_table(field: FieldTable) -> np.ndarray:
    """conjugate as a read-only uint8 table, entry a holding a**q: one gather
    conjugates a whole matrix."""
    table = np.array([conjugate(field, a) for a in range(field.q)], dtype=np.uint8)
    table.setflags(write=False)
    return table


def norm(field: FieldTable, a: int) -> int:
    """a -> a**(q+1), mapping GF(q**2) onto its index-2 subfield."""
    q0 = subfield_order(field)
    if a == 0:
        return 0
    return field.exp_table[(field.log_table[a] * (q0 + 1)) % (field.q - 1)]


def norm_preimage(field: FieldTable, a: int) -> int:
    """Some y with norm(y) = a, choosing the smallest discrete log.

    The argument is an element of GF(q**2) that must lie in the subfield
    image; passing anything outside raises NotInSubfield.
    """
    q0 = subfield_order(field)
    if a == 0:
        return 0
    ell = field.log_table[a]
    if ell % (q0 + 1):
        raise NotInSubfield(f"element {a} is not in the norm image")
    return field.exp_table[ell // (q0 + 1)]


@dataclass(frozen=True)
class SubfieldEmbedding:
    """The canonical embedding of one field table into a larger one: it
    multiplies discrete logs by ratio."""

    small: FieldTable
    big: FieldTable

    @property
    def ratio(self) -> int:
        return (self.big.q - 1) // (self.small.q - 1)

    def map(self, a: int) -> int:
        if a == 0:
            return 0
        return self.big.exp_table[self.ratio * self.small.log_table[a]]

    def contains(self, b: int) -> bool:
        return b == 0 or self.big.log_table[b] % self.ratio == 0

    def section(self, b: int) -> int:
        """Inverse of map; raises NotInSubfield off the image."""
        if b == 0:
            return 0
        lb = self.big.log_table[b]
        if lb % self.ratio:
            raise NotInSubfield(f"element {b} is outside the embedded subfield")
        return self.small.exp_table[lb // self.ratio]

    def coords2(self, b: int) -> tuple[int, int]:
        """Split b = c0 + c1*theta over the subfield, theta the big generator.

        Only defined when the big field is a quadratic extension of the small
        one; the pair (c0, c1) consists of small-field elements.
        """
        big, small = self.big, self.small
        if big.m != 2 * small.m:
            raise NotQuadraticTower(
                f"GF({big.q}) is not quadratic over GF({small.q})"
            )
        q0 = small.q
        theta = big.generator
        bq = big.pow(b, q0)
        thq = big.pow(theta, q0)
        c1 = big.div(big.sub(b, bq), big.sub(theta, thq))
        c0 = big.sub(b, big.mul(c1, theta))
        return self.section(c0), self.section(c1)

    @functools.cached_property
    def coords2_table(self) -> np.ndarray:
        """coords2 of every element of the big field at once: a read-only
        uint8 (big.q, 2) table whose row b is (c0, c1).

        Built backwards, with Python work per small element only: every
        pair (c0, c1) of small elements is sent to map(c0) + map(c1)*theta,
        which hits each big element exactly once when the tower is
        quadratic.
        """
        big, small = self.big, self.small
        if big.m != 2 * small.m:
            raise NotQuadraticTower(
                f"GF({big.q}) is not quadratic over GF({small.q})"
            )
        c1, c0 = np.divmod(np.arange(big.q), small.q)
        img = np.array([self.map(x) for x in range(small.q)])
        b = _sum_grid(big, img[c0], _product_grid(big, img[c1], np.int64(big.generator)))
        if (np.bincount(b, minlength=big.q) != 1).any():
            raise Contradiction("c0 + c1*theta does not cover the big field once")
        table = np.empty((big.q, 2), dtype=np.uint8)
        table[b] = np.column_stack((c0, c1))
        table.setflags(write=False)
        return table


@functools.lru_cache(maxsize=None)
def embed(small: FieldTable, big: FieldTable) -> SubfieldEmbedding:
    """Canonical embedding GF(p**a) -> GF(p**b) for a | b.

    The small generator g maps to G**ratio, G the big generator and
    ratio = (p**b - 1) / (p**a - 1): the moduli are norm compatible, so that
    power is a root of the small modulus, the one with the smallest discrete
    log.  The grid check below guards that invariant.
    """
    if small.p != big.p or big.m % small.m:
        raise NotASubfield(f"GF({small.q}) does not embed in GF({big.q})")
    emb = SubfieldEmbedding(small, big)
    limit = small.q if small.q <= 81 else 16
    a, b = np.arange(limit)[:, None], np.arange(limit)
    sums, prods = _sum_grid(small, a, b), _product_grid(small, a, b)
    needed = np.zeros(small.q, dtype=bool)
    needed[b] = needed[sums] = needed[prods] = True
    img = np.zeros(small.q, dtype=np.int64)
    img[needed] = [emb.map(x) for x in np.flatnonzero(needed).tolist()]
    if (img[sums] != _sum_grid(big, img[a], img[b])).any():
        raise Contradiction("embedding is not additive")
    # products compare as big-field logs (-1 for zero), so no big table is
    # converted: a product of images has log (log a + log b) mod (Q - 1)
    log = np.array([big.log_table[v] for v in img.tolist()])
    want = np.where((log[a] < 0) | (log[b] < 0), -1, (log[a] + log[b]) % (big.q - 1))
    if (log[prods] != want).any():
        raise Contradiction("embedding is not multiplicative")
    return emb


def _sum_grid(field: FieldTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b for broadcasting int arrays of elements, digit-wise mod p: the
    digit of a at p**i is a // p**i mod p."""
    p = field.p
    xs = p ** np.arange(field.m)
    return ((a[..., None] // xs + b[..., None] // xs) % p) @ xs


def _product_grid(field: FieldTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for broadcasting int arrays of elements, by the exp/log tables
    as arrays."""
    exp, log = np.array(field.exp_table), np.array(field.log_table)
    return np.where((a == 0) | (b == 0), 0, exp[log[a] + log[b]])


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial over one field, constant term first."""

    field: FieldTable
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def poly_from_roots(big: FieldTable, roots, target: SubfieldEmbedding) -> Polynomial:
    """Expand prod (z - r) over the big field and descend to target.small.

    Raises NotGaloisStable when some expanded coefficient falls outside the
    embedded subfield, i.e. the root multiset is not closed under the right
    Galois action.
    """
    if target.big is not big:
        raise NotASubfield("target embedding does not land in the root field")
    coeffs = [1]
    for r in roots:
        nr = big.neg(r)
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = big.add(nxt[i], big.mul(c, nr))
            nxt[i + 1] = big.add(nxt[i + 1], c)
        coeffs = nxt
    if not all(target.contains(c) for c in coeffs):
        raise NotGaloisStable("coefficient escapes the subfield")
    return Polynomial(target.small, tuple(target.section(c) for c in coeffs))
