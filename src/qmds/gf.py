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
discrete logs.
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


def _mul_by_x(v: int, p: int, m: int, low: int) -> int:
    """v(x) * x mod (x^m + low(x)), elements packed base p."""
    lead = v // p ** (m - 1)
    v = (v - lead * p ** (m - 1)) * p
    if lead:
        red = 0
        shift = 1
        t = low
        while t:
            t, d = divmod(t, p)
            red += ((d * lead) % p) * shift
            shift *= p
        v = _digit_add(v, _digit_neg(red, p), p)
    return v


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


def _mulmod(a: list[int], b: list[int], p: int, low: list[int]) -> list[int]:
    """a * b mod x^m + low(x), as coefficient lists of length m, lowest first."""
    m = len(a)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i] % p
        if c:
            # x**i = x**(i-m) * x**m and x**m = -low(x)
            for j, y in enumerate(low):
                prod[i - m + j] -= c * y
    return [v % p for v in prod[:m]]


def _x_power(p: int, m: int, low: int, e: int) -> list[int]:
    """x**e mod x^m + low(x) by square-and-multiply, as a coefficient list."""
    lows = _digits(low, p, m)
    # for m == 1, x reduces to the constant -low
    base = [(p - low) % p] if m == 1 else [0, 1] + [0] * (m - 2)
    acc = [1] + [0] * (m - 1)
    while e:
        if e & 1:
            acc = _mulmod(acc, base, p, lows)
        base = _mulmod(base, base, p, lows)
        e >>= 1
    return acc


def _x_generates(p: int, m: int, low: int) -> bool:
    """True when x has multiplicative order exactly p**m - 1 mod x^m + low.

    That holds exactly when x**(q-1) = 1 and x**((q-1)/l) != 1 for every
    prime l dividing q - 1.  When x divides the modulus (low has no constant
    term, m > 1) x is no unit, so no power of it is 1.
    """
    q = p**m
    if m > 1 and low % p == 0:
        return False
    one = [1] + [0] * (m - 1)
    if _x_power(p, m, low, q - 1) != one:
        return False
    return all(
        _x_power(p, m, low, (q - 1) // r) != one for r, _ in _prime_power_parts(q - 1)
    )


def _maximal_proper_divisors(m: int) -> list[int]:
    return sorted(m // r for r, _ in _prime_power_parts(m))


def _norm_compatible(p: int, m: int, low: int) -> bool:
    """True when x**((p**m-1)/(p**d-1)) is a root of every maximal subfield
    modulus.

    With such moduli, the embedding of any subfield GF(p**d) sends its
    generator to the big generator raised to (p**m-1)/(p**d-1), so every
    embedding multiplies discrete logs by that ratio and embeddings compose
    through any intermediate field.  The maximal subfields suffice: their
    own moduli are norm compatible in turn.
    """
    lows = _digits(low, p, m)
    for d in _maximal_proper_divisors(m):
        root = _x_power(p, m, low, (p**m - 1) // (p**d - 1))
        acc = [0] * m
        power = [1] + [0] * (m - 1)
        for coeff in build_field(p, d).modulus:
            acc = [(a + coeff * b) % p for a, b in zip(acc, power)]
            power = _mulmod(power, root, p, lows)
        if any(acc):
            return False
    return True


@functools.lru_cache(maxsize=None)
def _find_modulus_low(p: int, m: int) -> int:
    for low in range(p**m):
        if _x_generates(p, m, low) and _norm_compatible(p, m, low):
            return low
    raise Contradiction(f"no primitive modulus found for GF({p}**{m})")


class FieldTable:
    """One finite field: exp/log tables plus scalar arithmetic."""

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.q = p**m
        low = _find_modulus_low(p, m)
        # modulus coefficients, constant term first, monic leading 1
        self.modulus = tuple(_digits(low, p, m)) + (1,)
        q = self.q
        exp = [0] * max(2 * (q - 1), 2)
        log = [-1] * q
        # for m == 1, x reduces to the constant -low: powers of g = -low mod p
        v = 1
        for i in range(q - 1):
            exp[i] = v
            exp[i + q - 1] = v
            log[v] = i
            v = _mul_by_x(v, p, m, low)
        if v != 1:
            raise Contradiction(f"exp table for GF({q}) did not close")
        self.exp_table = tuple(exp)
        self.log_table = tuple(log)
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
