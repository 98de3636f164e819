"""Exact arithmetic in Z[alpha], alpha = 2cos(2pi/n): the algebraic integers
in which the tour models' pencils have their entries.

alpha is a root of an integer monic polynomial psi_n of degree phi(n)/2
(Watkins & Zeitlin, Amer. Math. Monthly 1993), built here exactly from the
cyclotomic polynomial Phi_n, since z^(-m) Phi_n(z) = psi_n(z + 1/z) with
2m = phi(n).  An element is the tuple of its ints over 1, alpha, ...,
alpha^(d-1), multiplied modulo psi_n.  Fraction-free (Bareiss) elimination
is exact in any integral domain, so `linalg.is_psd_exact` decides a pencil
over this ring as it stands: it needs `*`, `+`, `-`, the exact `//` of a
Bareiss step, and signs.

A `CosInt` is immutable and hashable and always has an alpha part: an
element with none is the int it is (`cosint`), so at n = 3, 4 and 6, where
alpha is an int (Niven), the ring is Z itself.  Signs are exact: a float
evaluation when it is clear of its error bound, else a bisection of an
isolating interval of alpha, in ints.  Zero is exactly the int 0.
"""

import functools
import math
import operator

from .linalg import eliminate


def _primes(n):
    """The prime factors of n, each once."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def degree(n):
    """phi(n) / 2, the degree of Z[2cos(2pi/n)] over Z, for an int n >= 3."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 3:
        raise ValueError(f"Z[2cos(2pi/n)] needs an integer n >= 3, got {n!r}")
    phi = n
    for p in _primes(n):
        phi = phi // p * (p - 1)
    return phi // 2


def _cyclotomic(n):
    """Phi_n, lowest coefficient first: the product of (z^k - 1)^mu(n/k) over k | n."""
    poly, divisors = [1], []
    for k in range(1, n + 1):
        primes = _primes(n // k) if n % k == 0 else None
        if primes is not None and all((n // k) % (p * p) for p in primes):  # mu(n/k) != 0
            if len(primes) % 2:
                divisors.append(k)
            else:  # times z^k - 1
                poly = [a - b for a, b in zip([0] * k + poly, poly + [0] * k)]
    for k in divisors:  # the quotient q by z^k - 1, from poly[i] = q[i - k] - q[i]
        q = []
        for i in range(len(poly) - k):
            q.append((q[i - k] if i >= k else 0) - poly[i])
        poly = q
    return poly


@functools.lru_cache(maxsize=None)
def minimal_polynomial(n):
    """psi_n, the minimal polynomial of 2cos(2pi/n), as its ints from the
    constant up (monic, of degree phi(n)/2), for an int n >= 3."""
    degree(n)  # refuses any other n
    phi = _cyclotomic(n)
    m = len(phi) // 2
    # z^(-m) Phi_n = phi[m] + sum_k phi[m + k] D_k(z + 1/z), where the Dickson
    # polynomials D_0 = 2, D_1 = x, D_(k+1) = x D_k - D_(k-1) give z^k + z^-k
    psi = [phi[m]] + [0] * m
    prev, cur = [2, 0], [0, 1]
    for k in range(1, m + 1):
        for i, c in enumerate(cur):
            psi[i] += phi[m + k] * c
        prev, cur = cur, [a - b for a, b in zip([0] + cur, prev + [0, 0])]
    return tuple(psi)


def _scaled(coeffs, num, k):
    """a(num / 2^k) * 2^(k (len - 1)) for a = coeffs, in ints."""
    top = len(coeffs) - 1
    return sum(c * num**i << k * (top - i) for i, c in enumerate(coeffs))


class _Ring:
    """The tables of one Z[alpha] of degree d >= 2: psi_n; alpha^d, ...,
    alpha^(2d-2) over the basis; the float powers of alpha; and an isolating
    interval [lo, hi] / 2^k of alpha, which the exact sign test narrows."""

    def __init__(self, n):
        psi = minimal_polynomial(n)
        d = len(psi) - 1
        self.n, self.degree, self.psi = n, d, psi
        self.wrap = [[-c for c in psi[:d]]]  # alpha^d
        while len(self.wrap) < d - 1:  # alpha times the last row
            row = self.wrap[-1]
            self.wrap.append([a - row[-1] * c for a, c in zip([0] + row[:-1], psi)])
        x = 2.0 * math.cos(2.0 * math.pi / n)
        self.powers = [x**i for i in range(d)]
        # the next root of psi_n below alpha is 2cos(2pi j/n), j the least unit
        # mod n above 1: start halfway to it, far wider than the float error,
        # and end at 2 at most, where the sign test bounds a's slope
        j = next(j for j in range(2, n) if math.gcd(j, n) == 1)
        below = 2.0 * math.cos(2.0 * math.pi * j / n)
        k = 3 - math.frexp(x - below)[1]
        lo, hi = math.floor((x + below) / 2 * 2**k), min(math.ceil(x * 2**k) + 1, 2 << k)
        if not _scaled(psi, lo, k) < 0 < _scaled(psi, hi, k):
            raise ArithmeticError(f"no isolating interval of 2cos(2pi/{n})")
        self.interval = lo, hi, k

    def sign(self, coeffs):
        """The sign of a(alpha) = sum_i coeffs[i] alpha^i, never zero, since
        a has an alpha part and degree below psi_n's."""
        try:
            value = math.fsum(c * p for c, p in zip(coeffs, self.powers))
            # far above the rounding of alpha, of its powers and of the sum
            if abs(value) > 2.0**-36 * math.fsum(abs(c) * 2.0**i for i, c in enumerate(coeffs)):
                return 1 if value > 0 else -1
        except OverflowError:  # a coefficient past the float range
            pass
        return self.bisected_sign(coeffs)

    def bisected_sign(self, coeffs):
        """The sign of a(alpha), exactly: halve the isolating interval of alpha
        until |a(mid)| is more than a can move within it, the half width times
        a bound on |a'| over [-2, 2]."""
        lo, hi, k = self.interval
        slope = sum(i * abs(c) << (i - 1) for i, c in enumerate(coeffs) if i)
        while True:
            mid = lo + hi  # over 2^(k + 1)
            value = _scaled(coeffs, mid, k + 1)
            # |value| / 2^((k + 1)(d - 1)) > slope (hi - lo) / 2^(k + 1)
            if abs(value) > slope * (hi - lo) << (k + 1) * (self.degree - 2):
                self.interval = lo, hi, k
                return 1 if value > 0 else -1
            lo, hi, k = (2 * lo, mid, k + 1) if _scaled(self.psi, mid, k + 1) > 0 else (mid, 2 * hi, k + 1)


@functools.lru_cache(maxsize=None)
def _ring(n):
    return _Ring(n)


def cosint(n, coeffs):
    """sum_i coeffs[i] alpha^i in Z[2cos(2pi/n)]: an int when there is no
    alpha part, else a CosInt; ValueError unless there are phi(n)/2 ints."""
    coeffs = tuple(coeffs)
    if len(coeffs) != degree(n) or not all(type(c) is int for c in coeffs):
        raise ValueError(f"an element of Z[2cos(2pi/{n})] is {degree(n)} ints, got {list(coeffs)!r}")
    return CosInt(_ring(n), coeffs) if any(coeffs[1:]) else coeffs[0]


def alpha(n):
    """2cos(2pi/n), exactly: an int at n = 3, 4 and 6, else a CosInt."""
    return -minimal_polynomial(n)[0] if degree(n) == 1 else cosint(n, (0, 1) + (0,) * (degree(n) - 2))


def _times(ring, a, b):
    """The coefficients of a * b, for coefficient tuples a and b of `ring`."""
    d = ring.degree
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    out = prod[:d]
    for top, row in zip(prod[d:], ring.wrap):
        if top:
            out = [x + top * w for x, w in zip(out, row)]
    return out


def _comparison(op):
    def compare(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else op(s, 0)
    return compare


class CosInt:
    """An element of Z[2cos(2pi/n)] with a nonzero alpha part (see the module
    docstring): `coeffs` are its ints over 1, alpha, ..., alpha^(d-1).  It
    mixes with ints, and `//` is the exact quotient, ArithmeticError when
    that is not in the ring."""

    __slots__ = ("ring", "coeffs", "_inverse")

    def __init__(self, ring, coeffs):
        self.ring, self.coeffs, self._inverse = ring, coeffs, None

    @property
    def n(self):
        return self.ring.n

    def __reduce__(self):
        return cosint, (self.ring.n, self.coeffs)

    def _of(self, other):
        """The coefficients of an int or of an element of this ring; None for
        any other type."""
        if type(other) is int:
            return (other,) + (0,) * (self.ring.degree - 1)
        if type(other) is CosInt:
            if other.ring.n != self.ring.n:
                raise ValueError(f"Z[2cos(2pi/{self.n})] and Z[2cos(2pi/{other.n})] do not mix")
            return other.coeffs
        return None

    def _new(self, coeffs):
        return CosInt(self.ring, tuple(coeffs)) if any(coeffs[1:]) else coeffs[0]

    def __add__(self, other):
        b = self._of(other)
        return NotImplemented if b is None else self._new([x + y for x, y in zip(self.coeffs, b)])

    __radd__ = __add__

    def __sub__(self, other):
        b = self._of(other)
        return NotImplemented if b is None else self._new([x - y for x, y in zip(self.coeffs, b)])

    def __rsub__(self, other):
        b = self._of(other)
        return NotImplemented if b is None else self._new([y - x for x, y in zip(self.coeffs, b)])

    def __neg__(self):
        return CosInt(self.ring, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if type(other) is int:
            return CosInt(self.ring, tuple(other * x for x in self.coeffs)) if other else 0
        b = self._of(other)
        return NotImplemented if b is None else self._new(_times(self.ring, self.coeffs, b))

    __rmul__ = __mul__

    def _divide(self, a):
        """The quotient of coefficients a by self.  Kept on self: D M^-1 and D,
        from one fraction-free reduction of [M | I], M the matrix of
        multiplication by self (column j: self * alpha^j)."""
        if self._inverse is None:
            d = self.ring.degree
            cols = [list(self.coeffs)]
            while len(cols) < d:
                cols.append(_times(self.ring, cols[-1], (0, 1)))
            rows = [[col[i] for col in cols] + [int(i == j) for j in range(d)] for i in range(d)]
            _, den = eliminate(rows, d)
            self._inverse = den, [row[d:] for row in rows]
        den, inverse = self._inverse
        q = []
        for row in inverse:
            num = sum(x * y for x, y in zip(row, a))
            if num % den:
                raise ArithmeticError(f"{self!r} does not divide {a} in Z[2cos(2pi/{self.n})]")
            q.append(num // den)
        return self._new(q)

    def __floordiv__(self, other):
        if type(other) is int:
            if any(x % other for x in self.coeffs):
                raise ArithmeticError(f"{other} does not divide {self!r}")
            return CosInt(self.ring, tuple(x // other for x in self.coeffs))
        return NotImplemented if self._of(other) is None else other._divide(self.coeffs)

    def __rfloordiv__(self, other):
        a = self._of(other)
        return NotImplemented if a is None else self._divide(a)

    def sign(self):
        """1 or -1: the sign of the real number this is."""
        return self.ring.sign(self.coeffs)

    def _cmp(self, other):
        """The sign of self - other; NotImplemented for a type that does not mix."""
        diff = self.__sub__(other)
        if type(diff) is CosInt:
            return diff.sign()
        return diff if diff is NotImplemented else (diff > 0) - (diff < 0)

    __lt__, __le__, __gt__, __ge__ = map(_comparison, (operator.lt, operator.le, operator.gt, operator.ge))

    def __eq__(self, other):
        if type(other) is not CosInt:
            return NotImplemented
        return self.ring.n == other.ring.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((CosInt, self.ring.n, self.coeffs))

    def __bool__(self):
        return True

    def __float__(self):
        return math.fsum(c * p for c, p in zip(self.coeffs, self.ring.powers))

    def __repr__(self):
        return f"cosint({self.ring.n}, {self.coeffs})"
