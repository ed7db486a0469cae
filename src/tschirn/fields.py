"""Exact scalar arithmetic: rationals, prime fields F_p, extensions GF(p^k).

Every computation in this package is exact.  Three kinds of scalars occur:

* ``Rat`` — arbitrary-precision rationals (``fractions.Fraction``), the base
  field for everything over Q.  Canonical form (reduced, positive
  denominator) is guaranteed by the class itself.
* ``FpElement`` — elements of a prime field F_p, p a machine-word prime.
* ``GFElement`` — elements of a small extension GF(p^k), k <= 6, represented
  as polynomials over F_p modulo a fixed irreducible modulus.  A product
  multiplies the two coefficient tuples as int polynomials, folds the
  degrees k..2k-2 back with the rows X^k..X^(2k-2) mod the modulus (a table
  each ``ExtField`` builds once) and reduces each coefficient mod p once;
  a power is square-and-multiply on such products; an inverse is one
  extended Euclidean run against the modulus in ``zpoly`` (von zur
  Gathen–Gerhard, *Modern Computer Algebra*, ch. 2 and 4).

Fields are lightweight descriptor objects (``QQ``, ``PrimeField(p)``,
``ExtField(p, k, modulus)``) that coerce integers via ``field(n)`` and expose
``zero``, ``one`` and ``char``.  All values are immutable.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import zpoly

Rat = Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class MathDomainError(ValueError):
    """A mathematical precondition failed (names the violated expression)."""


class Record:
    """Frozen record: its fields are the annotations of its class and bases.
    Records are equal, and hash alike, when of one class with equal fields."""

    def __init_subclass__(cls):
        cls._fields = names = getattr(cls, "_fields", ()) + tuple(cls.__annotations__)
        # __init__(self, <fields>) sets each field, then runs __post_init__;
        # generated once per class, it runs as fast as one written by hand
        sets = "".join(f"set(self, {n!r}, {n}); " for n in names)
        ns = {"set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(names)}): {sets}self.__post_init__()", ns)
        cls.__init__ = ns["__init__"]

    def __post_init__(self):
        """A subclass's checks, run once the fields are set."""

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self.as_tuple() == other.as_tuple() if same else NotImplemented

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r}")

    __delattr__ = __setattr__


def rat_parse(text: str) -> Rat:
    """Parse ``p`` or ``p/q`` into a canonical rational.

    >>> rat_parse("3/6")
    Fraction(1, 2)
    >>> rat_parse("-27")
    Fraction(-27, 1)
    >>> rat_parse("0/5")
    Fraction(0, 1)
    """
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"malformed rational {text!r}: expected p or p/q")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


# --------------------------------------------------------------------------
# Primality (deterministic Miller-Rabin; moduli stay below 2^62).
# --------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2^62 modulus cap."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --------------------------------------------------------------------------
# The rational field Q.
# --------------------------------------------------------------------------


class RationalField:
    """Descriptor for Q.  ``QQ(x)`` coerces ints/Fractions to Fraction."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, x) -> Rat:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")


QQ = RationalField()


def field_of(x):
    """The field descriptor an element belongs to (Q for int/Fraction)."""
    if isinstance(x, (int, Fraction)):
        return QQ
    return x.field


# --------------------------------------------------------------------------
# Prime fields F_p.
# --------------------------------------------------------------------------


class PrimeField:
    """The field F_p for a machine-word prime p (checked at construction)."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int):
        if p >= 1 << 62:
            raise ValueError(f"modulus {p} exceeds the machine-word cap 2^62")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.zero = FpElement(self, 0)
        self.one = FpElement(self, 1)

    @property
    def char(self) -> int:
        return self.p

    def __call__(self, x) -> "FpElement":
        if isinstance(x, FpElement):
            if x.field.p != self.p:
                raise TypeError(f"element of F_{x.field.p} used in F_{self.p}")
            return x
        if isinstance(x, int):
            return FpElement(self, x % self.p)
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def elements(self):
        """Iterate all p elements (small fields only; used by exhaustive tests)."""
        return (FpElement(self, v) for v in range(self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))


class _Element:
    """The operators that F_p and GF(p^k) elements share.  A subclass
    gives ``field``, ``+``, ``-``, ``*``, unary ``-``, ``inverse``, ``_pow``
    for n >= 0 and ``_key``, which names the value and its field."""

    __slots__ = ()

    def _lift(self, other):
        if isinstance(other, _Element):
            if other.field is not self.field and other.field != self.field:
                raise TypeError("elements of different fields mixed")
            return other
        if isinstance(other, int):
            return self.field(other)
        return NotImplemented

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else o - self

    def __truediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else o * self.inverse()

    def __pow__(self, n: int):
        return self.inverse()._pow(-n) if n < 0 else self._pow(n)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.field(other)
        return isinstance(other, _Element) and other._key() == self._key()

    def __hash__(self) -> int:
        return hash(self._key())


class FpElement(_Element):
    """An element of F_p.  Arithmetic accepts plain ints on either side."""

    __slots__ = ("field", "val")

    def __init__(self, field: PrimeField, val: int):
        self.field = field
        self.val = val % field.p

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.val + o.val)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.val - o.val)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.val * o.val)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(self.field, -self.val)

    def inverse(self) -> "FpElement":
        if self.val == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.field.p}")
        return FpElement(self.field, pow(self.val, -1, self.field.p))

    def _pow(self, n: int):
        return FpElement(self.field, pow(self.val, n, self.field.p))

    def _key(self):
        return ("Fp", self.field.p, self.val)

    def __bool__(self) -> bool:
        return self.val != 0

    def __repr__(self) -> str:
        return f"{self.val}"


# --------------------------------------------------------------------------
# Small extension fields GF(p^k).
#
# Elements are polynomials over F_p of degree < k modulo a monic irreducible
# modulus, stored as int tuples (ascending powers, length exactly k).
# --------------------------------------------------------------------------


def _irreducible_mod_p(f, p) -> bool:
    """Monic f of degree k >= 1 over F_p is irreducible iff its first
    distinct-degree part is all of f; this holds for f not squarefree too,
    as a repeated factor has degree <= k/2 and is found before degree k."""
    return zpoly.distinct_degree(f, p)[0][1] == len(f) - 1


class ExtField:
    """GF(p^k) as F_p[X] modulo a monic irreducible of degree k (k <= 6).

    ``_fold`` holds X^k..X^(2k-2) reduced mod the modulus, the rows that a
    product folds its high degrees back with.  In GF(7^3) with modulus
    X^3 + 3X^2 + 3X + 3, X^3 = 4 + 4X + 4X^2 and X^4 = 2 + 6X + 6X^2:

    >>> K = ExtField(7, 3, (3, 3, 3, 1))
    >>> K._fold
    ((4, 4, 4), (2, 6, 6))
    >>> x = K.gen()
    >>> x * x * x, x**4, (x + 1) * (x * x + 2)
    ([4,4,4], [2,6,6], [6,6,5])
    >>> x**(7**3 - 1) == K.one, x**-1 * x == K.one
    (True, True)
    """

    __slots__ = ("p", "k", "modulus", "zero", "one", "_fold")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if not 1 <= k <= 6:
            raise ValueError(f"extension degree {k} outside 1..6")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _irreducible_mod_p(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.modulus = modulus
        self._fold = tuple(
            self._padded(zpoly.divmod_mod([0] * d + [1], modulus, p)[1])
            for d in range(k, 2 * k - 1)
        )
        self.zero = GFElement(self, (0,) * k)
        self.one = GFElement(self, (1,) + (0,) * (k - 1))

    @property
    def char(self) -> int:
        return self.p

    def __call__(self, x) -> "GFElement":
        if isinstance(x, GFElement):
            if x.field is not self and (x.field.p, x.field.k, x.field.modulus) != (
                self.p,
                self.k,
                self.modulus,
            ):
                raise TypeError("element of a different extension field")
            return x
        if isinstance(x, int):
            coeffs = [x % self.p] + [0] * (self.k - 1)
            return GFElement(self, tuple(coeffs))
        if isinstance(x, (list, tuple)):
            r = zpoly.divmod_mod(zpoly.mod(x, self.p), self.modulus, self.p)[1]
            return GFElement(self, self._padded(r))
        raise TypeError(f"cannot coerce {x!r} into GF({self.p}^{self.k})")

    def _padded(self, r) -> tuple:
        """A reduced coefficient list of length at most k as a k-tuple."""
        return tuple(r) + (0,) * (self.k - len(r))

    def _mul(self, a: tuple, b: tuple) -> tuple:
        """The k-tuple of a·b: the schoolbook product on ints, its degrees
        k..2k-2 folded back by the rows X^k..X^(2k-2) mod the modulus, and
        one reduction mod p per output coefficient."""
        k = self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    prod[j] += ai * bj
        out = prod[:k]
        for d, row in zip(prod[k:], self._fold):
            if d:
                for j in range(k):
                    out[j] += d * row[j]
        p = self.p
        return tuple([c % p for c in out])

    def gen(self) -> "GFElement":
        """The class of X, a generator of the F_p-algebra (-c for modulus X + c)."""
        return self([0, 1])

    def order(self) -> int:
        return self.p**self.k

    def elements(self):
        """Iterate all p^k elements in base-p counter order."""
        for j in range(self.order()):
            coeffs = []
            v = j
            for _ in range(self.k):
                coeffs.append(v % self.p)
                v //= self.p
            yield GFElement(self, tuple(coeffs))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtField)
            and (other.p, other.k, other.modulus) == (self.p, self.k, self.modulus)
        )

    def __hash__(self) -> int:
        return hash(("GF", self.p, self.k, self.modulus))


class GFElement(_Element):
    """An element of GF(p^k): an int tuple of length k (ascending powers)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtField, coeffs: tuple[int, ...]):
        assert len(coeffs) == field.k
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.p
        return GFElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.p
        return GFElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs))
        )

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return GFElement(self.field, self.field._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        p = self.field.p
        return GFElement(self.field, tuple((-a) % p for a in self.coeffs))

    def inverse(self) -> "GFElement":
        """Extended gcd against the modulus."""
        fld = self.field
        if not self:
            raise ZeroDivisionError(f"inverse of 0 in {fld!r}")
        g, _, t = zpoly.xgcd(fld.modulus, self.coeffs, fld.p)
        assert g == [1]  # gcd with an irreducible modulus is a unit
        return GFElement(fld, fld._padded(t))  # deg t < k: already reduced

    def _pow(self, n: int):
        """Square-and-multiply on coefficient tuples (n >= 0)."""
        fld = self.field
        mul, base, result = fld._mul, self.coeffs, None
        while n:
            if n & 1:
                result = base if result is None else mul(result, base)
            n >>= 1
            if n:
                base = mul(base, base)
        return GFElement(fld, fld.one.coeffs if result is None else result)

    def _key(self):
        return ("GFel", self.field.p, self.field.modulus, self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"[{','.join(str(c) for c in self.coeffs)}]"


def gf_build(p: int, k: int, seed: int) -> ExtField:
    """Build GF(p^k) with a deterministic, seed-reproducible modulus.

    Monic degree-k candidates are enumerated by the base-p counter
    j = sum c_i p^i (so the coefficient of X^{k-1} is the most significant
    digit), starting at offset ``seed mod p^k`` and wrapping; the first
    irreducible candidate becomes the modulus.  Seed 0 therefore yields the
    lexicographically first irreducible by descending-power coefficients.
    The irreducibility test is the one in ExtField, run once per candidate.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if not 1 <= k <= 6:
        raise ValueError(f"extension degree {k} outside 1..6")
    total = p**k
    start = seed % total
    for off in range(total):
        j = (start + off) % total
        coeffs, v = [], j
        for _ in range(k):
            coeffs.append(v % p)
            v //= p
        try:
            return ExtField(p, k, tuple(coeffs + [1]))
        except ValueError:  # p and k are valid, so the candidate is reducible
            continue
    raise RuntimeError(f"no irreducible of degree {k} over F_{p} found (bug)")
