"""Dense univariate polynomials over an exact field, with resultants,
discriminants, characteristic polynomials, and the Vandermonde solve that
produces Tschirnhausen coefficient vectors from paired root tuples.

Representation: ascending coefficient tuple with a nonzero leading
coefficient; the zero polynomial is the empty tuple.  Degrees stay tiny
(<= 6 symbolically, <= 720 inside the brute-force oracle), so the dense
form is always the right one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .fields import MathDomainError, field_of


class UniPoly:
    """A univariate polynomial over an exact field (immutable)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # ------------------------------------------------------------ structure

    @classmethod
    def zero(cls, field) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "UniPoly":
        return cls(field, (1,))

    @classmethod
    def X(cls, field) -> "UniPoly":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, c) -> "UniPoly":
        return cls(field, (c,))

    @classmethod
    def from_roots(cls, field, roots) -> "UniPoly":
        """The monic polynomial Π (X − r)."""
        f = cls.one(field)
        for r in roots:
            f = f * cls(field, (-field(r), field.one))
        return f

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    # ----------------------------------------------------------- arithmetic

    def _as_scalar(self, other):
        if isinstance(other, UniPoly):
            return None
        try:
            return self.field(other)
        except TypeError:
            return None

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            s = self._as_scalar(other)
            if s is None:
                return NotImplemented
            other = UniPoly.constant(self.field, s)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            self.field, (self[i] + other[i] for i in range(n))
        )

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.field, (-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            s = self._as_scalar(other)
            if s is None:
                return NotImplemented
            other = UniPoly.constant(self.field, s)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            s = self._as_scalar(other)
            if s is None:
                return NotImplemented
            return UniPoly(self.field, (c * s for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        s = self._as_scalar(scalar)
        if s is None:
            return NotImplemented
        return self * (self.field.one / s)

    def __divmod__(self, other: "UniPoly"):
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        # each step pops the leading term rather than waiting for it to
        # cancel, so a wrong field arithmetic cannot keep the loop going
        db = other.degree
        q = [self.field.zero] * max(0, self.degree - db + 1)
        rem = list(self.coeffs)
        inv_lc = self.field.one / other.lc
        while len(rem) > db:
            k = len(rem) - 1 - db
            coef = q[k] = rem.pop() * inv_lc
            if coef:
                for i in range(db):
                    rem[k + i] = rem[k + i] - coef * other.coeffs[i]
        return UniPoly(self.field, q), UniPoly(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result, base = UniPoly.one(self.field), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # ------------------------------------------------------------- calculus

    def monic(self) -> "UniPoly":
        if not self:
            raise ValueError("cannot normalize the zero polynomial")
        return self / self.lc

    def derivative(self) -> "UniPoly":
        return UniPoly(
            self.field, (i * self.coeffs[i] for i in range(1, len(self.coeffs)))
        )

    def eval(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, g: "UniPoly") -> "UniPoly":
        """f(g(X)) by Horner's rule in the polynomial ring."""
        acc = UniPoly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * g + c
        return acc

    # -------------------------------------------------------------- display

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            term = f"{c}"
            if i:
                xs = "X" if i == 1 else f"X^{i}"
                if c == self.field.one:
                    term = xs
                elif term == "-1":  # only a rational prints as -1
                    term = "-" + xs
                else:
                    term = f"{term}*{xs}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out


# --------------------------------------------------------------------------
# Root tuples: the raw input of the brute-force resolvent oracle.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RootTuple:
    """Paired root vectors (x_1..x_n), (y_1..y_n) in one exact field.

    Both vectors must consist of pairwise distinct elements (both cubics
    separable) and 2 <= n <= 6 so the coset product has degree n! <= 720.
    """

    xs: tuple
    ys: tuple

    def __post_init__(self):
        n = len(self.xs)
        if not 2 <= n <= 6:
            raise ValueError(f"root tuple length {n} outside 2..6")
        if len(self.ys) != n:
            raise ValueError("xs and ys must have equal length")
        for name, v in (("xs", self.xs), ("ys", self.ys)):
            for a, b in combinations(v, 2):
                if a == b:
                    raise MathDomainError(
                        f"repeated entry in {name}: discriminant of that side is 0"
                    )

    @property
    def n(self) -> int:
        return len(self.xs)

    @property
    def field(self):
        return field_of(self.xs[0])


def elementary_symmetric(values) -> tuple:
    """(e_1, ..., e_n) for the given values, read off Π(X − v)."""
    values = tuple(values)
    field = field_of(values[0])
    f = UniPoly.from_roots(field, values)
    n = len(values)
    return tuple((-1) ** k * f[n - k] for k in range(1, n + 1))


# --------------------------------------------------------------------------
# Linear algebra (exact Gaussian elimination; tiny systems).
# --------------------------------------------------------------------------


def linear_solve(field, rows, rhs):
    """Solve the square system rows·u = rhs exactly; raises on singularity."""
    n = len(rows)
    aug = [[field(c) for c in row] + [field(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise MathDomainError("singular linear system: matrix determinant is 0")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = field.one / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def charpoly(field, rows) -> UniPoly:
    """det(X I - M) of the square matrix M, by reduction to Hessenberg form
    with row and column swaps (Cohen, GTM 138, Algorithm 2.2.9); it divides
    only by pivots, so it is exact in every characteristic.  The recurrence
    for the leading principal minors runs on ascending coefficient lists,
    and only the result is built as a UniPoly."""
    n = len(rows)
    h = [[field(c) for c in row] for row in rows]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        inv = field.one / h[m][m - 1]
        for i in range(m + 1, n):
            if h[i][m - 1]:
                u = h[i][m - 1] * inv
                h[i] = [a - u * b for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = row[m] + u * row[i]
    # p[m] = det(X I - H[:m, :m]), expanded along its last column:
    # p[m+1] = (X - h_mm) p[m] - sum_i t_i h_im p[i], t_i = h_{i+1,i}..h_{m,m-1}
    p = [[field.one]]
    for m in range(n):
        c, pm = h[m][m], p[m]
        nxt = [field.zero] + pm
        for k, a in enumerate(pm):
            nxt[k] = nxt[k] - c * a
        t = field.one
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i]
            c = t * h[i][m]
            if c:
                for k, a in enumerate(p[i]):
                    nxt[k] = nxt[k] - c * a
        p.append(nxt)
    return UniPoly(field, p[n])


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def vandermonde_solve(rt: RootTuple, tau) -> tuple:
    """Coefficients (u_0..u_{n−1}) with y_{τ(i)} = Σ_j u_j x_i^j for all i.

    τ is a permutation of 0..n−1 acting on the y-side.  For n = 3 the
    Gaussian-elimination answer is cross-checked against Cramer's rule.
    """
    n = rt.n
    if sorted(tau) != list(range(n)):
        raise ValueError(f"{tau!r} is not a permutation of 0..{n-1}")
    field = rt.field
    rows = [[field(x) ** j for j in range(n)] for x in rt.xs]
    rhs = [rt.ys[tau[i]] for i in range(n)]
    u = linear_solve(field, rows, rhs)
    if n == 3:
        det = _det3(rows)
        for j in range(3):
            mj = [row[:j] + [rhs[i]] + row[j + 1 :] for i, row in enumerate(rows)]
            assert u[j] * det == _det3(mj), "Cramer cross-check failed"
    return u


# --------------------------------------------------------------------------
# Resultants and discriminants.
# --------------------------------------------------------------------------


def poly_resultant(f: UniPoly, g: UniPoly):
    """Res(f, g) = lc(f)^deg g · Π_{f(α)=0} g(α), by the Euclidean remainder
    sequence with the classical transition
    Res(f, g) = (−1)^{deg f·deg g} · lc(g)^{deg f − deg r} · Res(g, r),
    exact over a field (degrees here never exceed ~720)."""
    if f.field != g.field:
        raise TypeError("resultant of polynomials over different fields")
    if not f:
        raise ValueError("resultant requires nonzero first argument")
    field = f.field
    acc = field.one
    neg = False
    while True:
        if not g:
            return field.zero if f.degree > 0 else (-acc if neg else acc)
        if g.degree == 0:
            val = acc * g.lc ** f.degree
            return -val if neg else val
        if f.degree == 0:
            val = acc * f.lc ** g.degree
            return -val if neg else val
        r = f % g
        if (f.degree * g.degree) % 2 == 1:
            neg = not neg
        acc = acc * g.lc ** (f.degree - (r.degree if r else 0))
        f, g = g, r


def poly_discriminant(f: UniPoly):
    """Disc(f) = (−1)^{d(d−1)/2} Res(f, f′) / lc(f); needs deg f ≥ 2."""
    d = f.degree
    if d < 2:
        raise ValueError("discriminant requires degree >= 2")
    res = poly_resultant(f, f.derivative())
    val = res / f.lc
    return -val if (d * (d - 1) // 2) % 2 else val


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd (zero if both inputs are zero)."""
    if f.field != g.field:
        raise TypeError("gcd of polynomials over different fields")
    while g:
        f, g = g, f % g
    return f.monic() if f else f

