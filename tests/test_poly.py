"""Tests for univariate polynomial arithmetic, resultants, characteristic
polynomials, and the Vandermonde solve."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tschirn.fields import QQ, MathDomainError, PrimeField, gf_build
from tschirn.poly import (
    RootTuple,
    UniPoly,
    charpoly,
    elementary_symmetric,
    linear_solve,
    poly_discriminant,
    poly_gcd,
    poly_resultant,
    vandermonde_solve,
)

rats = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


def qpoly(*coeffs) -> UniPoly:
    return UniPoly(QQ, coeffs)


class _NoCancel:
    """An element of Q whose subtraction is wrong: a - a = 1."""

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field, self.v = field, v

    def __bool__(self):
        return bool(self.v)

    def __add__(self, other):
        return self.field(self.v + other.v)

    def __sub__(self, other):
        self.field.subtractions += 1
        assert self.field.subtractions < 1000, "the division does not end"
        return self.field(self.v - other.v or 1)

    def __mul__(self, other):
        return self.field(self.v * other.v)

    def __truediv__(self, other):
        return self.field(self.v / other.v)

    def __neg__(self):
        return self.field(-self.v)


class _NoCancelField:
    def __init__(self):
        self.subtractions = 0
        self.zero, self.one = self(0), self(1)

    def __call__(self, x):
        return x if isinstance(x, _NoCancel) else _NoCancel(self, Fraction(x))


# ------------------------------------------------------------------ basics


class TestUniPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert qpoly(1, 2, 0, 0).degree == 1

    def test_zero_poly(self):
        z = UniPoly.zero(QQ)
        assert not z
        assert z.degree == -1

    def test_ring_ops(self):
        f = qpoly(1, 1)  # X + 1
        g = qpoly(-1, 1)  # X - 1
        assert f * g == qpoly(-1, 0, 1)
        assert f + g == qpoly(0, 2)
        assert f - f == UniPoly.zero(QQ)
        assert (f * g)[2] == 1

    def test_scalar_mixing(self):
        f = qpoly(1, 2)
        assert 2 * f == qpoly(2, 4)
        assert f * Fraction(1, 2) == qpoly(Fraction(1, 2), 1)
        assert f + 1 == qpoly(2, 2)
        assert 1 - f == qpoly(0, -2)
        assert f / 2 == qpoly(Fraction(1, 2), 1)

    def test_divmod_exact(self):
        f = qpoly(-1, 0, 0, 1)  # X^3 - 1
        g = qpoly(-1, 1)  # X - 1
        q, r = divmod(f, g)
        assert r == UniPoly.zero(QQ)
        assert q == qpoly(1, 1, 1)
        assert q * g + r == f

    def test_divmod_remainder(self):
        f = qpoly(2, 3, 0, 1)  # X^3 + 3X + 2
        g = qpoly(3, -1, 1)  # X^2 - X + 3
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree

    def test_divmod_ends_when_subtraction_never_cancels(self):
        # each quotient step drops the leading term instead of waiting for it
        # to cancel, so a faulty field cannot hang the division
        field = _NoCancelField()
        f = UniPoly(field, (2, 3, 0, 1, 5, 1))
        g = UniPoly(field, (3, -1, 1))
        q, r = divmod(f, g)
        assert q.degree <= f.degree - g.degree and r.degree < g.degree
        assert field.subtractions <= (f.degree - g.degree + 1) * g.degree

    def test_eval_and_compose(self):
        f = qpoly(2, 3, 0, 1)
        assert f.eval(Fraction(1)) == 6
        assert f.eval(Fraction(-2)) == -12
        g = qpoly(1, 1)  # X + 1
        assert f.compose(g).eval(QQ(0)) == f.eval(QQ(1))

    def test_from_roots(self):
        f = UniPoly.from_roots(QQ, [1, 2, 3])
        assert f == qpoly(-6, 11, -6, 1)

    def test_pow(self):
        assert qpoly(1, 1) ** 3 == qpoly(1, 3, 3, 1)

    def test_monic_derivative(self):
        f = qpoly(2, 0, 4)
        assert f.monic() == qpoly(Fraction(1, 2), 0, 1)
        assert f.derivative() == qpoly(0, 8)

    def test_over_fp(self):
        F = PrimeField(5)
        f = UniPoly(F, [1, 0, 1])
        g = UniPoly(F, [2, 1])  # X + 2
        assert f % g == UniPoly.zero(F)  # X^2+1 = (X+2)(X+3) over F_5


class TestRepr:
    @pytest.mark.parametrize(
        "coeffs, text",
        [((1, -1), "-X + 1"),
         ((0, 0, -1), "-X^2"),
         ((1, 0, -1, 1), "X^3 - X^2 + 1"),
         ((Fraction(-1, 2), -2, 1), "X^2 - 2*X - 1/2")],
    )
    def test_rational_unit_coefficients(self, coeffs, text):
        assert repr(qpoly(*coeffs)) == text

    def test_prime_field_prints_residues(self):
        F = PrimeField(5)
        assert repr(UniPoly(F, [1, -1, 1])) == "X^2 + 4*X + 1"


# -------------------------------------------------------------- resultants


class TestResultant:
    def test_shared_roots(self):
        f = qpoly(-1, 0, 1)
        assert poly_resultant(f, f) == 0

    def test_evaluation(self):
        # Res(X^2 - 1, X - 2) = 2^2 - 1 = 3
        assert poly_resultant(qpoly(-1, 0, 1), qpoly(-2, 1)) == 3

    def test_resultant_in_second_variable(self):
        # Res_X(X^3 + 3X + 2, y - (3 - X + X^2)) is y^3 - 3y^2 - 3y - 3,
        # which takes the values -3, -8, -13, -12 at y = 0, 1, 2, 3.
        f = qpoly(2, 3, 0, 1)
        values = [poly_resultant(f, qpoly(QQ(y) - 3, 1, -1))  # (y - 3) + X - X^2
                  for y in range(4)]
        assert values == [-3, -8, -13, -12]

    def test_mixed_fields_rejected(self):
        with pytest.raises(TypeError):
            poly_resultant(qpoly(1, 1), UniPoly(PrimeField(5), [1, 1]))

    def test_zero_first_argument_rejected(self):
        with pytest.raises(ValueError):
            poly_resultant(UniPoly.zero(QQ), qpoly(1, 1))

    @given(
        st.lists(rats, min_size=2, max_size=4),
        st.lists(rats, min_size=2, max_size=4),
    )
    @settings(max_examples=50)
    def test_root_product_formula(self, roots_f, roots_g):
        # With split polynomials, Res(f,g) = Π_i Π_j (α_i − β_j).
        f = UniPoly.from_roots(QQ, roots_f)
        g = UniPoly.from_roots(QQ, roots_g)
        expect = QQ.one
        for a in roots_f:
            for b in roots_g:
                expect *= a - b
        assert poly_resultant(f, g) == expect

    @given(
        st.lists(rats, min_size=1, max_size=4),
        st.lists(rats, min_size=1, max_size=4),
    )
    @settings(max_examples=50)
    def test_antisymmetry(self, roots_f, roots_g):
        f = UniPoly.from_roots(QQ, roots_f)
        g = UniPoly.from_roots(QQ, roots_g)
        sign = (-1) ** (f.degree * g.degree)
        assert poly_resultant(f, g) == sign * poly_resultant(g, f)


class TestDiscriminant:
    def test_depressed_cubic_family(self):
        # Disc(X^3 + aX + a) = -a^2 (4a + 27); at a = -7 this is 49.
        a = QQ(-7)
        f = qpoly(a, a, 0, 1)
        assert poly_discriminant(f) == -(a**2) * (4 * a + 27) == 49

    def test_shanks_m_minus_one(self):
        # X^3 + X^2 - 2X - 1 has discriminant (m^2+3m+9)^2 = 49 at m = -1.
        f = qpoly(-1, -2, 1, 1)
        assert poly_discriminant(f) == 49

    def test_split_cubic(self):
        f = UniPoly.from_roots(QQ, [1, 2, 3])
        assert poly_discriminant(f) == 4

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            poly_discriminant(qpoly(1, 1))

    def test_char3_root_product(self):
        # Disc via the resultant route still matches Π (α_i − α_j)^2 in
        # characteristic 3.
        K = gf_build(3, 3, 0)
        roots = [K(0), K(1), K.gen()]
        f = UniPoly.from_roots(K, roots)
        expect = K.one
        for i in range(3):
            for j in range(i + 1, 3):
                expect *= (roots[i] - roots[j]) ** 2
        assert poly_discriminant(f) == expect

    @given(
        st.lists(rats, min_size=2, max_size=3, unique=True),
        st.lists(rats, min_size=2, max_size=3, unique=True),
    )
    @settings(max_examples=40)
    def test_product_rule(self, roots_f, roots_g):
        # Disc(fg) = Disc(f) Disc(g) Res(f,g)^2 for coprime f, g.
        if set(roots_f) & set(roots_g):
            return
        f = UniPoly.from_roots(QQ, roots_f)
        g = UniPoly.from_roots(QQ, roots_g)
        lhs = poly_discriminant(f * g)
        rhs = (
            poly_discriminant(f)
            * poly_discriminant(g)
            * poly_resultant(f, g) ** 2
        )
        assert lhs == rhs


# -------------------------------------------------------- gcd / squarefree


def test_gcd():
    f = qpoly(-1, 0, 1)  # (X-1)(X+1)
    g = qpoly(-1, 1)
    assert poly_gcd(f, g) == g
    assert poly_gcd(f, qpoly(7)) == UniPoly.one(QQ)


def test_compose_scale():
    f = qpoly(2, 3, 0, 1)  # X^3 + 3X + 2
    g = f.compose(qpoly(0, 2))
    assert g == qpoly(2, 6, 0, 8)  # 8X^3 + 6X + 2


# ------------------------------------------------------------- vandermonde


class TestVandermondeSolve:
    def test_identity_transformation(self):
        rt = RootTuple(
            xs=(QQ(1), QQ(2), QQ(5)), ys=(QQ(1), QQ(2), QQ(5))
        )
        assert vandermonde_solve(rt, (0, 1, 2)) == (QQ(0), QQ(1), QQ(0))

    def test_square_plus_one(self):
        rt = RootTuple(xs=(QQ(0), QQ(1), QQ(2)), ys=(QQ(1), QQ(2), QQ(5)))
        assert vandermonde_solve(rt, (0, 1, 2)) == (QQ(1), QQ(0), QQ(1))

    def test_repeated_xs_rejected(self):
        with pytest.raises(MathDomainError):
            RootTuple(xs=(QQ(1), QQ(1), QQ(2)), ys=(QQ(1), QQ(2), QQ(3)))

    def test_bad_permutation(self):
        rt = RootTuple(xs=(QQ(0), QQ(1), QQ(2)), ys=(QQ(1), QQ(2), QQ(5)))
        with pytest.raises(ValueError):
            vandermonde_solve(rt, (0, 0, 2))

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            RootTuple(xs=(QQ(1),), ys=(QQ(2),))

    @given(
        st.lists(rats, min_size=3, max_size=3, unique=True),
        st.lists(rats, min_size=3, max_size=3, unique=True),
    )
    @settings(max_examples=30)
    def test_reconstruction_all_permutations(self, xs, ys):
        rt = RootTuple(xs=tuple(xs), ys=tuple(ys))
        for tau in permutations(range(3)):
            u = vandermonde_solve(rt, tau)
            for i in range(3):
                assert sum(u[j] * xs[i] ** j for j in range(3)) == ys[tau[i]]

    def test_stabilizer_relabeling(self):
        # Relabeling xs by σ while composing τ with σ leaves u unchanged.
        xs = (QQ(1), QQ(3), QQ(-2))
        ys = (QQ(2), QQ(5), QQ(7))
        tau = (2, 0, 1)
        u = vandermonde_solve(RootTuple(xs=xs, ys=ys), tau)
        for sigma in permutations(range(3)):
            xs_s = tuple(xs[sigma[i]] for i in range(3))
            tau_s = tuple(tau[sigma[i]] for i in range(3))
            assert vandermonde_solve(RootTuple(xs=xs_s, ys=ys), tau_s) == u

    def test_over_gf27(self):
        K = gf_build(3, 3, 0)
        x = K.gen()
        xs = (K(1), x, x**2)
        ys = (x + 1, x**2 + 2, K(2))
        rt = RootTuple(xs=xs, ys=ys)
        u = vandermonde_solve(rt, (1, 2, 0))
        for i in range(3):
            assert u[0] + u[1] * xs[i] + u[2] * xs[i] ** 2 == ys[(1, 2, 0)[i]]


def test_linear_solve_singular():
    with pytest.raises(MathDomainError):
        linear_solve(QQ, [[1, 2], [2, 4]], [1, 2])


class TestCharpoly:
    """The Hessenberg characteristic polynomial against det(x I - M) by the
    Leibniz formula, which divides by nothing, at a few points x."""

    FIELDS = {
        "Q": QQ,
        "F_101": PrimeField(101),
        "GF(5^2)": gf_build(5, 2, 0),
        "GF(2^3)": gf_build(2, 3, 0),
    }

    @staticmethod
    def _elements(field, rng, count):
        if field is QQ:
            return [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(count)]
        els = list(field.elements())
        return [rng.choice(els) for _ in range(count)]

    @staticmethod
    def _det(field, m):
        n, total = len(m), field.zero
        for perm in permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n)
                             for j in range(i + 1, n))
            term = field(-1) if inversions % 2 else field.one
            for i in range(n):
                term = term * m[i][perm[i]]
            total = total + term
        return total

    def _check(self, field, m):
        m = [[field(c) for c in row] for row in m]
        p = charpoly(field, m)
        assert p.degree == len(m) and p.lc == field.one
        for x in self._elements(field, random.Random(len(m)), 4):
            xm = [[(x if i == j else field.zero) - c for j, c in enumerate(row)]
                  for i, row in enumerate(m)]
            assert p.eval(x) == self._det(field, xm)
        return p

    @pytest.mark.parametrize("name", FIELDS)
    def test_companion_matrix_returns_its_polynomial(self, name):
        field = self.FIELDS[name]
        rng = random.Random(name)
        for n in (2, 3, 6):
            f = UniPoly(field, self._elements(field, rng, n) + [field.one])
            # columns X^j mod f: Hessenberg already; its transpose is not
            comp = [[field.zero] * n for _ in range(n)]
            for i in range(n):
                comp[i][n - 1] = -f[i]
                if i:
                    comp[i][i - 1] = field.one
            transpose = [list(col) for col in zip(*comp)]
            assert charpoly(field, comp) == f
            assert self._check(field, transpose) == f

    @pytest.mark.parametrize("name", FIELDS)
    def test_dense_matrix_is_eliminated_below_the_subdiagonal(self, name):
        field = self.FIELDS[name]
        rng = random.Random(name)
        for n in (4, 5):
            m = [self._elements(field, rng, n) for _ in range(n)]
            self._check(field, m)

    def test_zero_subdiagonal_pivot_swaps_rows_and_columns(self):
        # h[1][0] = 0 and h[2][0] != 0: rows and columns 1 and 2 swap
        m = [[1, 2, 3], [0, 4, 5], [6, 7, 8]]
        assert self._check(QQ, m) == UniPoly(QQ, (15, -9, -13, 1))
        F = PrimeField(7)
        assert self._check(F, m) == UniPoly(F, (15, -9, -13, 1))

    def test_block_diagonal_column_without_pivot(self):
        # column 1 is zero below the subdiagonal, so no elimination there
        m = [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]]
        assert self._check(QQ, m) == qpoly(-2, -5, 1) * qpoly(-2, -13, 1)
        K = gf_build(2, 3, 0)
        assert self._check(K, m) == (UniPoly(K, (-2, -5, 1))
                                     * UniPoly(K, (-2, -13, 1)))

    def test_one_by_one(self):
        assert charpoly(QQ, [[Fraction(3, 2)]]) == qpoly(Fraction(-3, 2), 1)
        K = gf_build(5, 2, 0)
        c = list(K.elements())[7]
        assert charpoly(K, [[c]]) == UniPoly(K, (-c, 1))


def test_elementary_symmetric():
    assert elementary_symmetric((QQ(1), QQ(2), QQ(3))) == (6, 11, 6)
