"""Exact scalar arithmetic: Gaussian rationals, q/mu polynomials, sparse sums.

Every quantity in the system is a finite sum

    sum_{e,d}  (a + b*i) * q^e * mu^d

with a, b rational, e an integer (q is a formal Laurent variable kept on
the unit circle, so conjugation sends q -> q^-1) and d a nonnegative
integer (mu is a formal real parameter).  All operations are exact; the
only approximate operation is `evaluate`, which substitutes a numeric
unit-circle q (`q_phase`) and a real mu.

The term q^e mu^d has one key in the whole package, the int
(e << MU_BITS) + d with 0 <= d < 2^MU_BITS, so a product of terms adds
keys.  `ScalarPoly`, the word engine's integer polynomials (`form`) and
compiled Gram arrays (`unitarity`) all use it; `unpack_key` decodes it.
Products add keys without a check, so a degree that reached 2^MU_BITS
would carry into q: the constructor `ScalarPoly.term` is the only
range check.  The degrees stay small: at most k + l at level (k, l).

`SparseSum` is the term algebra of all four sparse sums in the package:
these q/mu polynomials (`ScalarPoly`, Gaussian-rational coefficients) and,
with `ScalarPoly` coefficients, torus elements, Lie-algebra elements and
module polynomials.  Its add/sub/neg are the package's only ones, and
subtraction is addition of the negation.  Every "add, drop an exact zero"
step in the package is `accumulate`: the sums, the scalar product, the word
engine's action and the code that builds a term dict in place all call it.
The one exception is the engine's form recursion, which sums first and
drops zeros after, to keep its term order (see `WordEngine._form`).
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from math import gcd


class GaussianRational:
    """Complex number with rational real/imaginary parts, kept reduced.

    Stored as an integer triple (a, b, d) meaning (a + b*i)/d with d > 0
    and gcd(a, b, d) = 1, so equality is plain field comparison.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re = Fraction(re)
        im = Fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        a = re.numerator * (d // re.denominator)
        b = im.numerator * (d // im.denominator)
        self.a, self.b, self.d = a, b, d

    @classmethod
    def _make(cls, a, b, d):
        if d != 1:  # d = 1 is already reduced, and by far the common case
            g = gcd(gcd(a, b), d)
            if g > 1:
                a //= g
                b //= g
                d //= g
        self = object.__new__(cls)
        self.a, self.b, self.d = a, b, d
        return self

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        return GaussianRational._make(
            self.a * other.d + other.a * self.d,
            self.b * other.d + other.b * self.d,
            self.d * other.d,
        )

    def __sub__(self, other):
        return GaussianRational._make(
            self.a * other.d - other.a * self.d,
            self.b * other.d - other.b * self.d,
            self.d * other.d,
        )

    def __neg__(self):
        return GaussianRational._make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        return GaussianRational._make(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.d * other.d,
        )

    def conjugate(self):
        return GaussianRational._make(self.a, -self.b, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def to_complex(self):
        return complex(self.a / self.d, self.b / self.d)

    def __str__(self):
        if self.d == 1:  # the common integer case, rendered as Fraction would
            b = self.b
            return f"({self.a}{'+' if b >= 0 else '-'}{abs(b)}i)"
        re, im = self.re, self.im
        sign = "+" if im >= 0 else "-"
        return f"({re}{sign}{abs(im)}i)"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


G_ONE = GaussianRational(1)

# Term keys (see the module docstring); mu degrees stay far below 2^MU_BITS.
MU_BITS = 20
MU_MASK = (1 << MU_BITS) - 1


def unpack_key(k):
    """(q_exp, mu_deg) of a packed key, or of a numpy int array of them."""
    return k >> MU_BITS, k & MU_MASK


def accumulate(out, key, coeff):
    """out[key] += coeff, dropping the key when the sum is exactly zero."""
    s = out.get(key)
    s = coeff if s is None else s + coeff
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class SparseSum:
    """Finite sum  sum_k terms[k] * k  of hashable keys with nonzero coefficients.

    `terms` never stores a zero coefficient, so equality is dict equality,
    and instances are treated as immutable: no method mutates `terms`.
    A sum adds the other operand's terms to a copy with `accumulate`, so
    its terms are the left operand's survivors in their order, then the
    right operand's new keys in theirs; x - y is x + (-y).  Sums of
    different kinds neither add nor compare equal.  Subclasses add
    their own constructors, products and rendering.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else {k: c for k, c in terms.items() if c}

    @classmethod
    def _raw(cls, terms):
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def zero(cls):
        return cls._raw({})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        # instances are immutable, so a zero operand can hand back the other one
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(terms, k, c)
        return self._raw(terms) if terms else self.zero()

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + -other

    def __neg__(self):
        if not self.terms:
            return self.zero()
        return self._raw({k: -c for k, c in self.terms.items()})

    def scale(self, coeff):
        if coeff is ONE:
            return self
        if not coeff:
            return self.zero()
        return self._raw({k: coeff * c for k, c in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        # sums of different kinds never compare equal, even with equal terms
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __ne__(self, other):
        # direct, as `x != y` through object.__ne__ would call __eq__ from Python
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms != other.terms

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


def q_phase(theta, e):
    """q^e as a complex number at q = exp(2*pi*i*theta), for a Fraction theta.

    theta*e is reduced mod 1 exactly before the float conversion, so large
    exponents lose no accuracy.
    """
    return cmath.exp(1j * (2.0 * math.pi * float((theta * e) % 1)))


class ScalarPoly(SparseSum):
    """Laurent polynomial in q, polynomial in mu, Gaussian-rational coefficients.

    The `SparseSum` with the packed-int term keys of the module docstring
    and `GaussianRational` coefficients.  It adds the ring product,
    conjugation (q -> q^-1) and numeric evaluation; `zero()` returns the
    shared `ZERO`, and the unit is the shared `ONE`.
    """

    __slots__ = ()

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return ZERO

    @classmethod
    def term(cls, coeff, q_exp=0, mu_deg=0):
        """coeff * q^q_exp * mu^mu_deg, for a rational or `GaussianRational` coeff."""
        if not 0 <= mu_deg <= MU_MASK:
            raise ValueError(f"mu degree {mu_deg} is outside [0, 2^{MU_BITS})")
        c = coeff if isinstance(coeff, GaussianRational) else GaussianRational(coeff)
        return cls._raw({(q_exp << MU_BITS) + mu_deg: c} if c else {})

    # -- ring operations ----------------------------------------------

    # The inherited sum under this class's own name: perfbench/tracing.py
    # counts scalar additions by patching ScalarPoly.__dict__["__add__"].
    __add__ = SparseSum.__add__

    # Exact fast paths, taken by nearly every product in the verify suites:
    # - a unit operand returns the other operand, and -1 its negation, which
    #   instances being immutable allows.  The shared `ONE` is caught by
    #   identity, any other +-1 when it is an int or the shorter operand;
    # - a one-term operand c*q^e*mu^d adds its key to the other operand's
    #   keys and multiplies its coefficients by c in one comprehension.
    #   The shift is injective and Gaussian rationals have no zero divisors,
    #   so no two products share a key and none is zero: the general loop's
    #   accumulate and zero check could do nothing.
    # Both keep the general loop's term order (the other operand's), so
    # `evaluate` sums the same floats in the same order.

    def __mul__(self, other):
        if other is ONE:
            return self
        if isinstance(other, int):
            if other == 1:
                return self
            if not other or not self.terms:
                return ZERO
            if other == -1:
                return -self
            return ScalarPoly._raw({
                key: GaussianRational._make(c.a * other, c.b * other, c.d)
                for key, c in self.terms.items()
            })
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        if self is ONE:
            return other
        # x is the operand with fewer terms
        x, y = (other, self) if len(self.terms) > len(other.terms) else (self, other)
        a, b = x.terms, y.terms
        if len(a) == 1:
            (k1, c1), = a.items()
            if not (k1 or c1.b) and c1.d == 1:
                if c1.a == 1:
                    return y
                if c1.a == -1:
                    return -y
            return ScalarPoly._raw({k1 + k2: c1 * c2 for k2, c2 in b.items()})
        if not a:
            return ZERO
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                accumulate(out, k1 + k2, c1 * c2)
        return ScalarPoly._raw(out)

    __rmul__ = __mul__

    def conjugate(self):
        """Complex conjugation with q on the unit circle: q -> q^-1, mu fixed."""
        # the key (e << MU_BITS) + d of q^e mu^d goes to (-e << MU_BITS) + d = 2d - key
        return ScalarPoly._raw(
            {2 * (k & MU_MASK) - k: c.conjugate() for k, c in self.terms.items()}
        )

    # -- queries --------------------------------------------------------

    def mu_degree(self):
        if not self.terms:
            raise ValueError("mu_degree of the zero polynomial")
        return max(k & MU_MASK for k in self.terms)

    def leading_mu_part(self):
        """Laurent-in-q coefficient of the highest mu power."""
        top = self.mu_degree()
        return ScalarPoly._raw(
            {k - top: c for k, c in self.terms.items() if k & MU_MASK == top}
        )

    def evaluate(self, theta, mu):
        """Substitute q = exp(2*pi*i*theta) (theta rational) and a real mu."""
        theta = Fraction(theta)
        out = 0j
        for k, c in self.terms.items():
            e, d = unpack_key(k)
            out += c.to_complex() * q_phase(theta, e) * (float(mu) ** d)
        return out

    # -- rendering ------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        # mu degree descending, then q exponent ascending (as keys of one mu degree sort)
        keys = sorted(self.terms, key=lambda k: (-(k & MU_MASK), k))
        return " + ".join("{}·q^{}·μ^{}".format(self.terms[k], *unpack_key(k)) for k in keys)


ZERO = ScalarPoly._raw({})
ONE = ScalarPoly._raw({0: G_ONE})
MU = ScalarPoly._raw({1: G_ONE})
HALF_MU = ScalarPoly._raw({1: GaussianRational(Fraction(1, 2))})


@functools.cache
def q_pow(e):
    """q^e as a ScalarPoly, one shared instance per exponent; q^0 is `ONE`."""
    return ScalarPoly._raw({e << MU_BITS: G_ONE}) if e else ONE


@functools.cache
def signed_q_pow(sign, e):
    """sign * q^e for a sign of +1 or -1, shared like `q_pow`."""
    return q_pow(e) if sign > 0 else -q_pow(e)
