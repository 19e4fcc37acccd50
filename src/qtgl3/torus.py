"""The rank-2 quantum torus: Laurent monomials in s, t with ts = q*st.

A monomial s^m t^n is the exponent pair (m, n).  Elements are kept in the
normal form  sum_(m,n) lambda_(m,n) * s^m t^n  (all s powers before all
t powers); the reordering phases are absorbed into the ScalarPoly
coefficients, so equality is decidable by dict comparison.
"""

from __future__ import annotations

from .scalars import ONE, ScalarPoly, SparseSum, accumulate, q_pow


def mono_mul(x, y):
    """Product of two normal-form monomials: (phase, monomial).

    (s^m1 t^n1)(s^m2 t^n2) = q^(n1*m2) s^(m1+m2) t^(n1+n2), from pushing
    t^n1 past s^m2 one relation at a time.
    """
    phase = q_pow(x[1] * y[0])
    return phase, (x[0] + y[0], x[1] + y[1])


def mono_bar(x):
    """Conjugate monomial: (phase, monomial) with bar(s^m t^n) = q^(mn) s^-m t^-n."""
    return q_pow(x[0] * x[1]), (-x[0], -x[1])


class TorusElement(SparseSum):
    """Finite linear combination of torus monomials with ScalarPoly coefficients."""

    __slots__ = ()

    @classmethod
    def one(cls):
        return cls.monomial(0, 0)

    @classmethod
    def monomial(cls, m, n, coeff=ONE):
        if not coeff:
            return cls._raw({})
        return cls._raw({(m, n): coeff})

    def __mul__(self, other):
        out = {}
        for x, cx in self.terms.items():
            for y, cy in other.terms.items():
                phase, z = mono_mul(x, y)
                accumulate(out, z, cx * cy * phase)
        return TorusElement._raw(out)

    def kappa(self):
        """Coefficient of the identity monomial (a trace-like linear functional)."""
        return self.terms.get((0, 0), ScalarPoly.zero())

    def bar(self):
        """Antilinear involution: lambda s^m t^n -> conj(lambda) q^(mn) s^-m t^-n."""
        out = {}
        for (m, n), c in self.terms.items():
            phase, z = mono_bar((m, n))
            out[z] = c.conjugate() * phase
        return TorusElement._raw(out)

    def degree_s(self):
        return TorusElement({k: k[0] * c for k, c in self.terms.items()})

    def degree_t(self):
        return TorusElement({k: k[1] * c for k, c in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (m, n) in sorted(self.terms):
            parts.append(f"[{self.terms[(m, n)]}]·s^{m}·t^{n}")
        return " + ".join(parts)

    def to_json(self):
        """Array-of-terms encoding [[m, n, coeff-string], ...]."""
        return [[m, n, str(c)] for (m, n), c in sorted(self.terms.items())]
