"""The extended Lie algebra of 3x3 quantum-torus matrices.

Basis symbols are E_ij(s^m t^n) together with two central elements
(c_s, c_t) and two degree derivations (d_s, d_t).  The matrix-matrix
bracket is

    [E_ij(s^m1 t^n1), E_kl(s^m2 t^n2)]
        = delta_jk q^(n1 m2) E_il(s^(m1+m2) t^(n1+n2))
        - delta_il q^(n2 m1) E_kj(s^(m1+m2) t^(n1+n2))
        + delta_jk delta_il delta_(m1+m2,0) delta_(n1+n2,0)
              q^(n1 m2) (m1 c_s + n1 c_t)

and d_s, d_t act as the degree derivations [d_s, E_ij(s^m t^n)] =
m E_ij(s^m t^n), [d_t, .] = n . ; the central elements commute with
everything and [d_s, d_t] = 0.
"""

from __future__ import annotations

from .scalars import ONE, SparseSum, accumulate, q_pow, signed_q_pow

CS = ("cs",)
CT = ("ct",)
DS = ("ds",)
DT = ("dt",)

_SPECIAL_NAMES = {CS: "c_s", CT: "c_t", DS: "d_s", DT: "d_t"}


def matrix_bracket_terms(i, j, m1, n1, k, l, m2, n2):
    """Matrix part of the bracket of two monomial matrix symbols.

    Returns [(i2, j2, (m, n), sign, q_exp), ...], one term
    sign * q^q_exp * E_i2j2(s^m t^n) each, in plain integers so the word
    engine can run on integer polynomials; the central contribution is
    handled separately by `bracket`.
    """
    out = []
    mono = (m1 + m2, n1 + n2)
    if j == k:
        out.append((i, l, mono, 1, n1 * m2))
    if i == l:
        out.append((k, j, mono, -1, n2 * m1))
    return out


class GlElement(SparseSum):
    """Formal linear combination of basis symbols with ScalarPoly coefficients."""

    __slots__ = ()

    @classmethod
    def matrix(cls, i, j, mono, coeff=ONE):
        """coeff * E_ij(s^m t^n) for the monomial pair mono = (m, n)."""
        if not (1 <= i <= 3 and 1 <= j <= 3):
            raise ValueError(f"matrix indices out of range: ({i}, {j})")
        m, n = mono
        return cls._raw({("E", i, j, m, n): coeff} if coeff else {})

    @classmethod
    def c_s(cls, coeff=ONE):
        return cls._raw({CS: coeff} if coeff else {})

    @classmethod
    def c_t(cls, coeff=ONE):
        return cls._raw({CT: coeff} if coeff else {})

    @classmethod
    def d_s(cls, coeff=ONE):
        return cls._raw({DS: coeff} if coeff else {})

    @classmethod
    def d_t(cls, coeff=ONE):
        return cls._raw({DT: coeff} if coeff else {})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for sym in sorted(self.terms, key=_sym_sort_key):
            c = self.terms[sym]
            if sym[0] == "E":
                _, i, j, m, n = sym
                parts.append(f"[{c}]·E{i}{j}(s^{m} t^{n})")
            else:
                parts.append(f"[{c}]·{_SPECIAL_NAMES[sym]}")
        return " + ".join(parts)


def _sym_sort_key(sym):
    if sym[0] == "E":
        return (0,) + sym[1:]
    return (1, sym[0])


def _bracket_symbols(x, y):
    """Bracket of two basis symbols as a list of (symbol, coeff).

    A coeff is a ScalarPoly, or a plain int for a derivation weight.
    """
    kx, ky = x[0], y[0]
    if kx == "cs" or kx == "ct" or ky == "cs" or ky == "ct":
        return []
    if kx == "E" and ky == "E":
        _, i, j, m1, n1 = x
        _, k, l, m2, n2 = y
        out = [
            (("E", i2, j2, mono[0], mono[1]), signed_q_pow(sign, e))
            for (i2, j2, mono, sign, e) in matrix_bracket_terms(i, j, m1, n1, k, l, m2, n2)
        ]
        if j == k and i == l and m1 + m2 == 0 and n1 + n2 == 0:
            phase = q_pow(n1 * m2)
            if m1:
                out.append((CS, m1 * phase))
            if n1:
                out.append((CT, n1 * phase))
        return out
    if kx == "E":
        # [E, d] = -[d, E]
        return [(sym, -c) for (sym, c) in _bracket_symbols(y, x)]
    # x is a derivation
    if ky != "E":
        return []  # [d_s, d_t] = 0
    _, i, j, m, n = y
    w = m if kx == "ds" else n
    if w == 0:
        return []
    return [(y, w)]


def bracket(x, y):
    """Bilinear extension of the symbol bracket."""
    terms = {}
    for sx, cx in x.terms.items():
        for sy, cy in y.terms.items():
            c0 = cx * cy
            if not c0:
                continue
            for sym, c in _bracket_symbols(sx, sy):
                accumulate(terms, sym, c0 * c)
    return GlElement._raw(terms)


def omega(x):
    """Antilinear anti-involution: E_ij(a) -> (-1)^(i+j) E_ji(bar a), fixes c, d."""
    terms = {}
    for sym, c in x.terms.items():
        if sym[0] == "E":
            _, i, j, m, n = sym
            # bar(s^m t^n) = q^(mn) s^-m t^-n
            coeff = c.conjugate() * q_pow(m * n)
            if (i + j) % 2:
                coeff = -coeff
            key = ("E", j, i, -m, -n)
        else:
            coeff = c.conjugate()
            key = sym
        accumulate(terms, key, coeff)
    return GlElement._raw(terms)


def jacobi_residual(x, y, z):
    """[[x,y],z] + [[y,z],x] + [[z,x],y]; zero iff the bracket is a Lie bracket."""
    return (
        bracket(bracket(x, y), z)
        + bracket(bracket(y, z), x)
        + bracket(bracket(z, x), y)
    )
