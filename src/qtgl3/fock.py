"""The free-field polynomial module and the operator realization.

The module is a polynomial ring in variables x_(p,r) indexed by the two
lattice classes

    K_1  = {(3m+1, 3n+1)}      K_-1 = {(3m-1, 3n-1)}

For a point A = (3m+1, 3n+1) in K_1 (resp. B = (3m-1, 3n-1) in K_-1)
the component pair is (A_1, A_2) = (m, n).  Each point carries an
SL_2 lower-triangular parameter matrix [[a, 0], [c, d]] (so a*d = 1)
defining the creation/annihilation pair

    P = a * d/dx            Q = c * d/dx + d * x

with [P_X, Q_Y] = delta_XY and all other pairs commuting.  The nine
generator families e_ij(m1, n1), together with the two weighted degree
operators D_1, D_2, realize the extended Lie algebra on this ring with
both central elements acting as zero.
"""

from __future__ import annotations

from .scalars import HALF_MU, MU, ONE, ScalarPoly, q_pow


def point_class(pt):
    """+1 for K_1 membership, -1 for K_-1; raises on any other lattice point."""
    p, r = pt
    if p % 3 == 1 and r % 3 == 1:
        return 1
    if p % 3 == 2 and r % 3 == 2:
        return -1
    raise ValueError(f"point {pt} lies in neither index class")


def point_comps(pt):
    """The component pair (m, n) of an index point."""
    p, r = pt
    if point_class(pt) == 1:
        return (p - 1) // 3, (r - 1) // 3
    return (p + 1) // 3, (r + 1) // 3


def k1_point(m, n):
    return (3 * m + 1, 3 * n + 1)

def km1_point(m, n):
    return (3 * m - 1, 3 * n - 1)


class FreeFieldConfig:
    """Per-point (a, c, d) coefficients; defaults to the identity matrix a=d=1, c=0."""

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for pt, (a, c, d) in entries.items():
                point_class(pt)
                if a * d != ONE:
                    raise ValueError(f"a*d != 1 at point {pt}")
                self.entries[pt] = (a, c, d)

    _DEFAULT = (ONE, ScalarPoly.zero(), ONE)

    def triple(self, pt):
        return self.entries.get(pt, self._DEFAULT)


DEFAULT_CONFIG = FreeFieldConfig()


class FockPoly:
    """Sparse polynomial in the x_(p,r); monomials are sorted ((point, exp), ...) tuples."""

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

    @classmethod
    def one(cls, coeff=ONE):
        return cls._raw({(): coeff} if coeff else {})

    @classmethod
    def variable(cls, pt, coeff=ONE):
        point_class(pt)
        return cls._raw({((pt, 1),): coeff} if coeff else {})

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k)
            s = c if s is None else s + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return FockPoly._raw(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FockPoly._raw({k: -c for k, c in self.terms.items()})

    def scale(self, coeff):
        if not coeff:
            return FockPoly._raw({})
        return FockPoly._raw({k: coeff * c for k, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for ma, ca in self.terms.items():
            da = dict(ma)
            for mb, cb in other.terms.items():
                exps = dict(da)
                for pt, e in mb:
                    exps[pt] = exps.get(pt, 0) + e
                key = tuple(sorted(exps.items()))
                c = ca * cb
                s = out.get(key)
                s = c if s is None else s + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return FockPoly._raw(out)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FockPoly):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            factors = "".join(f"·x{pt}^{e}" for pt, e in mono) or "·1"
            parts.append(f"[{self.terms[mono]}]{factors}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<FockPoly {self}>"

    def to_json(self):
        return [
            {"monomial": [[pt[0], pt[1], e] for pt, e in mono], "coeff": str(c)}
            for mono, c in sorted(self.terms.items())
        ]


def _mono_diff(mono, pt):
    """d/dx_pt of a monomial: (factor, new monomial), or None if absent."""
    for idx, (p, e) in enumerate(mono):
        if p == pt:
            rest = mono[:idx] + ((p, e - 1),) + mono[idx + 1:] if e > 1 else mono[:idx] + mono[idx + 1:]
            return e, rest
    return None


def _mono_times(mono, pt):
    out = dict(mono)
    out[pt] = out.get(pt, 0) + 1
    return tuple(sorted(out.items()))


def _add_term(acc, mono, coeff):
    s = acc.get(mono)
    s = coeff if s is None else s + coeff
    if s:
        acc[mono] = s
    else:
        acc.pop(mono, None)


def apply_P(pt, v, cfg=DEFAULT_CONFIG):
    """P_pt = a_pt * d/dx_pt."""
    a = cfg.triple(pt)[0]
    out = {}
    for mono, c in v.terms.items():
        hit = _mono_diff(mono, pt)
        if hit is not None:
            e, rest = hit
            _add_term(out, rest, a * c * e)
    return FockPoly._raw(out)


def apply_Q(pt, v, cfg=DEFAULT_CONFIG):
    """Q_pt = c_pt * d/dx_pt + d_pt * x_pt."""
    _, cc, d = cfg.triple(pt)
    out = {}
    for mono, c in v.terms.items():
        _add_term(out, _mono_times(mono, pt), d * c)
        if cc:
            hit = _mono_diff(mono, pt)
            if hit is not None:
                e, rest = hit
                _add_term(out, rest, cc * c * e)
    return FockPoly._raw(out)


def _term_P(pt, mono, coeff, cfg):
    hit = _mono_diff(mono, pt)
    if hit is None:
        return None
    e, rest = hit
    return rest, cfg.triple(pt)[0] * coeff * e


def _q_then_pp(acc, q_pt, p1, p2, mono, coeff, cfg):
    """Accumulate Q_q_pt(P_p1(P_p2(coeff*mono))); the rightmost P acts first."""
    t = _term_P(p2, mono, coeff, cfg)
    if t is None:
        return
    t = _term_P(p1, t[0], t[1], cfg)
    if t is None:
        return
    mono2, c2 = t
    _, cc, d = cfg.triple(q_pt)
    _add_term(acc, _mono_times(mono2, q_pt), d * c2)
    if cc:
        hit = _mono_diff(mono2, q_pt)
        if hit is not None:
            e, rest = hit
            _add_term(acc, rest, cc * c2 * e)


def _q_then_p(acc, q_pt, p_pt, phase_exp, mono, coeff, cfg):
    """Accumulate q^phase * Q_q_pt(P_p_pt(coeff*mono))."""
    t = _term_P(p_pt, mono, coeff, cfg)
    if t is None:
        return
    mono2, c2 = t
    if phase_exp:
        c2 = c2 * q_pow(phase_exp)
    _, cc, d = cfg.triple(q_pt)
    _add_term(acc, _mono_times(mono2, q_pt), d * c2)
    if cc:
        hit = _mono_diff(mono2, q_pt)
        if hit is not None:
            e, rest = hit
            _add_term(acc, rest, cc * c2 * e)


def apply_generator(i, j, m1, n1, v, cfg=DEFAULT_CONFIG):
    """Apply the operator realizing E_ij(s^m1 t^n1) to v.

    Every infinite lattice sum has a P factor acting first, so only the
    index points actually present in each monomial of v contribute.
    """
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError(f"bad generator indices ({i}, {j})")
    acc = {}
    diag = (m1, n1) == (0, 0)

    for mono, coeff in v.terms.items():
        pts = [pt for pt, _ in mono]
        k1 = [pt for pt in pts if pt[0] % 3 == 1]
        km1 = [pt for pt in pts if pt[0] % 3 == 2]

        if i == 1 and j == 2:
            pt = k1_point(m1, n1)
            _, cc, d = cfg.triple(pt)
            _add_term(acc, _mono_times(mono, pt), d * coeff)
            if cc:
                hit = _mono_diff(mono, pt)
                if hit is not None:
                    e, rest = hit
                    _add_term(acc, rest, cc * coeff * e)

        elif i == 3 and j == 2:
            pt = km1_point(m1, n1)
            _, cc, d = cfg.triple(pt)
            _add_term(acc, _mono_times(mono, pt), d * coeff)
            if cc:
                hit = _mono_diff(mono, pt)
                if hit is not None:
                    e, rest = hit
                    _add_term(acc, rest, cc * coeff * e)

        elif i == 1 and j == 1:
            for A in k1:
                a1, _ = point_comps(A)
                q_pt = (3 * m1 + A[0], 3 * n1 + A[1])
                _q_then_p(acc, q_pt, A, a1 * n1, mono, coeff, cfg)
            if diag:
                _add_term(acc, mono, HALF_MU * coeff)

        elif i == 2 and j == 2:
            for X in k1 + km1:
                _, x2 = point_comps(X)
                q_pt = (3 * m1 + X[0], 3 * n1 + X[1])
                _q_then_p(acc, q_pt, X, x2 * m1, mono, -coeff, cfg)
            if diag:
                _add_term(acc, mono, -HALF_MU * coeff)

        elif i == 3 and j == 3:
            for B in km1:
                b1, _ = point_comps(B)
                q_pt = (3 * m1 + B[0], 3 * n1 + B[1])
                _q_then_p(acc, q_pt, B, b1 * n1, mono, coeff, cfg)
            if diag:
                _add_term(acc, mono, HALF_MU * coeff)

        elif i == 3 and j == 1:
            for A in k1:
                a1, _ = point_comps(A)
                q_pt = (3 * m1 - 2 + A[0], 3 * n1 - 2 + A[1])
                _q_then_p(acc, q_pt, A, a1 * n1, mono, coeff, cfg)

        elif i == 1 and j == 3:
            for B in km1:
                b1, _ = point_comps(B)
                q_pt = (3 * m1 + 2 + B[0], 3 * n1 + 2 + B[1])
                _q_then_p(acc, q_pt, B, b1 * n1, mono, coeff, cfg)

        elif i == 2 and j == 1:
            t = _term_P(k1_point(-m1, -n1), mono, coeff, cfg)
            if t is not None:
                _add_term(acc, t[0], -(MU * q_pow(-m1 * n1)) * t[1])
            shift = (3 * m1 - 1, 3 * n1 - 1)
            for A in k1:
                a1, a2 = point_comps(A)
                for A2 in k1:
                    a21, _ = point_comps(A2)
                    q_pt = (A[0] + A2[0] + shift[0], A[1] + A2[1] + shift[1])
                    phase = n1 * a21 + a2 * m1 + a2 * a21
                    _q_then_pp(acc, q_pt, A, A2, mono, -q_pow(phase) * coeff, cfg)
                for B in km1:
                    _, b2 = point_comps(B)
                    q_pt = (A[0] + B[0] + shift[0], A[1] + B[1] + shift[1])
                    phase = n1 * a1 + b2 * m1 + b2 * a1
                    _q_then_pp(acc, q_pt, A, B, mono, -q_pow(phase) * coeff, cfg)

        elif i == 2 and j == 3:
            t = _term_P(km1_point(-m1, -n1), mono, coeff, cfg)
            if t is not None:
                _add_term(acc, t[0], -(MU * q_pow(-m1 * n1)) * t[1])
            shift = (3 * m1 + 1, 3 * n1 + 1)
            for B in km1:
                b1, b2 = point_comps(B)
                for A in k1:
                    _, a2 = point_comps(A)
                    q_pt = (A[0] + B[0] + shift[0], A[1] + B[1] + shift[1])
                    phase = n1 * b1 + a2 * m1 + a2 * b1
                    _q_then_pp(acc, q_pt, A, B, mono, -q_pow(phase) * coeff, cfg)
                for B2 in km1:
                    b21, _ = point_comps(B2)
                    q_pt = (B[0] + B2[0] + shift[0], B[1] + B2[1] + shift[1])
                    phase = n1 * b21 + b2 * m1 + b2 * b21
                    _q_then_pp(acc, q_pt, B, B2, mono, -q_pow(phase) * coeff, cfg)

        else:
            raise AssertionError("unreachable")

    return FockPoly._raw(acc)


def apply_D(which, v, cfg=DEFAULT_CONFIG):
    """Weighted degree operator: sum over points of comp_which * Q P."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    acc = {}
    for mono, coeff in v.terms.items():
        for pt, _ in mono:
            w = point_comps(pt)[which - 1]
            if w:
                _q_then_p(acc, pt, pt, 0, mono, coeff * w, cfg)
    return FockPoly._raw(acc)


def pi(x, v, cfg=DEFAULT_CONFIG):
    """The representation: matrix symbols act by generators, d's by D's, c's by 0."""
    out = FockPoly.zero()
    for sym, c in x.terms.items():
        kind = sym[0]
        if kind == "E":
            _, i, j, m, n = sym
            out = out + apply_generator(i, j, m, n, v, cfg).scale(c)
        elif kind == "ds":
            out = out + apply_D(1, v, cfg).scale(c)
        elif kind == "dt":
            out = out + apply_D(2, v, cfg).scale(c)
        # central symbols act as zero
    return out

