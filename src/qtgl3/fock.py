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

Index 1 of e_ij stands for the class K_1 and index 3 for K_-1; the
point of class c with components (m, n) is (3m + c, 3n + c).  Every
infinite lattice sum has a P acting first, so only the points X present
in a monomial contribute, and the nine families come in three shapes:

- e12, e32: the single creation operator Q at the point of i's class
  with components (m1, n1).
- e11, e22, e33, e31, e13: sum_X q^phase Q_(X + 3(m1, n1) + offset) P_X
  over X in a fixed set of classes (one row of `_ONE_P_ROWS`), plus the
  vacuum term +-mu/2 on e11, e22, e33 when (m1, n1) = (0, 0).  The phase
  is x1*n1; e22 alone takes x2*m1 and a minus sign.
- e21, e23: with c the class of j,
      -mu q^(-m1 n1) P_(3(-m1, -n1) + c)
      - sum_(X in class c, Y present) q^(n1 x1 + y2 m1 + y2 x1)
            Q_(X + Y + 3(m1, n1) - c) P_X P_Y.
  The realization writes the part with Y in class c as a sum over
  (X, X') with phase n1 x1' + x2 m1 + x2 x1'; relabeling X <-> X' turns
  it into the form above term by term, because P_X and P_X' commute.
"""

from __future__ import annotations

from .scalars import HALF_MU, MU, ONE, ScalarPoly, SparseSum, accumulate, q_pow


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


class FockPoly(SparseSum):
    """Sparse polynomial in the x_(p,r); monomials are sorted ((point, exp), ...) tuples."""

    __slots__ = ()

    @classmethod
    def one(cls, coeff=ONE):
        return cls._raw({(): coeff} if coeff else {})

    @classmethod
    def variable(cls, pt, coeff=ONE):
        point_class(pt)
        return cls._raw({((pt, 1),): coeff} if coeff else {})

    def __mul__(self, other):
        out = {}
        for ma, ca in self.terms.items():
            da = dict(ma)
            for mb, cb in other.terms.items():
                exps = dict(da)
                for pt, e in mb:
                    exps[pt] = exps.get(pt, 0) + e
                accumulate(out, tuple(sorted(exps.items())), ca * cb)
        return FockPoly._raw(out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            factors = "".join(f"·x{pt}^{e}" for pt, e in mono) or "·1"
            parts.append(f"[{self.terms[mono]}]{factors}")
        return " + ".join(parts)

    def to_json(self):
        return [
            {"monomial": [[pt[0], pt[1], e] for pt, e in mono], "coeff": str(c)}
            for mono, c in sorted(self.terms.items())
        ]


def _diff(pt, mono, factor, coeff):
    """factor * d/dx_pt of coeff*mono as (monomial, coeff), or None if x_pt is absent."""
    for idx, (p, e) in enumerate(mono):
        if p == pt:
            if factor is not ONE:  # the default config entry 1 needs no product
                coeff = factor * coeff
            if e > 1:
                return mono[:idx] + ((p, e - 1),) + mono[idx + 1:], coeff * e
            return mono[:idx] + mono[idx + 1:], coeff
    return None


def _mono_times(mono, pt):
    out = dict(mono)
    out[pt] = out.get(pt, 0) + 1
    return tuple(sorted(out.items()))


def _term_P(pt, mono, coeff, cfg):
    """P_pt(coeff*mono) as (monomial, coeff), or None if x_pt is absent."""
    return _diff(pt, mono, cfg.triple(pt)[0], coeff)


def _add_Q(acc, pt, mono, coeff, cfg):
    """Accumulate Q_pt(coeff*mono) = c_pt * d/dx_pt + d_pt * x_pt into acc."""
    _, cc, d = cfg.triple(pt)
    accumulate(acc, _mono_times(mono, pt), coeff if d is ONE else d * coeff)
    if cc:
        t = _diff(pt, mono, cc, coeff)
        if t is not None:
            accumulate(acc, *t)


def apply_P(pt, v, cfg=DEFAULT_CONFIG):
    """P_pt = a_pt * d/dx_pt."""
    out = {}
    for mono, c in v.terms.items():
        t = _term_P(pt, mono, c, cfg)
        if t is not None:
            accumulate(out, *t)
    return FockPoly._raw(out)


def apply_Q(pt, v, cfg=DEFAULT_CONFIG):
    """Q_pt = c_pt * d/dx_pt + d_pt * x_pt."""
    out = {}
    for mono, c in v.terms.items():
        _add_Q(out, pt, mono, c, cfg)
    return FockPoly._raw(out)


def _q_after_p(acc, q_pt, p_pts, phase_exp, mono, coeff, cfg):
    """Accumulate q^phase * Q_q_pt(P...P(coeff*mono)); the P's at p_pts act in order."""
    t = (mono, coeff)
    for p in p_pts:
        t = _term_P(p, t[0], t[1], cfg)
        if t is None:
            return
    mono2, c2 = t
    if phase_exp:
        c2 = c2 * q_pow(phase_exp)
    _add_Q(acc, q_pt, mono2, c2, cfg)


# the class of generator index 1 or 3 (see the module docstring)
_INDEX_CLASS = {1: 1, 3: -1}

# The one-P generators: (i, j) -> (classes of the summed points X, offset
# of the shift X -> X + 3(m, n) + offset, vacuum term at (m, n) = (0, 0)).
_ONE_P_ROWS = {
    (1, 1): ((1,), 0, HALF_MU),
    (2, 2): ((1, -1), 0, -HALF_MU),
    (3, 3): ((-1,), 0, HALF_MU),
    (3, 1): ((1,), -2, None),
    (1, 3): ((-1,), 2, None),
}


def apply_generator(i, j, m1, n1, v, cfg=DEFAULT_CONFIG):
    """Apply the operator realizing E_ij(s^m1 t^n1) to v.

    The three branches are the three shapes in the module docstring.
    """
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError(f"bad generator indices ({i}, {j})")
    if j == 2 and i != 2:
        # E12, E32: the single creation operator Q at the point of i's class
        c = _INDEX_CLASS[i]
        return apply_Q((3 * m1 + c, 3 * n1 + c), v, cfg)

    acc = {}
    if i == 2 and j != 2:
        # E21, E23: -mu P at the point of j's class at (-m1, -n1), plus
        # Q P P over X in j's class and Y over every point present; the
        # same-class pairs are the realization's double sum relabeled
        # X <-> X', which is exact because the P's commute
        c = _INDEX_CLASS[j]
        p_pt = (-3 * m1 + c, -3 * n1 + c)
        sx, sy = 3 * m1 - c, 3 * n1 - c
        minus_mu = -(MU * q_pow(-m1 * n1))
        for mono, coeff in v.terms.items():
            t = _term_P(p_pt, mono, coeff, cfg)
            if t is not None:
                accumulate(acc, t[0], minus_mu * t[1])
            neg = -coeff
            for X, _ in mono:
                if point_class(X) != c:
                    continue
                x1, _ = point_comps(X)
                for Y, _ in mono:
                    _, y2 = point_comps(Y)
                    q_pt = (X[0] + Y[0] + sx, X[1] + Y[1] + sy)
                    phase = n1 * x1 + y2 * m1 + y2 * x1
                    _q_after_p(acc, q_pt, (X, Y), phase, mono, neg, cfg)

    else:
        # E11, E22, E33, E31, E13: Q P over the present points of the row's classes
        classes, offset, vacuum = _ONE_P_ROWS[(i, j)]
        e22 = (i, j) == (2, 2)
        sx, sy = 3 * m1 + offset, 3 * n1 + offset
        vacuum = vacuum if (m1, n1) == (0, 0) else None
        for mono, coeff in v.terms.items():
            c = -coeff if e22 else coeff
            for X, _ in mono:
                if point_class(X) not in classes:
                    continue
                x1, x2 = point_comps(X)
                phase = x2 * m1 if e22 else x1 * n1
                _q_after_p(acc, (X[0] + sx, X[1] + sy), (X,), phase, mono, c, cfg)
            if vacuum is not None:
                accumulate(acc, mono, vacuum * coeff)

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
                _q_after_p(acc, pt, (pt,), 0, mono, coeff * w, cfg)
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
