"""Seeded verification suites for the bracket relations and the representation.

Each suite runs a fixed exhaustive core plus seeded random samples and
reports exact-equality failures as rendered counterexamples.  All checks
are exact: any failure is an implementation bug, never a tolerance issue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import fock
from .fock import FockPoly, FreeFieldConfig, k1_point, km1_point
from .gl3 import GlElement, bracket, jacobi_residual, omega
from .scalars import ONE, GaussianRational, ScalarPoly, q_pow


@dataclass
class SuiteReport:
    name: str
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def record(self, condition, message):
        self.checks += 1
        if not condition:
            self.failures.append(message() if callable(message) else message)

    def to_json(self):
        return {"name": self.name, "checks": self.checks,
                "failures": self.failures[:20], "ok": self.ok}


# -- samplers -----------------------------------------------------------

def _rand_mono(rng):
    """A torus monomial exponent pair, each component in [-2, 2]."""
    return (rng.randint(-2, 2), rng.randint(-2, 2))


def rand_matrix_symbol(rng):
    i = rng.randint(1, 3)
    j = rng.randint(1, 3)
    m, n = _rand_mono(rng)
    return GlElement.matrix(i, j, (m, n))


def rand_generator(rng):
    """A basis symbol; occasionally one of d_s, d_t, c_s, c_t."""
    if rng.random() < 0.15:
        return rng.choice([GlElement.d_s, GlElement.d_t, GlElement.c_s, GlElement.c_t])()
    return rand_matrix_symbol(rng)


def _rand_coeff(rng):
    """re + im*i: re = a/d with a in [-3, 3], d in (1, 1, 2); im in [-2, 2] 40 % of
    the time, else 0.  Built from integers as the Gaussian rational (a + im*d*i)/d."""
    a = rng.randint(-3, 3)
    d = rng.choice([1, 1, 2])
    b = rng.randint(-2, 2) * d if rng.random() < 0.4 else 0
    return ScalarPoly.term(GaussianRational._make(a, b, d))


def rand_element(rng):
    """Random element: one or two symbols with small Gaussian-rational coefficients."""
    x = GlElement.zero()
    for _ in range(rng.randint(1, 2)):
        c = _rand_coeff(rng)
        if not c:
            c = ScalarPoly.one()
        x = x + rand_generator(rng).scale(c)
    return x


def rand_poly(rng, nterms=2):
    """Random module polynomial: up to `nterms` monomials of degree 1 to 3 over
    index points with components in [-1, 1]."""
    out = FockPoly.one() if rng.random() < 0.3 else FockPoly.zero()
    for _ in range(rng.randint(1, nterms)):
        v = FockPoly.one(_rand_coeff(rng) + ScalarPoly.one())
        for _ in range(rng.randint(1, 3)):
            m = rng.randint(-1, 1)
            n = rng.randint(-1, 1)
            pt = k1_point(m, n) if rng.random() < 0.5 else km1_point(m, n)
            v = v * FockPoly.variable(pt)
        out = out + v
    return out


def rand_config(rng):
    """Random SL2 parameters (a*d = 1, c free) at index points with components in [-2, 2]."""
    entries = {}
    for m in range(-2, 3):
        for n in range(-2, 3):
            for pt in (k1_point(m, n), km1_point(m, n)):
                a = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
                c = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                entries[pt] = (
                    ScalarPoly.from_rational(a),
                    ScalarPoly.from_rational(c),
                    ScalarPoly.from_rational(1 / a),
                )
    return FreeFieldConfig(entries)


# -- suites -------------------------------------------------------------

def _pi_e12_phase(x, v, cfg):
    """The shipped pi with a stray q on the e12 family: the negative control."""
    e12 = GlElement({s: c for s, c in x.terms.items() if s[:3] == ("E", 1, 2)})
    return fock.pi(x, v, cfg) + fock.pi(e12, v, cfg).scale(q_pow(1) - ONE)


def _check_pair(report, x, y, v, cfg, corrupt):
    pi = _pi_e12_phase if corrupt else fock.pi
    lhs = pi(bracket(x, y), v, cfg)
    rhs = pi(x, pi(y, v, cfg), cfg) - pi(y, pi(x, v, cfg), cfg)
    report.record(
        lhs == rhs,
        lambda: f"pi([x,y])v != [pi(x),pi(y)]v\n  x = {x}\n  y = {y}\n"
                f"  v = {v}\n  diff = {lhs - rhs}",
    )


def homomorphism_suite(samples=200, seed=0, cfg=None, corrupt=False,
                       name="homomorphism"):
    """pi([x,y])v = [pi(x), pi(y)]v, exhaustive core plus seeded samples."""
    cfg = cfg or fock.DEFAULT_CONFIG
    rng = random.Random(seed)
    report = SuiteReport(name)
    core_v = (
        FockPoly.one()
        + FockPoly.variable((1, 1))
        + FockPoly.variable((2, 2)) * FockPoly.variable((-1, -1))
    )
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                for l in range(1, 4):
                    x = GlElement.matrix(i, j, (1, 0))
                    y = GlElement.matrix(k, l, (0, 1))
                    _check_pair(report, x, y, core_v, cfg, corrupt)
                    # exponent pattern that triggers the central terms
                    x2 = GlElement.matrix(i, j, (1, 1))
                    y2 = GlElement.matrix(k, l, (-1, -1))
                    _check_pair(report, x2, y2, core_v, cfg, corrupt)
    for _ in range(samples):
        x = rand_generator(rng)
        y = rand_generator(rng)
        v = rand_poly(rng)
        _check_pair(report, x, y, v, cfg, corrupt)
    return report


def lie_axiom_suite(samples=200, seed=0):
    """Antisymmetry, Jacobi, and the omega anti-involution, all exact."""
    rng = random.Random(seed)
    report = SuiteReport("lie_axioms")
    report.record(
        jacobi_residual(
            GlElement.matrix(1, 2, (1, 0)),
            GlElement.matrix(2, 3, (0, 1)),
            GlElement.matrix(3, 1, (-1, -1)),
        ).is_zero(),
        "jacobi residual nonzero on the fixed witness triple",
    )
    for _ in range(samples):
        x = rand_element(rng)
        y = rand_element(rng)
        z = rand_element(rng)
        report.record(
            (bracket(x, y) + bracket(y, x)).is_zero(),
            lambda x=x, y=y: f"antisymmetry failed\n  x = {x}\n  y = {y}",
        )
        report.record(
            jacobi_residual(x, y, z).is_zero(),
            lambda x=x, y=y, z=z: f"jacobi failed\n  x = {x}\n  y = {y}\n  z = {z}",
        )
        report.record(
            omega(omega(x)) == x,
            lambda x=x: f"omega not involutive on {x}",
        )
        report.record(
            omega(bracket(x, y)) == bracket(omega(y), omega(x)),
            lambda x=x, y=y: f"omega([x,y]) != [omega(y),omega(x)]\n  x = {x}\n  y = {y}",
        )
    return report


def weyl_suite(samples=60, seed=0, cfg=None):
    """[P_X, Q_Y] = delta_XY and all other P/Q pairs commute."""
    cfg = cfg or fock.DEFAULT_CONFIG
    rng = random.Random(seed)
    report = SuiteReport("weyl_relations")
    for _ in range(samples):
        pts = []
        for _ in range(2):
            m, n = rng.randint(-1, 1), rng.randint(-1, 1)
            pts.append(k1_point(m, n) if rng.random() < 0.5 else km1_point(m, n))
        x_pt, y_pt = pts
        v = rand_poly(rng)
        pq = fock.apply_P(x_pt, fock.apply_Q(y_pt, v, cfg), cfg)
        qp = fock.apply_Q(y_pt, fock.apply_P(x_pt, v, cfg), cfg)
        expect = v if x_pt == y_pt else FockPoly.zero()
        report.record(
            pq - qp == expect,
            lambda a=x_pt, b=y_pt: f"[P_{a}, Q_{b}] wrong",
        )
        pp = fock.apply_P(x_pt, fock.apply_P(y_pt, v, cfg), cfg)
        pp2 = fock.apply_P(y_pt, fock.apply_P(x_pt, v, cfg), cfg)
        report.record(pp == pp2, lambda a=x_pt, b=y_pt: f"[P_{a}, P_{b}] != 0")
        qq = fock.apply_Q(x_pt, fock.apply_Q(y_pt, v, cfg), cfg)
        qq2 = fock.apply_Q(y_pt, fock.apply_Q(x_pt, v, cfg), cfg)
        report.record(qq == qq2, lambda a=x_pt, b=y_pt: f"[Q_{a}, Q_{b}] != 0")
    return report


def derivation_suite(samples=60, seed=0):
    """[D1, D2] = 0 and [D_i, e_ij(m, n)] = (m or n) e_ij(m, n) on samples."""
    cfg = fock.DEFAULT_CONFIG
    rng = random.Random(seed)
    report = SuiteReport("degree_operators")
    for _ in range(samples):
        v = rand_poly(rng)
        d12 = fock.apply_D(1, fock.apply_D(2, v, cfg), cfg)
        d21 = fock.apply_D(2, fock.apply_D(1, v, cfg), cfg)
        report.record(d12 == d21, "[D1, D2] != 0")
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        m, n = _rand_mono(rng)
        ev = fock.apply_generator(i, j, m, n, v, cfg)
        for which, w in ((1, m), (2, n)):
            lhs = fock.apply_D(which, ev, cfg) - fock.apply_generator(
                i, j, m, n, fock.apply_D(which, v, cfg), cfg
            )
            report.record(
                lhs == ev.scale(w),
                lambda i=i, j=j, m=m, n=n, which=which:
                    f"[D{which}, e{i}{j}({m},{n})] not the weight multiple",
            )
    return report


def run_all(samples=200, seed=0, corrupt=False):
    """The full bracket-verification battery used by the CLI."""
    rng = random.Random(seed ^ 0x5EED)
    reports = [
        homomorphism_suite(samples=samples, seed=seed, corrupt=corrupt),
        homomorphism_suite(
            samples=max(10, samples // 5),
            seed=seed + 1,
            cfg=rand_config(rng),
            corrupt=corrupt,
            name="homomorphism_random_config",
        ),
        lie_axiom_suite(samples=samples, seed=seed + 2),
        weyl_suite(samples=max(20, samples // 3), seed=seed + 3),
        derivation_suite(samples=max(20, samples // 3), seed=seed + 4),
    ]
    return reports
