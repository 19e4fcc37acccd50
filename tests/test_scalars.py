import math
from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st

from qtgl3.scalars import MU, ONE, ZERO, GaussianRational, ScalarPoly, q_pow

Q = q_pow(1)
QINV = q_pow(-1)
I = ScalarPoly.gaussian(0, 1)


def rational(rng=3, dens=(1, 2, 3)):
    return st.builds(
        Fraction, st.integers(-rng, rng), st.sampled_from(dens)
    )


scalar_polys = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(0, 2), rational(), rational()),
    max_size=4,
).map(
    lambda items: sum(
        (ScalarPoly.term(GaussianRational(re, im), q_exp=e, mu_deg=d)
         for (e, d, re, im) in items),
        ZERO,
    )
)


def test_additive_identity_and_inverse():
    assert Q + ZERO == Q
    assert Q + (-Q) == ZERO
    assert (MU + Q) + (MU - Q) == ScalarPoly.term(2, mu_deg=1)


def test_multiplication_examples():
    assert Q * QINV == ONE
    assert MU * MU == ScalarPoly.mu_power(2)
    assert I * I == ScalarPoly.from_rational(-1)


def test_conjugate_examples():
    assert (I * ScalarPoly.q_power(2)).conjugate() == -I * ScalarPoly.q_power(-2)
    assert MU.conjugate() == MU


def test_mu_degree_and_leading_part():
    assert (MU * MU + MU).mu_degree() == 2
    assert (MU * MU + Q * MU).leading_mu_part() == ONE
    assert ScalarPoly.q_power(3).mu_degree() == 0
    try:
        ZERO.mu_degree()
    except ValueError:
        pass
    else:
        raise AssertionError("mu_degree of zero must raise")


def test_evaluate_examples():
    assert abs(Q.evaluate(0, 1) - 1) < 1e-12
    assert abs(Q.evaluate(Fraction(1, 4), 0) - 1j) < 1e-12
    assert abs((MU * MU + MU).evaluate(Fraction(1, 3), 2) - 6) < 1e-12


def test_rendering_canonical_order():
    p = ScalarPoly.q_power(2) + MU + ScalarPoly.q_power(-1)
    # mu-degree descending, then q-exponent ascending
    assert str(p) == "(1+0i)·q^0·μ^1 + (1+0i)·q^-1·μ^0 + (1+0i)·q^2·μ^0"
    assert str(ZERO) == "0"
    assert str(ScalarPoly.gaussian(Fraction(-3, 2), Fraction(1, 2))) == "(-3/2+1/2i)·q^0·μ^0"


@given(scalar_polys, scalar_polys, scalar_polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(scalar_polys, scalar_polys)
@settings(max_examples=60, deadline=None)
def test_conjugate_is_ring_involution(a, b):
    assert a.conjugate().conjugate() == a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalar_polys, scalar_polys)
@settings(max_examples=40, deadline=None)
def test_evaluate_is_ring_homomorphism(a, b):
    theta, mu = Fraction(2, 7), 1.3
    pa, pb = a.evaluate(theta, mu), b.evaluate(theta, mu)
    for exact, numeric in (((a + b), pa + pb), ((a * b), pa * pb)):
        got = exact.evaluate(theta, mu)
        assert abs(got - numeric) <= 1e-12 * max(1.0, abs(numeric))


def test_evaluate_stays_on_unit_circle():
    for e in range(-7, 8):
        assert abs(abs(q_pow(e).evaluate(Fraction(3, 7), 1.0)) - 1) < 1e-12


def test_gaussian_rational_fields():
    g = GaussianRational(Fraction(3, 4), Fraction(-1, 6))
    assert g.re == Fraction(3, 4)
    assert g.im == Fraction(-1, 6)
    assert (g * g.conjugate()).im == 0


def _general_add(a, b):
    terms = dict(a.terms)
    for k, c in b.terms.items():
        terms[k] = terms[k] + c if k in terms else c
    return ScalarPoly(terms)  # the constructor drops zero coefficients


def _general_neg(a):
    return ScalarPoly({k: -c for k, c in a.terms.items()})


# built from a term dict, not by adding terms, so these never pass through __add__
term_dict_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(0, 2)),
    st.builds(GaussianRational, rational(), rational()),
    max_size=4,
).map(ScalarPoly)


@given(st.one_of(st.just(ZERO), term_dict_polys), st.one_of(st.just(ZERO), term_dict_polys))
@settings(max_examples=80, deadline=None)
def test_zero_operand_fast_paths_match_general_path(a, b):
    # termwise sums built from the dicts alone, so they share no code with the fast paths
    assert a + b == _general_add(a, b)
    assert a - b == _general_add(a, _general_neg(b))
    assert -a == _general_neg(a)
    assert -(a - a) is ZERO
    for x in (a, b):
        assert ZERO + x == x and x + ZERO == x
        assert x - ZERO == x and ZERO - x == _general_neg(x)
    assert not ZERO.terms
