import cmath
import math
from fractions import Fraction

from hypothesis import example, given, settings
import hypothesis.strategies as st
import numpy as np
import pytest

from qtgl3.fock import FockPoly
from qtgl3.gl3 import CS, CT, DS, DT, GlElement
from qtgl3.scalars import (
    G_ONE, MU, MU_BITS, ONE, ZERO, GaussianRational, ScalarPoly, q_pow, signed_q_pow,
    unpack_key,
)
from qtgl3.torus import TorusElement

Q = q_pow(1)
QINV = q_pow(-1)
I = ScalarPoly.term(GaussianRational(0, 1))


def packed_keys(q_exps, mu_degs):
    """Term keys (e << MU_BITS) + d, packed here by hand."""
    return st.builds(lambda e, d: (e << MU_BITS) + d, q_exps, mu_degs)


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
    assert MU * MU == ScalarPoly.term(1, mu_deg=2)
    assert I * I == ScalarPoly.term(-1)


def test_conjugate_examples():
    assert (I * q_pow(2)).conjugate() == -I * q_pow(-2)
    assert MU.conjugate() == MU


def test_mu_degree_and_leading_part():
    assert (MU * MU + MU).mu_degree() == 2
    assert (MU * MU + Q * MU).leading_mu_part() == ONE
    assert q_pow(3).mu_degree() == 0
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


def test_term_rejects_mu_degrees_outside_the_key():
    # a mu degree outside [0, 2^MU_BITS) would alias another term's key
    for bad in (lambda: ScalarPoly.term(1, q_exp=2, mu_deg=-1),
                lambda: ScalarPoly.term(1, mu_deg=1 << MU_BITS),
                lambda: ScalarPoly.term(1, mu_deg=1 << MU_BITS),
                lambda: ScalarPoly.term(1, mu_deg=-1)):
        with pytest.raises(ValueError):
            bad()
    assert ScalarPoly.term(1, mu_deg=(1 << MU_BITS) - 1).mu_degree() == (1 << MU_BITS) - 1


@given(st.integers(-5, 5), st.integers(0, 3),
       st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3)).filter(bool))
@example(-3, 2, G_ONE)
@settings(max_examples=80, deadline=None)
def test_term_key_round_trips(e, d, c):
    p = ScalarPoly.term(c, q_exp=e, mu_deg=d)
    (key, got), = p.terms.items()
    assert unpack_key(key) == (e, d) and got == c
    q_exps, mu_degs = unpack_key(np.array([key, key], dtype=np.intp))
    assert q_exps.tolist() == [e, e] and mu_degs.tolist() == [d, d]
    (key, got), = p.conjugate().terms.items()
    assert unpack_key(key) == (-e, d) and got == c.conjugate()
    assert p.mu_degree() == d
    assert p.leading_mu_part() == ScalarPoly.term(c, q_exp=e)
    assert str(p) == f"{c}·q^{e}·μ^{d}"
    theta, mu = Fraction(2, 7), 1.3
    want = c.to_complex() * cmath.exp(2j * math.pi * float(theta) * e) * mu ** d
    assert abs(p.evaluate(theta, mu) - want) <= 1e-12 * max(1.0, abs(want))


def test_rendering_canonical_order():
    p = q_pow(2) + MU + q_pow(-1)
    # mu-degree descending, then q-exponent ascending
    assert str(p) == "(1+0i)·q^0·μ^1 + (1+0i)·q^-1·μ^0 + (1+0i)·q^2·μ^0"
    assert str(ZERO) == "0"
    c = GaussianRational(Fraction(-3, 2), Fraction(1, 2))
    assert str(ScalarPoly.term(c)) == "(-3/2+1/2i)·q^0·μ^0"
    assert str(ScalarPoly.term(1, q_exp=-3, mu_deg=2)) == "(1+0i)·q^-3·μ^2"


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


@given(st.integers(-6, 6), scalar_polys)
@settings(max_examples=80, deadline=None)
def test_int_operand_scales_like_a_constant_poly(k, p):
    want = ScalarPoly.term(k) * p
    assert k * p == p * k == want
    assert all((k * p).terms.values())
    if not k:
        assert k * p is ZERO


@given(st.integers(-40, 40), st.integers(-40, 40), st.sampled_from([1, 2, 3, 6, 12]))
@example(5, 0, 1)
@example(-3, -7, 1)
@example(0, -1, 1)
@example(-1, 0, 2)
@settings(max_examples=120, deadline=None)
def test_gaussian_rational_str_matches_fraction_rendering(a, b, d):
    g = GaussianRational(Fraction(a, d), Fraction(b, d))
    re, im = Fraction(a, d), Fraction(b, d)
    assert str(g) == f"({re}{'+' if im >= 0 else '-'}{abs(im)}i)"
    assert str(GaussianRational._make(a, b, d)) == str(g)


def _general_add(a, b):
    terms = dict(a.terms)
    for k, c in b.terms.items():
        terms[k] = terms[k] + c if k in terms else c
    return ScalarPoly(terms)  # the constructor drops zero coefficients


def _general_neg(a):
    return ScalarPoly({k: -c for k, c in a.terms.items()})


# built from a term dict, not by adding terms, so these never pass through __add__
term_dict_polys = st.dictionaries(
    packed_keys(st.integers(-3, 3), st.integers(0, 2)),
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


def _naive_mul(a, b):
    """a * b by a plain dict convolution over Fractions, sharing no code with
    __mul__: it decodes each key, adds the exponents and packs them again."""
    out = {}
    for k1, c1 in a.terms.items():
        e1, d1 = unpack_key(k1)
        for k2, c2 in b.terms.items():
            e2, d2 = unpack_key(k2)
            k = ((e1 + e2) << MU_BITS) + d1 + d2
            re, im = out.get(k, (0, 0))
            out[k] = (re + c1.re * c2.re - c1.im * c2.im, im + c1.re * c2.im + c1.im * c2.re)
    return ScalarPoly({k: GaussianRational(re, im) for k, (re, im) in out.items()})


nonzero_gaussians = st.builds(GaussianRational, rational(), rational()).filter(bool)
one_term_polys = st.builds(
    lambda e, d, c: ScalarPoly.term(c, q_exp=e, mu_deg=d),
    st.integers(-3, 3), st.integers(0, 2),
    st.one_of(st.sampled_from([G_ONE, GaussianRational(-1)]), nonzero_gaussians),
)
# the operands the fast paths take: units (shared, equal-but-distinct, -1),
# zero, one-term polynomials and ints
fast_path_polys = st.one_of(
    st.sampled_from([ONE, ScalarPoly({0: GaussianRational(1)}),
                     ScalarPoly.term(-1), ZERO]),
    one_term_polys,
)
fast_path_operands = st.one_of(fast_path_polys, st.sampled_from([0, 1, -1, 3, -2]))
multi_term_polys = st.dictionaries(
    packed_keys(st.integers(-3, 3), st.integers(0, 2)), nonzero_gaussians, min_size=2, max_size=4,
).map(ScalarPoly)


@given(fast_path_operands, st.one_of(multi_term_polys, fast_path_polys))
@example(ONE, ScalarPoly({0: G_ONE, 1 << MU_BITS: G_ONE}))
@example(-1, ScalarPoly({0: G_ONE, 1 << MU_BITS: G_ONE}))
@settings(max_examples=150, deadline=None)
def test_multiplication_fast_paths_match_naive_convolution(x, p):
    as_poly = ScalarPoly.term(x) if isinstance(x, int) else x
    want = _naive_mul(as_poly, p)
    for got in (x * p, p * x):
        assert got == want
        assert all(got.terms.values())
        # a fast path keeps the other operand's term order, which `evaluate` sums in
        assert list(got.terms) == list(want.terms)
    if as_poly == ONE and len(p.terms) > 1:  # the unit hands back the other operand
        assert x * p is p and p * x is p


def test_q_powers_are_shared_instances():
    # ScalarPoly.__mul__, SparseSum.scale and fock recognise q^0 by identity with ONE
    assert q_pow(0) is ONE and signed_q_pow(1, 0) is ONE
    assert q_pow(3) is q_pow(3) and q_pow(3) == ScalarPoly.term(1, q_exp=3)
    assert signed_q_pow(1, -4) is q_pow(-4)
    assert signed_q_pow(-1, 2) == -q_pow(2)
    assert signed_q_pow(-1, 2) is signed_q_pow(-1, 2)


def test_scale_by_one_returns_the_sum_itself():
    x = GlElement.matrix(1, 2, (1, 0), coeff=Q + MU) + GlElement.d_s()
    assert x.scale(ONE) is x
    assert x.scale(ScalarPoly.term(1)) == x
    v = FockPoly.variable((1, 1), coeff=I)
    assert v.scale(ONE) is v
    assert ZERO.scale(G_ONE) == ZERO


# -- the shared term algebra of the SparseSum subclasses ---------------------

# few small coefficients, so sums cancel often
small_coeffs = st.builds(
    lambda k, e: ScalarPoly.term(k, q_exp=e), st.integers(-2, 2), st.integers(-1, 1)
)
small_gaussians = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-1, 1))
SPARSE_KEYS = {
    ScalarPoly: packed_keys(st.integers(-1, 1), st.integers(0, 2)),
    TorusElement: st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    GlElement: st.one_of(
        st.tuples(st.just("E"), st.integers(1, 3), st.integers(1, 3),
                  st.integers(-1, 1), st.integers(-1, 1)),
        st.sampled_from([CS, CT, DS, DT]),
    ),
    FockPoly: st.sampled_from([
        (), (((1, 1), 1),), (((1, 1), 2),), (((-1, -1), 1),),
        (((-1, -1), 1), ((1, 1), 1)),
    ]),
}


def coefficient_ring(cls):
    """(strategy, zero, one) of the coefficients of a SparseSum subclass."""
    if cls is ScalarPoly:
        return small_gaussians, GaussianRational(0), G_ONE
    return small_coeffs, ZERO, ONE


@st.composite
def sparse_pairs(draw, cls=None):
    """(class, x, y, c): y negates a random subset of x's terms, so x + y cancels.

    The class is drawn from all four kinds unless one is given."""
    if cls is None:
        cls = draw(st.sampled_from(list(SPARSE_KEYS)))
    coeffs = coefficient_ring(cls)[0]
    terms = st.dictionaries(SPARSE_KEYS[cls], coeffs, max_size=4)
    x = cls(draw(terms))
    y_terms = draw(terms)
    for k, c in x.terms.items():
        if draw(st.booleans()):
            y_terms[k] = -c
    return cls, x, cls(y_terms), draw(coeffs)


def _termwise(x, y, op):
    keys = set(x.terms) | set(y.terms)
    zero = coefficient_ring(type(x))[1]
    return type(x)({k: op(x.terms.get(k, zero), y.terms.get(k, zero)) for k in keys})


@given(sparse_pairs())
@settings(max_examples=150, deadline=None)
def test_sparse_sum_operations(case):
    cls, x, y, c = case
    results = {
        "add": x + y, "sub": x - y, "neg": -x, "scale": x.scale(c), "self_sub": x - x,
    }
    for name, r in results.items():
        assert type(r) is cls, name
        assert all(r.terms.values()), f"{name} stored a zero coefficient"
    assert results["add"] == _termwise(x, y, lambda a, b: a + b)
    assert results["sub"] == _termwise(x, y, lambda a, b: a - b)
    assert results["self_sub"] == cls.zero() and not results["self_sub"]
    assert results["scale"] == cls({k: c * v for k, v in x.terms.items()})


@given(sparse_pairs())
@settings(max_examples=60, deadline=None)
def test_sparse_sum_zero_operands(case):
    cls, x, _, _ = case
    zero = cls.zero()
    assert x + zero is x and x - zero is x
    assert zero + x == x
    if x:  # with both operands empty, either one is the sum
        assert zero + x is x
    assert zero - x == -x
    assert -(x - x) == zero and type(-(x - x)) is cls
    assert -zero == zero and type(-zero) is cls


def _reference_key_order(x, y, subtract):
    """Keys of x + y (or x - y): x's keys whose coefficient survives, in x's
    order, then y's keys that x lacks, in y's order."""
    cancel = {k for k, c in x.terms.items()
              if k in y.terms and y.terms[k] == (c if subtract else -c)}
    return ([k for k in x.terms if k not in cancel]
            + [k for k in y.terms if k not in x.terms])


@pytest.mark.parametrize("cls", list(SPARSE_KEYS), ids=lambda c: c.__name__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_sum_term_order(cls, data):
    # ScalarPoly.evaluate sums its floats in term order, so the order is output
    _, x, y, _ = data.draw(sparse_pairs(cls))
    for a, b in ((x, y), (y, x), (x, -y)):
        assert list((a + b).terms) == _reference_key_order(a, b, False)
        assert list((a - b).terms) == _reference_key_order(a, b, True)


@given(sparse_pairs(), sparse_pairs())
@settings(max_examples=60, deadline=None)
def test_sparse_sum_ne_is_not_eq(case, other):
    # SparseSum has its own __ne__: within a kind it negates ==, across kinds
    # it defers like __eq__, so x != y stays True
    _, x, y, _ = case
    for a, b in ((x, y), (x, x), (x, x + y - y), (y, -y), (x.zero(), -x.zero())):
        assert (a != b) is (not a == b)
    z = other[1]
    if type(z) is not type(x):
        assert (x != z) is True and (z != x) is True


def test_sparse_sums_of_different_kinds_never_compare_equal():
    # one key for every kind, so only the kinds differ: q·μ for ScalarPoly,
    # and the other kinds take any hashable key here
    key = (1 << MU_BITS) + 1
    for a in SPARSE_KEYS:
        one_a = coefficient_ring(a)[2]
        assert a({key: one_a}) == a({key: one_a})
        for b in SPARSE_KEYS:
            if a is not b:
                one_b = coefficient_ring(b)[2]
                assert a.zero() != b.zero()
                assert a({key: one_a}) != b({key: one_b})
                with pytest.raises(TypeError):
                    a({key: one_a}) + b({key: one_b})
                with pytest.raises(TypeError):
                    a({key: one_a}) - b({key: one_b})
