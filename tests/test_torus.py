import random
from fractions import Fraction

from qtgl3.scalars import ONE, GaussianRational, ScalarPoly, q_pow
from qtgl3.torus import TorusElement, mono_mul


def normalize_letters(letters):
    """Brute-force oracle: reorder a generator string with ts = q*st.

    `letters` is a sequence of ('s'|'t', exponent-step +-1); returns
    (q-exponent, m, n) of the normal form q^e s^m t^n, moving one letter
    at a time so each swap applies the defining relation once.
    """
    seq = list(letters)
    phase = 0
    changed = True
    while changed:
        changed = False
        for idx in range(len(seq) - 1):
            (g1, e1), (g2, e2) = seq[idx], seq[idx + 1]
            if g1 == "t" and g2 == "s":
                phase += e1 * e2
                seq[idx], seq[idx + 1] = seq[idx + 1], seq[idx]
                changed = True
    m = sum(e for g, e in seq if g == "s")
    n = sum(e for g, e in seq if g == "t")
    return phase, m, n


def mono_letters(m, n):
    return [("s", 1 if m > 0 else -1)] * abs(m) + [("t", 1 if n > 0 else -1)] * abs(n)


def elem(m, n, coeff=ONE):
    return TorusElement.monomial(m, n, coeff)


def test_mono_mul_examples():
    assert mono_mul((1, 1), (1, 0)) == (q_pow(1), (2, 1))
    assert mono_mul((1, 0), (0, 1)) == (ONE, (1, 1))
    # (st)(s^-1 t^-1): push t past s^-1
    assert mono_mul((1, 1), (-1, -1)) == (q_pow(-1), (0, 0))


def test_mono_mul_against_letter_rewriting():
    rng = random.Random(0)
    for _ in range(200):
        x = (rng.randint(-2, 2), rng.randint(-2, 2))
        y = (rng.randint(-2, 2), rng.randint(-2, 2))
        phase, mono = mono_mul(x, y)
        e, m, n = normalize_letters(mono_letters(*x) + mono_letters(*y))
        assert phase == q_pow(e)
        assert mono == (m, n)


def test_mul_unit_and_inverse():
    x = elem(2, -1) + elem(0, 1, q_pow(3))
    assert TorusElement.one() * x == x
    assert elem(1, 0) * elem(-1, 0) == TorusElement.one()


def test_mul_associative_random():
    rng = random.Random(1)
    for _ in range(60):
        xs = [
            elem(rng.randint(-2, 2), rng.randint(-2, 2),
                 ScalarPoly.term(GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))))
            + elem(rng.randint(-2, 2), rng.randint(-2, 2))
            for _ in range(3)
        ]
        a, b, c = xs
        assert (a * b) * c == a * (b * c)


def test_kappa():
    assert TorusElement.one().kappa() == ONE
    assert elem(2, -1).kappa() == ScalarPoly.zero()
    assert (elem(1, 1) * elem(-1, -1)).kappa() == q_pow(-1)


def test_kappa_rotation_invariance():
    rng = random.Random(2)
    for _ in range(100):
        x = elem(rng.randint(-2, 2), rng.randint(-2, 2), q_pow(rng.randint(-1, 1)))
        y = elem(rng.randint(-2, 2), rng.randint(-2, 2)) + elem(
            rng.randint(-2, 2), rng.randint(-2, 2)
        )
        assert (x * y).kappa() == (y * x).kappa()


def test_bar_examples():
    assert TorusElement.one().bar() == TorusElement.one()
    two_i = ScalarPoly.term(GaussianRational(0, 2))
    minus_two_i = ScalarPoly.term(GaussianRational(0, -2))
    assert elem(1, 1, two_i).bar() == elem(-1, -1, minus_two_i * q_pow(1))


def test_bar_involution_and_antiautomorphism():
    rng = random.Random(3)
    for _ in range(100):
        x = elem(rng.randint(-2, 2), rng.randint(-2, 2),
                 ScalarPoly.term(GaussianRational(rng.randint(-2, 2), 1))) + elem(
            rng.randint(-2, 2), rng.randint(-2, 2)
        )
        y = elem(rng.randint(-2, 2), rng.randint(-2, 2), q_pow(rng.randint(-2, 2)))
        assert x.bar().bar() == x
        assert (x * y).bar() == y.bar() * x.bar()
