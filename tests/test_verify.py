import random
from fractions import Fraction

from qtgl3 import verify
from qtgl3.gl3 import GlElement
from qtgl3.scalars import ScalarPoly


# The samplers as they were written with Fraction arithmetic and eagerly built
# symbols; the integer construction in `verify` must return equal values
# (GaussianRational equality compares the reduced integer triples) from the
# same rng calls.

def _fraction_rand_coeff(rng):
    re = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
    im = Fraction(rng.randint(-2, 2)) if rng.random() < 0.4 else Fraction(0)
    return ScalarPoly.gaussian(re, im)


def _eager_rand_generator(rng):
    if rng.random() < 0.15:
        return rng.choice(
            [GlElement.d_s(), GlElement.d_t(), GlElement.c_s(), GlElement.c_t()]
        )
    return verify.rand_matrix_symbol(rng)


def test_samplers_keep_the_seeded_stream():
    for seed in range(500):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(10):
            assert verify._rand_coeff(new) == _fraction_rand_coeff(old)
            assert new.getstate() == old.getstate()
            assert verify.rand_generator(new) == _eager_rand_generator(old)
            assert new.getstate() == old.getstate()
