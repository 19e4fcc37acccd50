import hashlib
import random
from fractions import Fraction

import pytest

from qtgl3 import fock
from qtgl3.fock import (
    DEFAULT_CONFIG,
    FockPoly,
    FreeFieldConfig,
    apply_D,
    apply_P,
    apply_Q,
    apply_generator,
    pi,
    point_class,
    point_comps,
)
from qtgl3.gl3 import GlElement, bracket
from qtgl3.scalars import HALF_MU, MU, ONE, ScalarPoly, q_pow
from qtgl3.verify import (
    derivation_suite,
    homomorphism_suite,
    rand_config,
    rand_poly,
    weyl_suite,
)

X11 = FockPoly.variable((1, 1))


def test_point_classes():
    assert point_class((1, 1)) == 1
    assert point_class((-2, -2)) == 1  # -2 = 3*(-1) + 1
    assert point_comps((-2, -2)) == (-1, -1)
    assert point_class((-1, -1)) == -1
    assert point_comps((4, 1)) == (1, 0)
    assert point_comps((2, 2)) == (1, 1)
    assert point_comps((-1, -4)) == (0, -1)
    with pytest.raises(ValueError):
        point_class((0, 0))
    with pytest.raises(ValueError):
        point_class((1, 2))


def test_config_validation():
    with pytest.raises(ValueError):
        FreeFieldConfig({(1, 1): (ScalarPoly.from_rational(2), ScalarPoly.zero(), ONE)})
    cfg = FreeFieldConfig(
        {(1, 1): (ScalarPoly.from_rational(2), ONE, ScalarPoly.from_rational(Fraction(1, 2)))}
    )
    assert cfg.triple((1, 1))[0] == ScalarPoly.from_rational(2)
    assert cfg.triple((4, 4)) == (ONE, ScalarPoly.zero(), ONE)


def test_apply_p_examples():
    assert apply_P((1, 1), X11) == FockPoly.one()
    assert apply_P((1, 1), FockPoly.one()).is_zero()
    assert apply_P((1, 1), X11 * X11) == X11.scale(ScalarPoly.from_rational(2))


def test_apply_q_examples():
    assert apply_Q((1, 1), FockPoly.one()) == X11
    cfg = FreeFieldConfig(
        {(1, 1): (ScalarPoly.from_rational(2), ONE, ScalarPoly.from_rational(Fraction(1, 2)))}
    )
    got = apply_Q((1, 1), X11, cfg)
    want = FockPoly.one() + (X11 * X11).scale(ScalarPoly.from_rational(Fraction(1, 2)))
    assert got == want


def test_weyl_commutator_is_delta():
    rng = random.Random(4)
    cfg = rand_config(rng)
    for _ in range(30):
        v = rand_poly(rng)
        pq = apply_P((1, 1), apply_Q((1, 1), v, cfg), cfg)
        qp = apply_Q((1, 1), apply_P((1, 1), v, cfg), cfg)
        assert pq - qp == v
    assert weyl_suite(samples=40, seed=5).ok
    assert weyl_suite(samples=40, seed=6, cfg=rand_config(rng)).ok


def test_raising_generators_on_vacuum():
    assert apply_generator(1, 2, 0, 0, FockPoly.one()) == X11
    assert apply_generator(3, 2, 0, 0, FockPoly.one()) == FockPoly.variable((-1, -1))
    assert apply_generator(1, 2, 1, -1, FockPoly.one()) == FockPoly.variable((4, -2))


def test_diagonal_generators_on_vacuum():
    one = FockPoly.one()
    assert apply_generator(1, 1, 0, 0, one) == one.scale(HALF_MU)
    assert apply_generator(2, 2, 0, 0, one) == one.scale(-HALF_MU)
    assert apply_generator(3, 3, 0, 0, one) == one.scale(HALF_MU)
    assert apply_generator(1, 1, 1, 0, one).is_zero()


def test_lowering_generators_kill_vacuum():
    one = FockPoly.one()
    for m in range(-2, 3):
        for n in range(-2, 3):
            assert apply_generator(2, 1, m, n, one).is_zero()
            assert apply_generator(2, 3, m, n, one).is_zero()
            assert apply_generator(3, 1, m, n, one).is_zero()
            assert apply_generator(1, 3, m, n, one).is_zero()


def test_degree_operator_eigenvalues():
    x41 = FockPoly.variable((4, 1))
    assert apply_D(1, x41) == x41
    assert apply_D(1, FockPoly.one()).is_zero()
    v = X11 * FockPoly.variable((2, 2))
    # (1,1) has components (0,0); (2,2) has components (1,1)
    assert apply_D(2, v) == v
    assert apply_D(1, v) == v


def test_pi_kills_central_elements():
    rng = random.Random(7)
    v = rand_poly(rng)
    assert pi(GlElement.c_s(), v).is_zero()
    assert pi(GlElement.c_t(), v).is_zero()


def test_pi_cartan_pair_on_variable():
    x = bracket(GlElement.matrix(1, 2, (0, 0)), GlElement.matrix(2, 1, (0, 0)))
    got = pi(x, X11)
    assert got == X11.scale(ScalarPoly.from_rational(2) + MU)


def test_pi_is_a_homomorphism_sampled():
    rep = homomorphism_suite(samples=60, seed=8)
    assert rep.ok, rep.failures[:1]


def test_homomorphism_with_random_config():
    rng = random.Random(9)
    rep = homomorphism_suite(samples=30, seed=10, cfg=rand_config(rng))
    assert rep.ok, rep.failures[:1]


def test_corrupted_phase_is_detected():
    rep = homomorphism_suite(samples=10, seed=11, corrupt=True)
    assert not rep.ok
    assert "pi([x,y])v" in rep.failures[0]


def test_derivation_relations():
    rep = derivation_suite(samples=40, seed=12)
    assert rep.ok, rep.failures[:1]


def test_fock_poly_json():
    v = (X11 * X11).scale(MU) + FockPoly.variable((-1, -1))
    js = v.to_json()
    assert {"monomial": [[1, 1, 2]], "coeff": "(1+0i)·q^0·μ^1"} in js
    assert {"monomial": [[-1, -1, 1]], "coeff": "(1+0i)·q^0·μ^0"} in js


# SHA-256 of the rendered outputs of every operator under two configs;
# a rewrite of the operators must not change a single term.
PINNED_OPERATOR_DIGEST = (
    "f13736c6b2e96667747368148f2ff927931c7c80399f9314c31435531556ab2c"
)


def _operator_transcript():
    polys = [rand_poly(random.Random(seed), nterms=3) for seed in range(5)]
    polys.append(FockPoly.one())
    cfgs = [DEFAULT_CONFIG, rand_config(random.Random(31))]
    points = [(1, 1), (-1, -1), (4, -2), (2, 5)]
    lines = []
    for cfg in cfgs:
        for v in polys:
            for i in range(1, 4):
                for j in range(1, 4):
                    for m, n in ((0, 0), (1, 0), (0, 1), (1, -1), (-2, 1)):
                        lines.append(str(apply_generator(i, j, m, n, v, cfg)))
            for pt in points:
                lines.append(str(apply_P(pt, v, cfg)))
                lines.append(str(apply_Q(pt, v, cfg)))
            lines.append(str(apply_D(1, v, cfg)))
            lines.append(str(apply_D(2, v, cfg)))
    return "\n".join(lines)


def test_operator_outputs_are_pinned():
    digest = hashlib.sha256(_operator_transcript().encode()).hexdigest()
    assert digest == PINNED_OPERATOR_DIGEST


def test_homomorphism_suite_runs_the_shipped_pi(monkeypatch):
    assert homomorphism_suite(samples=10, seed=11).ok
    shipped = fock.pi

    def pi_with_stray_q(x, v, cfg=DEFAULT_CONFIG):
        out = FockPoly.zero()
        for sym, c in x.terms.items():
            w = shipped(GlElement({sym: c}), v, cfg)
            if sym[:3] == ("E", 1, 2):
                w = w.scale(q_pow(1))
            out = out + w
        return out

    monkeypatch.setattr(fock, "pi", pi_with_stray_q)
    rep = homomorphism_suite(samples=10, seed=11)
    assert not rep.ok
    assert "pi([x,y])v" in rep.failures[0]
