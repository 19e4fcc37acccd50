import random

from qtgl3.gl3 import GlElement, bracket, jacobi_residual, omega
from qtgl3.scalars import GaussianRational, ScalarPoly, q_pow
from qtgl3.verify import rand_element

E = GlElement.matrix


def test_bracket_sl2_triple():
    got = bracket(E(1, 2, (0, 0)), E(2, 1, (0, 0)))
    assert got == E(1, 1, (0, 0)) - E(2, 2, (0, 0))


def test_bracket_central_term():
    # matrix parts cancel, the s-degree central term survives
    assert bracket(E(1, 1, (1, 0)), E(1, 1, (-1, 0))) == GlElement.c_s()
    both = bracket(E(1, 1, (1, 1)), E(1, 1, (-1, -1)))
    assert both == (GlElement.c_s(q_pow(-1)) + GlElement.c_t(q_pow(-1)))


def test_bracket_derivations():
    x = E(1, 2, (2, 1))
    assert bracket(GlElement.d_s(), x) == x.scale(ScalarPoly.term(2))
    assert bracket(GlElement.d_t(), x) == x
    assert not bracket(GlElement.d_s(), GlElement.d_t())
    assert not bracket(GlElement.c_s(), x)
    assert not bracket(x, GlElement.c_t())


def test_bracket_matrix_phases():
    # [E12(t), E21(s)] = q E11(st) - E22(st)
    got = bracket(E(1, 2, (0, 1)), E(2, 1, (1, 0)))
    assert got == E(1, 1, (1, 1), q_pow(1)) - E(2, 2, (1, 1))


def test_jacobi_examples():
    assert not jacobi_residual(
        E(1, 2, (1, 0)), E(2, 3, (0, 1)), E(3, 1, (-1, -1))
    )
    x, y = E(2, 2, (1, -1)), E(1, 3, (0, 2))
    assert not jacobi_residual(x, x, y)


def test_lie_axioms_random():
    rng = random.Random(11)
    for _ in range(120):
        x, y, z = (rand_element(rng) for _ in range(3))
        assert not (bracket(x, y) + bracket(y, x))
        assert not jacobi_residual(x, y, z)


def test_omega_examples():
    # omega(E12(st)) = -E21(q s^-1 t^-1)
    assert omega(E(1, 2, (1, 1))) == E(2, 1, (-1, -1), -q_pow(1))
    assert omega(GlElement.d_s()) == GlElement.d_s()
    assert omega(GlElement.c_t()) == GlElement.c_t()


def test_omega_antilinear():
    i_coeff = ScalarPoly.term(GaussianRational(0, 1))
    assert omega(E(1, 1, (0, 0), i_coeff)) == E(1, 1, (0, 0), -i_coeff)


def test_omega_involution_and_antiautomorphism():
    rng = random.Random(12)
    for _ in range(120):
        x, y = rand_element(rng), rand_element(rng)
        assert omega(omega(x)) == x
        assert omega(bracket(x, y)) == bracket(omega(y), omega(x))
        assert omega(bracket(x, y)) == -bracket(omega(x), omega(y))


def test_rendering_and_json():
    x = E(1, 2, (2, -1)) + GlElement.d_t()
    assert "E12(s^2 t^-1)" in str(x)
    assert "d_t" in str(x)
