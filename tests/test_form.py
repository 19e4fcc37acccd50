import random
from fractions import Fraction

import pytest

from qtgl3 import fock
from qtgl3.form import (
    VACUUM,
    Word,
    WordEngine,
    combo_level,
    enumerate_words,
    exact_rank,
    make_word,
    shift_word,
    word_level,
    word_str,
    word_to_poly,
    word_weight,
    words_to_polys_rank,
)
from qtgl3.gl3 import GlElement, omega
from qtgl3.scalars import MU, ONE, ScalarPoly, q_pow
from qtgl3.verify import rand_config

ZERO = ScalarPoly.zero()
W_E12 = make_word([(0, 0)], [])
W_E32 = make_word([], [(0, 0)])
W_11 = make_word([(0, 0)], [(0, 0)])


def combo(*pairs):
    return {w: c for w, c in pairs}


def act_element(engine, x, cv):
    """Apply a GlElement (matrix symbols and derivations) to a combination."""
    out = {}
    for sym, c in x.terms.items():
        if sym[0] == "E":
            _, i, j, m, n = sym
            part = engine.act(i, j, (m, n), cv)
        elif sym[0] == "ds":
            part = engine.act_d(1, cv)
        elif sym[0] == "dt":
            part = engine.act_d(2, cv)
        else:
            continue
        for w, cc in part.items():
            s = out.get(w, ZERO) + c * cc
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


# -- rewriting engine --------------------------------------------------

def test_act_word_examples(engine):
    # E21(1) applied to E12(1).1 collapses to -mu times the vacuum
    assert engine.act_mono(2, 1, (0, 0), W_E12) == {VACUUM: -MU}
    assert engine.act_mono(2, 1, (0, 0), VACUUM) == {}
    got = engine.act_mono(2, 1, (0, 0), W_11)
    assert got == {W_E32: -(MU + ONE)}


def test_act_word_matches_module_realization(engine):
    rng = random.Random(20)
    for cfg in (fock.DEFAULT_CONFIG, rand_config(rng)):
        for _ in range(120):
            w = make_word(
                [(rng.randint(-1, 1), rng.randint(-1, 1))
                 for _ in range(rng.randint(0, 2))],
                [(rng.randint(-1, 1), rng.randint(-1, 1))
                 for _ in range(rng.randint(0, 2))],
            )
            i, j = rng.randint(1, 3), rng.randint(1, 3)
            mono = (rng.randint(-1, 1), rng.randint(-1, 1))
            lhs = fock.apply_generator(i, j, mono[0], mono[1], word_to_poly(w, cfg), cfg)
            rhs = fock.FockPoly.zero()
            for w2, c in engine.act_mono(i, j, mono, w).items():
                rhs = rhs + word_to_poly(w2, cfg).scale(c)
            assert lhs == rhs


def test_level_examples(engine):
    assert word_level(VACUUM) == (0, 0)
    assert word_level(make_word([(0, 0)], [(1, 1)])) == (1, 1)
    with pytest.raises(ValueError):
        combo_level({})
    with pytest.raises(ValueError):
        combo_level({VACUUM: ONE, W_E12: ONE})


def test_level_arithmetic_of_actions(engine):
    rng = random.Random(21)
    words = [w for k in range(3) for l in range(3 - k)
             for w in enumerate_words((k, l), window=1)]
    for _ in range(200):
        w = rng.choice(words)
        k, l = word_level(w)
        mono = (rng.randint(-1, 1), rng.randint(-1, 1))
        lowered = engine.act_mono(2, 1, mono, w)
        if lowered:
            assert combo_level(lowered) == (k - 1, l)
        lowered = engine.act_mono(2, 3, mono, w)
        if lowered:
            assert combo_level(lowered) == (k, l - 1)
        for i in (1, 2, 3):
            kept = engine.act_mono(i, i, mono, w)
            if kept:
                assert combo_level(kept) == (k, l)


# -- the hermitian form -------------------------------------------------

def test_form_base_cases(engine):
    assert engine.form_words(VACUUM, VACUUM) == ONE
    assert engine.form_words(VACUUM, W_E12) == ZERO
    assert engine.form_words(W_E32, VACUUM) == ZERO


def test_form_derived_values_both_evaluators(engine):
    for w, want in ((W_E12, MU), (W_E32, MU), (W_11, MU * MU + MU)):
        assert engine.form_words(w, w) == want
        assert engine.form_combinatorial(w, w) == want


def test_form_level_two_pure(engine):
    w = make_word([(0, 0), (0, 0)], [])
    two = ScalarPoly.from_rational(2)
    assert engine.form_words(w, w) == two * MU * MU + two * MU
    assert engine.form_combinatorial(w, w) == two * MU * MU + two * MU


def test_rejected_class_convention_fails_at_level_two(engine):
    # counting chain orderings separately overcounts the mu^2 term
    good = engine.form_combinatorial(W_11, W_11)
    bad = engine.form_combinatorial(W_11, W_11, identify_block_order=False)
    assert good == MU * MU + MU
    assert bad == ScalarPoly.from_rational(2) * MU * MU + MU
    assert bad != engine.form_words(W_11, W_11)


def test_oracle_equivalence_small_window(engine):
    words = [w for k in range(3) for l in range(3 - k)
             for w in enumerate_words((k, l), window=1)]
    rng = random.Random(22)
    for _ in range(400):
        u, v = rng.choice(words), rng.choice(words)
        assert engine.form_words(u, v) == engine.form_combinatorial(u, v)


def test_hermitian_symmetry_exact(engine):
    words = [w for k in range(3) for l in range(3 - k)
             for w in enumerate_words((k, l), window=1)]
    rng = random.Random(23)
    for _ in range(300):
        u, v = rng.choice(words), rng.choice(words)
        assert engine.form_words(u, v) == engine.form_words(v, u).conjugate()


def test_level_orthogonality_sampled(engine):
    rng = random.Random(24)
    words = [w for k in range(4) for l in range(4 - k)
             for w in enumerate_words((k, l), window=1)]
    for _ in range(300):
        u, v = rng.choice(words), rng.choice(words)
        if word_level(u) != word_level(v):
            assert engine.form_words(u, v) == ZERO


def test_contravariance_sampled(engine):
    rng = random.Random(25)
    words = [w for k in range(3) for l in range(3 - k)
             for w in enumerate_words((k, l), window=1)]
    for _ in range(150):
        u, v = rng.choice(words), rng.choice(words)
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        mono = (rng.randint(-1, 1), rng.randint(-1, 1))
        g = GlElement.matrix(i, j, mono)
        lhs = engine.form(act_element(engine, g, {u: ONE}), {v: ONE})
        rhs = engine.form({u: ONE}, act_element(engine, omega(g), {v: ONE}))
        assert lhs == rhs
    for which in (1, 2):
        for _ in range(40):
            u, v = rng.choice(words), rng.choice(words)
            lhs = engine.form(engine.act_d(which, {u: ONE}), {v: ONE})
            rhs = engine.form({u: ONE}, engine.act_d(which, {v: ONE}))
            assert lhs == rhs


def test_form_is_sesquilinear(engine):
    i_c = ScalarPoly.gaussian(0, 1)
    u = combo((W_E12, i_c))
    v = combo((W_E12, ONE))
    assert engine.form(u, v) == -i_c * MU
    assert engine.form(v, u) == i_c * MU


# -- shifts, leading terms, rank ----------------------------------------

def test_shift_examples():
    assert shift_word(1, 0, W_E12) == make_word([(1, 0)], [])
    w = make_word([(1, -1), (0, 0)], [(2, 2)])
    assert shift_word(0, 0, w) == w
    assert word_weight(shift_word(2, -1, w)) == (
        word_weight(w)[0] + 6, word_weight(w)[1] - 3
    )


def test_shift_preserves_form(engine):
    rng = random.Random(26)
    words = [w for k in range(3) for l in range(3 - k)
             for w in enumerate_words((k, l), window=1)]
    for _ in range(120):
        u, v = rng.choice(words), rng.choice(words)
        a, b = rng.choice([(1, 0), (0, 1), (2, -1), (-1, 2)])
        assert engine.form_words(u, v) == engine.form_words(
            shift_word(a, b, u), shift_word(a, b, v)
        )


def test_diagonal_leading_term(engine):
    rng = random.Random(27)
    words = [w for k in range(3) for l in range(3 - k)
             for w in enumerate_words((k, l), window=1)]
    for _ in range(100):
        w = rng.choice(words)
        k, l = word_level(w)
        val = engine.form_words(w, w)
        if (k, l) == (0, 0):
            assert val == ONE
            continue
        assert val.mu_degree() == k + l
        lead = val.leading_mu_part()
        for theta in (Fraction(1, 7), Fraction(89, 233)):
            z = lead.evaluate(theta, 1.0)
            assert abs(z.imag) < 1e-12
            assert z.real > 1e-9


def test_rank_examples():
    assert words_to_polys_rank([VACUUM]) == 1
    assert words_to_polys_rank([W_E12, make_word([(1, 0)], [])]) == 2
    words = enumerate_words((1, 1), window=1)
    assert words_to_polys_rank(words) == len(words)
    rng = random.Random(28)
    cfg = rand_config(rng)
    assert words_to_polys_rank(enumerate_words((2, 0), window=1), cfg) == 45


def test_exact_rank_on_singular_matrix():
    one, mu = ONE, MU
    rows = [[one, mu], [mu, mu * mu]]  # rank 1: second row is mu * first
    assert exact_rank(rows) == 1
    assert exact_rank([[one, ZERO], [ZERO, mu]]) == 2
    assert exact_rank([]) == 0


# -- indefiniteness of the truncated form for nonreal q ------------------

def test_small_mu_indefiniteness_witness_for_nonreal_q(engine):
    """The level-(1,1) truncation is indefinite at small mu unless q = 1.

    For z = E12(s)E32(s^-1).1 - E12(s^-1)E32(s).1
          + i E12(t)E32(t^-1).1 - i E12(t^-1)E32(t).1
    the exact norm is (z, z) = 4 mu^2 + 4i (q - q^-1) mu, which equals
    4 mu (mu - 2 sin(2 pi theta)) on the unit circle: negative for
    0 < mu < 2 sin(2 pi theta).  Positivity of every truncation for all
    mu > 0 therefore holds only at q = 1.
    """
    i_c = ScalarPoly.gaussian(0, 1)
    z = {
        make_word([(1, 0)], [(-1, 0)]): ONE,
        make_word([(-1, 0)], [(1, 0)]): -ONE,
        make_word([(0, 1)], [(0, -1)]): i_c,
        make_word([(0, -1)], [(0, 1)]): -i_c,
    }
    val = engine.form(z, z)
    four = ScalarPoly.from_rational(4)
    want = four * MU * MU + four * i_c * (q_pow(1) - q_pow(-1)) * MU
    assert val == want
    at_i = val.evaluate(Fraction(1, 4), 1.0)  # q = i, mu = 1
    assert abs(at_i - (-4.0)) < 1e-12
    assert val.evaluate(0, 1.0).real > 0  # q = 1 stays positive


# -- enumeration, rendering, json ----------------------------------------

def test_enumerate_words_window_counts():
    assert len(enumerate_words((0, 0), window=1)) == 1
    assert len(enumerate_words((1, 0), window=1)) == 9
    assert len(enumerate_words((2, 0), window=1)) == 45
    assert len(enumerate_words((1, 1), window=1)) == 81
    assert len(enumerate_words((2, 1), window=1)) == 405
    assert len(enumerate_words((1, 0), window=0)) == 1


def test_enumerate_words_constraint_mode():
    words = enumerate_words((2, 0), constraint=(1, 1))
    for w in words:
        ms, ns = word_weight(w)
        assert 0 <= ms <= 1 and 0 <= ns <= 1
        assert all(m >= 0 and n >= 0 for m, n in w.e12)
    assert make_word([(1, 0), (1, 0)], []) not in words  # s budget exceeded
    assert make_word([(0, 0), (1, 1)], []) in words
    assert make_word([(0, 0), (1, 0)], []) in words
    with pytest.raises(ValueError):
        enumerate_words((1, 0), window=1, constraint=(1, 1))
    with pytest.raises(ValueError):
        enumerate_words((1, 0))


def test_word_str_format():
    w = make_word([(1, -1)], [(0, 2)])
    assert word_str(w) == "E12(s^1 t^-1)E32(s^0 t^2)|0>"
    assert word_str(VACUUM) == "|0>"


def test_gram_structure_and_json(engine):
    g = engine.gram((1, 0), window=0)
    assert g.entries[0][0] == MU
    js = g.to_json()
    assert js["level"] == [1, 0]
    assert js["window"] == 0
    assert js["basis"] == ["E12(s^0 t^0)|0>"]
    assert js["entries"] == [["(1+0i)·q^0·μ^1"]]
    g2 = engine.gram((1, 1), window=0)
    assert g2.entries[0][0] == MU * MU + MU
    g3 = engine.gram((0, 0), window=1)
    assert g3.entries[0][0] == ONE


def test_gram_hermitian_invariant(engine):
    g = engine.gram((1, 1), window=1)
    n = len(g.basis)
    for i in range(n):
        for j in range(n):
            assert g.entries[i][j] == g.entries[j][i].conjugate()


@pytest.mark.parametrize(
    "level,window,constraint",
    [((1, 0), 1, None), ((0, 1), 1, None), ((1, 1), 1, None), ((2, 0), 1, None),
     ((1, 0), 2, None), ((2, 0), None, (2, 2))],
)
def test_gram_blocks_skip_only_genuine_zeros(level, window, constraint):
    # the Gram evaluates equal-weight pairs only; every pair it skips must be a zero
    g = WordEngine().gram(level, window=window, constraint=constraint)
    fresh = WordEngine()
    for i, u in enumerate(g.basis):
        for j, v in enumerate(g.basis):
            assert fresh.form_words(u, v) == g.entries[i][j]
            if word_weight(u) != word_weight(v):
                assert g.entries[i][j] is ZERO

