import hashlib
import io
import json
import random
import tracemalloc
from array import array
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qtgl3 import cli, fock, form
from qtgl3.form import (
    VACUUM,
    Word,
    WordEngine,
    enumerate_words,
    exact_rank,
    int_poly_scalar,
    make_word,
    shift_word,
    word_level,
    word_str,
    word_to_poly,
    word_weight,
    words_to_polys_rank,
)
from qtgl3.gl3 import GlElement, matrix_bracket_terms, omega
from qtgl3.scalars import MU, MU_BITS, ONE, GaussianRational, ScalarPoly, q_pow, unpack_key
from qtgl3.verify import rand_config

ZERO = ScalarPoly.zero()
W_E12 = make_word([(0, 0)], [])
W_E32 = make_word([], [(0, 0)])
W_11 = make_word([(0, 0)], [(0, 0)])


def combo(*pairs):
    return {w: c for w, c in pairs}


def combo_level(words):
    """Common level of a nonzero combination; mixed levels are a caller bug."""
    levels = {word_level(w) for w in words}
    if not levels:
        raise ValueError("level of the zero combination")
    if len(levels) > 1:
        raise ValueError(f"mixed levels {sorted(levels)}")
    return levels.pop()


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
    two = ScalarPoly.term(2)
    assert engine.form_words(w, w) == two * MU * MU + two * MU
    assert engine.form_combinatorial(w, w) == two * MU * MU + two * MU


def test_rejected_class_convention_fails_at_level_two(engine):
    # counting chain orderings separately overcounts the mu^2 term
    good = engine.form_combinatorial(W_11, W_11)
    bad = engine.form_combinatorial(W_11, W_11, identify_block_order=False)
    assert good == MU * MU + MU
    assert bad == ScalarPoly.term(2) * MU * MU + MU
    assert bad != engine.form_words(W_11, W_11)


def test_oracle_equivalence_small_window(engine):
    words = [w for k in range(3) for l in range(3 - k)
             for w in enumerate_words((k, l), window=1)]
    rng = random.Random(22)
    for _ in range(400):
        u, v = rng.choice(words), rng.choice(words)
        assert engine.form_words(u, v) == engine.form_combinatorial(u, v)


def test_negative_control_over_every_pair_to_total_level_two():
    # all 36,100 ordered pairs of the 190 words of total level <= 2 at
    # window 1: the recursion tells the rejected block-order convention
    # apart wherever it overcounts, and agrees with the shipped one
    words = [w for k in range(3) for l in range(3 - k)
             for w in enumerate_words((k, l), window=1)]
    assert len(words) == 190
    eng = WordEngine()
    shipped = rejected = 0
    for u in words:
        for v in words:
            a = eng.form_words(u, v)
            shipped += a != eng.form_combinatorial(u, v)
            rejected += a != eng.form_combinatorial(u, v, identify_block_order=False)
    assert (shipped, rejected) == (0, 171)


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
        lhs = engine.form(engine.act_element(g, {u: ONE}), {v: ONE})
        rhs = engine.form({u: ONE}, engine.act_element(omega(g), {v: ONE}))
        assert lhs == rhs
    for d in (GlElement.d_s(), GlElement.d_t()):
        for _ in range(40):
            u, v = rng.choice(words), rng.choice(words)
            lhs = engine.form(engine.act_element(d, {u: ONE}), {v: ONE})
            rhs = engine.form({u: ONE}, engine.act_element(d, {v: ONE}))
            assert lhs == rhs


def test_form_is_sesquilinear(engine):
    i_c = ScalarPoly.term(GaussianRational(0, 1))
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


ARG = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def same_weight_pairs(draw):
    """Two words of one level, total level <= 4, of the same weight: the
    last argument of v absorbs the weight difference."""
    k = draw(st.integers(0, 4))
    l = draw(st.integers(0, 4 - k))
    u = make_word(draw(st.lists(ARG, min_size=k, max_size=k)),
                  draw(st.lists(ARG, min_size=l, max_size=l)))
    args = draw(st.lists(ARG, min_size=k + l, max_size=k + l))
    if args:
        (um, un), (vm, vn) = word_weight(u), word_weight(Word(tuple(args), ()))
        m, n = args[-1]
        args[-1] = (m + um - vm, n + un - vn)
    return u, make_word(args[:k], args[k:])


@given(same_weight_pairs(), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
@settings(max_examples=60, deadline=None)
def test_translation_invariance_beyond_level_two(engine, pair, shift):
    u, v = pair
    a, b = shift
    want = engine.form_words(u, v)
    su, sv = shift_word(a, b, u), shift_word(a, b, v)
    assert engine.form_words(su, sv) == want
    # the combinatorial evaluator shares no table with the recursion
    assert engine.form_combinatorial(su, sv) == want


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
    i_c = ScalarPoly.term(GaussianRational(0, 1))
    z = {
        make_word([(1, 0)], [(-1, 0)]): ONE,
        make_word([(-1, 0)], [(1, 0)]): -ONE,
        make_word([(0, 1)], [(0, -1)]): i_c,
        make_word([(0, -1)], [(0, 1)]): -i_c,
    }
    val = engine.form(z, z)
    four = ScalarPoly.term(4)
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


@pytest.mark.parametrize("constraint", [(-1, 0), (0, -1), (-2, -3)])
def test_enumerate_words_rejects_a_negative_constraint(constraint):
    # a negative budget would leave the basis empty, and every consumer assumes a word
    with pytest.raises(ValueError, match="constraint must be nonnegative"):
        enumerate_words((1, 0), constraint=constraint)
    with pytest.raises(ValueError, match="window must be nonnegative"):
        enumerate_words((1, 0), window=-1)
    assert enumerate_words((0, 0), constraint=(0, 0)) == [VACUUM]


def test_word_str_format():
    w = make_word([(1, -1)], [(0, 2)])
    assert word_str(w) == "E12(s^1 t^-1)E32(s^0 t^2)|0>"
    assert word_str(VACUUM) == "|0>"


def test_gram_structure_and_json(engine):
    g = engine.gram((1, 0), window=0)
    assert g.entry(0, 0) == MU
    out = io.StringIO()
    cli.write_gram_json(g, cli.gram_entry_texts(g), out)
    js = json.loads(out.getvalue())
    assert js["level"] == [1, 0]
    assert js["window"] == 0
    assert js["basis"] == ["E12(s^0 t^0)|0>"]
    assert js["entries"] == [["(1+0i)·q^0·μ^1"]]
    g2 = engine.gram((1, 1), window=0)
    assert g2.entry(0, 0) == MU * MU + MU
    g3 = engine.gram((0, 0), window=1)
    assert g3.entry(0, 0) == ONE


def test_gram_stays_exact_past_64_bits():
    # level (12, 0): the scaled entry's coefficients are up to 69 bits long
    u = make_word([(0, 0)] * 12, [])
    g = WordEngine().gram((12, 0), window=0)
    assert g.basis == [u]
    assert max(map(abs, g.pool.coeffs)).bit_length() == 69
    assert g.entry(0, 0) == WordEngine().form_words(u, u)


def test_gram_hermitian_invariant(engine):
    g = engine.gram((1, 1), window=1)
    n = len(g.basis)
    for i in range(n):
        for j in range(n):
            assert g.entry(i, j) == g.entry(j, i).conjugate()


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
            assert fresh.form_words(u, v) == g.entry(i, j)
            if word_weight(u) != word_weight(v):
                assert g.entry(i, j) is ZERO


@pytest.mark.parametrize(
    "level,window,constraint",
    [((2, 0), 2, None), ((1, 1), 2, None), ((2, 1), None, (3, 3))],
)
def test_orbit_shared_blocks_match_fresh_form_words(level, window, constraint):
    # blocks are evaluated on shifted translates of their words (negative
    # exponents under the constraint); each entry must still be the form of
    # the basis words themselves
    g = WordEngine().gram(level, window=window, constraint=constraint)
    fresh = WordEngine()
    for idx, _ in g.blocks:
        for i in idx:
            for j in idx:
                assert g.entry(i, j) == fresh.form_words(g.basis[i], g.basis[j])


def test_gram_shares_one_entry_per_translation_orbit():
    # (u, v) ~ (u + s, v + s); an orbit's representative shifts u's first
    # argument to (0, 0)
    g = WordEngine().gram((2, 0), window=2)
    orbits = set()
    for idx, _ in g.blocks:
        for i in idx:
            u = g.basis[i]
            m, n = (u.e12 or u.e32)[0]
            orbits.update((shift_word(-m, -n, u), shift_word(-m, -n, g.basis[j]))
                          for j in idx)
    numbers = {e for _, block in g.blocks for e in block}
    assert len(orbits) == 433
    assert len(numbers) <= len(orbits)


# -- the interned engine ---------------------------------------------------

LEVEL2_WORDS = [w for k in range(3) for l in range(3 - k)
                for w in enumerate_words((k, l), window=1)]


def test_form_words_independent_of_evaluation_order():
    # the memo tables fill in a different order; every value must come out the same
    forward, backward = WordEngine(), WordEngine()
    pairs = [(u, v) for u in LEVEL2_WORDS for v in LEVEL2_WORDS]
    want = [forward.form_words(u, v) for u, v in pairs]
    got = [backward.form_words(u, v) for u, v in reversed(pairs)]
    assert got[::-1] == want


def test_act_mono_keys_are_canonical_and_stable_across_gram():
    eng = WordEngine()
    rng = random.Random(29)
    calls = [(rng.randint(1, 3), rng.randint(1, 3),
              (rng.randint(-1, 1), rng.randint(-1, 1)), rng.choice(LEVEL2_WORDS))
             for _ in range(300)]
    before = [eng.act_mono(*call) for call in calls]
    for res in before:
        for key in res:
            assert type(key) is Word and make_word(*key) == key
    eng.gram((1, 1), window=1)
    eng.gram((2, 0), window=1)
    assert [eng.act_mono(*call) for call in calls] == before
    fresh = WordEngine()
    assert [fresh.act_mono(*call) for call in reversed(calls)] == before[::-1]


def test_reused_engine_gram_matches_fresh_engines():
    # at window 2 the memo already holds words the blocks shift onto
    eng = WordEngine()
    for level, window in (((1, 1), 1), ((2, 0), 1), ((2, 0), 2), ((1, 1), 2)):
        got = eng.gram(level, window=window)
        want = WordEngine().gram(level, window=window)
        assert got.basis == want.basis
        assert got.blocks == want.blocks
        assert entry_items(got) == entry_items(want)


def entry_items(g):
    """The term items of every Gram block entry, in block order and in each
    entry's own term order."""
    return [list(g.pool.poly(e).items()) for _, block in g.blocks for e in block]


def test_gram_pool_holds_each_ordered_value_once():
    g = WordEngine().gram((2, 1), window=1)
    values = [g.pool.poly(e) for e in range(len(g.pool))]
    assert len({tuple(x.items()) for x in values}) == len(values) == 426
    # every value is in use; the 5,773 block entries were 4,161 distinct memo dicts
    assert {e for _, block in g.blocks for e in block} == set(range(len(values)))
    assert sum(len(block) for _, block in g.blocks) == 5773
    assert all(type(block) is array and block.typecode == "q" for _, block in g.blocks)


def test_gram_keeps_no_copy_of_the_form_memo():
    # the pool is the only copy of a Gram's entries: the form memo keeps no
    # row of the Gram's own words (none is a rest at this level), values or
    # zero bits, while the rows of rests stay
    eng = WordEngine()
    g = eng.gram((2, 1), window=1)
    words = set()
    for w in g.basis:  # each block's canonical translate, as `gram` shifts it
        ws, wt = word_weight(w)
        words.add(shift_word(-(ws // 3), -(wt // 3), w))
    assert len(words) == 193
    for w in words:
        uid = eng._ids[w]
        assert not eng._is_rest[uid]
        assert not eng._form_rows[uid] and eng._zero_rows[uid] is form._NO_ZEROS
    assert any(eng._form_rows)  # the rows of rests


def test_gram_memory_is_bounded():
    # with each entry one of the form memo's own dicts, kept in the memo for
    # the engine's life, this peaked at 2.75 MB
    tracemalloc.start()
    try:
        WordEngine().gram((2, 1), window=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def test_act_element_sums_its_symbols():
    # E21(s^-2) lowers E12(s^2).1 to -mu.1, d_s scales by the s-weight 2, central symbols act as 0
    w = make_word([(2, 0)], [])
    two = ScalarPoly.term(2)
    x = GlElement.matrix(2, 1, (-2, 0)) + GlElement.d_s(two) + GlElement.c_s()
    eng = WordEngine()
    assert eng.act_element(x, {w: ONE}) == {VACUUM: -MU, w: ScalarPoly.term(4)}
    assert eng.act_element(GlElement.c_t() + GlElement.d_t(), {w: ONE}) == {}


# -- pinned action outputs --------------------------------------------------

# SHA-256 of the rendered act_mono outputs for all nine (i, j) at five
# monomials, on every word of total level <= 2 at window 1 and a seeded
# sample of level-3 words; a change of coefficient ring must not move a term.
PINNED_ACTION_DIGEST = (
    "d61e8e003f3ddb90e167911a4e4f38284df77b3bd94690b1a97c421effed0df2"
)

LEVEL3_SAMPLE = random.Random(30).sample(
    [w for k in range(4) for w in enumerate_words((k, 3 - k), window=1)], 40)


def _action_transcript():
    eng = WordEngine()
    lines = []
    for w in LEVEL2_WORDS + LEVEL3_SAMPLE:
        for i in range(1, 4):
            for j in range(1, 4):
                for mono in ((0, 0), (1, 0), (0, 1), (1, -1), (-1, 1)):
                    out = eng.act_mono(i, j, mono, w)
                    terms = sorted(f"{word_str(w2)}={c}" for w2, c in out.items())
                    lines.append(f"E{i}{j}{mono} {word_str(w)} -> {'; '.join(terms)}")
    return "\n".join(lines)


def test_act_mono_outputs_are_pinned():
    digest = hashlib.sha256(_action_transcript().encode()).hexdigest()
    assert digest == PINNED_ACTION_DIGEST


# SHA-256 of the term items of every Gram block entry, in block order and in
# each entry's own term order: `unitarity.compile_gram` sums floats in that
# order, so moving a term changes the scan's bytes.
PINNED_GRAM_TERM_ORDER = {
    ((2, 0), 2): "c8135f3cd5ba205e970a38fc8adfcc34c23e08a8159f78204aeb6487bde1a4cb",
    ((2, 1), 1): "36be8d9e7b0741b44d370f21c7ef24c529d2534ee4233929a9a72b95186fc3eb",
}


@pytest.mark.parametrize("level, window", list(PINNED_GRAM_TERM_ORDER))
def test_gram_entry_term_order_is_pinned(level, window):
    g = WordEngine().gram(level, window=window)
    items = entry_items(g)
    digest = hashlib.sha256(repr(items).encode()).hexdigest()
    assert digest == PINNED_GRAM_TERM_ORDER[(level, window)]


def test_form_memo_holds_integer_polynomials():
    eng = WordEngine()
    eng.gram((2, 1), window=1)
    form_values = [value for row in eng._form_rows for value in row.values()]
    actions = [pairs for row in eng._act_rows for pairs in row.values()]
    assert form_values and actions
    for value in form_values:
        assert all(type(c) is int for c in value.values())
    for pairs in actions:
        assert type(pairs) is tuple
        for w, coeff in pairs:
            assert type(w) is int
            assert all(type(c) is int for c in coeff.values())


def test_int_poly_scalar_keeps_keys_and_order():
    # the engine's integer polynomials carry ScalarPoly's keys: only coefficients change
    g = WordEngine().gram((2, 1), window=1)
    polys = [x for x in map(g.pool.poly, range(len(g.pool))) if len(x) > 2][:40]
    polys.append({(2 << MU_BITS) + 1: 3, -1 << MU_BITS: -4, 0: 7})
    for x in polys:
        for denom in (1, g.scale):
            p = int_poly_scalar(x, denom)
            assert list(p.terms) == list(x)
            assert list(p.terms.values()) == [GaussianRational(Fraction(c, denom))
                                              for c in x.values()]


def test_vacuum_half_mu_mixes_denominators():
    # E11(1).E12(a).1 = E12(a) E11(1).1 + [E11(1), E12(a)].1 = (1 + mu/2) E12(a).1
    eng = WordEngine()
    half = ScalarPoly.term(Fraction(1, 2))
    for a in ((0, 0), (1, -1), (2, 3)):
        w = make_word([a], [])
        assert eng.act_mono(1, 1, (0, 0), w) == {w: ONE + half * MU}
        # E22(1).1 = -(mu/2), and E22 commutes with E12 only up to -E12(a)
        assert eng.act_mono(2, 2, (0, 0), w) == {w: -ONE - half * MU}


# -- bounded memos ------------------------------------------------------------


def _peel_rest(w):
    """The rest a word's first peel leaves: its leading E12 factor off, else its leading E32."""
    return Word(w.e12[1:], w.e32) if w.e12 else Word((), w.e32[1:])


def _sweep(eng, words):
    for u in words:
        for v in words:
            eng.form_words(u, v)


def _act_coefficients(eng):
    return [c for row in eng._act_rows for pairs in row.values() for _, c in pairs]


def _is_raising(op):
    i, j, _ = op
    return j == 2 and i != 2


def _non_raising_rows(eng):
    """(operator, row) of every operator other than E12 and E32, in id order."""
    return [(op, row) for op, row in zip(eng._ops, eng._act_rows) if not _is_raising(op)]


def _zero_pairs(eng):
    """The (u id, v id) pairs whose form value was computed to be exactly zero."""
    return [(u, v) for u, zeros in enumerate(eng._zero_rows)
            for v in range(8 * len(zeros)) if zeros[v >> 3] >> (v & 7) & 1]


# `memo_sizes()` after `gram((2, 1), window=1)` on a fresh engine (`gram`
# keeps only the form rows of rests; its own entries are in its term pool)
MEMO_SIZES_GRAM_21_W1 = {"words": 430, "operators": 196, "form_entries": 867,
                         "act_entries": 4636, "interned": 85}


def test_memo_sizes_are_pinned():
    eng = WordEngine()
    assert eng.memo_sizes() == {"words": 1, "operators": 0, "form_entries": 0,
                                "act_entries": 0, "interned": 0}
    eng.gram((2, 1), window=1)
    assert eng.memo_sizes() == MEMO_SIZES_GRAM_21_W1
    # read-only: asking twice changes nothing
    assert eng.memo_sizes() == MEMO_SIZES_GRAM_21_W1


def test_each_action_entry_is_computed_once(monkeypatch):
    # every non-vacuum entry of a non-raising operator expands one bracket when
    # it is computed, so a probe that misses a stored entry and recomputes it
    # shows up as a call; a raising entry only adds a factor
    calls = []

    def counting(*args):
        calls.append(args)
        return matrix_bracket_terms(*args)

    monkeypatch.setattr(form, "matrix_bracket_terms", counting)
    eng = WordEngine()
    _sweep(eng, LEVEL2_WORDS)
    entries = sum(len(row) - (0 in row) for _, row in _non_raising_rows(eng))
    assert len(calls) == entries == 6174
    _sweep(eng, LEVEL2_WORDS)
    assert len(calls) == entries


def test_raising_rows_add_one_factor():
    eng = WordEngine()
    _sweep(eng, LEVEL3_SAMPLE)
    two = eng._coeffs[((0, 2),)]
    raising = [(op, wid, pairs) for op, row in zip(eng._ops, eng._act_rows)
               if _is_raising(op) for wid, pairs in row.items()]
    assert raising and any(wid for _, wid, _ in raising)  # non-vacuum words too
    for (side, _, arg), wid, pairs in raising:
        w = eng._words[wid]
        inserted = (make_word(w.e12 + (arg,), w.e32) if side == 1
                    else make_word(w.e12, w.e32 + (arg,)))
        assert pairs == ((eng._ids[inserted], two),) and pairs[0][1] is two
        assert eng.act_mono(side, 2, arg, w) == {inserted: ONE}
    # a second sweep finds every entry it needs, raising or not
    entries = eng.memo_sizes()["act_entries"]
    _sweep(eng, LEVEL3_SAMPLE)
    assert eng.memo_sizes()["act_entries"] == entries


def test_packed_keys_stay_far_from_aliasing():
    # products add packed keys unchecked, so a mu degree of 2^MU_BITS would
    # carry into q; the engine's degrees stay at k + l, one per peeled factor
    eng = WordEngine()
    for k in range(4):
        for l in range(4 - k):
            g = eng.gram((k, l), window=1)
            degs = [unpack_key(key)[1] for key in g.pool.keys]
            assert degs and max(degs) <= k + l
    degs = [unpack_key(key)[1] for c in _act_coefficients(eng) for key in c]
    assert degs and max(degs) <= 1


def test_equal_action_coefficients_are_one_object():
    eng = WordEngine()
    _sweep(eng, LEVEL2_WORDS)
    coeffs = _act_coefficients(eng)
    distinct = {tuple(c.items()) for c in coeffs}
    assert len(coeffs) > 10 * len(distinct)
    assert len({id(c) for c in coeffs}) == len(distinct)
    assert eng.memo_sizes()["interned"] >= len(distinct)


def test_memo_values_are_never_mutated():
    eng = WordEngine()
    _sweep(eng, LEVEL2_WORDS)
    acts = [(c, tuple(c.items())) for c in _act_coefficients(eng)]
    forms = [(x, tuple(x.items())) for row in eng._form_rows for x in row.values()]
    zeros = _zero_pairs(eng)
    assert acts and forms and zeros
    _sweep(eng, LEVEL3_SAMPLE)
    assert all(tuple(c.items()) == items for c, items in acts)
    assert all(tuple(x.items()) == items for x, items in forms)
    # a zero bit is never cleared, and no value is stored beside it
    assert set(zeros) <= set(_zero_pairs(eng))
    assert not any(v in eng._form_rows[u] for u, v in zeros)


def test_form_rows_kept_only_for_rests():
    eng = WordEngine()
    _sweep(eng, LEVEL2_WORDS)
    rests = {_peel_rest(w) for w in eng._words[1:]}
    kept = {w for w, row, zeros in zip(eng._words, eng._form_rows, eng._zero_rows)
            if row or any(zeros)}
    assert kept <= rests
    # the level-1 and vacuum rows serve every level-2 pair, so they stay
    assert {_peel_rest(w) for w in LEVEL2_WORDS if w != VACUUM} <= kept
    assert eng.memo_sizes()["form_entries"] == (sum(map(len, eng._form_rows))
                                                + len(_zero_pairs(eng)))


def test_zero_bits_are_sound():
    eng = WordEngine()
    _sweep(eng, LEVEL3_SAMPLE)
    assert not any(not x for row in eng._form_rows for x in row.values())
    zeros = _zero_pairs(eng)
    assert len(zeros) > 1000
    fresh = WordEngine()
    for u, v in reversed(zeros):  # another engine, another evaluation order
        u, v = eng._words[u], eng._words[v]
        assert fresh.form_words(u, v) is ZERO
        assert fresh.form_combinatorial(u, v) is ZERO


# SHA-256 of the memo contents in stored order: every action entry of a
# non-raising operator as (operator id, word id, its pairs, each coefficient
# as its items), every nonzero form value as (u id, v id, its items), and the
# sorted (u id, v id) pairs computed to be zero.  Operator ids count only the
# non-raising operators, in order of first sighting.  Recorded when the memos
# still stored zeros as empty dicts, action results as dicts, and the raising
# operators E12 and E32 had no ids or rows, so the memos hold the same values
# in the same order.  `gram` stores no value in the rows of its own words
# unless they are rests (none is at (2, 1)); its term pool holds them.  So
# for a Gram the rows of those words are read back from the pool
# (`_gram_rows`): together the rows and the pool hold what the rows alone
# held before the pool.
PINNED_MEMO_CONTENTS = {
    "gram_21_w1": {
        "act": "ee9159ae7b8b8ce2b8910f71364f2c4c141a7eab8fc4a1e6b045e4f10e9007b7",
        "form": "ec5161de8d6f2bce11bb41397f0c202e62afd02142ccde65abfd5631336006ce",
        "zeros": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "level3_sweep": {
        "act": "a30674905b4e6c7a488d1244bbe62f363a1b747374179721dc13876a29667227",
        "form": "01dc2b68f00b1ad48333e8a303443c2e0156b767162cf14afd6ae19fb9ee45be",
        "zeros": "7d67406a1b1474e8f264dbae4c56286b3a83a1af6066b052c289c9e41af5791b",
    },
}


def _gram_rows(eng, g):
    """The form rows and zero pairs of the words of a Gram's blocks, as the rows
    held them before the term pool: each block row-major on the ids of its
    canonical translates, the first visit of a pair setting its place."""
    k_l = max(sum(g.level), 1)
    rows, zeros = {}, set()
    for idx, block in g.blocks:
        ws, wt = word_weight(g.basis[idx[0]])
        ids = [eng._ids[shift_word(-(ws // k_l), -(wt // k_l), g.basis[i])] for i in idx]
        numbers = iter(block)
        for uid in ids:
            assert not eng._form_rows[uid] and not eng._is_rest[uid]
            for vid in ids:
                x = g.pool.poly(next(numbers))
                if x:
                    rows.setdefault(uid, {}).setdefault(vid, x)
                else:
                    zeros.add((uid, vid))
    return rows, zeros


@pytest.mark.parametrize("case", list(PINNED_MEMO_CONTENTS))
def test_memo_term_order_is_pinned(case):
    eng = WordEngine()
    if case == "gram_21_w1":
        gram_rows, gram_zeros = _gram_rows(eng, eng.gram((2, 1), window=1))
    else:
        _sweep(eng, LEVEL3_SAMPLE)
        gram_rows, gram_zeros = {}, set()
    acts = [(op, wid, [(w, tuple(c.items())) for w, c in pairs])
            for op, (_, row) in enumerate(_non_raising_rows(eng))
            for wid, pairs in row.items()]
    forms = [(uid, vid, tuple(x.items()))
             for uid, row in enumerate(eng._form_rows)
             for vid, x in (row or gram_rows.get(uid, {})).items()]
    zeros = sorted(gram_zeros.union(_zero_pairs(eng)))
    got = {name: hashlib.sha256(repr(x).encode()).hexdigest()
           for name, x in (("act", acts), ("form", forms), ("zeros", zeros))}
    assert got == PINNED_MEMO_CONTENTS[case]


def test_late_rest_row_refills():
    eng = WordEngine()
    u = make_word([(0, 0), (1, 0)], [])
    v = make_word([(0, -1), (1, 1)], [])
    first = eng.form_words(u, v)
    u_row, u_zeros = eng._form_rows[eng._ids[u]], eng._zero_rows[eng._ids[u]]
    assert first and not u_row and not any(u_zeros)
    w = make_word([(-1, 0), (0, 0), (1, 0)], [])
    assert _peel_rest(w) == u
    partners = [make_word([(-1, 0), (0, 1), (1, -1)], []),
                make_word([(-1, 1), (0, -1), (1, 0)], []), w]
    for x in partners:
        got = eng.form_words(w, x)
        assert got == WordEngine().form_words(w, x)
        assert got == eng.form_combinatorial(w, x)
    assert u_row and got
    assert eng.form_words(u, v) == first == WordEngine().form_words(u, v)


# 300 of the 1,330 words of total level <= 3 at window 1
SWEEP_WORDS = random.Random(0).sample(
    [w for k in range(4) for l in range(4 - k) for w in enumerate_words((k, l), window=1)],
    300)


def test_crosscheck_sweep_memory_is_bounded():
    eng = WordEngine()
    tracemalloc.start()
    try:
        _sweep(eng, SWEEP_WORDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9_000_000


def test_interned_coefficients_are_all_live():
    # each word's final merged coefficient is interned once, no intermediate
    # merge, and every action coefficient is an interned dict
    eng = WordEngine()
    _sweep(eng, SWEEP_WORDS)
    live = {id(c) for c in _act_coefficients(eng)}
    assert eng._coeffs
    for items, c in eng._coeffs.items():
        assert id(c) in live
        assert tuple(c.items()) == items
    assert len(live) == len(eng._coeffs)
