import json
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest

from qtgl3 import unitarity
from qtgl3.form import GramMatrix, TermPool, enumerate_words, make_word
from qtgl3.scalars import MU, MU_BITS, ONE, ZERO, ScalarPoly, q_pow, unpack_key


def pooled_gram(basis, blocks, level=(1, 0)):
    """A GramMatrix from blocks given as square matrices of integer
    polynomials, each stored as `WordEngine.gram` stores it: numbered in a
    term pool by `TermPool.add`."""
    pool = TermPool()
    numbers = [(idx, array("q", pool.add([x for row in rows for x in row])))
               for idx, rows in blocks]
    pool.seal()
    return GramMatrix(level=level, window=0, constraint=None, basis=basis,
                      blocks=numbers, pool=pool)


def hand_gram(basis, blocks, level=(1, 0)):
    """A GramMatrix from blocks of integer-coefficient ScalarPolys, each entry
    an integer polynomial times 2^(k+l), on the ScalarPoly's own keys."""
    def pack(x):
        out = {}
        for k, c in x.terms.items():
            assert c.b == 0 and c.d == 1, "integer coefficients only"
            out[k] = c.a << sum(level)
        return out

    return pooled_gram(basis, [(idx, [[pack(x) for x in row] for row in rows])
                               for idx, rows in blocks], level)


def single_entry_gram(entry, level=(1, 1)):
    g = hand_gram([make_word([(0, 0)], [(0, 0)])], [([0], [[entry]])], level=level)
    assert g.entry(0, 0) == entry
    return g


def test_specialize_examples():
    (idx, stack), = unitarity.specialize(single_entry_gram(MU, level=(1, 0)), 0, 2.0)
    assert idx.tolist() == [[0]] and stack.shape == (1, 1, 1)
    assert abs(stack[0, 0, 0] - 2.0) < 1e-12
    quad = MU * MU + MU
    assert abs(unitarity.specialize(single_entry_gram(quad), 0, 1.0)[0][1][0, 0, 0] - 2.0) < 1e-12
    assert abs(unitarity.specialize(single_entry_gram(quad), 0, -0.5)[0][1][0, 0, 0]
               + 0.25) < 1e-12


def test_specialize_rejects_nonhermitian():
    q = q_pow(1)
    g = hand_gram([make_word([(0, 0)], []), make_word([(1, 0)], [])],
                  [([0, 1], [[MU, q], [q, MU]])])  # entry (1, 0) should be q^-1
    with pytest.raises(ValueError):
        unitarity.specialize(g, Fraction(1, 7), 1.0)


def test_specialize_checks_every_mu_degree():
    # entry (0, 1) vanishes at mu = 1, so S(1) is hermitian, but G_1 = [[1, q], [0, 1]] is not
    q = q_pow(1)
    g = hand_gram([make_word([(0, 0)], []), make_word([(1, 0)], [])],
                  [([0, 1], [[MU, q * MU - q * MU * MU], [ZERO, MU]])])
    with pytest.raises(ValueError):
        unitarity.specialize(g, Fraction(1, 7), 1.0)


def two_block_gram(last_entry):
    # two blocks of size 2, so one stack; the first block is hermitian
    return hand_gram([make_word([(m, 0)], []) for m in range(4)],
                     [([0, 1], [[MU, ONE], [ONE, MU]]),
                      ([2, 3], [[MU, ONE], [last_entry, MU]])])


def test_specialize_rejects_nonhermitian_second_block():
    with pytest.raises(ValueError):
        unitarity.specialize(two_block_gram(q_pow(1)), Fraction(1, 7), 1.0)  # should be 1
    stacks = unitarity.evaluate(unitarity.compile_gram(two_block_gram(ONE)), Fraction(1, 7))
    assert stacks.herm_residual == 0.0


def test_mu_scan_takes_a_hand_built_gram():
    # blocks [[mu, 1], [1, mu]] have eigenvalues mu -+ 1, so the minimum is mu - 1
    g = two_block_gram(ONE)
    report = unitarity.mu_scan(g, Fraction(1, 7), [2.0, 0.5, 1.0])
    assert [mu for mu, _, _ in report.samples] == [0.5, 1.0, 2.0]
    for mu, eig, _ in report.samples:
        assert abs(eig - (mu - 1)) < 1e-12
    assert [pd for _, _, pd in report.samples] == [False, False, True]
    assert (report.level, report.window, report.constraint) == ((1, 0), 0, None)
    assert report.to_json()["level"] == [1, 0] and report.to_json()["window"] == 0
    with pytest.raises(ValueError, match="hermiticity"):
        unitarity.mu_scan(two_block_gram(q_pow(1)), Fraction(1, 7), [1.0])


def test_specialize_memory_is_bounded_by_the_blocks():
    # 1,000 1x1 blocks: a dense 1,000 x 1,000 complex matrix would take 16 MB
    n = 1000
    g = hand_gram([make_word([(m, 0)], []) for m in range(n)],
                  [([i], [[MU]]) for i in range(n)])
    tracemalloc.start()
    try:
        sg = unitarity.specialize(g, Fraction(1, 7), 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert unitarity.min_eigenvalue(sg) == 2.0


def test_stack_indices_are_wide():
    # mu degrees 0..4 x 20,000 1x1 blocks: the flattened (degree, slot) index passes 2^16
    n = 20_000
    entry = {4: 2, 1: 2}  # 2 (mu^4 + mu), packed at level (1, 0)
    g = pooled_gram([make_word([(m, 0)], []) for m in range(n)],
                    [([i], [[entry]]) for i in range(n)])
    (_, at, _, _), = unitarity.compile_gram(g).classes
    assert at.dtype == np.intp and at.max() >= 2 ** 16
    (idx, stack), = unitarity.specialize(g, Fraction(1, 7), 2.0)
    assert idx.shape == (n, 1)
    assert np.all(stack == 18)


def test_min_eigenvalue_examples():
    blocks = ((np.array([[0]]), np.array([[[2.0 + 0j]]])),)
    assert unitarity.min_eigenvalue(blocks) == 2.0
    blocks = ((np.array([[0, 1]]), np.array([[[1.0 + 0j, 0], [0, -3.0 + 0j]]])),)
    assert abs(unitarity.min_eigenvalue(blocks) + 3.0) < 1e-12
    assert unitarity.min_eigenvalue(()) == float("inf")


def test_mu_scan_level_one(engine):
    report = unitarity.mu_scan(engine.gram((1, 0), window=1), Fraction(1, 7), [-1.0, 0.5, 1.0])
    assert [pd for (_, _, pd) in report.samples] == [False, True, True]
    assert [mu for (mu, _, _) in report.samples] == [-1.0, 0.5, 1.0]


def test_mu_scan_vacuum_always_definite(engine):
    report = unitarity.mu_scan(engine.gram((0, 0), window=1), Fraction(1, 3), [-2.0, 0.0, 3.0])
    assert all(pd for (_, _, pd) in report.samples)


def test_mu_scan_singular_at_zero(engine):
    report = unitarity.mu_scan(engine.gram((1, 0), window=1), Fraction(0), [0.0])
    assert report.samples[0][2] is False


def test_mu_scan_mixed_level_signs(engine):
    report = unitarity.mu_scan(
        engine.gram((1, 1), window=0), Fraction(0), [-1.0, -0.5, 0.5, 1.0, 5.0]
    )
    assert [pd for (_, _, pd) in report.samples] == [False, False, True, True, True]


def test_truncated_form_indefinite_for_nonreal_q(engine):
    # regression for the explicit witness: level (1,1), q = exp(2 pi i/3)
    report = unitarity.mu_scan(engine.gram((1, 1), window=1), Fraction(1, 3), [0.25, 1.0, 5.0])
    flags = [pd for (_, _, pd) in report.samples]
    assert flags == [False, False, True]
    report0 = unitarity.mu_scan(engine.gram((1, 1), window=1), Fraction(0), [0.25, 1.0, 5.0])
    assert all(pd for (_, _, pd) in report0.samples)


def test_scan_report_json(engine):
    report = unitarity.mu_scan(engine.gram((1, 0), window=1), Fraction(1, 7), [1.0, -1.0])
    js = report.to_json()
    assert js["level"] == [1, 0]
    assert js["window"] == 1
    assert js["theta"] == "1/7"
    assert js["samples"][0]["mu"] == -1.0  # sorted ascending
    assert set(js["samples"][0]) == {"mu", "min_eig", "pd"}
    json.dumps(js)  # serializable


GRAM_CASES = [((1, 1), 1, None), ((2, 0), 1, None), ((1, 0), None, (2, 2))]
THETAS = (Fraction(0), Fraction(1, 3), Fraction(1, 7), Fraction(89, 233))


def dense_specialize(gram, theta, mu):
    """The per-entry reference: one ScalarPoly.evaluate per entry, then symmetrize."""
    n = len(gram.basis)
    m = np.array([[gram.entry(i, j).evaluate(theta, mu) for j in range(n)] for i in range(n)])
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("level,window,constraint", GRAM_CASES)
def test_compiled_specialize_matches_evaluate(engine, level, window, constraint):
    g = engine.gram(level, window=window, constraint=constraint)
    for theta in THETAS:
        for mu in (-1.0, 0.0, 0.25, 5.0):
            want = dense_specialize(g, theta, mu)
            blocks = unitarity.specialize(g, theta, mu)
            # the blocks partition the basis, and the oracle is exactly 0 outside them
            rows = np.concatenate([idx.reshape(-1) for idx, _ in blocks])
            assert sorted(rows.tolist()) == list(range(len(g.basis)))
            outside = np.ones(want.shape, dtype=bool)
            for idx, stack in blocks:
                for row, block in zip(idx, stack):
                    assert np.max(np.abs(block - want[np.ix_(row, row)])) < 1e-12
                    outside[np.ix_(row, row)] = False
            assert np.all(want[outside] == 0)
            assert abs(unitarity.min_eigenvalue(blocks) - np.linalg.eigvalsh(want)[0]) < 1e-9


@pytest.mark.parametrize("level,window,constraint", GRAM_CASES)
def test_mu_scan_evaluates_once_per_theta(engine, monkeypatch, level, window, constraint):
    compile_gram, evaluate, calls = unitarity.compile_gram, unitarity.evaluate, []

    def counting_compile(gram):
        calls.append("compile")
        return compile_gram(gram)

    def counting_evaluate(compiled, theta):
        calls.append(theta)
        return evaluate(compiled, theta)

    g = engine.gram(level, window=window, constraint=constraint)
    tol = unitarity.PD_TOLERANCE * len(g.basis)
    grid = [5.0, -1.0, 0.0, 0.25, 1.0]
    for theta in THETAS:
        monkeypatch.setattr(unitarity, "compile_gram", counting_compile)
        monkeypatch.setattr(unitarity, "evaluate", counting_evaluate)
        report = unitarity.mu_scan(g, theta, grid)
        monkeypatch.setattr(unitarity, "compile_gram", compile_gram)
        monkeypatch.setattr(unitarity, "evaluate", evaluate)
        assert calls == ["compile", theta]
        calls.clear()
        assert [mu for mu, _, _ in report.samples] == sorted(grid)
        for mu, eig, pd in report.samples:
            want = unitarity.min_eigenvalue(unitarity.specialize(g, theta, mu))
            assert abs(eig - want) < 1e-12
            assert pd == (want > tol)


@pytest.mark.parametrize("level", [(1, 1), (2, 0), (1, 2)])
def test_conjugate_theta_keeps_the_spectrum(engine, level):
    # integer coefficients: G(q^-1) = conj(G(q)), and 1 - theta takes q to q^-1
    compiled = unitarity.compile_gram(engine.gram(level, window=1))
    for theta in (Fraction(1, 3), Fraction(1, 7), Fraction(89, 233)):
        stacks, conjugate = (unitarity.evaluate(compiled, t) for t in (theta, 1 - theta))
        for mu in (0.25, 1.0, 5.0):
            eig = unitarity.min_eigenvalue(unitarity.at_mu(stacks, mu))
            assert abs(eig - unitarity.min_eigenvalue(unitarity.at_mu(conjugate, mu))) < 1e-9


@pytest.mark.parametrize("level", [(1, 0), (1, 1), (2, 0), (0, 2)])
def test_wider_window_never_raises_the_minimum(engine, level):
    # each window-1 weight block is a principal submatrix of the same-weight
    # window-2 block, so by Cauchy interlacing its smallest eigenvalue is no lower
    narrow, wide = (unitarity.compile_gram(engine.gram(level, window=w)) for w in (1, 2))
    for theta in (Fraction(1, 3), Fraction(1, 7), Fraction(1, 4), Fraction(89, 233)):
        stacks = [unitarity.evaluate(c, theta) for c in (narrow, wide)]
        for mu in (0.25, 1.0, 3.0, 5.0, 8.0):
            w1, w2 = (unitarity.min_eigenvalue(unitarity.at_mu(s, mu)) for s in stacks)
            assert w1 >= w2 - 1e-9


def compiled_terms(c):
    """(size class, slot, q exponent, mu degree, coefficient) of each compiled term."""
    out = []
    for k, (idx, at, q_index, coeff) in enumerate(c.classes):
        assert at.dtype == q_index.dtype == np.intp
        count, size = idx.shape
        degree, slot = np.divmod(at, count * size * size)
        out += [(k, s, c.q_exps[e], c.mu_degs[d], x)
                for s, e, d, x in zip(slot.tolist(), q_index.tolist(), degree.tolist(),
                                      coeff.tolist())]
    return out


def oracle_terms(gram):
    """The same, term by term from `unpack_key` (blocks grouped by size in
    first-appearance order, entries row-major within each size class), and
    the basis indices of each class's blocks."""
    by_size = {}
    for idx, numbers in gram.blocks:
        by_size.setdefault(len(idx), []).append((idx, numbers))
    out = []
    for k, blocks in enumerate(by_size.values()):
        entries = [gram.pool.poly(e) for _, numbers in blocks for e in numbers]
        out += [(k, at, *unpack_key(key), c / gram.scale)
                for at, entry in enumerate(entries) for key, c in entry.items()]
    return out, [[idx for idx, _ in blocks] for blocks in by_size.values()]


def test_compile_gram_matches_term_oracle(engine):
    g = engine.gram((2, 0), window=2)
    # 1,897 block entries, at most one entry number per translation orbit
    assert len({e for _, numbers in g.blocks for e in numbers}) <= 433
    big = pooled_gram([make_word([(0, 0)], [])], [([0], [[{(-3 << MU_BITS) + 1: 3 * 2 ** 70}]])])
    assert big.pool.coeffs == [3 * 2 ** 70]  # past 64 bits: kept exact, as a Python int
    for gram in (g, big):
        c = unitarity.compile_gram(gram)
        terms, indices = oracle_terms(gram)
        assert compiled_terms(c) == terms
        assert [idx.tolist() for idx, *_ in c.classes] == indices
        assert min(c.q_exps) < 0
    assert compiled_terms(c) == [(0, 0, -3, 1, 3 * 2 ** 70 / 2)]


def test_coefficient_past_the_float_range_is_not_finite():
    # 2^1100 / 2 is no float; the exact entry is kept, and the scan refuses it
    g = pooled_gram([make_word([(0, 0)], [])], [([0], [[{1: 2 ** 1100}]])])
    assert g.entry(0, 0) == ScalarPoly.term(2 ** 1099) * MU
    with pytest.raises(unitarity.NonFiniteSample, match="level 1,0"):
        unitarity.compile_gram(g)
    with pytest.raises(unitarity.NonFiniteSample):
        unitarity.mu_scan(g, Fraction(1, 3), [1.0])


def test_eigensolve_uses_the_stored_blocks():
    # the two words differ in weight, yet this hand-built Gram stores them as one block
    two = ScalarPoly.term(2)
    g = hand_gram([make_word([(0, 0)], []), make_word([(1, 0)], [])],
                  [([0, 1], [[ONE, two], [two, ONE]])])
    sg = unitarity.specialize(g, Fraction(1, 7), 1.0)
    assert abs(unitarity.min_eigenvalue(sg) + 1.0) < 1e-12


def test_diagonal_growth_matches_total_level(engine):
    # diagonal entries grow like mu^(k+l); the ratio tends to a positive constant
    theta = Fraction(1, 7)
    for lv in ((1, 0), (1, 1), (2, 0)):
        g = engine.gram(lv, window=1)
        n = sum(lv)
        for i in (0, len(g.basis) // 2, len(g.basis) - 1):
            entry = g.entry(i, i)
            lead = entry.leading_mu_part().evaluate(theta, 1.0).real
            for mu in (1e3, 1e6):
                ratio = entry.evaluate(theta, mu).real / mu ** n
                assert abs(ratio - lead) < 1e-2 * lead
            assert lead > 0


def test_specialized_gram_hermiticity_residual(engine):
    g = engine.gram((1, 1), window=1)
    stacks = unitarity.evaluate(unitarity.compile_gram(g), Fraction(89, 233))
    assert stacks.herm_residual < 1e-10
    for _, stack in unitarity.at_mu(stacks, 1.25):
        assert np.array_equal(stack, stack.conj().transpose(0, 2, 1))
