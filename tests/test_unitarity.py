import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qtgl3 import unitarity
from qtgl3.form import _MU_BITS, GramMatrix, enumerate_words, make_word
from qtgl3.scalars import MU, ONE, ScalarPoly, q_pow


def hand_gram(basis, blocks, level=(1, 0)):
    """A GramMatrix from blocks of integer-coefficient ScalarPolys, each entry
    packed as `WordEngine.gram` stores it: an integer polynomial times 2^(k+l)."""
    def pack(x):
        out = {}
        for (e, d), c in x.terms.items():
            assert c.b == 0 and c.d == 1, "integer coefficients only"
            out[(e << _MU_BITS) + d] = c.a << sum(level)
        return out

    return GramMatrix(level=level, window=0, constraint=None, basis=basis,
                      blocks=[(idx, [[pack(x) for x in row] for row in rows])
                              for idx, rows in blocks])


def single_entry_gram(entry, level=(1, 1)):
    g = hand_gram([make_word([(0, 0)], [(0, 0)])], [([0], [[entry]])], level=level)
    assert g.entry(0, 0) == entry
    return g


def test_specialize_examples():
    sg = unitarity.specialize(single_entry_gram(MU, level=(1, 0)), 0, 2.0)
    assert sg.matrix.shape == (1, 1)
    assert abs(sg.matrix[0, 0] - 2.0) < 1e-12
    quad = MU * MU + MU
    assert abs(unitarity.specialize(single_entry_gram(quad), 0, 1.0).matrix[0, 0] - 2.0) < 1e-12
    assert abs(unitarity.specialize(single_entry_gram(quad), 0, -0.5).matrix[0, 0] + 0.25) < 1e-12


def test_specialize_rejects_nonhermitian():
    q = q_pow(1)
    g = hand_gram([make_word([(0, 0)], []), make_word([(1, 0)], [])],
                  [([0, 1], [[MU, q], [q, MU]])])  # entry (1, 0) should be q^-1
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
    assert unitarity.specialize(two_block_gram(ONE), Fraction(1, 7), 1.0).herm_residual == 0.0


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


def test_min_eigenvalue_examples():
    sg = unitarity.SpecializedGram(Fraction(0), 0.0, 0.0,
                                   ((np.array([[0]]), np.array([[[2.0 + 0j]]])),))
    assert unitarity.min_eigenvalue(sg) == 2.0
    sg = unitarity.SpecializedGram(
        Fraction(0), 0.0, 0.0,
        ((np.array([[0, 1]]), np.array([[[1.0 + 0j, 0], [0, -3.0 + 0j]]])),),
    )
    assert abs(unitarity.min_eigenvalue(sg) + 3.0) < 1e-12
    empty = unitarity.SpecializedGram(Fraction(0), 0.0, 0.0, ())
    assert unitarity.min_eigenvalue(empty) == float("inf")


def test_mu_scan_level_one(engine):
    report = unitarity.mu_scan(engine, (1, 0), Fraction(1, 7), [-1.0, 0.5, 1.0], window=1)
    assert [pd for (_, _, pd) in report.samples] == [False, True, True]
    assert [mu for (mu, _, _) in report.samples] == [-1.0, 0.5, 1.0]


def test_mu_scan_vacuum_always_definite(engine):
    report = unitarity.mu_scan(engine, (0, 0), Fraction(1, 3), [-2.0, 0.0, 3.0], window=1)
    assert all(pd for (_, _, pd) in report.samples)


def test_mu_scan_singular_at_zero(engine):
    report = unitarity.mu_scan(engine, (1, 0), Fraction(0), [0.0], window=1)
    assert report.samples[0][2] is False


def test_mu_scan_mixed_level_signs(engine):
    report = unitarity.mu_scan(
        engine, (1, 1), Fraction(0), [-1.0, -0.5, 0.5, 1.0, 5.0], window=0
    )
    assert [pd for (_, _, pd) in report.samples] == [False, False, True, True, True]


def test_truncated_form_indefinite_for_nonreal_q(engine):
    # regression for the explicit witness: level (1,1), q = exp(2 pi i/3)
    report = unitarity.mu_scan(engine, (1, 1), Fraction(1, 3), [0.25, 1.0, 5.0], window=1)
    flags = [pd for (_, _, pd) in report.samples]
    assert flags == [False, False, True]
    report0 = unitarity.mu_scan(engine, (1, 1), Fraction(0), [0.25, 1.0, 5.0], window=1)
    assert all(pd for (_, _, pd) in report0.samples)


def test_scan_report_json(engine):
    report = unitarity.mu_scan(engine, (1, 0), Fraction(1, 7), [1.0, -1.0], window=1)
    js = report.to_json()
    assert js["level"] == [1, 0]
    assert js["window"] == 1
    assert js["theta"] == "1/7"
    assert js["samples"][0]["mu"] == -1.0  # sorted ascending
    assert set(js["samples"][0]) == {"mu", "min_eig", "pd"}
    json.dumps(js)  # serializable


def dense_specialize(gram, theta, mu):
    """The per-entry reference: one ScalarPoly.evaluate per entry, then symmetrize."""
    n = len(gram.basis)
    m = np.array([[gram.entry(i, j).evaluate(theta, mu) for j in range(n)] for i in range(n)])
    return (m + m.conj().T) / 2


@pytest.mark.parametrize(
    "level,window,constraint",
    [((1, 1), 1, None), ((2, 0), 1, None), ((1, 0), None, (2, 2))],
)
def test_compiled_specialize_matches_evaluate(engine, level, window, constraint):
    g = engine.gram(level, window=window, constraint=constraint)
    for theta in (Fraction(0), Fraction(1, 3), Fraction(1, 7), Fraction(89, 233)):
        for mu in (-1.0, 0.0, 0.25, 5.0):
            want = dense_specialize(g, theta, mu)
            sg = unitarity.specialize(g, theta, mu)
            assert np.max(np.abs(sg.matrix - want)) < 1e-12
            assert abs(unitarity.min_eigenvalue(sg) - np.linalg.eigvalsh(want)[0]) < 1e-9


def test_eigensolve_uses_the_stored_blocks():
    # the two words differ in weight, yet this hand-built Gram stores them as one block
    two = ScalarPoly.from_rational(2)
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
    sg = unitarity.specialize(g, Fraction(89, 233), 1.25)
    assert sg.herm_residual < 1e-10
    for _, stack in sg.blocks:
        assert np.array_equal(stack, stack.conj().transpose(0, 2, 1))
