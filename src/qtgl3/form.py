"""Word basis, symbolic action engine, and the contravariant hermitian form.

A basis word is E12(a_1)...E12(a_k) E32(b_1)...E32(b_l).1 with monomial
torus arguments; (k, l) is its level.  Because the E12 factors commute
among themselves, the E32 factors commute among themselves, and E12
commutes with E32, each argument list is kept sorted, which makes the
representation canonical.

The engine rewrites E_ij(a).word back into the word basis by commuting
the operator rightward through the factors (central terms are dropped,
matching the representation) until a vacuum base case applies:

    E11(a).1 = (mu/2) kappa(a)     E22(a).1 = -(mu/2) kappa(a)
    E33(a).1 = (mu/2) kappa(a)     E21/E23/E31/E13(a).1 = 0
    D1.1 = D2.1 = 0

The hermitian form is evaluated two independent ways: by the defining
recursion (peel a factor off the left argument and move its omega-image
to the right), and by a closed combinatorial sum over entry patterns
and cycle structures of the block matrix of paired arguments.  The two
evaluators agree, and that agreement is part of the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from . import fock
from .gl3 import matrix_bracket_terms
from .scalars import HALF_MU, ONE, ZERO, ScalarPoly, q_pow
from .torus import TorusElement


class Word(NamedTuple):
    e12: tuple
    e32: tuple


VACUUM = Word((), ())


def make_word(e12_args, e32_args):
    return Word(tuple(sorted(e12_args)), tuple(sorted(e32_args)))


def word_level(w):
    return (len(w.e12), len(w.e32))


def word_weight(w):
    """Total (s, t) exponent bidegree; the d_s/d_t eigenvalues."""
    ms = sum(m for m, _ in w.e12) + sum(m for m, _ in w.e32)
    ns = sum(n for _, n in w.e12) + sum(n for _, n in w.e32)
    return (ms, ns)


def word_str(w):
    head = "".join(f"E12(s^{m} t^{n})" for m, n in w.e12)
    tail = "".join(f"E32(s^{m} t^{n})" for m, n in w.e32)
    return head + tail + "|0>"


def shift_word(a, b, w):
    """Add (a, b) to every argument's exponent pair."""
    return make_word(
        [(m + a, n + b) for m, n in w.e12],
        [(m + a, n + b) for m, n in w.e32],
    )


def combo_level(combo):
    """Common level of a nonzero combination; mixed levels are a caller bug."""
    levels = {word_level(w) for w in combo}
    if not levels:
        raise ValueError("level of the zero combination")
    if len(levels) > 1:
        raise ValueError(f"mixed levels {sorted(levels)}")
    return levels.pop()


def _insert_sorted(args, a):
    out = list(args)
    out.append(a)
    out.sort()
    return tuple(out)


def _cycles(perm):
    n = len(perm)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        r = start
        while not seen[r]:
            seen[r] = True
            cyc.append(r)
            r = perm[r]
        out.append(cyc)
    return out


class WordEngine:
    """Rewriting engine with per-instance memo tables.

    `bracket_terms` may be overridden (tests use a corrupted version as
    a negative control); it must map monomial generator pairs to the
    matrix part of their bracket.
    """

    def __init__(self, bracket_terms=None):
        self.bracket_terms = bracket_terms or matrix_bracket_terms
        self._act_cache = {}
        self._form_cache = {}

    # -- action ---------------------------------------------------------

    def act_mono(self, i, j, mono, word):
        """E_ij(s^m t^n) . word expanded in the word basis (central terms dropped)."""
        if i == 1 and j == 2:
            return {Word(_insert_sorted(word.e12, mono), word.e32): ONE}
        if i == 3 and j == 2:
            return {Word(word.e12, _insert_sorted(word.e32, mono)): ONE}
        key = (i, j, mono, word)
        res = self._act_cache.get(key)
        if res is not None:
            return res
        if word == VACUUM:
            if i == j and mono == (0, 0):
                res = {VACUUM: -HALF_MU if i == 2 else HALF_MU}
            else:
                res = {}
        else:
            if word.e12:
                g, garg = (1, 2), word.e12[0]
                rest = Word(word.e12[1:], word.e32)
            else:
                g, garg = (3, 2), word.e32[0]
                rest = Word((), word.e32[1:])
            out = {}
            for w, c in self.act_mono(i, j, mono, rest).items():
                if g == (1, 2):
                    w2 = Word(_insert_sorted(w.e12, garg), w.e32)
                else:
                    w2 = Word(w.e12, _insert_sorted(w.e32, garg))
                s = out.get(w2)
                s = c if s is None else s + c
                if s:
                    out[w2] = s
                else:
                    out.pop(w2, None)
            for (i2, j2, mono2, coeff) in self.bracket_terms(
                i, j, mono[0], mono[1], g[0], g[1], garg[0], garg[1]
            ):
                for w, c in self.act_mono(i2, j2, mono2, rest).items():
                    cc = coeff * c
                    s = out.get(w)
                    s = cc if s is None else s + cc
                    if s:
                        out[w] = s
                    else:
                        out.pop(w, None)
            res = out
        self._act_cache[key] = res
        return res

    def act(self, i, j, arg, combo):
        """E_ij(arg).combo for a torus-element argument and a word combination."""
        if isinstance(arg, tuple):
            arg = TorusElement.monomial(arg[0], arg[1])
        out = {}
        for word, wc in combo.items():
            for mono, ac in arg.terms.items():
                c0 = wc * ac
                if not c0:
                    continue
                for w, c in self.act_mono(i, j, mono, word).items():
                    cc = c0 * c
                    s = out.get(w)
                    s = cc if s is None else s + cc
                    if s:
                        out[w] = s
                    else:
                        out.pop(w, None)
        return out

    def act_d(self, which, combo):
        """d_s (which=1) or d_t (which=2) action; words are weight eigenvectors."""
        out = {}
        for word, wc in combo.items():
            w = word_weight(word)[which - 1]
            if w:
                c = wc * w
                s = out.get(word)
                s = c if s is None else s + c
                if s:
                    out[word] = s
                else:
                    out.pop(word, None)
        return out

    # -- hermitian form, defining recursion ------------------------------

    def form_words(self, u, v):
        """(u, v) by peeling u left to right; antilinear in u, linear in v."""
        key = (u, v)
        res = self._form_cache.get(key)
        if res is not None:
            return res
        if u == VACUUM:
            res = ONE if v == VACUUM else ScalarPoly.zero()
        else:
            if u.e12:
                m, n = u.e12[0]
                rest = Word(u.e12[1:], u.e32)
                low = (2, 1)
            else:
                m, n = u.e32[0]
                rest = Word((), u.e32[1:])
                low = (2, 3)
            # omega(E12(s^m t^n)) = -q^(mn) E21(s^-m t^-n), same shape for E32/E23
            acted = self.act_mono(low[0], low[1], (-m, -n), v)
            total = ScalarPoly.zero()
            for w, c in acted.items():
                total = total + c * self.form_words(rest, w)
            res = -(q_pow(m * n) * total)
        self._form_cache[key] = res
        return res

    def form(self, cu, cv):
        """Sesquilinear extension to word combinations."""
        out = ScalarPoly.zero()
        for u, a in cu.items():
            ac = a.conjugate()
            for v, b in cv.items():
                out = out + ac * b * self.form_words(u, v)
        return out

    # -- hermitian form, combinatorial evaluation ------------------------

    def form_combinatorial(self, u, v, identify_block_order=True):
        """Closed-form evaluation over entry patterns and cycle structures.

        Pair the conjugated arguments of u against the arguments of v in
        the block matrix lam[r][c] = bar(u_r) * v_c (E12 block and E32
        block; cross entries vanish).  A summand picks one entry from
        each row and each column (an entry pattern sigma, block-diagonal)
        and groups the rows into cyclically ordered chains (a cycle
        structure tau); each chain contributes one factor of mu times
        kappa of the ordered entry product.  Identifying terms that
        differ only by rotating a chain or reordering whole chains makes
        each (sigma, tau) pair count exactly once; per-chain signs cancel
        against the sign of moving the omega-images across, leaving every
        surviving term with coefficient +1.

        `identify_block_order=False` switches to the rejected convention
        that counts chain orderings separately (kept as a negative
        control; it overcounts already at total level 2).
        """
        k, l = word_level(u)
        if (k, l) != word_level(v):
            return ScalarPoly.zero()
        if word_weight(u) != word_weight(v):
            # Each chain below ends on the monomial s^cur_m t^cur_n, where
            # (cur_m, cur_n) sums (mc - mr, nc - nr) over the chain's rows.
            # The chains of a (sigma, tau) pair use every row and every
            # column once, so their (cur_m, cur_n) add up to
            # weight(v) - weight(u).  When that is nonzero, some chain is a
            # non-identity monomial, its kappa is 0, and every term dies.
            return ScalarPoly.zero()
        n_tot = k + l
        if n_tot == 0:
            return ONE
        rows = list(u.e12) + list(u.e32)
        cols = list(v.e12) + list(v.e32)
        # lam[r][c] = bar(s^mr t^nr) * s^mc t^nc = q^(mr*nr - nr*mc) s^(mc-mr) t^(nc-nr)
        lam = [
            [
                (mr * nr - nr * mc, mc - mr, nc - nr)
                if (r < k) == (c < k)
                else None
                for c, (mc, nc) in enumerate(cols)
            ]
            for r, (mr, nr) in enumerate(rows)
        ]
        acc = {}
        sigmas_r = list(itertools.permutations(range(k)))
        sigmas_u = list(itertools.permutations(range(k, n_tot)))
        taus = [
            (perm, _cycles(perm)) for perm in itertools.permutations(range(n_tot))
        ]
        for sig_r in sigmas_r:
            for sig_u in sigmas_u:
                col_of = sig_r + sig_u
                for _, cycles in taus:
                    phase = 0
                    dead = False
                    for cyc in cycles:
                        cur_m = cur_n = e_tot = 0
                        for r in cyc:
                            e, dm, dn = lam[r][col_of[r]]
                            e_tot += e + cur_n * dm
                            cur_m += dm
                            cur_n += dn
                        if cur_m or cur_n:
                            dead = True  # kappa of a non-identity monomial
                            break
                        phase += e_tot
                    if dead:
                        continue
                    mult = 1
                    if not identify_block_order:
                        sizes = {}
                        for cyc in cycles:
                            sizes[len(cyc)] = sizes.get(len(cyc), 0) + 1
                        for cnt in sizes.values():
                            for f in range(2, cnt + 1):
                                mult *= f
                    key = (phase, len(cycles))
                    acc[key] = acc.get(key, 0) + mult
        out = ScalarPoly.zero()
        for (e, d), count in acc.items():
            out = out + ScalarPoly.term(count, q_exp=e, mu_deg=d)
        return out

    # -- gram matrices ----------------------------------------------------

    def gram(self, level, window=None, constraint=None):
        """Gram matrix of the form over the canonical word basis at a level.

        d_s and d_t act on a word by its (s, t) weight and are self-adjoint
        for the form, so words of different weight are orthogonal.  The
        basis is grouped by `word_weight`; the defining recursion runs on
        every ordered pair inside a group, both triangles, and every
        cross-weight entry is the exact zero.  Both triangles are computed,
        so hermitian symmetry stays a genuine check downstream
        (`unitarity.specialize` measures its residual).
        """
        basis = enumerate_words(level, window=window, constraint=constraint)
        n = len(basis)
        entries = [[ZERO] * n for _ in range(n)]
        groups = {}
        for i, w in enumerate(basis):
            groups.setdefault(word_weight(w), []).append(i)
        for group in groups.values():
            for i in group:
                u, row = basis[i], entries[i]
                for j in group:
                    row[j] = self.form_words(u, basis[j])
        return GramMatrix(level=level, window=window, constraint=constraint,
                          basis=basis, entries=entries)


def enumerate_words(level, window=None, constraint=None):
    """Canonical word basis at a level, under an exponent window or an
    (M, N) nonnegative budget on total s and t exponents."""
    k, l = level
    if (window is None) == (constraint is None):
        raise ValueError("exactly one of window/constraint must be given")
    if window is not None:
        if window < 0:
            raise ValueError("window must be nonnegative")
        args = [
            (m, n)
            for m in range(-window, window + 1)
            for n in range(-window, window + 1)
        ]
        e12s = itertools.combinations_with_replacement(args, k)
        e32s = list(itertools.combinations_with_replacement(args, l))
        return [Word(a, b) for a in e12s for b in e32s]
    m_max, n_max = constraint
    args = [(m, n) for m in range(m_max + 1) for n in range(n_max + 1)]
    out = []
    for a in itertools.combinations_with_replacement(args, k):
        for b in itertools.combinations_with_replacement(args, l):
            w = Word(a, b)
            ms, ns = word_weight(w)
            if ms <= m_max and ns <= n_max:
                out.append(w)
    return out


@dataclass
class GramMatrix:
    level: tuple
    window: object
    constraint: object
    basis: list
    entries: list = field(repr=False)
    # built by unitarity.specialize on first use; entries are not mutated after
    _compiled: object = field(default=None, init=False, repr=False, compare=False)

    def to_json(self):
        out = {
            "level": list(self.level),
            "window": self.window,
            "basis": [word_str(w) for w in self.basis],
            "entries": [[str(x) for x in row] for row in self.entries],
        }
        if self.constraint is not None:
            out["constraint"] = list(self.constraint)
        return out


def word_to_poly(w, cfg=fock.DEFAULT_CONFIG):
    """Realize a word in the polynomial module by applying its factors to 1."""
    v = fock.FockPoly.one()
    for m, n in reversed(w.e32):
        v = fock.apply_generator(3, 2, m, n, v, cfg)
    for m, n in reversed(w.e12):
        v = fock.apply_generator(1, 2, m, n, v, cfg)
    return v


def exact_rank(rows):
    """Rank of a matrix of ScalarPoly entries over the scalar fraction field.

    Division-free elimination (row_i <- pivot*row_i - entry*row_pivot);
    scaling a row by a nonzero domain element preserves rank.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for r in range(rank + 1, len(rows)):
            x = rows[r][col]
            if x:
                rows[r] = [p * a - x * b for a, b in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def words_to_polys_rank(words, cfg=fock.DEFAULT_CONFIG):
    """Dimension of the span of the word images in the polynomial module."""
    polys = [word_to_poly(w, cfg) for w in words]
    monos = sorted({m for p in polys for m in p.terms})
    col = {m: i for i, m in enumerate(monos)}
    zero = ScalarPoly.zero()
    rows = []
    for p in polys:
        row = [zero] * len(monos)
        for m, c in p.terms.items():
            row[col[m]] = c
        rows.append(row)
    return exact_rank(rows)
