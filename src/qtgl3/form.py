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

The action and the defining recursion run on small integer ids: a
`WordEngine` numbers each word it meets, storing its peel step once, and
each operator E_ij(mono) it meets.  Both memos are tables of rows: the
form keeps one dict of nonzero values per left word id, keyed by the
right word id, plus one bit per computed zero, and the action one dict
per operator id, keyed by word id, whose values are tuples of (word id,
coefficient) pairs.  Every caller probes a memo in place, by one list
index and one small-int dict lookup or bit test; `_act` and `_form` run
only on a miss, to compute and store one entry.  Only the public methods
see `Word`s.

The recursions also run on integer polynomials instead of `ScalarPoly`:
term dicts with `ScalarPoly`'s own keys (see `scalars`) and integer
coefficients.  Every value of the form is a polynomial in q^±1 and mu
with integer coefficients, and the action brings in at most a factor
1/2, from the vacuum values above.  So the action is stored doubled
(2 E11(1).1 = mu), which makes every action coefficient an integer
polynomial, and a form value (u, v) is stored as 2^(k+l) (u, v) for u of
level (k, l): peeling one factor off u multiplies by one doubled action
coefficient.  The public methods divide the factor back out exactly
(`int_poly_scalar` rescales the coefficients and keeps the keys), so
their values do not depend on any integrality.  A `GramMatrix` holds
the memo's own integer polynomials and builds `ScalarPoly` entries only
on demand.  The combinatorial evaluator works on the words themselves,
stays on `ScalarPoly`, and shares no table with the id path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from . import fock
from .gl3 import matrix_bracket_terms
from .scalars import MU_BITS, ONE, ZERO, GaussianRational, ScalarPoly, accumulate


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


# Integer polynomials, the value ring of the engine's recursions: a dict
# {key: int} on `ScalarPoly`'s term keys, so multiplying two monomials adds
# their keys.  No zero coefficient is stored.  Memo values are shared
# between entries and never mutated; every exact zero is the one `_IZERO`.
# A `WordEngine` interns the action coefficients its bracket merges build,
# by their ordered items.
_IZERO = {}
_IONE = {0: 1}
_ITWO = {0: 2}
_IMU = {1: 1}
_IMINUS_MU = {1: -1}

# the zero bits of a form row that has no computed zero yet, shared
_NO_ZEROS = b""


def int_poly_scalar(poly, denom):
    """The ScalarPoly poly / denom of an integer polynomial: its keys, in its
    term order, with each coefficient divided by denom."""
    return ScalarPoly._raw({key: GaussianRational._make(c, 0, denom)
                            for key, c in poly.items()}) if poly else ZERO


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

    Every word the engine meets is interned into a small integer id (the
    vacuum is 0), and its peel step is stored with it once:
    `(raise_op, lower_op, rest_id, shift)`.  `raise_op` is the operator id
    of its leading factor E_{side,2}(s^m t^n), side 1 for E12 and 3 for
    E32, `lower_op` that of the factor's omega-image E_{2,side}(-m,-n),
    and `shift` its q^(mn) as the key shift (m*n) << MU_BITS.  Every
    operator E_ij(mono) gets an operator id on first use.  The memos are
    lists of rows, one row per id, that callers probe before they call
    `_act` or `_form` to compute a missing entry:

        _act_rows[op_id]   {word_id: ((word_id, 2 x coefficient), ...)}
        _coeffs            ordered coefficient items -> the one dict holding them
        _form_rows[u_id]   {v_id: 2^(k+l) x form value}, for u of level (k, l),
                           nonzero values only
        _zero_rows[u_id]   bytearray with bit v_id set once (u, v) is computed
                           to be exactly zero; the shared empty _NO_ZEROS
                           until the row's first zero
        _is_rest[u_id]     1 once u is the peel rest of some interned word

    A raising operator E12 or E32 only adds a factor: its entry is the
    one pair (id of the word with the factor added, interned 2).
    Coefficients and form values in these tables are integer
    polynomials, doubled as the module docstring explains: they
    share `ScalarPoly`'s term keys and differ only in their integer
    coefficients, which `act_mono` and `form_words` rescale into
    `ScalarPoly`s (`int_poly_scalar`).  A `gram` keeps the form memo's
    values themselves as its entries, which is why memo values are never
    mutated once stored.  So `_act` merges the bracket terms of a word in a
    scratch dict, stores the word's final coefficient through `_coeffs`, so
    that equal ones (same terms, same order) share one dict, and freezes the
    result into its pairs.  Most form values are zero; each is computed once,
    like any other, and kept as one bit.  Only the recursion `_form(rest, w)`
    reads a form row again, so `form_words` keeps what it computes only when
    u is some word's rest (`_is_rest`); any other row stays empty, and fills
    on demand if u becomes a rest later.  `gram` keeps its entries.  The
    combinatorial evaluator keeps its own tables, `_comb_tables` (entry
    patterns and cycle lists per level) and `_comb_weights` (word ->
    weight).  The public methods take and return `Word`s.  Words,
    operators, action entries, interned coefficients, and the rows and bits
    of rests grow for the life of the engine; a fresh engine bounds them.
    """

    def __init__(self):
        self._ids = {VACUUM: 0}
        self._words = [VACUUM]
        self._steps = [None]
        self._form_rows = [{}]
        self._zero_rows = [_NO_ZEROS]
        self._is_rest = bytearray(1)
        self._op_ids = {}
        self._ops = []
        self._act_rows = []
        self._coeffs = {}
        self._comb_tables = {}
        self._comb_weights = {}

    def memo_sizes(self):
        """Table sizes now: words, operators, memo entries (a form entry is a
        nonzero value or a zero bit), interned coefficients."""
        return {"words": len(self._words), "operators": len(self._ops),
                "form_entries": sum(map(len, self._form_rows))
                + sum(int.from_bytes(z, "little").bit_count() for z in self._zero_rows),
                "act_entries": sum(map(len, self._act_rows)),
                "interned": len(self._coeffs)}

    # -- word and operator ids ----------------------------------------------

    def _intern(self, word):
        """Id of a word; the first sighting records it, its step and its form rows."""
        wid = self._ids.get(word)
        if wid is None:
            if word.e12:
                side, arg, rest = 1, word.e12[0], self._intern(Word(word.e12[1:], word.e32))
            else:
                side, arg, rest = 3, word.e32[0], self._intern(Word((), word.e32[1:]))
            wid = len(self._words)
            self._ids[word] = wid
            self._words.append(word)
            # omega(E12(s^m t^n)) = -q^(mn) E21(s^-m t^-n), same shape for E32/E23
            m, n = arg
            self._steps.append((self._op(side, 2, arg), self._op(2, side, (-m, -n)),
                                rest, (m * n) << MU_BITS))
            self._form_rows.append({})
            self._zero_rows.append(_NO_ZEROS)
            self._is_rest.append(0)
            self._is_rest[rest] = 1
        return wid

    def _op(self, i, j, mono):
        """Id of the operator E_ij(mono); the first sighting adds its row."""
        key = (i, j, mono)
        op = self._op_ids.get(key)
        if op is None:
            op = self._op_ids[key] = len(self._ops)
            self._ops.append(key)
            self._act_rows.append({})
        return op

    # -- action ---------------------------------------------------------

    def act_mono(self, i, j, mono, word):
        """E_ij(s^m t^n) . word expanded in the word basis (central terms dropped)."""
        wid = self._intern(word)
        op = self._op(i, j, mono)
        pairs = self._act_rows[op].get(wid)
        if pairs is None:
            pairs = self._act(op, wid)
        words = self._words
        return {words[w]: int_poly_scalar(c, 2) for w, c in pairs}

    def _act(self, op, wid):
        """2 E_ij(mono) . word `wid` as (word id, integer polynomial) pairs, for
        the operator E_ij(mono) of id `op`; () if none.  Computes and stores
        the entry: callers probe `_act_rows[op]` first."""
        i, j, mono = self._ops[op]
        if j == 2 and i != 2:  # E12, E32 just add a factor; side = i
            w = self._words[wid]
            w = make_word(w.e12 + (mono,), w.e32) if i == 1 else make_word(w.e12, w.e32 + (mono,))
            res = ((self._intern(w), self._coeffs.setdefault(((0, 2),), _ITWO)),)
        elif not wid:
            if i == j and mono == (0, 0):
                # 2 E_ii(1).1 = mu for E11 and E33, -mu for E22
                c = _IMINUS_MU if i == 2 else _IMU
                res = ((0, self._coeffs.setdefault(tuple(c.items()), c)),)
            else:
                res = ()
        else:
            # E_ij(a) g(b) rest = g(b) E_ij(a) rest + [E_ij(a), g(b)] rest
            raise_op, _, rest, _ = self._steps[wid]
            side, _, garg = self._ops[raise_op]
            act_rows, op_ids = self._act_rows, self._op_ids
            pairs = act_rows[op].get(rest)
            if pairs is None:
                pairs = self._act(op, rest)
            # adding one fixed factor is injective on words (no keys collide), never id 0
            raised = act_rows[raise_op]
            terms = {}
            for w, c in pairs:
                g = raised.get(w)
                if g is None:
                    g = self._act(raise_op, w)
                terms[g[0][0]] = c
            merged = {}  # word -> its coefficient in terms, as a scratch dict
            # looked up in this module at call time, so it can be wrapped
            for (i2, j2, mono2, sign, e) in matrix_bracket_terms(
                i, j, mono[0], mono[1], side, 2, garg[0], garg[1]
            ):
                op2 = op_ids.get((i2, j2, mono2))
                if op2 is None:
                    op2 = self._op(i2, j2, mono2)
                pairs = act_rows[op2].get(rest)
                if pairs is None:
                    pairs = self._act(op2, rest)
                shift = e << MU_BITS
                for w, c in pairs:
                    new = merged.get(w)
                    if new is None:  # memo values are shared: never mutate one
                        new = merged[w] = terms[w] = dict(terms.get(w) or ())
                    for k, x in c.items():
                        accumulate(new, k + shift, sign * x)
                    if not new:
                        del terms[w], merged[w]
            coeffs = self._coeffs
            for w, c in merged.items():  # equal coefficients share one interned dict
                terms[w] = coeffs.setdefault(tuple(c.items()), c)
            res = tuple(terms.items())
        self._act_rows[op][wid] = res
        return res

    def act_d(self, which, combo):
        """d_s (which=1) or d_t (which=2) action; words are weight eigenvectors."""
        out = {}
        for word, wc in combo.items():
            w = word_weight(word)[which - 1]
            if w:
                accumulate(out, word, wc * w)
        return out

    def act_element(self, x, combo):
        """x.combo for a GlElement x; the central symbols act as 0."""
        out = {}
        for sym, c in x.terms.items():
            if sym[0] == "E":
                _, i, j, m, n = sym
                part = {}
                for word, wc in combo.items():
                    for w, cc in self.act_mono(i, j, (m, n), word).items():
                        accumulate(part, w, wc * cc)
            elif sym[0] == "ds":
                part = self.act_d(1, combo)
            elif sym[0] == "dt":
                part = self.act_d(2, combo)
            else:
                continue
            for w, cc in part.items():
                accumulate(out, w, c * cc)
        return out

    # -- hermitian form, defining recursion ------------------------------

    def form_words(self, u, v):
        """(u, v) by peeling u left to right; antilinear in u, linear in v."""
        # callers pair the same words over and over, so intern on a miss only
        ids = self._ids
        uid = ids.get(u)
        if uid is None:
            uid = self._intern(u)
        vid = ids.get(v)
        if vid is None:
            vid = self._intern(v)
        zeros = self._zero_rows[uid]
        if vid >> 3 < len(zeros) and zeros[vid >> 3] >> (vid & 7) & 1:
            return ZERO
        res = self._form_rows[uid].get(vid)
        if res is None:  # only the recursion reads a row again: keep it for rests only
            res = self._form(uid, vid, False)
        return int_poly_scalar(res, 1 << (len(u.e12) + len(u.e32))) if res else ZERO

    def _form(self, uid, vid, keep=True):
        """2^(k+l) form_words on word ids, for u of level (k, l), computed on a
        miss: callers probe the row and its zero bits first.  The value is kept
        when `keep` is true or u is some word's rest."""
        if not uid:
            res = _IZERO if vid else _IONE
        else:
            # (g u', v) = (u', omega(g) v); each doubled action coefficient
            # carries one factor 2 of 2^(k+l)
            _, op, rest, shift = self._steps[uid]
            pairs = self._act_rows[op].get(vid)
            if pairs is None:
                pairs = self._act(op, vid)
            sub_zeros = self._zero_rows[rest]  # row rest changes only at the w being visited
            # sum, then filter: a mid-sum drop could reorder terms, and compile_gram sums in order
            total = None
            for w, c in pairs:
                if w >> 3 < len(sub_zeros) and sub_zeros[w >> 3] >> (w & 7) & 1:
                    continue  # most values are zero: test the bit first
                sub = self._form_rows[rest].get(w)
                if sub is None:
                    sub = self._form(rest, w)
                    if not sub:
                        continue
                if total is None:
                    total = {}
                    get = total.get
                for k1, x1 in c.items():
                    for k2, x2 in sub.items():
                        k = k1 + k2
                        total[k] = get(k, 0) + x1 * x2
            res = ({k + shift: -x for k, x in total.items() if x} or _IZERO) if total else _IZERO
        if keep or self._is_rest[uid]:
            if res:
                self._form_rows[uid][vid] = res
            else:  # a computed zero is one bit
                zeros = self._zero_rows[uid]
                byte = vid >> 3
                if byte >= len(zeros):
                    if zeros is _NO_ZEROS:  # the row's first zero
                        zeros = self._zero_rows[uid] = bytearray()
                    zeros.extend(bytes(byte + 1 - len(zeros)))
                zeros[byte] |= 1 << (vid & 7)
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
        k, l = len(u.e12), len(u.e32)
        if k != len(v.e12) or l != len(v.e32):
            return ZERO
        weights = self._comb_weights
        wu, wv = weights.get(u), weights.get(v)
        if wu is None:
            wu = weights[u] = word_weight(u)
        if wv is None:
            wv = weights[v] = word_weight(v)
        if wu != wv:
            # Each chain below ends on the monomial s^cur_m t^cur_n, where
            # (cur_m, cur_n) sums (mc - mr, nc - nr) over the chain's rows.
            # The chains of a (sigma, tau) pair use every row and every
            # column once, so their (cur_m, cur_n) add up to
            # weight(v) - weight(u).  When that is nonzero, some chain is a
            # non-identity monomial, its kappa is 0, and every term dies.
            return ZERO
        if not k + l:
            return ONE
        patterns, cycle_lists = self._comb_level_table(k, l)
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
        for col_of in patterns:
            for cycles in cycle_lists:
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
                key = (phase << MU_BITS) + len(cycles)
                acc[key] = acc.get(key, 0) + mult
        # every count is positive: acc is the term dict of the result
        if not acc:
            return ZERO
        return ScalarPoly._raw(
            {key: GaussianRational._make(count, 0, 1) for key, count in acc.items()}
        )

    def _comb_level_table(self, k, l):
        """Block-diagonal entry patterns (column of each row) and the cycle
        lists of every row permutation at level (k, l), built once."""
        table = self._comb_tables.get((k, l))
        if table is None:
            n_tot = k + l
            patterns = [
                sig_r + sig_u
                for sig_r in itertools.permutations(range(k))
                for sig_u in itertools.permutations(range(k, n_tot))
            ]
            cycle_lists = [_cycles(p) for p in itertools.permutations(range(n_tot))]
            table = self._comb_tables[(k, l)] = (patterns, cycle_lists)
        return table

    # -- gram matrices ----------------------------------------------------

    def gram(self, level, window=None, constraint=None):
        """Gram matrix of the form over the canonical word basis at a level.

        d_s and d_t act on a word by its (s, t) weight and are self-adjoint
        for the form, so words of different weight are orthogonal.  The
        basis is grouped by `word_weight`; the defining recursion runs on
        every ordered pair inside a group, both triangles, and the groups
        are stored as the Gram's blocks: every cross-weight entry is the
        exact zero and is not stored.  Both triangles are computed,
        so hermitian symmetry stays a genuine check downstream
        (`unitarity.evaluate` measures its residual).  The block entries
        are the form memo's own integer polynomials, not copies.

        The form is invariant under one common shift of all arguments,
        (u, v) = (u + s, v + s), which moves the weight by (k + l) s.  So a
        block of weight W is evaluated on its words shifted by -s,
        s = floor(W / max(k + l, 1)): blocks whose weights agree modulo
        k + l share one canonical translate, and so share entry objects,
        one per translation orbit of same-weight pairs.
        """
        basis = enumerate_words(level, window=window, constraint=constraint)
        groups = {}
        for i, w in enumerate(basis):
            groups.setdefault(word_weight(w), []).append(i)
        k_l = max(sum(level), 1)
        blocks = []
        for (ws, wt), group in groups.items():
            a, b = -(ws // k_l), -(wt // k_l)
            ids = [self._intern(shift_word(a, b, basis[i])) for i in group]
            # a zero bit, never met in a same-weight block so far, is recomputed
            blocks.append((group, [[self._form_rows[i].get(j) or self._form(i, j) for j in ids]
                                   for i in ids]))
        return GramMatrix(level=level, window=window, constraint=constraint,
                          basis=basis, blocks=blocks)


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
    # (basis indices, square matrix over them), one per weight group in
    # first-appearance order; every entry outside them is ZERO.  An entry is
    # an integer polynomial (ScalarPoly's keys, int coefficients) holding
    # `scale` times the form value, shared with the form memo that computed it and with every entry
    # of the same translation orbit (see `WordEngine.gram`), never mutated
    blocks: list = field(repr=False)
    # basis index -> block position, built on first use by `entry` and `rows`
    _position: dict = field(default=None, init=False, repr=False, compare=False)

    @property
    def scale(self):
        """2^(k+l) at level (k, l): the factor the integer entries carry."""
        return 1 << sum(self.level)

    def _positions(self):
        """Basis index -> (block number, position inside the block)."""
        if self._position is None:
            self._position = {p: (b, k) for b, (idx, _) in enumerate(self.blocks)
                              for k, p in enumerate(idx)}
        return self._position

    def entry(self, i, j):
        """The exact ScalarPoly entry at basis positions (i, j); ZERO across blocks."""
        position = self._positions()
        (bi, ki), (bj, kj) = position[i], position[j]
        return int_poly_scalar(self.blocks[bi][1][ki][kj], self.scale) if bi == bj else ZERO

    def rows(self):
        """Each row in basis order as (columns, entries): the basis indices of
        its weight block and its integer entries there; every other is ZERO."""
        position = self._positions()
        for i in range(len(self.basis)):
            b, k = position[i]
            idx, block = self.blocks[b]
            yield idx, block[k]


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
