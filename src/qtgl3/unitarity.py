"""Numeric specialization of Gram matrices and positivity scans over mu.

Exact Gram entries are evaluated at q = exp(2*pi*i*theta) (theta
rational, so |q| = 1 by construction) and a real mu, straight into one
(count, size, size) stack per size class of the Gram's weight blocks.
Each stack is symmetrized and positive definiteness is read off its
smallest eigenvalue; no n x n array is built.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .form import int_terms
from .scalars import q_phase

HERMITICITY_ERROR = 1e-8
PD_TOLERANCE = 1e-9  # scaled by matrix dimension


class NonFiniteSample(ArithmeticError):
    """A mu whose powers or evaluated Gram entries are not finite floats."""


@dataclass
class SpecializedGram:
    theta: Fraction
    mu: float
    herm_residual: float
    # (index, stack) per block size: (count, size) basis positions, one row per
    # weight block, and the (count, size, size) symmetrized blocks
    blocks: tuple

    @property
    def matrix(self):
        """The dense n x n matrix, built on demand.  Nothing in qtgl3 reads it;
        perfbench/tracing.py counts `unitarity.entries_evaluated` as its size."""
        n = sum(idx.size for idx, _ in self.blocks)
        m = np.zeros((n, n), dtype=complex)
        for idx, stack in self.blocks:
            m[idx[:, :, None], idx[:, None, :]] = stack
        return m


@dataclass(frozen=True)
class CompiledGram:
    """A Gram matrix as term arrays over its weight blocks, grouped by block size.

    `classes` holds one (index, slot, q_index, mu_index, coeff) tuple per
    block size: index is the (count, size) array of basis positions, one
    row per block, and term k contributes the real
    coeff[k] * q^q_exps[q_index[k]] * mu^mu_degs[mu_index[k]] to position
    slot[k] of the flattened (count, size, size) stack.  Terms appear block
    by block, row-major within a block and, within an entry, in its own
    term order, so each entry accumulates in the order of
    `ScalarPoly.evaluate`.  The blocks partition the basis.
    """

    classes: tuple
    q_exps: tuple
    mu_degs: tuple


def compile_gram(gram):
    """Flatten the exact block entries once; the blocks are the Gram's own.
    Each coefficient is c / gram.scale, a correctly rounded int division."""
    scale = gram.scale
    q_slot, mu_slot = {}, {}
    by_size = {}
    for idx, rows in gram.blocks:
        by_size.setdefault(len(idx), []).append((idx, rows))
    classes = []
    for blocks in by_size.values():
        slot, q_index, mu_index, coeff = array("q"), array("q"), array("q"), array("d")
        # the blocks' entries in row-major order; `at` is the position in the stack
        entries = (entry for _, rows in blocks for row in rows for entry in row)
        for at, entry in enumerate(entries):
            for (e, d), c in int_terms(entry):
                slot.append(at)
                q_index.append(q_slot.setdefault(e, len(q_slot)))
                mu_index.append(mu_slot.setdefault(d, len(mu_slot)))
                coeff.append(c / scale)
        ints = (np.frombuffer(a, dtype=np.int64) for a in (slot, q_index, mu_index))
        classes.append((np.array([idx for idx, _ in blocks], dtype=np.intp), *ints,
                        np.frombuffer(coeff, dtype=float)))
    return CompiledGram(classes=tuple(classes), q_exps=tuple(q_slot), mu_degs=tuple(mu_slot))


def specialize(gram, theta, mu):
    """Evaluate the compiled entries into one stack per block size, then symmetrize.

    Each distinct q exponent gets one phase and each distinct mu degree one
    power.  `WordEngine.gram` computes both triangles, so the
    pre-symmetrization residual |S - S^H| over every stack is a real check:
    a residual above HERMITICITY_ERROR means the exact entries upstream
    were not actually hermitian, which is a bug, not a rounding issue.  A mu
    whose powers or entries are not finite floats raises NonFiniteSample.
    """
    theta = Fraction(theta)
    mu = float(mu)
    if gram._compiled is None:
        gram._compiled = compile_gram(gram)
    c = gram._compiled
    phases = np.array([q_phase(theta, e) for e in c.q_exps], dtype=complex)
    try:
        powers = np.array([mu ** d for d in c.mu_degs], dtype=float)
    except OverflowError:
        raise NonFiniteSample(f"mu={mu!r}: a power of mu overflows") from None
    blocks, residual = [], 0.0
    # an overflow surfaces as NonFiniteSample below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, slot, q_index, mu_index, coeff in c.classes:
            count, size = idx.shape
            s = np.zeros(count * size * size, dtype=complex)
            np.add.at(s, slot, coeff * phases[q_index] * powers[mu_index])
            s = s.reshape(count, size, size)
            h = s.conj().transpose(0, 2, 1)
            stack = (s + h) / 2
            if not np.isfinite(stack).all():
                raise NonFiniteSample(f"mu={mu!r}: a Gram entry overflows")
            residual = max(residual, float(np.max(np.abs(s - h))))
            blocks.append((idx, stack))
    if residual > HERMITICITY_ERROR:
        raise ValueError(f"hermiticity residual {residual:g} exceeds {HERMITICITY_ERROR:g}")
    return SpecializedGram(theta=theta, mu=mu, herm_residual=residual, blocks=tuple(blocks))


def min_eigenvalue(sg):
    """Smallest eigenvalue, as the minimum over the stacks of `sg` (inf if none)."""
    return min((float(np.linalg.eigvalsh(stack)[:, 0].min()) for _, stack in sg.blocks),
               default=float("inf"))


@dataclass
class ScanReport:
    level: tuple
    window: object
    theta: Fraction
    samples: list  # [(mu, min_eig, pd)], sorted by mu
    constraint: object = None

    def to_json(self):
        out = {
            "level": list(self.level),
            "window": self.window,
            "theta": f"{self.theta.numerator}/{self.theta.denominator}",
            "samples": [
                {"mu": mu, "min_eig": eig, "pd": pd} for (mu, eig, pd) in self.samples
            ],
        }
        if self.constraint is not None:
            out["constraint"] = list(self.constraint)
        return out


def mu_scan(engine, level, theta, mu_grid, window=None, constraint=None):
    """Positive-definiteness report over a mu grid at fixed theta."""
    theta = Fraction(theta)
    gram = engine.gram(level, window=window, constraint=constraint)
    tol = PD_TOLERANCE * len(gram.basis)
    samples = []
    for mu in sorted(float(m) for m in mu_grid):
        eig = min_eigenvalue(specialize(gram, theta, mu))
        samples.append((mu, eig, bool(eig > tol)))
    return ScanReport(level=tuple(level), window=gram.window, theta=theta,
                      samples=samples, constraint=gram.constraint)
