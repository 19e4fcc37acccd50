"""Numeric specialization of Gram matrices and positivity scans over mu.

One forward pipeline, with no n x n array anywhere:
`compile_gram(gram)` flattens the exact block entries into term arrays
per size class of the weight blocks, once per Gram.  `evaluate(compiled,
theta)` takes them to q = exp(2*pi*i*theta), theta rational so |q| = 1,
as one (D, count, size, size) stack per size class: the matrices G_d of
its D mu degrees, once per theta.  `at_mu(stacks, mu)` forms
sum_d mu^d G_d at a real mu and symmetrizes it into hermitian
(index, stack) blocks, and `min_eigenvalue(blocks)` reads positive
definiteness off each stack's smallest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .scalars import q_phase, unpack_key

HERMITICITY_ERROR = 1e-8
PD_TOLERANCE = 1e-9  # scaled by matrix dimension


class NonFiniteSample(ArithmeticError):
    """A mu whose powers or evaluated Gram entries are not finite floats."""


@dataclass(frozen=True)
class CompiledGram:
    """A Gram matrix as term arrays over its weight blocks, grouped by block size.

    `classes` holds one (index, at, q_index, coeff) tuple per block size:
    index is the (count, size) array of basis positions, one row per block,
    and term k adds coeff[k] * q^q_exps[q_index[k]] at position at[k] of
    the flattened (D, count, size, size) stack: slice d holds the
    coefficient matrices of mu^d.  q_exps runs from the smallest exponent
    to the largest, and mu_degs is 0, ..., D - 1.  Terms appear block by
    block, row-major within a block and, within an entry, in its own term
    order.  The blocks partition the basis.  Every index array is intp:
    `at` passes 2^16 at modest sizes.
    """

    classes: tuple
    q_exps: tuple
    mu_degs: tuple


def compile_gram(gram):
    """Flatten the exact block entries once; the blocks are the Gram's own.
    Each coefficient is c / gram.scale, a correctly rounded int division."""
    scale = gram.scale
    by_size = {}
    for idx, rows in gram.blocks:
        by_size.setdefault(len(idx), []).append((idx, rows))
    classes, q_range, degrees = [], [], 0
    for blocks in by_size.values():
        # the blocks' entries in row-major order: entry k is slot k of a stack
        entries = [entry for _, rows in blocks for row in rows for entry in row]
        lengths = np.fromiter(map(len, entries), dtype=np.intp, count=len(entries))
        keys = np.fromiter(chain.from_iterable(entries), dtype=np.intp, count=lengths.sum())
        coeff = np.fromiter((c / scale for c in chain.from_iterable(map(dict.values, entries))),
                            dtype=float, count=keys.size)
        e, d = unpack_key(keys)
        q_range += [e.min(), e.max()]
        degrees = max(degrees, d.max() + 1)
        at = d * len(entries) + np.repeat(np.arange(len(entries), dtype=np.intp), lengths)
        classes.append((np.array([idx for idx, _ in blocks], dtype=np.intp), at, e, coeff))
    lo = min(q_range)
    return CompiledGram(classes=tuple((idx, at, e - lo, coeff) for idx, at, e, coeff in classes),
                        q_exps=tuple(range(lo, max(q_range) + 1)), mu_degs=tuple(range(degrees)))


@dataclass(frozen=True)
class CoefficientStacks:
    """A Gram at one theta as polynomials in mu: S(mu) = sum_d mu^d G_d."""

    mu_degs: tuple
    herm_residual: float
    # (index, stack) per block size: (count, size) basis positions and the
    # (D, count, size, size) coefficient matrices, one slice per mu degree
    blocks: tuple


def evaluate(compiled, theta):
    """The coefficient matrices G_d of a `CompiledGram` at q = exp(2*pi*i*theta).

    One phase per q exponent, one `np.add.at` per block size.
    `WordEngine.gram` computes both triangles, so the residual |G_d - G_d^H|
    over every degree and stack is a real check: above HERMITICITY_ERROR,
    the exact entries upstream were not hermitian, a bug, not rounding.
    """
    theta = Fraction(theta)
    phases = np.array([q_phase(theta, e) for e in compiled.q_exps], dtype=complex)
    blocks, residual = [], 0.0
    for idx, at, q_index, coeff in compiled.classes:
        count, size = idx.shape
        g = np.zeros((len(compiled.mu_degs), count, size, size), dtype=complex)
        np.add.at(g.reshape(-1), at, coeff * phases[q_index])
        residual = max(residual, float(np.max(np.abs(g - g.conj().transpose(0, 1, 3, 2)))))
        blocks.append((idx, g))
    if residual > HERMITICITY_ERROR:
        raise ValueError(f"hermiticity residual {residual:g} exceeds {HERMITICITY_ERROR:g}")
    return CoefficientStacks(mu_degs=compiled.mu_degs, herm_residual=residual,
                             blocks=tuple(blocks))


def at_mu(stacks, mu):
    """The Gram at a real mu as a tuple of (index, stack) blocks: each stack is
    sum_d mu^d G_d, symmetrized after the sum, so it is exactly hermitian.  A mu
    whose powers or summed entries are not finite floats raises NonFiniteSample."""
    mu = float(mu)
    try:
        powers = [mu ** d for d in stacks.mu_degs]
    except OverflowError:
        raise NonFiniteSample(f"mu={mu!r}: a power of mu overflows") from None
    blocks = []
    # an overflow surfaces as NonFiniteSample below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, g in stacks.blocks:
            s = sum(power * g_d for power, g_d in zip(powers, g))
            stack = (s + s.conj().transpose(0, 2, 1)) / 2
            if not np.isfinite(stack).all():
                raise NonFiniteSample(f"mu={mu!r}: a Gram entry overflows")
            blocks.append((idx, stack))
    return tuple(blocks)


def specialize(gram, theta, mu):
    """The Gram at (theta, mu) in one shot: `at_mu(evaluate(compile_gram(gram), theta), mu)`."""
    return at_mu(evaluate(compile_gram(gram), theta), mu)


def min_eigenvalue(blocks):
    """Smallest eigenvalue, as the minimum over the (index, stack) blocks (inf if none)."""
    return min((float(np.linalg.eigvalsh(stack)[:, 0].min()) for _, stack in blocks),
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
    stacks = evaluate(compile_gram(gram), theta)
    samples = []
    for mu in sorted(float(m) for m in mu_grid):
        eig = min_eigenvalue(at_mu(stacks, mu))
        samples.append((mu, eig, bool(eig > tol)))
    return ScanReport(level=tuple(level), window=gram.window, theta=theta,
                      samples=samples, constraint=gram.constraint)
