"""Numeric specialization of Gram matrices and positivity scans over mu.

Exact Gram entries are evaluated at q = exp(2*pi*i*theta) (theta
rational, so |q| = 1 by construction) and a real mu, then tested for
positive definiteness through the smallest eigenvalue of the
symmetrized matrix, taken block by block over the Gram's weight blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scalars import q_phase

HERMITICITY_ERROR = 1e-8
PD_TOLERANCE = 1e-9  # scaled by matrix dimension


@dataclass
class SpecializedGram:
    theta: Fraction
    mu: float
    matrix: np.ndarray
    herm_residual: float
    # independent diagonal blocks as (count, size) index arrays, one row per
    # block, grouped by size
    blocks: tuple


@dataclass(frozen=True)
class CompiledGram:
    """A Gram matrix as COO term arrays plus its weight blocks.

    Term k contributes coeff[k] * q^q_exps[q_index[k]] * mu^mu_degs[mu_index[k]]
    to the entry at flat position flat[k] = row * dim + col.  Terms appear
    block by block, row-major within a block and, within an entry, in its
    own term order, so each entry accumulates in the order of
    `ScalarPoly.evaluate`.  `nonzero` lists the distinct flat positions and
    `mirror` their transposes; every other entry is zero in both triangles.
    """

    dim: int
    flat: np.ndarray
    nonzero: np.ndarray
    mirror: np.ndarray
    q_index: np.ndarray
    mu_index: np.ndarray
    coeff: np.ndarray
    q_exps: tuple
    mu_degs: tuple
    blocks: tuple


def compile_gram(gram):
    """Flatten the exact block entries once; the blocks are the Gram's own."""
    n = len(gram.basis)
    flat, q_index, mu_index, coeff = [], [], [], []
    q_slot, mu_slot = {}, {}
    by_size = {}
    for idx, rows in gram.blocks:
        by_size.setdefault(len(idx), []).append(idx)
        for i, row in zip(idx, rows):
            for j, entry in zip(idx, row):
                for (e, d), c in entry.terms.items():
                    flat.append(i * n + j)
                    q_index.append(q_slot.setdefault(e, len(q_slot)))
                    mu_index.append(mu_slot.setdefault(d, len(mu_slot)))
                    coeff.append(c.to_complex())
    nonzero = np.unique(np.array(flat, dtype=np.intp))
    return CompiledGram(
        dim=n,
        flat=np.array(flat, dtype=np.intp),
        nonzero=nonzero,
        mirror=(nonzero % n) * n + nonzero // n,
        q_index=np.array(q_index, dtype=np.intp),
        mu_index=np.array(mu_index, dtype=np.intp),
        coeff=np.array(coeff, dtype=complex),
        q_exps=tuple(q_slot),
        mu_degs=tuple(mu_slot),
        blocks=tuple(np.array(bs, dtype=np.intp) for bs in by_size.values()),
    )


def specialize(gram, theta, mu):
    """Evaluate the compiled entries, then symmetrize.

    Each distinct q exponent gets one phase and each distinct mu degree one
    power; the terms are then summed into a dense matrix.  `WordEngine.gram`
    computes both triangles, so the pre-symmetrization residual is a real
    check: a residual above HERMITICITY_ERROR means the exact entries upstream
    were not actually hermitian, which is a bug, not a rounding issue.  The
    residual and the symmetrization touch only the nonzero positions and
    their transposes; all other entries are zero on both sides.
    """
    theta = Fraction(theta)
    mu = float(mu)
    if gram._compiled is None:
        gram._compiled = compile_gram(gram)
    c = gram._compiled
    n = c.dim
    phases = np.array([q_phase(theta, e) for e in c.q_exps], dtype=complex)
    powers = np.array([mu ** d for d in c.mu_degs], dtype=float)
    m = np.zeros(n * n, dtype=complex)
    np.add.at(m, c.flat, c.coeff * phases[c.q_index] * powers[c.mu_index])
    upper, lower = m[c.nonzero], m[c.mirror].conj()
    residual = float(np.max(np.abs(upper - lower))) if len(upper) else 0.0
    if residual > HERMITICITY_ERROR:
        raise ValueError(f"hermiticity residual {residual:g} exceeds {HERMITICITY_ERROR:g}")
    m[c.nonzero] = (upper + lower) / 2
    m = m.reshape(n, n)
    return SpecializedGram(theta=theta, mu=mu, matrix=m, herm_residual=residual,
                           blocks=c.blocks)


def min_eigenvalue(sg):
    """Smallest eigenvalue, as the minimum over the blocks of `sg` (inf if none)."""
    return min(
        (float(np.linalg.eigvalsh(sg.matrix[idx[:, :, None], idx[:, None, :]])[:, 0].min())
         for idx in sg.blocks),
        default=float("inf"),
    )


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
