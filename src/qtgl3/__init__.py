"""Exact computations for the nullity-2 extension of gl3 over a quantum torus:
free-field module, contravariant hermitian form, and unitarity scans."""

from .scalars import GaussianRational, ScalarPoly
from .torus import TorusElement, mono_mul
from .gl3 import GlElement, bracket, jacobi_residual, omega
from .fock import (
    DEFAULT_CONFIG,
    FockPoly,
    FreeFieldConfig,
    apply_D,
    apply_generator,
    apply_P,
    apply_Q,
    pi,
)
from .form import (
    VACUUM,
    GramMatrix,
    Word,
    WordEngine,
    enumerate_words,
    make_word,
    shift_word,
    word_level,
    word_str,
    words_to_polys_rank,
)
from .unitarity import ScanReport, min_eigenvalue, mu_scan, specialize

__all__ = [
    "GaussianRational", "ScalarPoly", "TorusElement", "mono_mul",
    "GlElement", "bracket", "jacobi_residual", "omega",
    "DEFAULT_CONFIG", "FockPoly", "FreeFieldConfig",
    "apply_D", "apply_generator", "apply_P", "apply_Q", "pi",
    "VACUUM", "GramMatrix", "Word", "WordEngine", "enumerate_words",
    "make_word", "shift_word", "word_level", "word_str", "words_to_polys_rank",
    "ScanReport", "min_eigenvalue", "mu_scan", "specialize",
]

__version__ = "0.1.0"
