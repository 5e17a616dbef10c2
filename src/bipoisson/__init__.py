"""Compound bi-free Poisson distributions.

Exact bi-non-crossing partition combinatorics, moment/cumulant transforms
on two-faced families, compound Poisson laws with their convolution
semigroup, and numerical verification models (random bi-matrix ensembles
and truncated Fock-space operators).
"""

from .errors import CapExceededError, MissingEntryError, ShapeMismatchError
from .partitions import (
    LEFT,
    RIGHT,
    ChiShape,
    SetPartition,
    catalan,
    enumerate_bnc,
    enumerate_nc,
    is_noncrossing,
    kreweras_complement,
    mobius_nc_one,
)
from .cumulants import (
    Alphabet,
    CumulantTable,
    MomentFunctional,
    Word,
    all_words,
    kappa_from_moments,
    moments_from_kappa,
)
from .poisson import (
    CbpSpec,
    Distribution,
    cbp_cumulants,
    cbp_moments,
    compress,
    convolve,
    limit_theorem_moments,
    poisson_approximation,
    psd_check,
    semigroup_element,
)
from .matrix_models import (
    AtomLaw,
    EnsembleSpec,
    SizeReport,
    VariableSpec,
    WordEstimate,
    build_wishart_model,
    estimate_empirical_cumulants,
    sample_gue,
    sample_haar_unitary,
)
from .fock import (
    FockBasis,
    FockCumulantRow,
    build_w_operators,
    fock_moments,
    vacuum_moment,
    verify_fock_cumulants,
)

__all__ = [
    "CapExceededError",
    "MissingEntryError",
    "ShapeMismatchError",
    "LEFT",
    "RIGHT",
    "ChiShape",
    "SetPartition",
    "catalan",
    "enumerate_bnc",
    "enumerate_nc",
    "is_noncrossing",
    "kreweras_complement",
    "mobius_nc_one",
    "Alphabet",
    "CumulantTable",
    "MomentFunctional",
    "Word",
    "all_words",
    "kappa_from_moments",
    "moments_from_kappa",
    "CbpSpec",
    "Distribution",
    "cbp_cumulants",
    "cbp_moments",
    "compress",
    "convolve",
    "limit_theorem_moments",
    "poisson_approximation",
    "psd_check",
    "semigroup_element",
    "AtomLaw",
    "EnsembleSpec",
    "SizeReport",
    "VariableSpec",
    "WordEstimate",
    "build_wishart_model",
    "estimate_empirical_cumulants",
    "sample_gue",
    "sample_haar_unitary",
    "FockBasis",
    "FockCumulantRow",
    "build_w_operators",
    "fock_moments",
    "vacuum_moment",
    "verify_fock_cumulants",
]
