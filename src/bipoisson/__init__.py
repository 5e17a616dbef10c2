"""Compound bi-free Poisson distributions.

Exact bi-non-crossing partition combinatorics, moment/cumulant transforms
on two-faced families, compound Poisson laws with their convolution
semigroup, and numerical verification models (random bi-matrix ensembles
and truncated Fock-space operators).

The public names are imported from their modules on first use (PEP 562),
so the partition commands run without importing numpy.
"""

import importlib

_MODULE_OF = {
    name: module
    for module, names in {
        "errors": ("CapExceededError", "MissingEntryError", "ShapeMismatchError"),
        "partitions": ("LEFT", "RIGHT", "ChiShape", "SetPartition", "catalan",
                       "enumerate_nc", "is_noncrossing", "mobius_nc_one"),
        "cumulants": ("Alphabet", "CumulantTable", "MomentFunctional", "Word",
                      "all_words", "kappa_from_moments", "moments_from_kappa"),
        "poisson": ("CbpSpec", "JumpLaw", "cbp_cumulants", "cbp_moments", "compress",
                    "convolve", "limit_theorem_moments", "poisson_approximation",
                    "psd_check", "semigroup_element"),
        "matrix_models": ("EnsembleSpec", "SizeReport", "build_wishart_model",
                          "estimate_empirical_cumulants"),
        "fock": ("FockBasis", "build_w_operators", "fock_moments", "vacuum_moment",
                 "verify_fock_cumulants"),
    }.items()
    for name in names
}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
