"""Linear and Kerr susceptibilities of a driven V-type atom in a lossy cavity.

The package computes the normalized chi^(1) and chi^(3) response of a
three-level V atom whose strong transition is laser driven and whose both
transitions couple to a single damped cavity mode, in the bad-cavity
regime.  Cavity elimination leaves dressed-state equations with
Purcell-modified rates and cavity-induced interference terms; the probe
response follows from a combined Fourier-harmonic and probe-power
expansion.  Two brute-force oracles (the full atom+cavity Lindblad model
and direct time integration of the reduced equations) back every step.
"""

import os

# Before numpy loads: an idle OpenBLAS worker spins 2**28 cycles before it
# sleeps, after start-up and after every threaded call, about a third of a
# short vkerr process's CPU on two cores (0.13 s after one 729x729 solve,
# 0.0001 s with the minimum spin of 2**4).  The thread count, and so the
# BLAS partition and the output bits, stay as they are.  The user's own
# setting wins.
if not {"OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT"} & os.environ.keys():
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"

from .dressed import (CavityResponse, CoefficientSet, DegenerateDressing,
                      DressedBasis, InterferenceTerms, RateSet,
                      cavity_response, coefficient_rows, coefficient_set,
                      dress, interference_terms, rate_set)
from .floquet import (HarmonicTable, SingularKernel, SingularSteadyState,
                      SteadyState0, zeroth_order_steady_state)
from .params import (ParameterColumns, ProbeGrid, RegimeAdvisory,
                     SystemParams, effective_gamma12, load_config,
                     probe_detuning_to_delta_p)
from .susceptibility import (FeatureReport, Susceptibility, SweepResult,
                             SweepRow, chi, find_features, sweep, write_csv,
                             write_json)

__version__ = "0.1.0"

# served by __getattr__: only the tests and oracle-compare (which imports
# vkerr.oracle when it runs) use the oracles; no other command compiles it
_ORACLE_NAMES = (
    "FockTruncation", "LimitCycleRecord", "NonConvergedTruncation",
    "DegenerateNullSpace", "NoLimitCycle", "NonHermitianGenerator",
    "lindblad_steady_state", "converged_steady_state", "time_domain_reference")

__all__ = [
    "__version__",
    "SystemParams", "ParameterColumns", "ProbeGrid", "RegimeAdvisory",
    "effective_gamma12", "probe_detuning_to_delta_p", "load_config",
    "DressedBasis", "CavityResponse", "InterferenceTerms", "RateSet",
    "CoefficientSet", "DegenerateDressing",
    "dress", "cavity_response", "interference_terms", "rate_set",
    "coefficient_set", "coefficient_rows",
    "HarmonicTable", "SteadyState0",
    "SingularKernel", "SingularSteadyState",
    "zeroth_order_steady_state",
    *_ORACLE_NAMES,
    "Susceptibility", "SweepRow", "SweepResult", "FeatureReport",
    "chi", "sweep", "find_features", "write_csv", "write_json",
]


def __getattr__(name):
    """The oracle's public names, loaded on first use (PEP 562)."""
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ORACLE_NAMES})
