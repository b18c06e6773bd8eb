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

from . import dressed, floquet, params, susceptibility
from .dressed import *
from .floquet import *
from .params import *
from .susceptibility import *

__version__ = "0.1.0"

# vkerr.oracle's __all__, served by __getattr__: only the tests and
# oracle-compare (which imports vkerr.oracle when it runs) use the oracles;
# no other command compiles it
_ORACLE_NAMES = (
    "FockTruncation", "LimitCycleRecord", "NonConvergedTruncation",
    "DegenerateNullSpace", "NoLimitCycle", "NonHermitianGenerator",
    "lindblad_steady_state", "converged_steady_state", "time_domain_reference")

# each module declares its public names once, in its own __all__
__all__ = ["__version__", *params.__all__, *dressed.__all__, *floquet.__all__,
           *_ORACLE_NAMES, *susceptibility.__all__]


def __getattr__(name):
    """The oracle's public names, loaded on first use (PEP 562)."""
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ORACLE_NAMES})
