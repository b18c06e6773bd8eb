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

from .dressed import (CavityResponse, CoefficientSet, DegenerateDressing,
                      DressedBasis, InterferenceTerms, RateSet,
                      cavity_response, coefficient_rows, coefficient_set,
                      dress, interference_terms, rate_set)
from .floquet import (HarmonicTable, SingularKernel, SingularSteadyState,
                      SteadyState0, zeroth_order_steady_state)
from .oracle import (DegenerateNullSpace, FockTruncation, LimitCycleRecord,
                     NoLimitCycle, NonConvergedTruncation,
                     converged_steady_state, lindblad_steady_state,
                     time_domain_reference)
from .params import (ParameterColumns, ProbeGrid, RegimeAdvisory,
                     SystemParams, effective_gamma12, load_config,
                     probe_detuning_to_delta_p)
from .susceptibility import (FeatureReport, Susceptibility, SweepResult,
                             SweepRow, chi, find_features, sweep, write_csv,
                             write_json)

__version__ = "0.1.0"

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
    "FockTruncation", "LimitCycleRecord",
    "NonConvergedTruncation", "DegenerateNullSpace", "NoLimitCycle",
    "lindblad_steady_state", "converged_steady_state", "time_domain_reference",
    "Susceptibility", "SweepRow", "SweepResult", "FeatureReport",
    "chi", "sweep", "find_features", "write_csv", "write_json",
]
