"""A closed form for chi1 and chi3 in the two-level limit of the V atom.

With no drive (omega_L_rabi = 0), no coupling of the driven transition to
the cavity (g2 = 0) and no cross damping (theta and gamma12_override
unset), level |2> stays empty and the probe sees a two-level atom on
|0> <-> |1> whose line the cavity filters.  With

    G = gamma1 + g1^2 / (kappa + i (delta_c + omega21 - delta)),
    D = G - i omega,

omega the probe detuning that ``chi`` takes, the two-level Bloch equations
(coherence damping G, population decay 2 Re G; Boyd, Nonlinear Optics,
ch. 6) give

    chi1 = i / D,    chi3 = -2 Re(1/D) / Re(G) * chi1.

The formula reads SystemParams fields only.  It shares no code with the
dressing, the coefficients or the harmonic solve, so it checks chi3 against
a reference that none of them wrote.  In this limit c or s is exactly 0.
"""


def in_two_level_limit(params) -> bool:
    return (params.omega_L_rabi == 0.0 and params.g2 == 0.0
            and params.theta is None and params.gamma12_override is None)


def two_level_chi(params, omega: float) -> tuple:
    """(chi1, chi3) at probe detuning ``omega``, in the two-level limit."""
    if not in_two_level_limit(params):
        raise ValueError("needs omega_L_rabi = 0, g2 = 0 and no cross damping")
    G = params.gamma1 + params.g1 ** 2 / (
        params.kappa + 1j * (params.delta_c + params.omega21 - params.delta))
    D = G - 1j * omega
    chi1 = 1j / D
    return chi1, -2.0 * (1.0 / D).real / G.real * chi1
