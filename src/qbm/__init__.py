"""Toolkit for q-Brownian motion calculus.

Modules:
    qcore      q-number arithmetic, Jackson q-integrals, exact rational mode
    qhermite   continuous q-Hermite martingale polynomials and basis changes
    measures   q-Gaussian and transition densities, quadrature, sampling
    process    geometric-grid path simulation
    stochint   discrete stochastic integral and the stochastic exponential
    qito       q-Ito operators (nabla, A, delta) and the change-of-variable residual
    verify     closed-form oracles and the Monte Carlo verification harness
    cli        command line front end
"""

from .qcore import QContext, Poly, SampledFunction, q_int, q_factorial, q_binomial

__version__ = "0.6.1"

__all__ = [
    "QContext",
    "Poly",
    "SampledFunction",
    "q_int",
    "q_factorial",
    "q_binomial",
    "__version__",
]
