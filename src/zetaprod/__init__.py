"""zetaprod: alternating-binomial infinite products, cross-validated.

The library evaluates the products

    t_n(u) = prod_{k=0}^n (k+u)^((-1)^(k+1) C(n,k)),
    z_alpha(u) = prod_{n>=1} t_n(u)^(1/(n+alpha+1)),

whose logarithms include e (alpha = -1), Euler's constant (alpha = 0),
sqrt(2 pi / e), and Glaisher-Kinkelin-type constants, by three independent
routes -- Hurwitz-zeta closed forms over shifted r-Stirling rows, direct
series summation, and tanh-sinh quadrature of integral representations --
and cross-checks the routes against each other.
"""

from .exactnum import (RationalPoly, bernoulli_number, bernoulli_poly,
                       binomial, harmonic, stirling1_unsigned)
from .rstirling import (RStirlingRow, entry_by_unsigned_identity, row_by_gf,
                        row_by_recurrence)
from .hurwitz import (EMConfig, ZetaValue, agm, digamma, euler_gamma,
                      hurwitz_zeta, hurwitz_zeta_deriv, log_bendersky,
                      log_gamma)
from .series import (Approximation, DifferenceMethod, EvalParams,
                     functional_eq_residual, resummed_power_partial, log_tn,
                     log_z_direct, s_alpha_truncated)
from .closedform import (log_z_closed, log_z_explicit_u1, s_d_closed,
                         special_value)
from .quad import (QuadConfig, QuadratureNonConvergence, integrate_double,
                   integrate_elementary_half, integrate_prelim,
                   integrate_single_d)

__version__ = "0.1.0"
