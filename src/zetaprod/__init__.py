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

__version__ = "0.1.0"
