"""The alternating-binomial products and their closed-form constants.

The products

    t_n(u) = prod_{k=0}^n (k+u)^((-1)^(k+1) C(n,k)),
    z_d(u) = prod_{n>=1} t_n(u)^(1/(n+d+1)),

hide familiar constants: z_-1 = e, z_0 = e^gamma, z_1 = sqrt(2 pi / e),
z_2 brings in the Glaisher-Kinkelin constant and z_3 adds zeta(3).
This script evaluates log z_d(1) for d = -1..3 by every route the library
has (the CLI's route table) and prints them side by side.
"""

import math

from zetaprod.hurwitz import euler_gamma, hurwitz_zeta, log_bendersky
from zetaprod.cli import ROUTES

LOG_2PI = math.log(2.0 * math.pi)

references = {
    -1: ("log e", 1.0),
    0: ("gamma", euler_gamma()),
    1: ("log sqrt(2 pi/e)", -0.5 + 0.5 * LOG_2PI),
    2: ("-3/8 + log(2 pi)/4 + log A", -3.0 / 8.0 + 0.25 * LOG_2PI + log_bendersky(1)),
    3: ("-7/24 + log(2 pi)/6 + log A + zeta(3)/(8 pi^2)",
        -7.0 / 24.0 + LOG_2PI / 6.0 + log_bendersky(1)
        + hurwitz_zeta(3.0, 1.0).value / (8.0 * math.pi ** 2)),
}


def cell(route, alpha: float) -> str:
    if route.declines(alpha) is not None:
        return f"{'(declines)':>17}"
    return f"{route.evaluate(alpha, 1.0).value:>17.14f}"


print(f"{'d':>3}" + "".join(f"{r.name:>17}" for r in ROUTES)
      + f"{'reference':>17}")
for d in range(-1, 4):
    name, ref = references[d]
    print(f"{d:>3}" + "".join(cell(r, float(d)) for r in ROUTES)
          + f"{ref:>17.14f}")
    print(f"    = {name}")

print()
print("The routes are independent: the closed form runs through Hurwitz")
print("zeta special values over shifted r-Stirling rows, the series sums")
print("forward differences of log, and the integrals never see either.")
