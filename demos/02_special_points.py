"""Closed forms at special parameter points.

Three showpieces for z_1(u) away from u = 1:

  * u = 1/2: the product collapses to 2 sqrt(e^gamma),
  * u = 1/3: the constant involves AGM(2, sqrt(2 + sqrt 3)) through the
    arithmetic-geometric-mean closed form of Gamma(1/3),
  * u = 2: the combination z_0(2) z_1(2) cancels the digamma value and
    leaves the elementary constant 4 sqrt(pi / e^3).
"""

import math

from zetaprod.closedform import log_z_closed, special_value
from zetaprod.hurwitz import agm, euler_gamma

g = euler_gamma()

print("z_1(1/2) = 2 sqrt(e^gamma)")
closed = log_z_closed(1, 0.5).value
named = special_value("d1_u_half").value
print(f"  closed-form route : {closed:.15f}")
print(f"  log 2 + gamma/2   : {named:.15f}")
print(f"  |difference|      : {abs(closed - named):.2e}")
print()

print("z_1(1/3): the AGM enters through Gamma(1/3)")
m = agm(2.0, math.sqrt(2.0 + math.sqrt(3.0)))
closed = log_z_closed(1, 1.0 / 3.0).value
named = special_value("d1_u_third_agm").value
print(f"  AGM(2, sqrt(2+sqrt 3)) = {m:.15f}")
print(f"  closed-form route : {closed:.15f}")
print(f"  AGM closed form   : {named:.15f}")
print(f"  |difference|      : {abs(closed - named):.2e}")
print()

print("z_0(2) z_1(2) = 4 sqrt(pi / e^3)  (digamma cancels in the product)")
combo = log_z_closed(0, 2.0).value + log_z_closed(1, 2.0).value
named = special_value("d0_plus_d1_u2").value
print(f"  sum of closed routes : {combo:.15f}")
print(f"  log(4 sqrt(pi/e^3))  : {named:.15f}")
print(f"  exp -> {math.exp(combo):.12f} vs 4 sqrt(pi/e^3) = "
      f"{4.0 * math.sqrt(math.pi / math.e ** 3):.12f}")
