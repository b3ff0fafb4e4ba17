"""The p+1 unbiased families over Q_p, realized on finite grids.

Run:  python3 demos/04_padic_mub_families.py
"""

import numpy as np

from padic_mub import (
    canonical_family_params,
    gram_report,
    inner,
    make_grid,
    required_resolution,
    vector_v,
    vector_v_inf,
)

print("== grids: cosets of p^k Z_p inside p^(-r) Z_p ==")
g = make_grid(3, 1, 2)
print(f"grid (p=3, r=1, k=2): {g.n} cells of measure {g.measure}")
print(f"first representatives: {[str(g.rep(i)) for i in range(5)]}")

print()
print("== the quadratic-character states e(a x^2 + b x) ==")
# the least k on which e(x^2) is constant on every cell of p^(-1)Z_p: the
# phase moves by 2xh + h^2, a p-adic integer for h in p^k Z_p once k >= 1
print(f"resolution needed for (a=1, b=0) at r=1: k = {required_resolution(1, 0, 1, 3)}")
v10 = vector_v(1, 0, g)
v00 = vector_v(0, 0, g)
v01 = vector_v(0, 1, g)
print(f"<v(1,0)|v(1,0)> = {inner(v10, v10):.6f}   (the ball measure p^r)")
print(f"|<v(0,0)|v(1,0)>| = {abs(inner(v00, v10)):.6f}   (cross family: 1)")
print(f"|<v(0,0)|v(0,1)>| = {abs(inner(v00, v01)):.3e}   (same family: 0)")

print()
print("== the delta family joins as the (p+1)-st basis ==")
vinf = vector_v_inf(0, g)
print(f"support size {np.count_nonzero(vinf.amplitudes)}, amplitude p^r = {vinf.amplitudes.max():.0f}")
print(f"|<v_inf(0)|v(1,0)>| = {abs(inner(vinf, v10)):.6f}")

print()
print("== full Gram table, p = 3: families a in {0, 1, 2, inf}, b in {0, 1, 2} ==")
rep = gram_report(canonical_family_params(3), r=1, p=3)
# the reported grid is sized by the Gauss norm table's rule (k >= 2r - v(a));
# the states and their Gram product are built at the least cell-constant k
print(f"r used: {rep.r_used}, reported grid k = {rep.k_used}")
print(f"max certified deviation from the closed table: {rep.max_certified_deviation:.3e}")
print(f"family Gram ranks on this grid: {rep.family_ranks}")
print(f"verdict: {'PASS' if rep.passed else 'FAIL'}")
print()
print("moduli of the first family block against the rest:")
print(np.round(rep.moduli[:3, :12], 4))

print()
print("== p = 5 at desk scale ==")
rep5 = gram_report(canonical_family_params(5), r=1, p=5)
print(f"{len(rep5.labels)} vectors, max certified deviation {rep5.max_certified_deviation:.3e}, "
      f"passed = {rep5.passed}")

print()
print("== below the truncation threshold nothing is asserted ==")
low = gram_report([(0, 0), (9, 0)], r=1, p=3, auto_raise=False)
print(f"pair (a=0) vs (a=9) at r=1: certified = {low.certified[1]} "
      f"(v(a-a')=2 needs r >= 2)")
raised = gram_report([(0, 0), (9, 0)], r=1, p=3, auto_raise=True)
print(f"with auto-raise the report recomputes at r = {raised.r_used}: passed = {raised.passed}")
