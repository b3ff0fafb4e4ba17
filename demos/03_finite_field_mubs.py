"""The p^r + 1 mutually unbiased bases of C^(p^r) from quadratic phases.

Run:  python3 demos/03_finite_field_mubs.py
"""

import numpy as np

from padic_mub import FieldMubSet, build_field, ff_char, field_sum_numeric, trace, verify_mub

print("== the field F_9 = F_3[x]/(x^2+1) ==")
f9 = build_field(3, 2)
print(f"modulus (low to high): {f9.modulus}")
print(f"traces: {[trace(x) for x in f9.elements()]}")
print(f"character of x: {ff_char(f9.element(3))}")

print()
print("== ten mutually unbiased bases in C^9, as the field's two trace tables ==")
bases = FieldMubSet.from_field(f9)
print(f"{len(bases)} bases; trace(a*x^2) and trace(b*x) tables of shape {bases.tr_ax2.shape}")
report = verify_mub(bases)
print(f"target cross modulus 1/sqrt(9) = {report.target:.6f}")
print(f"max deviation over all {report.bases * (report.bases - 1) // 2} basis pairs: "
      f"{report.max_deviation:.3e}")
print(f"orthonormality deviation: {report.ortho_deviation:.3e}")
print(f"verdict: {'PASS' if report.passed else 'FAIL'}")

print()
print("== a cross-Gram block is one row of Gauss sums: every modulus is 1/3 ==")
# (V_a* V_c)[b, b'] = G(c - a, b' - b) / 9, so the block of a = 1, c = 4 is row c - a
elems = list(f9.elements())
alpha = elems[4] - elems[1]
row = np.array([field_sum_numeric(alpha, beta) for beta in elems]) / f9.size
print(f"|G({alpha}, b)| / 9 over all b: {np.round(np.abs(row), 6).tolist()}")

print()
print("== the same verdict with a different irreducible modulus ==")
f9b = build_field(3, 2, modulus=(2, 1, 1))
print(f"modulus {f9b.modulus}: passed = {verify_mub(FieldMubSet.from_field(f9b)).passed}")
print("(the tables differ; unbiasedness does not care which modulus you pick)")

print()
print("== small prime dimensions ==")
for p in (3, 5, 7):
    bs = FieldMubSet.from_field(build_field(p, 1))
    print(f"p = {p}: {len(bs)} bases in C^{p}, passed = {verify_mub(bs).passed}")
