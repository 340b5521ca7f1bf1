"""An intersection containing only transcendental numbers.

Separate alternating blocks (1 -1)^(n_k) by single zeros and let the block
lengths n_k explode.  Every point of the resulting intersection is then
forced to agree with an explicit rational p_k/q_k to precision q_k^(-k)
for every k -- the classical criterion for a Liouville (hence
transcendental) number.  All inequalities below are verified in exact
rational arithmetic.

Run:  python demos/liouville_construction.py
"""

from fractions import Fraction as F

from cantorint import TERNARY, BaseSystem, UniqStatus, is_unique_expansion
from cantorint.dimension import liouville_witness

pq = F(7, 20)
K = 3
lw = liouville_witness(pq, K)

print(f"base p/q = {pq}; minimal block lengths n_k = {lw.nk[:K + 1]}")
print("control sequence (t_i) starts:",
      " ".join(str(lw.t_seq.digit(i)) for i in range(1, 16)), "...")

res = is_unique_expansion(BaseSystem(pq, TERNARY), lw.t_seq, depth_cap=256)
if res.status is UniqStatus.UNIQUE:
    how = ("certified: the largest paths of its grammar, and of the "
           "mirrored grammar, lie below delta")
else:
    how = f"scan of {res.shifts_checked} shifts, compared to depth " \
          f"{res.compare_cap}"
print(f"uniqueness of (t_i): {res.status.value} ({how})")

xl, xh = lw.x_enclosure
print(f"\nx = value of the all-zeros free-digit choice ~ {float(xl):.12f}")
print(f"{'k':>2} {'q_k':>24} {'|x - p_k/q_k| * q_k^k':>24}")
for k in range(1, K + 1):
    approx = lw.approximants[k - 1]
    qk = approx.denominator
    err = max(abs(xl - approx), abs(xh - approx)) * F(qk) ** k
    print(f"{k:>2} {qk:>24} {float(err):>24.3e}")
print("\neach row is at most 1, exactly; the q_k respect the bound")
print("q^(m_k + 3) where m_k is the position of the k-th separating zero.")
print("any x in the intersection admits such approximants, so every point")
print("of this intersection is a Liouville number.")
