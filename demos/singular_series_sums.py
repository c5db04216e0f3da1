"""
Averages of the twin-prime singular series in residue classes
=============================================================

S0(q, v; H) sums e^{-h/H} (S(h) - 1) over h = v mod q.  Brute-force
evaluation converges slowly; the analytic main terms capture it to
O(H^{-1/2}) and explain where the pattern bias comes from: only the
v = 0 class carries the -(phi/2q) log H drift.
"""

from primebias import s0_brute, s0_main
from primebias.singular import SingularContext

q = 3
ctx = SingularContext(q)

print("v   H        brute          main          gap * H^0.5")
for v in range(q):
    for H in (100.0, 1000.0, 10000.0):
        b = s0_brute(ctx, v, H).value
        m = s0_main(q, v, H)
        print(f"{v}   {H:7.0f}  {b:+.6f}     {m:+.6f}     {abs(b - m) * H**0.5:8.4f}")
    print()

# scaled gaps stay bounded (the conjectured rate is H^{-3/4}, with sign
# oscillation visible in the v != 0 rows)

# first moment, v = 0: sum h e^{-h/H} (S(h)-1) ~ -(phi/2q) H
H = 1000.0
got = s0_brute(ctx, 0, H, k=1).value
want = s0_main(q, 0, H, k=1)
print(f"k=1 moment at H={H:.0f}: brute {got:.2f}  main {want:.2f}  ratio {got / want:.4f}")
