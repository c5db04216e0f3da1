"""
A tour of the bias constants c1 and c2
======================================

The counting functions obey

    pi(x; q, (a,b)) ~ li(x)/phi^2 * (1 + c1 loglog x/log x + c2/log x),

where c1 depends only on whether a == b and c2 carries the finer
arithmetic.  This script prints both for a few moduli and checks the
closed forms that exist at q = 3, 4, 8 and 12.
"""

import math

from primebias import c1, c2_general, c2_pair, c2_pair_forms, character_group
from primebias.arith import Modulus
from primebias.lfun import a_q_chi

for q in (4, 8):
    mod = Modulus(q)
    print(f"--- q = {q} ---")
    print("pattern      c1        c2")
    for a in mod.classes:
        for b in mod.classes:
            c1_ab, c2_ab = c1(q, (a, b)), c2_general(q, (a, b))
            print(f" ({a},{b})    {c1_ab:+.4f}   {c2_ab:+.6f}")
    print()

# %%
# Closed forms.  For q = 3 and 4 every off-diagonal c2 collapses to
# (1/2) log(2 pi / q); mod 8 the value depends only on b - a.

print("q=4 (1,3) closed form :", 0.5 * math.log(2 * math.pi / 4))
print("q=4 (1,3) computed    :", c2_pair(4, 1, 3))
print()
print("q=8 diff-4 closed form:", (math.log(math.pi) - 3 * math.log(2)) / 2)
print("q=8 (1,5)  computed   :", c2_pair(8, 1, 5))
print()

# %%
# Mod 12 the quadratic character of conductor 3 contributes through the
# Euler product A, taken over every prime; the ambient modulus 12 owns the
# local factor at 2.

chi = next(c for c in character_group(3).characters() if c.is_odd())
A = a_q_chi(12, chi)[0].real
print(f"A_12 = {A:.6f}   (enters c2 as pi/sqrt(3) * A = {math.pi / math.sqrt(3) * A:.6f})")
print(f"c2(12;(5,7))  = {c2_pair(12, 5, 7):+.6f}   <- largest")
print(f"c2(12;(1,11)) = {c2_pair(12, 1, 11):+.6f}")
print()

# every internal evaluation route must land on the same number
forms = c2_pair_forms(12, 5, 7)
for tag, val in sorted(forms.items()):
    print(f"  {tag:>10}: {val:.10f}")
spread = max(forms.values()) - min(forms.values())
print(f"  spread {spread:.2e}")
assert spread < 1e-8
