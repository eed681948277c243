"""
Gate budgets: in-line filter vs two-stage baseline
==================================================

Writing the shrinkage coefficient with in-register arithmetic costs
3n^2 + 33n elementary gates against 5n^2 + 98n for the rotation-based
two-stage design, on the same 1 + 2n + m qubits.  The ratio climbs toward
3/5 as the quadratic phase-estimation terms dominate.
"""

from qpcasim import cost_baseline, cost_proposed, gate_ratio

print("per-block counts at n = 2:")
print("  proposed:", dict(cost_proposed(2, 2).per_block))
print("  baseline:", dict(cost_baseline(2, 2).per_block))
print("  filter block alone:", cost_proposed(2, 2).per_block["filter"], "gates")

print("\n  n  proposed  baseline  ratio")
for n in (1, 2, 3, 4, 6, 8, 16, 64, 256, 1000):
    p = cost_proposed(n, 2 * n).total
    b = cost_baseline(n, 2 * n).total
    print(f"{n:>4}  {p:>8}  {b:>8}  {gate_ratio(n):.4f}")

print("\nlimit 3/5 =", 3 / 5)
print("qubits at n = 2, m = 4:", cost_proposed(2, 4).qubits, "(1 ancilla + 2n work + m data)")
