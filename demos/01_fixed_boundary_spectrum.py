"""Fixed killing boundary: closed-form spectrum and survival decay.

A nearest-neighbour walk on {0..K+1} dies at the two endpoints.  The
survivor matrix is tridiagonal Toeplitz, so everything is explicit: the
spectrum is a cosine comb, the invariant conditioned law is a tilted sine
profile, and the survival probability decays like c_n * rho^n with a
computable, strictly positive prefactor.
"""

import numpy as np

from qergodic import (
    closed_form_spectrum,
    fixed_walk,
    lift_chain,
    survival_coefficient,
    survivor_matrix_fixed,
)

p, K = 0.35, 6
print(f"Fixed walk with down probability p={p} on interior of size K={K}\n")

system = closed_form_spectrum(p, K)
numeric = np.sort(np.linalg.eigvals(survivor_matrix_fixed(p, K)).real)[::-1]
closed = np.sort(system.eigenvalues)[::-1]
print("eigenvalues (numeric vs closed form):")
for a, b in zip(numeric, closed):
    print(f"  {a:+.12f}   {b:+.12f}")
print(f"max deviation: {np.max(np.abs(numeric - closed)):.2e}\n")

print("invariant conditioned law nu and right vector xi:")
for j, (n_val, x_val) in enumerate(zip(system.nu, system.xi), start=1):
    print(f"  state {j}: nu={n_val:.6f}  xi={x_val:.6f}")
print(f"normalizations: sum(nu)={system.nu.sum():.12f}, "
      f"<nu,xi>={system.nu @ system.xi:.12f}\n")

# The general pipeline reproduces the closed forms from the matrix alone.
problem = fixed_walk(p, K, initial="1")
lifted = lift_chain(problem)
cls = lifted.decomposition.classes[0]
print(f"pipeline: period T={cls.period}, rho={cls.rho:.12f} "
      f"(closed form {closed[0]:.12f})")

# Survival decays like c_n * rho^n; the prefactor oscillates with period T.
pos = lifted.survivor_index[("1", 0)]
u = np.ones(len(lifted.survivors))
print("\n n   P_1(alive at n)    c_n * rho^n        ratio")
for n in range(1, 13):
    u = lifted.survivor_csr @ u
    exact = u[pos]
    predicted = survival_coefficient(cls, pos, n) * cls.rho**n
    print(f"{n:3d}   {exact:.10f}     {predicted:.10f}   {exact / predicted:.6f}")
print("\nThe ratio tends to 1 geometrically: the prefactor captures the")
print("phase oscillation that a bare rho^n fit would miss.")
