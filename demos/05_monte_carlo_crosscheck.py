"""Seeded Monte Carlo against every spectral prediction.

Trajectory randomness is a pure function of (seed, trajectory index,
step), so runs reproduce bit for bit whatever the shard layout.  The
demo checks three predictions on the moving walk: the survival decay
with its oscillating prefactor, the parity alternation of conditioned
laws, and the mean-ratio limit on a slowly absorbed chain where large
surviving samples are cheap.
"""

import numpy as np

from qergodic import (
    SimConfig,
    estimate_conditionals,
    lift_chain,
    moving_walk,
    qed_moving,
    survival_coefficient,
    survival_curve,
)
from qergodic.chain import (
    AbsorbedChainProblem,
    Distribution,
    MovingBoundary,
    StateSpace,
    TransitionKernel,
)

problem = moving_walk(0.5, 3, initial="3")
print("Moving walk N=3, p=0.5, from state 3: survival vs c_n * rho^n\n")
config = SimConfig(seed=7, trajectories=300_000, horizon=28)
p_hat, se = survival_curve(problem, config)
lifted = lift_chain(problem)
cls = lifted.decomposition.classes[0]
pos = lifted.survivor_index[("3", 0)]
print(" n   empirical     predicted     ratio")
for n in (8, 16, 24, 28):
    predicted = survival_coefficient(cls, pos, n) * cls.rho**n
    print(f"{n:3d}  {p_hat[n]:.6f}     {predicted:.6f}     "
          f"{p_hat[n] / predicted:.4f}")

print("\nconditional law alternates parity with the step count:")
est = estimate_conditionals(problem, {"3": 1.0}, config)
for n in (27, 28):
    counts = est.law_counts[n]
    total = counts.sum()
    law = {
        problem.space.labels[i]: round(c / total, 4)
        for i, c in enumerate(counts)
        if c
    }
    print(f"  n={n}: {law}")

# A slowly absorbed chain: three exchangeable states mixing uniformly,
# two rarely visited leak states killed on alternating phases.
eps = 0.002
P = np.zeros((5, 5))
for i in range(3):
    P[i, :3] = (1.0 - 2.0 * eps) / 3.0
    P[i, 3] = eps
    P[i, 4] = eps
P[3, 3] = 1.0
P[4, 4] = 1.0
slow = AbsorbedChainProblem(
    StateSpace(("a", "b", "c", "d", "e")),
    TransitionKernel(P),
    MovingBoundary(2, (frozenset({"d"}), frozenset({"e"}))),
    Distribution.uniform(["a", "b", "c"]),
)
phi = qed_moving(slow, {"a": 1.0}).phi
print(f"\nslowly absorbed chain: spectral mean-ratio limit phi = {phi:.6f}")
for shards in (1, 4):
    cfg = SimConfig(seed=2026, trajectories=120_000, horizon=200, shards=shards)
    mr = estimate_conditionals(slow, {"a": 1.0}, cfg).mean_ratio
    print(f"  shards={shards}: estimate {mr.value:.6f} +- {mr.standard_error:.6f} "
          f"({mr.survivors} survivors), |z| = "
          f"{abs(mr.value - phi) / mr.standard_error:.2f}")
print("identical numbers for both shard layouts: the randomness is keyed")
print("by trajectory index, not by worker.")
