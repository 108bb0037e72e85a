"""A periodically moving boundary rules out invariant conditioned laws.

The walk on {0..6} dies outside (0, 6) at even times and outside (1, 5)
at odd times.  No law is invariant under conditioning (any candidate
would have to be invariant for both phase maps at once), and the
conditioned laws do not converge either: they alternate forever between
an odd-support and an even-support profile.  Both facts are certified
numerically here.
"""

from qergodic import moving_walk, qld_cycle, qsd_fixed_point_search

problem = moving_walk(0.5, 3, initial="3")
print("Moving walk, N=3: killing sets {0,6} at even times, {0,1,5,6} at odd\n")

print("Searching for a law fixed by the conditioned step of every phase...")
search = qsd_fixed_point_search(problem, grid_step=1e-2)
print(f"  common survival support: {search.common_support}")
print(f"  grid: {search.grid_points} laws at resolution {search.grid_step}")
print(f"  smallest worst-phase displacement on the grid: {search.grid_min_gap:.4f}")
print("  per-phase invariant laws (eigen candidates) and their displacement")
print("  under the other phase:")
for (phase, eigenvalue, dist), gap in zip(search.eigen_candidates, search.eigen_gaps):
    weights = {k: round(v, 4) for k, v in sorted(dist.weights.items())}
    print(f"    phase {phase}: eigenvalue {eigenvalue:.4f}, law {weights}, "
          f"worst displacement {gap:.4f}")
print(f"  common fixed point found: {search.has_common_fixed_point}\n")

print("Reading the limit cycle off the peripheral eigensystem...")
cycle = qld_cycle(problem)
print(f"  cycle length: {cycle.period} (certified by {cycle.iterations} "
      "conditioned steps)")
for offset, dist in zip(cycle.offsets, cycle.distributions):
    weights = {k: round(v, 4) for k, v in sorted(dist.weights.items())}
    print(f"  times = {offset} mod {cycle.period}: {weights}")
print(f"  largest distance between cycle elements: {cycle.max_pairwise_tv:.4f}")
print(f"  verdict: {cycle.verdict}")
print("\nThe two cycle elements have disjoint supports (opposite parities),")
print("so the sequence of conditioned laws oscillates at total-variation")
print("distance 1: no single limiting law exists.")
