"""Two feature families from one transition matrix.

Eigen features span the slowest modes of the transition operator; resolvent
singular features are the principal directions of the value covariance under
isotropic random rewards. On a symmetric walk the two families coincide; on
a drifting chain they part ways.
"""

import numpy as np

import repdyn as rd

rooms, policy = rd.build_four_rooms()
walk = rd.induce(rooms, policy, gamma=0.9)
print(f"four-rooms walk: {rooms.n_states} states, symmetric transition matrix")

decomp = rd.eigen_decompose(walk.transition)
print("top eigenvalues:", np.round(decomp.eigenvalues[:6].real, 4))

for k in (2, 5, 10):
    d = rd.grassmann_distance(rd.ebf(walk.transition, k),
                              rd.rsbf(walk.transition, 0.9, k)).distance
    print(f"  K={k:2d}: distance between the two feature spans = {d:.2e}")

# On the reward chain under a drifting policy the transition matrix is far
# from symmetric and the two families separate.
chain_mdp = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
drift = rd.induce(chain_mdp, rd.Policy.deterministic(np.zeros(30, int), 2), 0.9)
# K=5, not 4: the fourth and fifth eigenvalues form a complex pair, and ebf
# warns when K would cut it
gap = rd.grassmann_distance(rd.ebf(drift.transition, 5),
                            rd.rsbf(drift.transition, 0.9, 5)).distance
print(f"\ndrifting chain, K=5: eigen vs resolvent span distance = {gap:.3f}")

# The resolvent span is the best K-dimensional home for random-reward values:
psi = rd.resolvent(drift.transition, 0.9)
best = rd.rsbf(drift.transition, 0.9, 4)
best_trace = np.linalg.norm(best.basis.T @ psi) ** 2
# 200 random 4-dimensional subspaces, orthonormalized in one stacked call
bases = rd.orthonormal_bases(np.random.default_rng(0).standard_normal((200, 30, 4)))
rand_traces = np.linalg.norm(np.swapaxes(bases, 1, 2) @ psi, axis=(1, 2)) ** 2
print(f"projected trace: resolvent features {best_trace:.2f} "
      f"vs best of 200 random subspaces {max(rand_traces):.2f}")
