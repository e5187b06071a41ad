"""Many frozen prediction heads behave like one clean linear flow.

With M heads whose weights are frozen at initialization (variance 1/M) and no
reward, the feature matrix follows d/dt Phi = -(I - gamma P) Phi W with W
concentrating on the identity. As M grows the trajectory approaches the
closed-form limit exp(-t (I - gamma P)) Phi_0 at the usual 1/sqrt(M) rate,
and with random per-head rewards the features no longer collapse to zero:
their limiting columns are Gaussian with covariance Psi Psi^T.
"""

import numpy as np

import repdyn as rd
from repdyn.experiments import chain_uniform

chain = chain_uniform().with_reward(np.zeros(30))
rng = np.random.default_rng(0)
phi0 = rng.standard_normal((30, 4))
phi0 /= np.linalg.norm(phi0)

times = np.linspace(0.0, 5.0, 11)
A = 0.9 * chain.transition - np.eye(30)
limit = rd.linear_limit_flow(rd.LinearFlowSpec(A, np.zeros_like(phi0), phi0), times).states

print("sup-Frobenius gap to the infinite-head flow on [0, 5]:")
for M in (10, 100, 1000, 10000):
    w = rd.sample_weights(M, 4, 1.0 / M, seed=1)
    traj = rd.ensemble_flow(chain, rd.EnsembleState(phi0, w), 1.0, 0.0, times)
    gap = max(np.linalg.norm(s - ref) for s, ref in zip(traj.states, limit))
    print(f"  M={M:6d}: gap = {gap:.4f}   (1/sqrt(M) = {1/np.sqrt(M):.4f})")

# Random per-head rewards keep the representation alive. At finite M the
# flow settles at Psi Z W^{-1} (Z the reward-weight coupling, W the head
# second moment); as M grows W -> I and the limit is the Gaussian matrix
# Psi Z itself.
M = 4000
w = rd.sample_weights(M, 4, 1.0 / M, seed=2)
cums = rd.sample_cumulants(M, 30, seed=3)
state0 = rd.EnsembleState(phi0, w, cums)
traj = rd.ensemble_flow(chain, state0, 1.0, 0.0, [120.0])
psi_z = rd.resolvent(chain.transition, 0.9) @ (cums @ w)
settled = psi_z @ np.linalg.inv(w.T @ w)
print(f"\nrandom-reward run at M={M}: |Phi_120|_F = {np.linalg.norm(traj.final()):.3f}")
print(f"  gap to the finite-M fixed point Psi Z W^-1: "
      f"{np.linalg.norm(traj.final() - settled):.2e}")
print(f"  gap between that fixed point and the M->inf form Psi Z: "
      f"{np.linalg.norm(settled - psi_z):.3f}")

# The full battery (trajectory gaps, weight limits, covariance) in one bundle:
bundle = rd.run_limit_checks({"M_list": (100, 2000), "n_seeds": 5, "gap_tol": 0.05,
                              "weight_M": 20000, "weight_seeds": 5, "weight_tol": 0.1,
                              "rewmat_seeds": 500, "rewmat_tol": 0.2})
bundle.save("out/demos/limit_checks")
print("\nbundle saved to out/demos/limit_checks;",
      "all checks pass" if bundle.all_passed() else "SOME CHECKS FAILED")
