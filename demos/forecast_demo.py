"""Compare joint VARMA forecasts against per-series ARMA on coupled data.

Two series feed back into each other through a cross-coupled VAR(1). The
per-series ARMA fits see only their own history; the joint fit sees both.
On rolling one-step forecasts over a held-out tail, that extra information
shows up as a lower mean squared error.
"""

import numpy as np

import comove as cm

phi = np.array([[0.6, 0.3], [0.3, 0.6]])
truth = cm.VarmaModel(mu=np.zeros(2), phi=phi, theta=np.zeros((2, 2)), sigma=np.eye(2))
n, held_out = 256, 30
path = cm.simulate_varma(truth, n + held_out, seed=31_000)
train = path[:n]
names = ("copper", "zinc")

# Fit both model classes on the training window only.
joint = cm.fit_varma11(train)
marginals = [cm.fit_arma11(train[:, k]) for k in range(2)]

print(f"training window n={n}, held-out tail {held_out}")
print()
print("joint fit phi:")
print(np.array_str(joint.phi, precision=3))
for name, m in zip(names, marginals):
    print(f"{name} marginal: phi={m.phi[0, 0]:+.3f} theta={m.theta[0, 0]:+.3f} "
          f"sigma2={m.sigma[0, 0]:.3f}")

# Multi-step forecast with 95% bands from the end of the training window.
e_joint = cm.residuals(joint, train)
fc = cm.forecast(joint, train[-1], e_joint[-1], horizon=held_out)
print()
print("joint forecast, first five steps:")
print("step   " + "   ".join(f"{nm:>20}" for nm in names))
for step in range(5):
    cells = [
        f"{fc.points[step, k]:6.2f} [{fc.lower[step, k]:5.2f},{fc.upper[step, k]:5.2f}]"
        for k in range(2)
    ]
    print(f"{step + 1:4d}   " + "   ".join(cells))

# Rolling one-step comparison over the held-out tail: filtered residuals on
# the realized path ARE the one-step forecast errors.
joint_errors = cm.residuals(joint, path)[n:]
joint_mse = (joint_errors**2).mean(axis=0)
marginal_mse = np.array(
    [(cm.residuals(m, path[:, k])[n:] ** 2).mean() for k, m in enumerate(marginals)]
)

verdicts = cm.mse_comparison(names, marginal_mse, joint_mse)
print()
print("rolling one-step MSE over the held-out tail:")
print("series   arma     varma    winner")
for name, am, vm, verdict in zip(names, marginal_mse, joint_mse, verdicts):
    print(f"{name:<8} {am:.4f}   {vm:.4f}   {verdict}")
print()
ratio = joint_mse.mean() / marginal_mse.mean()
print(f"overall MSE ratio (joint / marginal): {ratio:.4f}"
      + ("  (coupling pays off)" if ratio < 1 else ""))
