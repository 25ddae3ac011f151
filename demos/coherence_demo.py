"""Find a hidden common factor with multiple and partial wavelet coherence.

Four synthetic series: the first two share a sinusoidal factor near period 64
buried in unit noise, the other two are pure noise. Multiple coherence of
series 0 on the rest should light up in the factor band; the partials should
point at series 1 as the partner that carries it.
"""

import numpy as np

import comove as cm

rng = np.random.default_rng(7)
n = 1024
t = np.arange(n)
factor = np.sqrt(2.0) * np.sin(2.0 * np.pi * t / 64.0)  # unit power

series = {
    "alpha": factor + rng.standard_normal(n),
    "beta": factor + rng.standard_normal(n),
    "gamma": rng.standard_normal(n),
    "delta": rng.standard_normal(n),
}

# One shared scale grid so the transforms are comparable cell by cell.
grid = cm.make_scale_grid(n, dt=1.0)
fields = [cm.cwt_morlet(x, 1.0, grid) for x in series.values()]
cf = cm.coherence_matrix_field(fields)
res = cm.coherence_result(cf, target=0)

print(f"{len(series)} series, {grid.scales.size} scales, {n} samples")
print(f"flagged cells: {int(res.flagged.sum())} of {res.flagged.size}")
print()

# Average the squared coherences over octave-wide scale bands, skipping the
# cone-of-influence region where edge effects dominate.
inside = ~grid.outside_coi()
edges = [4, 8, 16, 32, 48, 80, 128, 256]
print("scale band      multiple   partial(beta)  partial(gamma)  partial(delta)")
for lo, hi in zip(edges[:-1], edges[1:]):
    band = (grid.scales >= lo) & (grid.scales < hi)
    use = band[:, None] & inside
    if not use.any():
        continue
    row = [res.multiple[use].mean()]
    row += [res.partial_sq[j][use].mean() for j in (1, 2, 3)]
    marker = " <- factor band" if (lo, hi) == (48, 80) else ""
    print(f"[{lo:3d}, {hi:3d})     {row[0]:8.3f}   {row[1]:13.3f}  {row[2]:14.3f}  {row[3]:14.3f}{marker}")

print()
band = (grid.scales >= 48) & (grid.scales <= 80)
use = band[:, None] & inside
mwc = res.multiple[use].mean()
partners = {name: res.partial_sq[j][use].mean() for j, name in enumerate(series) if j != 0}
best = max(partners, key=partners.get)
print(f"factor band multiple coherence: {mwc:.3f}")
print(f"strongest partial partner: {best} ({partners[best]:.3f}), as constructed")
