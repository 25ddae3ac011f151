"""Split a trending series into trend and noise with wavelet packets.

A random walk plus a fast seasonal wiggle decomposes over a depth-4 packet
tree: the repeated-lowpass node soaks up the walk, the seasonal energy lands
in a midband node. The noise is what is left after the trend, x - trend:
the other 15 leaves, as in the CLI's noise variant. The repeated-highpass
node alone is one narrow band: each highpass branch mirrors the spectrum, so
at depth 4 it is band 10 of 16 in frequency order (periods of about 2.9 to
3.2 samples), and the top band is node 1000, band 15. The node
reconstructions add back up to the input exactly.
"""

import numpy as np

import comove as cm

rng = np.random.default_rng(1)
n = 1024
walk = np.cumsum(rng.standard_normal(n))
seasonal = 2.0 * np.sin(2.0 * np.pi * np.arange(n) / 8.0)
x = walk + seasonal + 0.5 * rng.standard_normal(n)

depth = 4
tree = cm.wpt_forward(x, level=depth)
fractions = cm.energy_fractions(tree)

print(f"depth-{depth} packet tree on n={n}: {len(fractions)} leaf nodes")
print()
print("node    freq index  energy fraction")
shown = 0
for path, frac in sorted(fractions.items(), key=lambda kv: -kv[1]):
    label = "".join(str(b) for b in path)
    print(f"{label}    {cm.frequency_index(path):10d}  {frac:15.5f}")
    shown += 1
    if shown == 6:
        break
print(f"(remaining {len(fractions) - shown} nodes hold "
      f"{1.0 - sum(sorted(fractions.values())[-shown:]):.5f} of the energy)")

# The walk dominates the all-lowpass node. The period-8 seasonal lives at
# frequency 1/8; with sixteen bands of width 1/32 each, that is band 4, and
# the table above shows the node whose frequency index is 4 collecting it.
trend_node = (0,) * depth
print()
print(f"trend node {trend_node}: {fractions[trend_node]:.5f} of total energy")

trend = cm.reconstruct_node(tree, trend_node)
noise = x - trend
highpass = cm.reconstruct_node(tree, (1,) * depth)

print(f"trend reconstruction correlates with the walk at "
      f"{np.corrcoef(trend, walk)[0, 1]:.4f}")
print(f"energy: trend {np.sum(trend**2):.0f}, noise (x - trend) {np.sum(noise**2):.0f}, "
      f"of which the repeated-highpass node {np.sum(highpass**2):.1f}")
print(f"perfect reconstruction error: "
      f"{np.abs(cm.wpt_inverse(tree) - x).max():.2e}")
