"""Score nine threshold selection methods on a signal you know the truth of.

The sweep scores each method against its own input, as the convention string
it carries explains. With synthetic data the clean signal is available, so
each method's estimate can also be scored against the truth.
"""

import numpy as np

import comove as cm

rng = np.random.default_rng(0)
n = 1024
clean = np.sin(2.0 * np.pi * np.arange(n) / 64.0)
sigma = np.sqrt(np.mean(clean**2) / 10.0)  # 10 dB input SNR
noisy = clean + sigma * rng.standard_normal(n)


def snr_db(estimate):
    return 10.0 * np.log10(np.sum(clean**2) / np.sum((clean - estimate) ** 2))


start = snr_db(noisy)
print(f"input: sinusoid + noise at {start:.2f} dB SNR, n={n}")
print()

# rule=None pairs each selector with its conventional shrinkage rule.
report = cm.method_sweep(noisy, rule=None, level=4)
print(f"convention: {report.convention}")
print()
# Row i of the estimates is the series cm.denoise(noisy, method, rule) returns.
truth = [snr_db(estimate) for estimate in report.estimates]
print("method           rule     vs input(dB)  vs truth(dB)")
rows = report.rows()
for (method, rule, _, snr, _, identical), true_snr in zip(rows, truth):
    note = "  (no-op)" if identical else ""
    print(f"{method:<15}  {rule:<7}  {snr:12.2f}  {true_snr:12.2f}{note}")

best = int(np.argmax(truth))
method, rule = rows[best][:2]
print()
print(f"best method on this input: {method} + {rule}, {start:.2f} dB -> {truth[best]:.2f} dB "
      f"({truth[best] - start:+.2f})")
