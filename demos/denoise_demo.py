"""Score nine threshold selection methods on a signal you know the truth of.

With synthetic data the clean signal is available, so the sweep can report
real SNR/PSNR per method instead of proxies. The sweep also works blind; the
convention string it carries explains how to read the scores in that case.
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
report = cm.method_sweep(noisy, rule=None, level=4, reference=clean)
print(f"convention: {report.convention}")
print()
print("method           rule     snr(dB)  psnr(dB)")
rows = report.rows()
for method, rule, _, snr, psnr, identical in rows:
    note = "  (no-op)" if identical else ""
    print(f"{method:<15}  {rule:<7}  {snr:7.2f}  {psnr:8.2f}{note}")

best = max(range(len(rows)), key=lambda i: rows[i][3])
method, rule, _, snr, _, _ = rows[best]
print()
print(f"best method on this input: {method} + {rule} at {snr:.2f} dB")

# Row i of the estimates is the series cm.denoise(noisy, method, rule) returns.
final = snr_db(report.estimates[best])
print(f"its de-noised series end to end: {start:.2f} dB -> {final:.2f} dB ({final - start:+.2f})")

# The same machinery runs blind; thresholds are then judged by the sweep's
# stated convention rather than against a reference.
blind = cm.method_sweep(noisy, rule=None, level=4)
universal = next(r for r in blind.rows() if r[0] == "Universal")
print()
print(f"blind sweep example row: Universal/{universal[1]}, thresholds {universal[2]}")
