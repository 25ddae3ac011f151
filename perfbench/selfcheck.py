"""Self-check of the benchmark: generators repeat, checks catch wrong output.

Run from the repository root: ``python3 perfbench/selfcheck.py``. Exits 0
when every case passes, 1 otherwise. Genuine outputs come from small runs of
the package; doctored copies (a grid value of 1.5, a NaN forecast, ...)
must be rejected. The pace reference must sample once per hooked call and
put the hooked attribute back.
"""

from __future__ import annotations

import math
import os
import shutil
import sys

import numpy as np

import checks
import gen
from workloads import WORKLOADS

FAILURES: list[str] = []


def expect(label: str, ok: bool) -> None:
    print(("ok   " if ok else "FAIL ") + label)
    if not ok:
        FAILURES.append(label)


def rejects(label: str, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed:
        expect(f"rejects {label}", True)
    else:
        expect(f"rejects {label}", False)


def accepts(label: str, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        expect(f"accepts {label} ({exc})", False)
    else:
        expect(f"accepts {label}", True)


def generators(workdir: str) -> None:
    for wl in WORKLOADS.values():
        a = wl.generate(7, workdir)
        b = wl.generate(7, workdir)
        c = wl.generate(8, workdir)
        expect(f"{wl.name}: one seed gives identical bytes", a["sha256"] == b["sha256"])
        expect(f"{wl.name}: another seed gives other bytes", a["sha256"] != c["sha256"])
    x = gen.price_walks(3, 0, 64, 2, 1)
    expect("price_walks: bytes equal on a second call",
           x.tobytes() == gen.price_walks(3, 0, 64, 2, 1).tobytes())


def coherence_checks() -> None:
    from comove import coherence, cwt

    x = gen.price_walks(1, 0, 256, 3, 2)
    grid = cwt.make_scale_grid(256, 1.0)
    fields = [cwt.cwt_morlet(x[:, k], 1.0, grid) for k in range(3)]
    res = coherence.coherence_result(coherence.coherence_matrix_field(fields), target=0)
    psq, phase = dict(res.partial_sq), dict(res.partial_phase)
    accepts("genuine coherence grids", checks.coherence_grids, res.multiple, psq, phase)
    for label, value in (("a grid value of 1.5", 1.5), ("a negative grid value", -0.1),
                         ("a NaN grid value", math.nan)):
        bad = res.multiple.copy()
        bad[3, 7] = value
        rejects(f"multiple coherence with {label}", checks.coherence_grids, bad, psq, phase)
        bad_psq = {j: g.copy() for j, g in psq.items()}
        bad_psq[1][0, 0] = value
        rejects(f"partial coherence with {label}", checks.coherence_grids, res.multiple, bad_psq, phase)
    bad_phase = {j: g.copy() for j, g in phase.items()}
    bad_phase[2][5, 5] = 4.0
    rejects("a phase of 4.0", checks.coherence_grids, res.multiple, psq, bad_phase)

    periods = np.array([16.0, 32.0, 64.0, 128.0])
    usable = np.ones((4, 3), dtype=bool)
    flat = np.full((4, 3), 0.5)
    peaked = flat.copy()
    peaked[2] = 0.9
    expect("factor contrast of a peaked band is 0.4",
           abs(checks.factor_contrast(peaked, usable, periods, 64.0) - 0.4) < 1e-12)
    rejects("a zero factor contrast", checks.factor_contrast, flat, usable, periods, 64.0)
    dipped = flat.copy()
    dipped[2] = 0.1
    rejects("a negative factor contrast", checks.factor_contrast, dipped, usable, periods, 64.0)


def forecast_checks() -> None:
    from comove import varma

    x = gen.varma_panel(1, 0, 300, 2)
    model = varma.fit_arma11(x[:, 0])
    fc = varma.forecast(model, x[-1, 0], varma.residuals(model, x[:, 0])[-1], 10)
    accepts("a genuine forecast", checks.forecast_bands, "arma", fc.points, fc.lower, fc.upper)
    nan_points = fc.points.copy()
    nan_points[4, 0] = math.nan
    rejects("a NaN forecast", checks.forecast_bands, "arma", nan_points, fc.lower, fc.upper)
    high = fc.points + 10.0 * (fc.upper - fc.points)
    rejects("a point above its band", checks.forecast_bands, "arma", high, fc.lower, fc.upper)
    accepts("finite MSEs", checks.finite_mse, "mse", [1.0, 2.0])
    rejects("an infinite MSE", checks.finite_mse, "mse", [1.0, math.inf])
    rejects("a missing MSE", checks.finite_mse, "mse", [])


def pace_checks() -> None:
    from comove import coherence, cwt
    from pace import Pace

    x = gen.price_walks(1, 0, 128, 3, 2)
    grid = cwt.make_scale_grid(128, 1.0)
    fields = [cwt.cwt_morlet(x[:, k], 1.0, grid) for k in range(3)]
    pace = Pace()
    with pace.after_each_call((coherence, "smooth"), (coherence, "no_such_name")) as spent:
        coherence.coherence_matrix_field(fields)
    expect("pace samples once per smoothing call (3 auto + 3 cross)", len(spent) == 6)
    expect("pace puts coherence.smooth back", coherence.smooth is cwt.smooth)
    expect("pace skips a name the module lacks", not hasattr(coherence, "no_such_name"))
    expect("pace keeps every sample", pace.samples == spent and pace.typical() > 0.0)


def pipeline_checks(workdir: str) -> None:
    out = os.path.join(workdir, "out")

    def write(name: str, text: str) -> None:
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)

    def build(grid_value: str = "0.25", phase: str = "-1.5", lower: str = "1", mse: str = "0.5",
              manifest_extra: str = "") -> None:
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        write("mwc_original_s0.csv", f"scale,time_index,value,coi_flag\n2,0,{grid_value},1\n2,1,0.5,0\n")
        write("phase_original_s0_s1.csv", f"scale,time_index,value,coi_flag\n2,0,{phase},1\n")
        write("forecasts.csv", f"model,series,horizon,point,lower,upper\narma,s0,1,2,{lower},3\n")
        write("comparison.csv", f"series,horizons,arma_mse,varma_mse,winner\ns0,30,{mse},0.4,VARMA\n")
        names = sorted(os.listdir(out) + ["manifest.txt"])
        write("manifest.txt", "".join(n + "\n" for n in names) + manifest_extra)

    build()
    accepts("a genuine pipeline directory", checks.pipeline_outputs, out)
    build(grid_value="1.5")
    rejects("a pipeline grid value of 1.5", checks.pipeline_outputs, out)
    build(phase="3.5")
    rejects("a pipeline phase of 3.5", checks.pipeline_outputs, out)
    build(lower="2.5")
    rejects("a pipeline forecast below its lower band", checks.pipeline_outputs, out)
    build(mse="nan")
    rejects("a NaN pipeline MSE", checks.pipeline_outputs, out)
    build(manifest_extra="ghost.csv\n")
    rejects("a manifest naming a file that is not there", checks.pipeline_outputs, out)
    build()
    write("stray.csv", "x\n")
    rejects("a file missing from the manifest", checks.pipeline_outputs, out)


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "comove", "__init__.py")):
        print(f"selfcheck: no comove package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(".perfbench_work", f"selfcheck-{os.getpid()}")
    os.makedirs(workdir)
    try:
        generators(workdir)
        coherence_checks()
        forecast_checks()
        pace_checks()
        pipeline_checks(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".perfbench_work")
        except OSError:
            pass
    print(f"selfcheck: {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
