"""The three benchmark workloads: inputs, one timed operation, output checks.

A workload's ``generate`` builds its inputs from the seed alone;
``op`` runs the program on them once and returns an :class:`Op`. Library
calls go through module attributes (``cwt.cwt_morlet``, not a bound name) so
a traced run sees them. Given a :class:`pace.Pace`, an untraced ``op`` also
samples the reference computation between its units of work, outside their
timing. Output checks run outside the timed region and count a wrong result
as a failed unit of work.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170.0


@dataclass
class Op:
    """One timed operation.

    ``units`` holds (seconds, error) per unit of work: per origin on the
    rolling forecast, one per op elsewhere; error is None on success.
    ``wall_s`` is None unless every unit succeeded.
    """

    wall_s: float | None
    units: list[tuple[float, str | None]]
    quality: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float | None = None
    files_written: int = 0
    bytes_written: int = 0


def _failure(exc: BaseException) -> str:
    text = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {text}"


class CoherenceLibrary:
    """In-memory ``cwt_morlet`` x6, ``coherence_matrix_field``, ``coherence_result``."""

    name = "coherence-4096x6"
    import_module = "comove"
    unit, runs_cwt = "run", True
    n, p, cycled, salt = 4096, 6, 3, 2

    def generate(self, seed: int, workdir: str) -> dict:
        values = gen.price_walks(seed, self.salt, self.n, self.p, self.cycled)
        return {"values": values, "sha256": gen.digest(values), "shape": list(values.shape)}

    def warm_up(self, inputs: dict) -> None:
        """Run the same calls on the first 256 rows, so lazy set-up is done."""
        self._solve(inputs["values"][:256])

    def _solve(self, x: np.ndarray):
        from comove import coherence, cwt

        grid = cwt.make_scale_grid(x.shape[0], 1.0)
        fields = [cwt.cwt_morlet(x[:, k], 1.0, grid) for k in range(x.shape[1])]
        return grid, coherence.coherence_result(coherence.coherence_matrix_field(fields), target=0)

    def op(self, inputs: dict, workdir: str, tracer=None, pace=None) -> Op:
        from comove import coherence, cwt

        if tracer is not None:
            tracer.run = "coherence"
        # One operation takes most of a run, so the pace is sampled inside it:
        # after each of its 6 transforms, 21 smoothing calls and 15 cofactor
        # grids. The sampling time is taken off the wall time.
        hooks = ((cwt, "cwt_morlet"), (coherence, "smooth"), (coherence, "_cofactor_grids"))
        sampling = pace.after_each_call(*hooks) if pace else contextlib.nullcontext([])
        start = perf_counter()
        with sampling as spent:
            try:
                grid, res = self._solve(inputs["values"])
            except Exception as exc:  # the program failed: record it, keep measuring
                return Op(None, [(perf_counter() - start - sum(spent), _failure(exc))])
            wall = perf_counter() - start - sum(spent)
        try:
            checks.coherence_grids(res.multiple, res.partial_sq, res.partial_phase)
            usable = ~res.flagged & ~res.coi_outside
            contrast = checks.factor_contrast(res.multiple, usable, grid.periods(), gen.CYCLE_PERIOD)
        except checks.CheckFailed as exc:
            return Op(None, [(wall, _failure(exc))])
        quality = {
            "factor_contrast": contrast,
            "flagged_frac": float(res.flagged.mean()),
            "cells": float(res.flagged.size),
        }
        return Op(wall, [(wall, None)], quality)


class RollingForecast:
    """Packets, de-noising and (V)ARMA forecasts at 48 rolling origins."""

    name = "forecast-rolling-2922x8"
    import_module = "comove"
    unit, runs_cwt = "origin", False
    n, p, salt = 2922, 8, 3
    window, stride, horizon, depth = 1461, 30, 30, 4
    origins = (n - window - horizon) // stride + 1

    def generate(self, seed: int, workdir: str) -> dict:
        values = gen.varma_panel(seed, self.salt, self.n, self.p)
        return {"values": values, "sha256": gen.digest(values), "shape": list(values.shape)}

    def warm_up(self, inputs: dict) -> None:
        """Run the first origin once, so lazy set-up is done."""
        y = inputs["values"]
        self._origin(y[: self.window], y[self.window : self.window + self.horizon])

    def op(self, inputs: dict, workdir: str, tracer=None, pace=None) -> Op:
        y = inputs["values"]
        units: list[tuple[float, str | None]] = []
        arma_sum = varma_sum = 0.0
        for k in range(self.origins):
            if tracer is not None:
                tracer.run = f"origin{k}"
            lo = k * self.stride
            win = y[lo : lo + self.window]
            future = y[lo + self.window : lo + self.window + self.horizon]
            start = perf_counter()
            try:
                arma_fc, varma_fc, arma_mse, varma_mse = self._origin(win, future)
            except Exception as exc:  # the program failed: record it, keep measuring
                units.append((perf_counter() - start, _failure(exc)))
                continue
            seconds = perf_counter() - start
            if pace is not None:
                pace.sample()
            try:
                for j, fc in enumerate(arma_fc):
                    checks.forecast_bands(f"arma s{j}", fc.points, fc.lower, fc.upper)
                checks.forecast_bands("varma", varma_fc.points, varma_fc.lower, varma_fc.upper)
                checks.finite_mse("arma", arma_mse)
                checks.finite_mse("varma", varma_mse)
            except checks.CheckFailed as exc:
                units.append((seconds, _failure(exc)))
                continue
            units.append((seconds, None))
            arma_sum += float(np.sum(arma_mse))
            varma_sum += float(np.sum(varma_mse))
        ok = all(err is None for _, err in units)
        wall = sum(t for t, _ in units) if ok else None
        return Op(wall, units, {"arma_mse_sum": arma_sum, "varma_mse_sum": varma_sum})

    def _origin(self, win: np.ndarray, future: np.ndarray):
        from comove import denoising, packets, varma

        lo_path, hi_path = (0,) * self.depth, (1,) * self.depth
        arma_fc, arma_mse = [], []
        for j in range(self.p):
            x = win[:, j]
            tree = packets.wpt_forward(x, level=self.depth)
            packets.energy_fractions(tree)
            packets.reconstruct_node(tree, lo_path)
            packets.reconstruct_node(tree, hi_path)
            denoising.method_sweep(x, level=self.depth)
            denoising.denoise(x, level=self.depth)
            model = varma.fit_arma11(x)
            e = varma.residuals(model, x)
            fc = varma.forecast(model, x[-1], e[-1], self.horizon)
            arma_fc.append(fc)
            arma_mse.append(varma.evaluate_mse(fc, future[:, j]).cum_mse[0])
        joint = varma.fit_varma11(win)
        ev = varma.residuals(joint, win)
        varma_fc = varma.forecast(joint, win[-1], ev[-1], self.horizon)
        varma_mse = varma.evaluate_mse(varma_fc, future).cum_mse
        rows = varma.mse_comparison(
            tuple(f"s{j}" for j in range(self.p)), np.array(arma_mse), varma_mse
        )
        if len(rows) != self.p:
            raise checks.CheckFailed(f"mse_comparison returned {len(rows)} rows")
        return arma_fc, varma_fc, np.array(arma_mse), varma_mse


class Pipeline:
    """``comove pipeline`` as a child process on a 1461 x 4 CSV."""

    name = "pipeline-1461x4"
    import_module = "comove.cli"
    unit, runs_cwt = "run", True
    n, p, cycled, salt, held_back = 1461, 4, 2, 1, 30

    def generate(self, seed: int, workdir: str) -> dict:
        values = gen.price_walks(seed, self.salt, self.n, self.p, self.cycled)
        data = gen.csv_bytes(values)
        path = os.path.join(workdir, "input.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        return {
            "csv": path,
            "end": gen.day(self.n - 1 - self.held_back),
            "sha256": gen.digest(data),
            "shape": list(values.shape),
        }

    def warm_up(self, inputs: dict) -> None:
        """Nothing: every run starts a fresh interpreter, as a user's does."""

    def op(self, inputs: dict, workdir: str, tracer=None, pace=None) -> Op:
        src = os.path.join(os.getcwd(), "src")
        out_dir = os.path.join(workdir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["pipeline", "--input", inputs["csv"], "--target", "s0",
                "--end", inputs["end"], "--out-dir", out_dir]
        spans_path = os.path.join(workdir, "child-spans.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        if tracer is None:
            cmd = [sys.executable, "-m", "comove.cli", *argv]
        else:
            tracer.run = "pipeline"
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), src, spans_path,
                   tracer.run, "--", *argv]
        code, wall, rss_mb, stderr = _run_child(cmd, src, workdir)
        if tracer is not None and os.path.isfile(spans_path):
            with open(spans_path) as fh:
                child = json.load(fh)
            tracer.adopt(child)
        files = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
        written = sum(os.path.getsize(os.path.join(out_dir, f)) for f in files)
        op = Op(None, [], peak_rss_mb=rss_mb, files_written=len(files), bytes_written=written)
        if code != 0:
            first = stderr.splitlines()[0] if stderr else ""
            op.units.append((wall, f"exit {code}: {first}"))
        else:
            try:
                checks.pipeline_outputs(out_dir)
            except checks.CheckFailed as exc:
                op.units.append((wall, _failure(exc)))
            else:
                op.units.append((wall, None))
                op.wall_s = wall
        shutil.rmtree(out_dir, ignore_errors=True)
        return op


def _run_child(cmd: list[str], src: str, workdir: str) -> tuple[int, float, float, str]:
    """Run a child to completion; return (exit code, wall s, peak RSS MB, stderr)."""
    env = dict(os.environ, PYTHONPATH=src)
    err_path = os.path.join(workdir, "child-stderr.txt")
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr


WORKLOADS = {w.name: w for w in (Pipeline(), CoherenceLibrary(), RollingForecast())}
