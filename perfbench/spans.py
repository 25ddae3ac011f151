"""Tracing from outside the program: wrap public functions, record spans.

:func:`install` replaces each traced function at every ``comove`` module
attribute that holds it (``comove.coherence.smooth``,
``comove.cli.cwt_morlet``, ``comove.cli._denoise_series``, ...), so callers
inside the package pick up the wrapper where they look the name up. Nothing
under ``src/`` changes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, function) pairs traced; the span name is "module.function".
TRACED = (
    ("cli", "main"),
    ("timeseries", "load_csv"),
    ("cwt", "cwt_morlet"),
    ("cwt", "smooth"),
    ("coherence", "coherence_matrix_field"),
    ("coherence", "coherence_result"),
    ("packets", "wpt_forward"),
    ("packets", "reconstruct_node"),
    ("packets", "energy_fractions"),
    ("denoising", "method_sweep"),
    ("denoising", "denoise"),
    ("varma", "fit_arma11"),
    ("varma", "fit_varma11"),
    ("varma", "residuals"),
    ("varma", "forecast"),
)

# Counts read off a traced call's arguments and result, after its span ends.
PROBES = {
    "cwt.smooth": lambda args, out: {"bytes": args[0].values.nbytes + out.values.nbytes},
    "coherence.coherence_result": lambda args, out: {
        "cells": int(out.multiple.size),
        "flagged": int(out.flagged.sum()),
    },
    "timeseries.load_csv": lambda args, out: {"rows_read": out.load_report.rows_read},
    "varma.fit_arma11": lambda args, out: {"warnings": len(out.warnings)},
    "varma.fit_varma11": lambda args, out: {"warnings": len(out.warnings)},
}

# Per-layer metrics of the traced run, in report order, with units.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.files_written", "count"),
    ("timeseries.load_s", "s"),
    ("timeseries.rows_read", "count"),
    ("cwt.transform_s", "s"),
    ("cwt.transforms", "count"),
    ("cwt.smooth_s", "s"),
    ("cwt.smooth_calls", "count"),
    ("cwt.smooth_bytes", "bytes"),
    ("coherence.assemble_s", "s"),
    ("coherence.solve_s", "s"),
    ("coherence.cells", "count"),
    ("coherence.flagged_frac", "ratio"),
    ("coherence.failures", "count"),
    ("packets.time_s", "s"),
    ("packets.calls", "count"),
    ("denoising.time_s", "s"),
    ("denoising.sweeps", "count"),
    ("varma.fit_s", "s"),
    ("varma.recursion_s", "s"),
    ("varma.fits", "count"),
    ("varma.warnings", "count"),
    ("uncovered_s", "s"),
    ("trace_overhead_s", "s"),
)

# Which spans' self time (and call count) make up each layer figure.
_SELF_TIME = {
    "cli.import_s": ("cli.import",),
    "cli.self_s": ("cli.main",),
    "timeseries.load_s": ("timeseries.load_csv",),
    "cwt.transform_s": ("cwt.cwt_morlet",),
    "cwt.smooth_s": ("cwt.smooth",),
    "coherence.assemble_s": ("coherence.coherence_matrix_field",),
    "coherence.solve_s": ("coherence.coherence_result",),
    "packets.time_s": ("packets.wpt_forward", "packets.reconstruct_node", "packets.energy_fractions"),
    "denoising.time_s": ("denoising.method_sweep", "denoising.denoise"),
    "varma.fit_s": ("varma.fit_arma11", "varma.fit_varma11"),
    "varma.recursion_s": ("varma.residuals", "varma.forecast"),
}
_CALLS = {
    "cwt.transforms": ("cwt.cwt_morlet",),
    "cwt.smooth_calls": ("cwt.smooth",),
    "packets.calls": _SELF_TIME["packets.time_s"],
    "denoising.sweeps": ("denoising.method_sweep",),
    "varma.fits": _SELF_TIME["varma.fit_s"],
}


class Tracer:
    """Collects spans: name, start, end, parent index and run id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run = ""
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Add a finished root span measured elsewhere (e.g. in a child)."""
        self.spans.append(
            {"name": name, "run": self.run, "parent": None, "start": start, "end": end, **attrs}
        )

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded by another process, keeping their nesting."""
        base = len(self.spans)
        for s in spans:
            parent = s["parent"]
            self.spans.append({**s, "parent": None if parent is None else parent + base})

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "run": self.run,
                "parent": self._stack[-1] if self._stack else None,
                "start": perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if probe is not None:
                span.update(probe(args, out))
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer):
    """Wrap every traced function at each loaded comove module attribute.

    Returns a function that puts the originals back.
    """
    modules = [m for name, m in sys.modules.items() if name == "comove" or name.startswith("comove.")]
    patched = []
    for module, func in TRACED:
        home = sys.modules.get(f"comove.{module}")
        if home is None:
            continue
        original = getattr(home, func)
        wrapped = tracer.wrap(f"{module}.{func}", original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)
                    patched.append((m, attr, original))

    def restore() -> None:
        for m, attr, original in patched:
            setattr(m, attr, original)

    return restore


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def root_time(spans: list[dict]) -> float:
    """Time covered by spans with no parent (they never overlap)."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times, counts and ratios; 0 where a layer did not run.

    ``cli.bytes_written``, ``cli.files_written``, ``uncovered_s`` and
    ``trace_overhead_s`` need the op's own measurements; the caller fills
    them in.
    """
    own = self_times(spans)
    out = {name: 0.0 for name, _ in PER_LAYER}
    for metric, names in _SELF_TIME.items():
        out[metric] = sum(t for s, t in zip(spans, own) if s["name"] in names)
    for metric, names in _CALLS.items():
        out[metric] = sum(1 for s in spans if s["name"] in names)
    out["timeseries.rows_read"] = sum(s.get("rows_read", 0) for s in spans)
    out["cwt.smooth_bytes"] = sum(s.get("bytes", 0) for s in spans)
    cells = sum(s.get("cells", 0) for s in spans)
    out["coherence.cells"] = cells
    out["coherence.flagged_frac"] = sum(s.get("flagged", 0) for s in spans) / cells if cells else 0.0
    out["coherence.failures"] = sum(
        1 for s in spans if s["name"] == "coherence.coherence_matrix_field" and s.get("error")
    )
    out["varma.warnings"] = sum(s.get("warnings", 0) for s in spans)
    return out
