"""Command line interface: coherence, packet, denoise, forecast, pipeline.

Configuration comes from an optional flat ``key=value`` file (``--config``),
with command line flags overriding file values. The resolved configuration is
echoed to stdout, never into output files, so reruns with the same inputs are
byte-identical. Floats are written with 17 significant digits (round-trip
exact), and series names are quoted the way ``csv`` quotes them.

Exit codes: 0 success, 1 usage error (bad flags, unknown keys or subcommand),
2 data error (missing or malformed input, analysis preconditions violated).

Output files, written under ``out_dir``:

- coherence: ``mwc_<target>.csv`` plus ``pwc_<target>_<other>.csv`` and
  ``phase_<target>_<other>.csv`` per other series. Grid files are long
  format ``scale,time_index,value,coi_flag`` with coi_flag = 1 outside the
  cone of influence.
- packet: ``energy.csv`` (series, node, frequency_index, fraction),
  ``trend.csv`` and ``noise.csv`` (date plus one column per series,
  reconstructions of the all-lowpass and all-highpass nodes).
- denoise: ``sweep_<series>.csv`` per series (nine methods scored; the
  scoring convention is a ``#`` comment on the first line) and
  ``denoised.csv`` (date plus one column per series).
- forecast: ``models.csv`` (fitted coefficients, long format),
  ``forecasts.csv`` (model, series, horizon, point, lower, upper) and
  ``comparison.csv`` (per-series cumulative MSE of ARMA vs VARMA over the
  horizons with realized data after the fit window).
- pipeline: all of the above, with the coherence grids repeated for the
  packet trend, packet noise, and denoised variants
  (``mwc_original_...``, ``mwc_trend_...``, ``mwc_noise_...``,
  ``mwc_denoised_...``; partial grids for the original variant only), plus
  ``manifest.txt`` listing every file written.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import coherence as coh
from . import packets as pk
from . import timeseries as ts
from . import varma as vm
from .cwt import cwt_morlet, make_scale_grid
from .denoising import CONVENTIONAL_RULE, SHRINKAGE_RULES, canonical_method
from .denoising import denoise as _denoise_series
from .denoising import method_sweep

class UsageError(Exception):
    """Bad invocation: unknown keys, unparseable values, unknown subcommand."""


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings shared by every subcommand."""

    input: str = ""
    date_column: str = "date"
    value_columns: tuple[str, ...] | None = None
    start: str | None = None
    end: str | None = None
    scale_factors: tuple[float, ...] | None = None
    log_transform: bool = False
    target: str | None = None
    depth: int = 4
    method: str = "SURE"
    rule: str = "auto"
    denoise_level: int = 4
    wavelet: str = "db3"
    horizon: int = 30
    out_dir: str = "out"

    def echo(self) -> str:
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            elif v is None:
                v = ""
            parts.append(f"config {f.name}={v}")
        return "\n".join(parts)


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, raw: str) -> object:
    if key in ("depth", "denoise_level", "horizon"):
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"config {key} must be an integer, got {raw!r}") from None
    if key == "log_transform":
        low = raw.strip().lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise UsageError(f"config log_transform must be a boolean, got {raw!r}")
    if key == "scale_factors":
        try:
            return tuple(float(v) for v in raw.split(",") if v.strip() != "")
        except ValueError:
            raise UsageError(f"config scale_factors must be floats, got {raw!r}") from None
    if key == "value_columns":
        cols = tuple(v.strip() for v in raw.split(",") if v.strip() != "")
        return cols or None
    if key in ("start", "end", "target"):
        return raw.strip() or None
    return raw.strip()


def read_config_file(path: str) -> dict[str, object]:
    """Parse a flat key=value file; '#' starts a comment, blank lines skipped."""
    known = {f.name for f in fields(PipelineConfig)}
    out: dict[str, object] = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ts.DataError(f"cannot open config {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key not in known:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _coerce(key, raw)
    return out


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="comove", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, helptext in (
        ("coherence", "multiple/partial wavelet coherence grids"),
        ("packet", "wavelet packet energy table and trend/noise split"),
        ("denoise", "threshold-selection sweep and de-noised series"),
        ("forecast", "ARMA vs VARMA forecasts and MSE comparison"),
        ("pipeline", "everything above in one run"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None, help="key=value settings file")
        p.add_argument("--input", default=None, help="input CSV path")
        p.add_argument("--date-column", dest="date_column", default=None)
        p.add_argument(
            "--value-columns",
            dest="value_columns",
            default=None,
            help="comma-separated column names (default: all non-date columns)",
        )
        p.add_argument("--start", default=None, help="window start date (inclusive)")
        p.add_argument("--end", default=None, help="window end date (inclusive)")
        p.add_argument(
            "--scale-factors",
            dest="scale_factors",
            default=None,
            help="comma-separated positive factors, one per series",
        )
        p.add_argument(
            "--log",
            dest="log_transform",
            action="store_true",
            default=None,
            help="analyze log prices instead of levels",
        )
        p.add_argument("--target", default=None, help="target series name")
        p.add_argument("--depth", type=int, default=None, help="packet tree depth")
        p.add_argument("--method", default=None, help="threshold selection method")
        p.add_argument(
            "--rule",
            default=None,
            help="shrinkage rule (hard/soft/garrote; 'auto' pairs each method "
            "with its conventional rule)",
        )
        p.add_argument(
            "--denoise-level", dest="denoise_level", type=int, default=None
        )
        p.add_argument("--wavelet", default=None, help="db3 or haar")
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)
    return parser


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """File values override defaults; explicit flags override the file."""
    settings: dict[str, object] = {}
    if args.config:
        settings.update(read_config_file(args.config))
    for f in fields(PipelineConfig):
        v = getattr(args, f.name, None)
        if v is None:
            continue
        if isinstance(v, str):
            v = _coerce(f.name, v)
        settings[f.name] = v
    return replace(PipelineConfig(), **settings)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _quote(name: str) -> str:
    """A name as one CSV field, quoted the way ``csv`` quotes it by default."""
    if any(c in name for c in ',"\r\n'):
        return '"' + name.replace('"', '""') + '"'
    return name


def _safe_name(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_") else "_" for c in name)


class _Writer:
    """Collects written paths for the manifest."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.written: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def open(self, name: str):
        self.written.append(name)
        print(f"wrote {os.path.join(self.out_dir, name)}")
        return open(os.path.join(self.out_dir, name), "w", newline="")

    def manifest(self) -> None:
        names = sorted(self.written + ["manifest.txt"])
        with open(os.path.join(self.out_dir, "manifest.txt"), "w") as fh:
            for n in names:
                fh.write(n + "\n")


def _write_grid(
    w: _Writer,
    name: str,
    scales: np.ndarray,
    grid: np.ndarray,
    coi_outside: np.ndarray,
) -> None:
    # one % operation per scale row; %.17g prints what _fmt prints
    n = grid.shape[1]
    index = range(n)
    with w.open(name) as fh:
        fh.write("scale,time_index,value,coi_flag\n")
        for s, vals, flags in zip(scales, grid.tolist(), coi_outside.tolist()):
            row = _fmt(s) + ",%d,%.17g,%d\n"
            fh.write(row * n % tuple(itertools.chain.from_iterable(zip(index, vals, flags))))


def _write_series_table(
    w: _Writer, name: str, stamps: np.ndarray, names: tuple[str, ...], values: np.ndarray
) -> None:
    row = "%s" + ",%.17g" * len(names) + "\n"
    with w.open(name) as fh:
        fh.write("date," + ",".join(map(_quote, names)) + "\n")
        fh.writelines(row % (stamp, *vals) for stamp, vals in zip(stamps, values.tolist()))


def _log(names: tuple[str, ...], values: np.ndarray, where: str = "") -> np.ndarray:
    bad = np.any(values <= 0.0, axis=0)
    if bad.any():
        raise ts.DataError(
            f"series {names[int(np.argmax(bad))]!r} has nonpositive values{where}; cannot take logs"
        )
    return np.log(values)


def _check_file_names(names: tuple[str, ...]) -> None:
    """Two series whose names map to one file name part would overwrite each other."""
    seen: dict[str, str] = {}
    for name in names:
        first = seen.setdefault(_safe_name(name), name)
        if first != name:
            raise ts.DataError(
                f"series {first!r} and {name!r} both map to {_safe_name(name)!r} in file names"
            )


def _load(config: PipelineConfig) -> tuple[ts.MultiSeries, ts.MultiSeries]:
    """Load the input and return (full series, analysis window)."""
    if not config.input:
        raise UsageError("no input file; pass --input or set input= in the config")
    full = ts.load_csv(
        config.input,
        date_column=config.date_column,
        value_columns=config.value_columns,
    )
    if full.load_report is not None:
        print(full.load_report.summary())
    work = full
    if config.start is not None or config.end is not None:
        start = config.start or str(work.timestamps[0])
        end = config.end or str(work.timestamps[-1])
        work = ts.window(work, start, end)
    if config.log_transform:
        work = replace(work, values=_log(work.names, work.values))
    if config.scale_factors is not None:
        work = ts.rescale(work, config.scale_factors)
    return full, work


def _target_index(ms: ts.MultiSeries, config: PipelineConfig) -> int:
    if config.target is None:
        return 0
    return ms.index_of(config.target)


def _coherence_grids(
    ms: ts.MultiSeries, target: int
) -> tuple[coh.CoherenceResult, np.ndarray]:
    grid = make_scale_grid(len(ms), ms.dt)
    fields_ = [cwt_morlet(x, ms.dt, grid) for x in ms.values.T]
    cf = coh.coherence_matrix_field(fields_, labels=ms.names)
    return coh.coherence_result(cf, target), grid.scales


def _emit_coherence(w: _Writer, ms: ts.MultiSeries, target: int, prefix: str = "", partials: bool = True) -> None:
    if ms.p < 2:
        raise ts.DataError("coherence needs at least two series")
    res, scales = _coherence_grids(ms, target)
    tname = _safe_name(ms.names[target])
    _write_grid(w, f"mwc_{prefix}{tname}.csv", scales, res.multiple, res.coi_outside)
    if partials:
        for j in sorted(res.partial_sq):
            jname = _safe_name(ms.names[j])
            _write_grid(
                w, f"pwc_{prefix}{tname}_{jname}.csv", scales, res.partial_sq[j], res.coi_outside
            )
            _write_grid(
                w,
                f"phase_{prefix}{tname}_{jname}.csv",
                scales,
                res.partial_phase[j],
                res.coi_outside,
            )


def _emit_packet(
    w: _Writer, ms: ts.MultiSeries, config: PipelineConfig
) -> tuple[ts.MultiSeries, ts.MultiSeries]:
    """Write the packet tables; return the (trend, noise) variants of ``ms``."""
    trees = [pk.wpt_forward(x, level=config.depth, wavelet=config.wavelet) for x in ms.values.T]
    energy = [pk.energy_fractions(tree, ordering="natural") for tree in trees]
    lo, hi = (0,) * config.depth, (1,) * config.depth
    trend = replace(ms, values=np.column_stack([pk.reconstruct_node(tree, lo) for tree in trees]))
    noise = replace(ms, values=np.column_stack([pk.reconstruct_node(tree, hi) for tree in trees]))
    with w.open("energy.csv") as fh:
        fh.write("series,node,frequency_index,fraction\n")
        for name, fractions in zip(ms.names, energy):
            for path, frac in fractions.items():
                node = "".join(str(b) for b in path)
                fh.write(f"{_quote(name)},{node},{pk.frequency_index(path)},{_fmt(frac)}\n")
    _write_series_table(w, "trend.csv", ms.timestamps, ms.names, trend.values)
    _write_series_table(w, "noise.csv", ms.timestamps, ms.names, noise.values)
    return trend, noise


def _emit_denoise(w: _Writer, ms: ts.MultiSeries, config: PipelineConfig) -> ts.MultiSeries:
    """Write the sweeps and the de-noised table; return the de-noised variant of ``ms``."""
    rule = None if config.rule == "auto" else config.rule
    method = canonical_method(config.method)
    effective_rule = rule if rule is not None else CONVENTIONAL_RULE[method]
    denoised = np.empty_like(ms.values)
    for k, name in enumerate(ms.names):
        x = ms.values[:, k]
        report = method_sweep(
            x,
            rule=rule,
            level=config.denoise_level,
            wavelet=config.wavelet,
            series_name=name,
        )
        with w.open(f"sweep_{_safe_name(name)}.csv") as fh:
            fh.write(f"# {report.convention}\n")
            fh.write("method,rule,thresholds,snr,psnr,identical\n")
            for method_name, rule_name, thr, snr, psnr, identical in report.rows():
                snr_s = "identical" if identical else _fmt(snr)
                psnr_s = "identical" if identical else _fmt(psnr)
                fh.write(f"{method_name},{rule_name},{thr},{snr_s},{psnr_s},{int(identical)}\n")
        denoised[:, k] = _denoise_series(
            x,
            method=method,
            rule=effective_rule,
            level=config.denoise_level,
            wavelet=config.wavelet,
        )
    _write_series_table(w, "denoised.csv", ms.timestamps, ms.names, denoised)
    return replace(ms, values=denoised)


def _emit_forecast(
    w: _Writer, full: ts.MultiSeries, work: ts.MultiSeries, config: PipelineConfig
) -> None:
    h = config.horizon
    names = tuple(map(_quote, work.names))  # as CSV fields
    data = work.values

    arma_models = []
    arma_results = []
    for k in range(work.p):
        model = vm.fit_arma11(data[:, k])
        e = vm.residuals(model, data[:, k])
        arma_models.append(model)
        arma_results.append(vm.forecast(model, data[-1, k], e[-1], h))

    varma_model = None
    varma_result = None
    if work.p >= 2:
        varma_model = vm.fit_varma11(data)
        ev = vm.residuals(varma_model, data)
        varma_result = vm.forecast(varma_model, data[-1], ev[-1], h)
    else:
        print("single series: VARMA comparison skipped")

    with w.open("models.csv") as fh:
        fh.write("model,series,parameter,value\n")
        for name, m in zip(names, arma_models):
            for pname, v in (
                ("mu", m.mu), ("phi", m.phi), ("theta", m.theta), ("sigma2", m.sigma2),
            ):
                fh.write(f"arma,{name},{pname},{_fmt(v)}\n")
            for note in m.warnings:
                fh.write(f"arma,{name},warning,{note}\n")
        if varma_model is not None:
            for i, name in enumerate(names):
                fh.write(f"varma,{name},mu,{_fmt(varma_model.mu[i])}\n")
            for pname, mat in (("phi", varma_model.phi), ("theta", varma_model.theta), ("sigma", varma_model.sigma)):
                for i in range(varma_model.p):
                    for j in range(varma_model.p):
                        fh.write(f"varma,{names[i]},{pname}[{i}.{j}],{_fmt(mat[i, j])}\n")
            for note in varma_model.warnings:
                fh.write(f"varma,,warning,{note}\n")

    with w.open("forecasts.csv") as fh:
        fh.write("model,series,horizon,point,lower,upper\n")
        for name, r in zip(names, arma_results):
            for step in range(h):
                fh.write(
                    f"arma,{name},{step + 1},{_fmt(r.points[step, 0])},"
                    f"{_fmt(r.lower[step, 0])},{_fmt(r.upper[step, 0])}\n"
                )
        if varma_result is not None:
            for k, name in enumerate(names):
                for step in range(h):
                    fh.write(
                        f"varma,{name},{step + 1},{_fmt(varma_result.points[step, k])},"
                        f"{_fmt(varma_result.lower[step, k])},{_fmt(varma_result.upper[step, k])}\n"
                    )

    # realized data after the fit window, if the full file extends past it
    last = work.timestamps[-1]
    future_mask = full.timestamps > last
    available = int(future_mask.sum())
    steps = min(h, available)
    with w.open("comparison.csv") as fh:
        fh.write("series,horizons,arma_mse,varma_mse,winner\n")
        if steps >= 1 and varma_result is not None:
            # the realized rows get the window's log and rescale steps
            actual = full.values[future_mask][:steps]
            if config.log_transform:
                actual = _log(work.names, actual, " after the fit window")
            if config.scale_factors is not None:
                actual = actual * np.asarray(config.scale_factors)
            arma_cut = [
                vm.evaluate_mse(_truncate(r, steps), actual[:, k])
                for k, r in enumerate(arma_results)
            ]
            varma_cut = vm.evaluate_mse(_truncate(varma_result, steps), actual)
            rows = vm.mse_comparison(
                names,
                np.array([e.cum_mse[0] for e in arma_cut]),
                varma_cut.cum_mse,
            )
            for row in rows:
                fh.write(
                    f"{row.name},{steps},{_fmt(row.arma_mse)},{_fmt(row.varma_mse)},{row.winner}\n"
                )
        else:
            print("no realized data beyond the fit window; comparison left empty")


def _truncate(result: vm.ForecastResult, steps: int) -> vm.ForecastResult:
    return vm.ForecastResult(
        horizon=steps,
        points=result.points[:steps],
        cov=result.cov[:steps],
        lower=result.lower[:steps],
        upper=result.upper[:steps],
    )


def _check_settings(config: PipelineConfig) -> None:
    """Refuse a bad setting before any output is written."""
    if config.horizon < 1:
        raise UsageError(f"horizon must be at least 1, got {config.horizon}")
    canonical_method(config.method)
    if config.rule != "auto" and config.rule not in SHRINKAGE_RULES:
        raise ValueError(f"unknown rule {config.rule!r}; have {SHRINKAGE_RULES} or 'auto'")
    pk.lowpass(config.wavelet)
    for key in ("depth", "denoise_level"):
        if getattr(config, key) < 1:
            raise ValueError(f"{key} must be at least 1, got {getattr(config, key)}")


def run(subcommand: str, config: PipelineConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        if subcommand not in ("coherence", "packet", "denoise", "forecast", "pipeline"):
            raise UsageError(f"unknown subcommand {subcommand!r}")
        print(config.echo())
        _check_settings(config)
        w = _Writer(config.out_dir)
        full, work = _load(config)
        target = _target_index(work, config)
        if subcommand in ("coherence", "denoise", "pipeline"):
            _check_file_names(work.names)
        if subcommand == "coherence":
            _emit_coherence(w, work, target)
        elif subcommand == "packet":
            _emit_packet(w, work, config)
        elif subcommand == "denoise":
            _emit_denoise(w, work, config)
        elif subcommand == "forecast":
            _emit_forecast(w, full, work, config)
        else:
            _emit_coherence(w, work, target, prefix="original_")
            trend, noise = _emit_packet(w, work, config)
            denoised = _emit_denoise(w, work, config)
            if work.p >= 2:
                for prefix, variant in (("trend_", trend), ("noise_", noise), ("denoised_", denoised)):
                    _emit_coherence(w, variant, target, prefix=prefix, partials=False)
            _emit_forecast(w, full, work, config)
            w.manifest()
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ts.DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        print("comove: error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        config = build_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ts.DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(args.subcommand, config)


if __name__ == "__main__":
    raise SystemExit(main())
