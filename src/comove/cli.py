"""Command line interface: coherence, packet, denoise, forecast, pipeline.

Configuration comes from an optional flat ``key=value`` file (``--config``),
with command line flags overriding file values. Each setting is declared
once, as a ``PipelineConfig`` field that holds its default, kind, help, flag
and refusals; the parser, the file reader and the checks read those fields.
Flag and file values are parsed alike. The resolved configuration is echoed
to stdout, never into output files, so reruns with the same inputs are
byte-identical. Floats are written with 17 significant digits (round-trip
exact), and series names are quoted the way ``csv`` quotes them.

Exit codes: 0 success, 1 usage error (bad flags, unknown keys or subcommand,
a refused setting value such as an unknown method, a depth below 1, a bad
window date or an empty output directory), 2 data error (missing or
malformed input, analysis preconditions violated).

A run makes every data check, then computes every step, then writes (a
coherence step computes its grids as it writes them, past every check that
could refuse them), so a refusal leaves no ``out_dir`` behind. Output files,
written under ``out_dir``, which is made at the first write:

- coherence: ``mwc_<target>.csv`` plus ``pwc_<target>_<other>.csv`` and
  ``phase_<target>_<other>.csv`` per other series. Grid files are long
  format ``scale,time_index,value,coi_flag`` with coi_flag = 1 outside the
  cone of influence.
- packet: ``energy.csv`` (series, node, frequency_index, fraction),
  ``trend.csv`` and ``noise.csv`` (date plus one column per series: the
  all-lowpass node's reconstruction, and the rest, x - trend).
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
import functools
import itertools
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from datetime import date

import numpy as np

from . import coherence as coh
from . import packets as pk
from . import timeseries as ts
from . import varma as vm
from .cwt import ScaleGrid, cwt_morlet, make_scale_grid
from .denoising import METHODS, SHRINKAGE_RULES, canonical_method, method_sweep, sweep_max_level

class UsageError(Exception):
    """Bad invocation: unknown keys, unparseable or refused values, unknown subcommand."""


@dataclass(frozen=True)
class Kind:
    """How a setting's text is read, and which values a run refuses: text that
    ``parse`` raises on is not ``name``; ``check(key, value)`` raises
    ValueError for a refused value and returns it as the run takes it."""

    name: str
    parse: Callable[[str], object] = str
    check: Callable[[str, object], object] = lambda key, value: value


def _rule(rule: str) -> str:
    if rule != "auto" and rule not in SHRINKAGE_RULES:
        raise ValueError(f"unknown rule {rule!r}; have {SHRINKAGE_RULES} or 'auto'")
    return rule


def _choice(validate: Callable[[str], object]) -> Kind:
    """Text that ``validate`` refuses with a ValueError naming the choices."""
    return Kind("a choice", check=lambda key, value: validate(value))


_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)
TEXT = Kind("text")
OPTIONAL_TEXT = Kind("optional text", lambda text: text or None)
NAMES = Kind("names", lambda text: tuple(v.strip() for v in text.split(",") if v.strip()) or None)
BOOL = Kind("a boolean", lambda text: _BOOLS[text.lower()])
COUNT = Kind("an integer", int, pk._count)
DATE = Kind("a date", OPTIONAL_TEXT.parse, lambda key, value: None if value is None else ts.parse_date(value))


def _setting(default: object, kind: Kind, help: str, flag: str | None = None, required: str | None = None):
    """A ``PipelineConfig`` field for one setting: its default, kind and help
    text, the flag where it is not ``--key-name``, and, for a setting that
    may not be empty, what an empty value lacks."""
    return field(default=default, metadata={"kind": kind, "help": help, "flag": flag, "required": required})


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings shared by every subcommand, one field per setting."""

    input: str = _setting("", TEXT, "input CSV path", required="input file")
    date_column: str = _setting("date", TEXT, "name of the date column")
    value_columns: tuple[str, ...] | None = _setting(
        None, NAMES, "comma-separated column names (default: all non-date columns)")
    start: str | None = _setting(None, DATE, "window start date (inclusive)")
    end: str | None = _setting(None, DATE, "window end date (inclusive)")
    log_transform: bool = _setting(False, BOOL, "analyze log prices instead of levels", flag="--log")
    target: str | None = _setting(None, OPTIONAL_TEXT, "target series name")
    depth: int = _setting(4, COUNT, "packet tree depth")
    method: str = _setting("SURE", _choice(canonical_method), "threshold selection method")
    rule: str = _setting("auto", _choice(_rule), "shrinkage rule (hard/soft/garrote; 'auto' pairs each "
                         "method with its conventional rule)")
    denoise_level: int = _setting(4, COUNT, "de-noising decomposition level")
    wavelet: str = _setting("db3", _choice(pk._filter_bank), "db3 or haar")
    horizon: int = _setting(30, COUNT, "forecast steps, at most the analysis window's rows")
    out_dir: str = _setting("out", TEXT, "output directory, made at the first write", required="output directory")

    def echo(self) -> str:
        def text(v: object) -> object:
            return ",".join(v) if isinstance(v, tuple) else "" if v is None else v
        return "\n".join(f"config {key}={text(getattr(self, key))}" for key in sorted(SETTINGS))


SETTINGS = {f.name: f.metadata for f in fields(PipelineConfig)}
FLAGS = {key: s["flag"] or "--" + key.replace("_", "-") for key, s in SETTINGS.items()}


def _coerce(key: str, raw: str) -> object:
    """One setting from its text, whether it came from a flag or the config file."""
    kind, raw = SETTINGS[key]["kind"], raw.strip()
    try:
        return kind.parse(raw)
    except (ValueError, KeyError):
        raise UsageError(f"config {key} must be {kind.name}, got {raw!r}") from None


def read_config_file(path: str) -> dict[str, object]:
    """Parse a flat UTF-8 key=value file; '#' starts a comment, blank lines and a byte-order mark are skipped."""
    out: dict[str, object] = {}
    for lineno, line in enumerate(ts.read_text(path, "config ").splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    """One flag per setting; every value stays a string for ``_coerce``, and a
    bool setting's flag takes none."""
    parser = _Parser(prog="comove", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, (helptext, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None, help="key=value settings file")
        for key, setting in SETTINGS.items():
            switch = {"action": "store_const", "const": "true"} if setting["kind"] is BOOL else {}
            p.add_argument(FLAGS[key], dest=key, help=setting["help"], **switch)
    return parser


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """File values override defaults; explicit flags override the file."""
    settings: dict[str, object] = {}
    if args.config:
        settings.update(read_config_file(args.config))
    for key in SETTINGS:
        raw = getattr(args, key, None)
        if raw is not None:
            settings[key] = _coerce(key, raw)
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


def _write(out_dir: str, files) -> list[str]:
    """Write each ``(name, lines)`` of ``files`` under ``out_dir``, made at the first; return the names."""
    written: list[str] = []
    for name, lines in files:
        if not written:
            os.makedirs(out_dir, exist_ok=True)
        written.append(name)
        print(f"wrote {os.path.join(out_dir, name)}")
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.writelines(lines)
    return written


def _field(v: object) -> str:
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _table(header: str, rows, comment: str | None = None):
    """The lines of a small CSV table: strings quoted, floats at 17 digits, the rest as ``str``."""
    if comment is not None:
        yield f"# {comment}\n"
    yield header + "\n"
    for row in rows:
        yield ",".join(map(_field, row)) + "\n"


@functools.lru_cache(maxsize=1)
def _row_templates(grid: ScaleGrid) -> tuple[str, ...]:
    """One ``%`` template per scale row of ``grid``: the scale, each
    time_index and coi_flag as literals, and %.17g, which prints what _fmt
    prints, for each value. A run's grids share one plane, so the templates
    are built once, each by one ``%`` over its indices and flags."""
    cell = ",%d,%%.17g,%d\n"
    return tuple(
        (_fmt(s) + cell) * grid.n % tuple(itertools.chain.from_iterable(zip(range(grid.n), row)))
        for s, row in zip(grid.scales.tolist(), grid.outside_coi().tolist())
    )


def _grid(grid: ScaleGrid, values: np.ndarray):
    """The lines of a long-format ``scale,time_index,value,coi_flag`` file of one result grid on ``grid``."""
    yield "scale,time_index,value,coi_flag\n"
    yield from (row % tuple(vals) for row, vals in zip(_row_templates(grid), values.tolist()))


def _series_table(ms: ts.MultiSeries, values: np.ndarray):
    """The lines of a date column and one column of ``values`` per series of ``ms``."""
    return _table("date," + ",".join(map(_quote, ms.names)), zip(ms.timestamps, *values.T.tolist()))


def _log(names: tuple[str, ...], values: np.ndarray, where: str = "") -> np.ndarray:
    bad = np.any(values <= 0.0, axis=0)
    if bad.any():
        raise ts.DataError(f"series {names[int(np.argmax(bad))]!r} has nonpositive values{where}; cannot take logs")
    return np.log(values)


def _load(config: PipelineConfig, start: date | None, end: date | None) -> tuple[ts.MultiSeries, ts.MultiSeries]:
    """Load the input and return (full series, analysis window [start, end])."""
    full = ts.load_csv(config.input, date_column=config.date_column, value_columns=config.value_columns)
    print(full.load_report.summary())
    work = full
    if start is not None or end is not None:
        work = ts.window(work, start or work.timestamps[0].item(), end or work.timestamps[-1].item())
    if config.log_transform:
        work = replace(work, values=_log(work.names, work.values))
    return full, work


@dataclass
class _Run:
    """What a run's steps read; ``series`` holds each variant of the analysis window by name."""

    config: PipelineConfig
    full: ts.MultiSeries
    target: int
    series: dict[str, ts.MultiSeries]


def _packet(run: _Run) -> list[tuple]:
    """The packet tables; adds the (trend, noise = x - trend) variants."""
    ms, config = run.series["original"], run.config
    trees = [_named(f"series {name!r}", pk.wpt_forward, x, level=config.depth, wavelet=config.wavelet)
             for name, x in zip(ms.names, ms.values.T)]
    energy = [_named(f"series {name!r}", pk.energy_fractions, tree) for name, tree in zip(ms.names, trees)]
    trend = np.column_stack([pk.reconstruct_node(tree, (0,) * config.depth) for tree in trees])
    run.series["trend"], run.series["noise"] = replace(ms, values=trend), replace(ms, values=ms.values - trend)
    return [
        ("energy.csv", _table("series,node,frequency_index,fraction", [
            (name, "".join(str(b) for b in path), pk.frequency_index(path), frac)
            for name, fractions in zip(ms.names, energy)
            for path, frac in fractions.items()
        ])),
        *((f"{v}.csv", _series_table(ms, run.series[v].values)) for v in ("trend", "noise")),
    ]


def _denoise(run: _Run) -> list[tuple]:
    """The sweeps and the de-noised table; adds the chosen method's estimates as the de-noised variant."""
    ms, config = run.series["original"], run.config
    rule = None if config.rule == "auto" else config.rule
    row = METHODS.index(canonical_method(config.method))
    reports = [_named(f"series {name!r}", method_sweep, x, rule=rule, level=config.denoise_level,
                      wavelet=config.wavelet) for name, x in zip(ms.names, ms.values.T)]
    denoised = np.column_stack([r.estimates[row] for r in reports])
    run.series["denoised"] = replace(ms, values=denoised)
    return [
        *((f"sweep_{_safe_name(name)}.csv", _table("method,rule,thresholds,snr,psnr,identical", [
            (m, r, thr, *(("identical",) * 2 if same else (snr, psnr)), int(same))
            for m, r, thr, snr, psnr, same in report.rows()
        ], comment=report.convention)) for name, report in zip(ms.names, reports)),
        ("denoised.csv", _series_table(ms, denoised)),
    ]


def _named(who: str, step, *args, **kwargs):
    """``step(*args, **kwargs)``; a refusal it raises is relayed as ``who: message``."""
    try:
        return step(*args, **kwargs)
    except ValueError as exc:
        raise ts.DataError(f"{who}: {exc}") from None


def _fit(work: ts.MultiSeries, cols: list[int], h: int) -> tuple:
    """An ARMA of one column of ``work`` or the VARMA of several: (family, cols, model, forecast)."""
    y = work.values[:, cols]
    if len(cols) == 1:
        family, model = "arma", _named(f"series {work.names[cols[0]]!r}", vm.fit_arma11, y[:, 0])
    else:
        family, model = "varma", _named("joint VARMA fit", vm.fit_varma11, y)
    e = vm.residuals(model, y)
    return family, cols, model, vm.forecast(model, y[-1], e[-1], h)


def _model_rows(model: vm.VarmaModel, names: tuple[str, ...]) -> list[tuple]:
    """models.csv rows after the model column: an ARMA of one series, or a VARMA of all."""
    if model.p == 1:
        params = (("mu", model.mu[0]), ("phi", model.phi[0, 0]), ("theta", model.theta[0, 0]),
                  ("sigma2", model.sigma[0, 0]))
        return [(names[0], *row) for row in (*params, *(("warning", note) for note in model.warnings))]
    mats = (("phi", model.phi), ("theta", model.theta), ("sigma", model.sigma))
    return (
        [(name, "mu", mu) for name, mu in zip(names, model.mu)]
        + [(names[i], f"{pname}[{i}.{j}]", mat[i, j])
           for pname, mat in mats for i in range(model.p) for j in range(model.p)]
        + [("", "warning", note) for note in model.warnings]
    )


def _forecast(run: _Run) -> list[tuple]:
    """Models, forecasts and their comparison with the realized data; rows are made as they are written."""
    config, full, work = run.config, run.full, run.series["original"]
    h, names, p = config.horizon, work.names, work.p
    # one ARMA per series, then the joint VARMA of all
    fits = [_fit(work, [k], h) for k in range(p)]
    if p >= 2:
        fits.append(_fit(work, list(range(p)), h))

    # realized data after the fit window, if the full file extends past it
    future_mask = full.timestamps > work.timestamps[-1]
    steps = min(h, int(future_mask.sum()))
    rows = []
    if steps >= 1 and p >= 2:
        # the realized rows get the window's log step
        actual = full.values[future_mask][:steps]
        if config.log_transform:
            actual = _log(names, actual, " after the fit window")
        # each fit is scored on its own columns: one (steps, p) ARMA stack would
        # sum the squared errors in another order and move last digits
        cum_mse = [vm.evaluate_mse(_truncate(r, steps), actual[:, cols]).cum_mse for _, cols, _, r in fits]
        arma_mse, varma_mse = np.concatenate(cum_mse[:-1]).tolist(), cum_mse[-1].tolist()
        rows = list(zip(names, [steps] * p, arma_mse, varma_mse, vm.mse_comparison(names, arma_mse, varma_mse)))
    if steps < 1:
        print("no realized data beyond the fit window; comparison left empty")
    elif not rows:
        print("comparison left empty: no VARMA is fitted to a single series")
    return [
        ("models.csv", _table("model,series,parameter,value", (
            (family, *row) for family, cols, model, _ in fits
            for row in _model_rows(model, tuple(names[k] for k in cols))
        ))),
        ("forecasts.csv", _table("model,series,horizon,point,lower,upper", (
            (family, names[k], step + 1, r.points[step, i], r.lower[step, i], r.upper[step, i])
            for family, cols, _, r in fits
            for i, k in enumerate(cols)
            for step in range(h)
        ))),
        ("comparison.csv", _table("series,horizons,arma_mse,varma_mse,winner", rows)),
    ]


def _truncate(r: vm.ForecastResult, steps: int) -> vm.ForecastResult:
    return vm.ForecastResult(r.points[:steps], r.lower[:steps], r.upper[:steps])


def _check_settings(config: PipelineConfig) -> tuple[date | None, date | None]:
    """Refuse a bad setting before the input is read, in field order; return
    the window's parsed start and end dates."""
    checked = {}
    for key, setting in SETTINGS.items():
        value = getattr(config, key)
        if setting["required"] and not value:
            raise UsageError(f"no {setting['required']}; pass {FLAGS[key]} or set {key}= in the config")
        try:
            checked[key] = setting["kind"].check(key, value)
        except ValueError as exc:  # ts.DataError is one
            raise UsageError(str(exc)) from None
    start, end = checked["start"], checked["end"]
    if start is not None and end is not None and start > end:
        raise UsageError(f"window start {start} is after end {end}")
    return start, end


def _check_data(needs: set[str], config: PipelineConfig, work: ts.MultiSeries) -> None:
    """Refuse data that the run's steps, needing the checks ``needs``, cannot take."""
    if "file names" in needs:  # two names with one file name part would overwrite each other
        seen: dict[str, str] = {}
        for name in work.names:
            first = seen.setdefault(_safe_name(name), name)
            if first != name:
                raise ts.DataError(f"series {first!r} and {name!r} both map to {_safe_name(name)!r} in file names")
    if "two series" in needs and work.p < 2:
        raise ts.DataError("coherence needs at least two series")
    if "varying series" in needs:  # a constant, judged on its raw values, transforms to the zero field
        constant = work.values.max(axis=0) == work.values.min(axis=0)
        if constant.any():
            raise ts.DataError(f"series {work.names[int(np.argmax(constant))]!r}: constant series has no "
                               "wavelet power; coherence is undefined")
    n = len(work)
    for key, deepest in (("depth", pk.max_level(n)), ("denoise_level", sweep_max_level(n))):
        level = getattr(config, key)
        if key in needs and level > deepest:
            raise ts.DataError(f"{key} {level} exceeds {deepest}, the deepest level the {n} rows of the "
                               "analysis window allow")
    if "fit rows" in needs and n < vm.MIN_OBS:
        raise ts.DataError(f"the forecast fit needs at least {vm.MIN_OBS} rows in the analysis window, got {n}")
    if "fit rows" in needs and config.horizon > n:
        raise ts.DataError(f"horizon {config.horizon} exceeds the {n} rows of the analysis window")


def _coherence(variant: str, prefix: str, partials: bool = True) -> tuple:
    """A coherence step on ``variant``. It computes its grids while writing: the
    data checks refuse all it would, and a run holds one coherence result at a time."""
    def files(run: _Run):
        ms, target = run.series[variant], run.target
        grid = make_scale_grid(len(ms), 1.0)  # one time step per row
        cf = coh.coherence_matrix_field([cwt_morlet(x, 1.0, grid) for x in ms.values.T])
        res = coh.coherence_result(cf, target)
        tname = _safe_name(ms.names[target])
        yield f"mwc_{prefix}{tname}.csv", _grid(grid, res.multiple)
        if partials:
            for j in sorted(res.partial_sq):
                for kind, values in (("pwc", res.partial_sq[j]), ("phase", res.partial_phase[j])):
                    yield f"{kind}_{prefix}{tname}_{_safe_name(ms.names[j])}.csv", _grid(grid, values)
    return files, ("file names", "two series", "varying series")


# each subcommand's help and steps, the steps in file order as (compute, the
# data checks it needs); compute(run) may refuse, and returns its files as
# deferred (name, lines) writes
_FORECAST, _PACKET = (_forecast, ("fit rows",)), (_packet, ("depth",))
_DENOISE = (_denoise, ("file names", "denoise_level"))
_SUBCOMMANDS = {
    "coherence": ("multiple/partial wavelet coherence grids", (_coherence("original", ""),)),
    "packet": ("wavelet packet energy table and trend/noise split", (_PACKET,)),
    "denoise": ("threshold-selection sweep and de-noised series", (_DENOISE,)),
    "forecast": ("ARMA vs VARMA forecasts and MSE comparison", (_FORECAST,)),
    "pipeline": ("everything above in one run", (
        _FORECAST, _coherence("original", "original_"), _PACKET, _DENOISE,
        *(_coherence(v, f"{v}_", partials=False) for v in ("trend", "noise", "denoised")))),
}


def run(subcommand: str, config: PipelineConfig) -> int:
    """Execute one subcommand; returns the process exit code. Every data
    check, then every step's compute, runs before the first write."""
    try:
        if subcommand not in _SUBCOMMANDS:
            raise UsageError(f"unknown subcommand {subcommand!r}")
        print(config.echo())
        start, end = _check_settings(config)
        full, work = _load(config, start, end)
        state = _Run(config, full, 0 if config.target is None else work.index_of(config.target), {"original": work})
        steps = _SUBCOMMANDS[subcommand][1]
        _check_data({need for _, needs in steps for need in needs}, config, work)
        files = [compute(state) for compute, _ in steps]
        written = _write(config.out_dir, itertools.chain.from_iterable(files))
        if subcommand == "pipeline":
            with open(os.path.join(config.out_dir, "manifest.txt"), "w") as fh:
                fh.writelines(n + "\n" for n in sorted(written + ["manifest.txt"]))
        return 0
    except (UsageError, ts.DataError, ValueError, OSError) as exc:
        return _failed(exc)


def _failed(exc: Exception) -> int:
    """Report an error; exit 1 for a usage error, 2 for a data error."""
    print(f"error: {exc}", file=sys.stderr)
    return 1 if isinstance(exc, UsageError) else 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        print("comove: error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        config = build_config(args)
    except (UsageError, ts.DataError) as exc:
        return _failed(exc)
    return run(args.subcommand, config)


if __name__ == "__main__":
    raise SystemExit(main())
