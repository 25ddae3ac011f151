"""End-to-end checks of the command line interface.

Everything but the import probe runs in process through ``main(argv)`` so
exit codes and the stdout/stderr contract are asserted directly, without
subprocess overhead.
"""

import csv
import dataclasses
import datetime
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from comove import cli
from comove import varma as vm
from comove.cli import (
    PipelineConfig,
    UsageError,
    main,
    read_config_file,
)
from comove.cwt import ScaleGrid
from comove.denoising import denoise
from comove.timeseries import load_csv

START = datetime.date(2020, 1, 1)


def date_str(i):
    return str(START + datetime.timedelta(days=i))


def write_input(path, n=150, p=2, seed=0, offset=50.0):
    """CSV with AR(1) columns, strictly positive, one row per day."""
    rng = np.random.default_rng(seed)
    data = np.zeros((n, p))
    for k in range(p):
        e = rng.normal(size=n)
        for t in range(1, n):
            data[t, k] = 0.6 * data[t - 1, k] + e[t]
    data += offset
    names = [chr(ord("a") + k) for k in range(p)]
    with open(path, "w") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for i in range(n):
            row = ",".join(format(v, ".12g") for v in data[i])
            fh.write(f"{date_str(i)},{row}\n")
    return names


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


# ---------------------------------------------------------------- usage


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "subcommand is required" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["coherence", "--bogus-flag", "1"])
    assert exc.value.code == 1


def test_missing_input_flag_is_usage_error(tmp_path, capsys):
    assert main(["coherence", "--out-dir", str(tmp_path / "out")]) == 1
    assert "no input file" in capsys.readouterr().err


def test_missing_input_file_is_data_error(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["coherence", "--input", str(missing), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # made at the first write, not before the load


def test_nonpositive_values_block_log_transform(tmp_path, capsys):
    src = tmp_path / "in.csv"
    write_input(src, n=60, offset=0.0)  # AR(1) around zero crosses it
    code = main(
        ["packet", "--input", str(src), "--log", "--out-dir", str(tmp_path / "out")]
    )
    assert code == 2
    assert "nonpositive" in capsys.readouterr().err


# ---------------------------------------------------------------- config


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "\n"
        "horizon = 7\n"
        "log_transform = yes  # trailing comment\n"
        "value_columns = a , b\n"
    )
    got = read_config_file(str(cfg))
    assert got == {
        "horizon": 7,
        "log_transform": True,
        "value_columns": ("a", "b"),
    }


def test_config_unknown_key_names_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon = 7\nfrobnicate = 3\n")
    with pytest.raises(UsageError, match=":2: unknown config key 'frobnicate'"):
        read_config_file(str(cfg))


def test_config_bad_integer(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depth = four\n")
    with pytest.raises(UsageError, match="must be an integer"):
        read_config_file(str(cfg))


def test_config_log_transform_off_and_non_boolean(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("log_transform = off\n")
    assert read_config_file(str(cfg)) == {"log_transform": False}
    cfg.write_text("log_transform = maybe\n")
    with pytest.raises(UsageError, match="^config log_transform must be a boolean, got 'maybe'$"):
        read_config_file(str(cfg))


def test_config_file_with_a_byte_order_mark(tmp_path, capsys):
    # as Windows editors save UTF-8; the mark once became part of the first key
    src, cfg, out = tmp_path / "in.csv", tmp_path / "run.cfg", tmp_path / "out"
    write_input(src, n=100, p=2, seed=3)
    cfg.write_text(f"input = {src}\nhorizon = 7\n", encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_config_file(str(cfg)) == {"input": str(src), "horizon": 7}
    assert main(["coherence", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "mwc_a.csv").is_file()


def test_unreadable_config_is_data_error(tmp_path, capsys):
    cfg, out = tmp_path / "missing.cfg", tmp_path / "out"
    assert main(["packet", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot open config {cfg}: ")
    assert not out.exists()


def test_config_that_is_not_utf8_is_data_error(tmp_path, capsys):
    cfg, out = tmp_path / "latin.cfg", tmp_path / "out"
    cfg.write_text("input = café.csv\n", encoding="latin-1")
    assert main(["coherence", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: not UTF-8 text (byte 0xe9: ")
    assert not out.exists()


def test_config_line_without_equals_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon = 7\nhorizon 8\n")
    assert main(["packet", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got 'horizon 8'\n"


# one raw value per field, in the form a flag or a config line takes it
_RAW = {
    "input": "prices.csv",
    "date_column": "day",
    "value_columns": "a, b",
    "start": "2020-01-01",
    "end": "2020-12-31",
    "log_transform": "true",
    "target": "b",
    "depth": "3",
    "method": "GCV",
    "rule": "soft",
    "denoise_level": "5",
    "wavelet": "haar",
    "horizon": "7",
    "out_dir": "results",
}


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(PipelineConfig)])
def test_flag_and_config_file_parse_alike(tmp_path, key):
    raw = _RAW[key]
    flag = ["--log"] if key == "log_transform" else ["--" + key.replace("_", "-"), raw]
    from_flag = cli.build_config(cli._build_parser().parse_args(["packet", *flag]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {raw}\n")
    from_file = cli.build_config(cli._build_parser().parse_args(["packet", "--config", str(cfg)]))
    assert from_flag == from_file != PipelineConfig()


def test_bad_integer_flag_reads_like_the_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depth = x\n")
    assert main(["packet", "--config", str(cfg)]) == 1
    assert main(["packet", "--depth", "x"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: config depth must be an integer, got 'x'"] * 2


def test_config_unknown_key_via_main_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 3\n")
    assert main(["packet", "--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path, capsys):
    src = tmp_path / "in.csv"
    write_input(src, n=64)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {src}\nhorizon = 7\ndepth = 3\n")
    code = main(
        ["packet", "--config", str(cfg), "--depth", "2", "--out-dir", str(tmp_path / "o")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "config depth=2" in out  # flag wins
    assert "config horizon=7" in out  # file survives where no flag given


def test_every_setting_has_a_kind_a_help_and_a_flag():
    for key, setting in cli.SETTINGS.items():
        assert isinstance(setting["kind"], cli.Kind) and setting["kind"].name, key
        assert setting["help"].strip(), key
        value = [] if setting["kind"] is cli.BOOL else ["x"]
        assert getattr(cli._build_parser().parse_args(["packet", cli.FLAGS[key], *value]), key) is not None
    # only log_transform's flag is not derived from its key
    assert {k for k, f in cli.FLAGS.items() if f != "--" + k.replace("_", "-")} == {"log_transform"}


def test_readme_settings_list_matches_the_settings():
    # README's settings table: one row per setting, key then flag, both ways
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `(--[\w-]+)` \|", readme, flags=re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert dict(rows) == cli.FLAGS


@pytest.mark.parametrize("how", ["flag", "config"])
def test_empty_out_dir_is_refused_before_the_input_is_read(tmp_path, monkeypatch, capsys, how):
    # an empty out_dir once ran the whole analysis, then failed at the first write
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("out_dir =\n")
    where = ["--out-dir", ""] if how == "flag" else ["--config", str(cfg)]
    assert main(["packet", "--input", str(tmp_path / "missing.csv"), *where]) == 1
    assert capsys.readouterr().err == "error: no output directory; pass --out-dir or set out_dir= in the config\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_config_echo_is_sorted_and_complete(capsys):
    cfg = PipelineConfig(input="x.csv")
    lines = cfg.echo().splitlines()
    keys = [ln.split(" ", 1)[1].split("=", 1)[0] for ln in lines]
    assert keys == sorted(keys)
    assert all(ln.startswith("config ") for ln in lines)
    assert "config input=x.csv" in lines


# ---------------------------------------------------------------- coherence


@pytest.fixture
def coherence_out(tmp_path):
    src = tmp_path / "in.csv"
    write_input(src, n=96, p=3)
    out = tmp_path / "out"
    code = main(
        ["coherence", "--input", str(src), "--target", "b", "--out-dir", str(out)]
    )
    assert code == 0
    return out


def test_coherence_writes_target_grids(coherence_out):
    names = sorted(p.name for p in coherence_out.iterdir())
    assert names == [
        "mwc_b.csv",
        "phase_b_a.csv",
        "phase_b_c.csv",
        "pwc_b_a.csv",
        "pwc_b_c.csv",
    ]


def test_coherence_reads_a_csv_with_a_byte_order_mark(tmp_path, capsys):
    # as spreadsheet "CSV UTF-8" exports write it; the mark once hid the date column
    plain, marked, out = tmp_path / "plain.csv", tmp_path / "marked.csv", tmp_path / "out"
    write_input(plain, n=100, p=2, seed=3)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    got, want = load_csv(str(marked)), load_csv(str(plain))
    assert got.names == want.names == ("a", "b")
    assert np.array_equal(got.values, want.values) and np.array_equal(got.timestamps, want.timestamps)
    assert main(["coherence", "--input", str(marked), "--out-dir", str(out)]) == 0
    assert (out / "mwc_a.csv").is_file()


def test_csv_that_is_not_utf8_is_data_error(tmp_path, capsys):
    src, out = tmp_path / "latin.csv", tmp_path / "out"
    write_input(src, n=100, p=1, seed=3)
    src.write_text(src.read_text().replace("date,a", "date,café", 1), encoding="latin-1")
    assert main(["coherence", "--input", str(src), "--out-dir", str(out)]) == 2
    assert f"error: {src}: not UTF-8 text (byte 0xe9: " in capsys.readouterr().err
    assert not out.exists()


def test_csv_field_over_the_csv_module_limit_is_data_error(tmp_path, capsys):
    src, out = tmp_path / "big.csv", tmp_path / "out"
    write_input(src, n=100, p=2, seed=3)
    lines = src.read_text().splitlines()
    lines[1] += "x" * 200_000  # the first record's last field
    src.write_text("\n".join(lines) + "\n")
    assert main(["coherence", "--input", str(src), "--out-dir", str(out)]) == 2
    assert f"error: {src}: line 2: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()


def test_bad_date_in_the_csv_names_its_file_and_line(tmp_path, capsys):
    src, out = tmp_path / "baddate.csv", tmp_path / "out"
    src.write_text("date,a\n2020-01-01,1\nbad,2\n")
    assert main(["coherence", "--input", str(src), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {src}: line 3: unparseable date: 'bad'"
    assert not out.exists()


def test_grid_file_structure(coherence_out):
    lines = read_lines(coherence_out / "mwc_b.csv")
    assert lines[0] == "scale,time_index,value,coi_flag"
    flags = set()
    for ln in lines[1:]:
        scale, t, value, flag = ln.split(",")
        assert flag in ("0", "1")
        flags.add(flag)
        v = float(value)
        assert 0.0 <= v <= 1.0 + 1e-9
        assert int(t) >= 0
    assert flags == {"0", "1"}  # both inside and outside the cone occur


def test_grid_floats_round_trip(coherence_out):
    for ln in read_lines(coherence_out / "pwc_b_a.csv")[1:]:
        scale, _, value, _ = ln.split(",")
        assert format(float(scale), ".17g") == scale
        assert format(float(value), ".17g") == value


def _fstring_grid(scales, grid, coi_outside):
    """The per-cell f-string writer that cli._grid must match byte for byte."""
    out = ["scale,time_index,value,coi_flag\n"]
    for j, s in enumerate(scales):
        srow = format(float(s), ".17g")
        for t in range(grid.shape[1]):
            out.append(f"{srow},{t},{format(float(grid[j, t]), '.17g')},{1 if coi_outside[j, t] else 0}\n")
    return "".join(out)


def _fstring_series_table(stamps, columns):
    out = ["date," + ",".join(columns) + "\n"]
    for i, stamp in enumerate(stamps):
        out.append(str(stamp) + "," + ",".join(format(float(c[i]), ".17g") for c in columns.values()) + "\n")
    return "".join(out)


def test_writers_match_fstring_bytes(tmp_path, capsys):
    rng = np.random.default_rng(8)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1e16, -1.5, 1 / 3]
    values = rng.normal(scale=1e3, size=(4, 25))
    values.flat[: len(special)] = special
    values[3, -len(special) :] = special
    plane = ScaleGrid(n=25, dt=1.0, s0=1e-5, dj=9.7, num_scales=4)  # scales 1e-05 to about 5.7e3
    coi = plane.outside_coi()
    assert coi.any() and not coi.all()
    stamps = np.arange("2020-01-01", "2020-01-26", dtype="datetime64[D]")
    columns = {"a": values[0], "b-c": values[3]}
    header = "date," + ",".join(map(cli._quote, columns))
    cli._write(str(tmp_path), [
        ("grid.csv", cli._grid(plane, values)),
        ("table.csv", cli._table(header, list(zip(stamps, *(c.tolist() for c in columns.values()))))),
    ])
    assert (tmp_path / "grid.csv").read_bytes() == _fstring_grid(plane.scales, values, coi).encode()
    assert (tmp_path / "table.csv").read_bytes() == _fstring_series_table(stamps, columns).encode()


def test_table_writer_fields(tmp_path, capsys):
    # strings as csv quotes them, floats at 17 digits (numpy scalars too), the rest via str
    rows = [("a,b", 0.1, 3, 'x"y'), ("", np.float64(-0.0), True, "1e-3")]
    assert cli._write(str(tmp_path / "out"), [("t.csv", cli._table("s,f,i,t", rows, comment="note"))]) == ["t.csv"]
    assert (tmp_path / "out" / "t.csv").read_text() == (
        '# note\ns,f,i,t\n"a,b",0.10000000000000001,3,"x""y"\n,-0,True,1e-3\n'
    )


def _fresh_python(code, *args):
    """Run ``python -c code args`` on this checkout's package, in a fresh
    interpreter: this one has imported scipy for the oracles."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


def test_import_loads_no_scipy():
    done = _fresh_python("import sys, comove, comove.cli; print(*sys.modules, sep='\\n')")
    assert done.returncode == 0, done.stderr
    assert not [m for m in done.stdout.split() if m.split(".")[0] == "scipy"]


def test_pipeline_runs_with_scipy_unimportable(tmp_path):
    src = tmp_path / "in.csv"
    write_input(src, n=200, p=3, seed=18)
    out = tmp_path / "out"
    block = "import sys; sys.modules['scipy'] = None; from comove.cli import main; sys.exit(main(sys.argv[1:]))"
    done = _fresh_python(block, "pipeline", "--input", str(src), "--end", date_str(180), "--out-dir", str(out))
    assert done.returncode == 0, done.stderr
    assert (out / "comparison.csv").exists() and list(out.glob("mwc_noise_*.csv"))


@pytest.mark.parametrize("subcommand", ["coherence", "pipeline"])
def test_coherence_rejects_single_series(tmp_path, capsys, subcommand):
    src = tmp_path / "in.csv"
    write_input(src, n=96, p=2)
    out = tmp_path / "o"
    code = main([subcommand, "--input", str(src), "--value-columns", "a", "--out-dir", str(out)])
    assert code == 2
    assert "at least two series" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- packet


def test_packet_outputs(tmp_path):
    src = tmp_path / "in.csv"
    write_input(src, n=96, p=2)
    out = tmp_path / "out"
    assert main(["packet", "--input", str(src), "--depth", "3", "--out-dir", str(out)]) == 0

    energy = read_lines(out / "energy.csv")
    assert energy[0] == "series,node,frequency_index,fraction"
    rows = [ln.split(",") for ln in energy[1:]]
    assert len(rows) == 2 * 8  # two series, eight depth-3 nodes
    for series in ("a", "b"):
        total = sum(float(r[3]) for r in rows if r[0] == series)
        assert total == pytest.approx(1.0, abs=1e-9)
    by_node = {r[1]: int(r[2]) for r in rows if r[0] == "a"}
    assert by_node["000"] == 0
    assert by_node["100"] == 7  # frequency ordering, not binary value

    trend = read_lines(out / "trend.csv")
    assert trend[0] == "date,a,b"
    assert len(trend) == 97
    assert trend[1].split(",")[0] == date_str(0)
    assert (out / "noise.csv").exists()


def test_packet_trend_and_noise_add_up_to_the_window(tmp_path):
    # the noise variant is x - trend, not one highpass node
    src = tmp_path / "in.csv"
    write_input(src, n=120, p=2, seed=5)
    out = tmp_path / "out"
    argv = ["packet", "--input", str(src), "--start", date_str(10), "--end", date_str(105),
            "--depth", "3", "--out-dir", str(out)]
    assert main(argv) == 0
    x = np.loadtxt(src, delimiter=",", skiprows=1, usecols=(1, 2))[10:106]
    trend, noise = (np.loadtxt(out / name, delimiter=",", skiprows=1, usecols=(1, 2))
                    for name in ("trend.csv", "noise.csv"))
    np.testing.assert_allclose(trend + noise, x, rtol=0, atol=4 * np.finfo(float).eps * np.abs(x).max())


# ---------------------------------------------------------------- denoise


def test_denoise_outputs(tmp_path):
    src = tmp_path / "in.csv"
    write_input(src, n=128, p=2)
    out = tmp_path / "out"
    assert main(["denoise", "--input", str(src), "--out-dir", str(out)]) == 0

    sweep = read_lines(out / "sweep_a.csv")
    assert sweep[0].startswith("# ")  # scoring convention comment
    assert sweep[1] == "method,rule,thresholds,snr,psnr,identical"
    assert len(sweep) == 2 + 9  # nine methods scored
    for ln in sweep[2:]:
        parts = ln.split(",")
        assert parts[1] in ("hard", "soft", "garrote")
        assert parts[-1] in ("0", "1")

    denoised = read_lines(out / "denoised.csv")
    assert denoised[0] == "date,a,b"
    assert len(denoised) == 129
    assert (out / "sweep_b.csv").exists()


def test_denoised_column_is_the_chosen_method(tmp_path):
    src = tmp_path / "in.csv"
    write_input(src, n=128, p=2)
    out = tmp_path / "out"
    assert main(["denoise", "--input", str(src), "--method", "VisuShrink", "--out-dir", str(out)]) == 0
    x = np.loadtxt(src, delimiter=",", skiprows=1, usecols=(1, 2))
    got = np.loadtxt(out / "denoised.csv", delimiter=",", skiprows=1, usecols=(1, 2))
    assert np.array_equal(got, np.column_stack([denoise(c, "VisuShrink", "soft") for c in x.T]))


def test_denoise_unknown_method(tmp_path, capsys):
    src = tmp_path / "in.csv"
    write_input(src, n=64)
    code = main(
        ["denoise", "--input", str(src), "--method", "magic", "--out-dir", str(tmp_path / "o")]
    )
    assert code == 1
    assert "magic" in capsys.readouterr().err


# ---------------------------------------------------------------- forecast


def test_forecast_outputs(tmp_path):
    src = tmp_path / "in.csv"
    write_input(src, n=150, p=2, seed=3)
    out = tmp_path / "out"
    code = main(
        [
            "forecast",
            "--input",
            str(src),
            "--end",
            date_str(119),
            "--horizon",
            "5",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0

    models = read_lines(out / "models.csv")
    assert models[0] == "model,series,parameter,value"
    kinds = {ln.split(",")[0] for ln in models[1:]}
    assert kinds == {"arma", "varma"}
    arma_params = [ln.split(",")[2] for ln in models[1:] if ln.startswith("arma,a,")]
    assert arma_params[:4] == ["mu", "phi", "theta", "sigma2"]

    fcs = read_lines(out / "forecasts.csv")
    assert fcs[0] == "model,series,horizon,point,lower,upper"
    rows = [ln.split(",") for ln in fcs[1:]]
    assert len(rows) == 2 * 2 * 5  # two models, two series, five horizons
    for r in rows:
        point, lower, upper = float(r[3]), float(r[4]), float(r[5])
        assert lower < point < upper

    comp = read_lines(out / "comparison.csv")
    assert comp[0] == "series,horizons,arma_mse,varma_mse,winner"
    assert len(comp) == 3
    for ln in comp[1:]:
        parts = ln.split(",")
        assert parts[1] == "5"
        assert parts[4] in ("ARMA", "VARMA", "tie")


def test_comparison_is_scored_by_evaluate_mse(tmp_path):
    # ARMA is scored per series, VARMA over all, each to the last bit
    src = tmp_path / "in.csv"
    write_input(src, n=150, p=2, seed=3)
    out = tmp_path / "out"
    argv = ["forecast", "--input", str(src), "--end", date_str(119), "--horizon", "5", "--out-dir", str(out)]
    assert main(argv) == 0
    data = np.loadtxt(src, delimiter=",", skiprows=1, usecols=(1, 2))
    window, actual = data[:120], data[120:125]

    def cum_mse(fit, y, realized):
        model = fit(y)
        e = vm.residuals(model, y)
        return list(vm.evaluate_mse(vm.forecast(model, y[-1], e[-1], 5), realized).cum_mse)

    comp = [ln.split(",") for ln in read_lines(out / "comparison.csv")[1:]]
    arma = [cum_mse(vm.fit_arma11, window[:, k], actual[:, k])[0] for k in range(2)]
    assert [float(r[2]) for r in comp] == arma
    assert [float(r[3]) for r in comp] == cum_mse(vm.fit_varma11, window, actual)


def _set_value(path, row, col, value):
    """Overwrite one value of a write_input CSV (row counts data rows from 0)."""
    lines = read_lines(path)
    cells = lines[row + 1].split(",")
    cells[col + 1] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_forecast_comparison_scores_transformed_rows(tmp_path):
    # the realized rows must get the fit window's log step
    src = tmp_path / "in.csv"
    write_input(src, n=400, p=2, seed=9, offset=100.0)
    _set_value(src, 390, 1, "-1")  # past the horizon: never logged
    out = tmp_path / "out"
    argv = ["forecast", "--input", str(src), "--end", date_str(369), "--horizon", "5",
            "--out-dir", str(out), "--log"]
    assert main(argv) == 0

    actual = np.log(np.loadtxt(src, delimiter=",", skiprows=1, usecols=(1, 2))[370:375])
    points = {}
    for ln in read_lines(out / "forecasts.csv")[1:]:
        model, series, _, point, _, _ = ln.split(",")
        points.setdefault((model, series), []).append(float(point))
    comp = [ln.split(",") for ln in read_lines(out / "comparison.csv")[1:]]
    assert [r[0] for r in comp] == ["a", "b"]
    for k, row in enumerate(comp):
        for model, got in (("arma", row[2]), ("varma", row[3])):
            want = np.mean((np.array(points[model, row[0]]) - actual[:, k]) ** 2)
            assert float(got) == pytest.approx(want, rel=1e-12)


def test_forecast_log_rejects_nonpositive_realized_row(tmp_path, capsys):
    src = tmp_path / "in.csv"
    write_input(src, n=400, p=2, seed=9, offset=100.0)
    _set_value(src, 372, 1, "0")
    argv = ["forecast", "--input", str(src), "--end", date_str(369), "--horizon", "5",
            "--out-dir", str(tmp_path / "out"), "--log"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "series 'b' has nonpositive values after the fit window" in err
    assert not (tmp_path / "out").exists()


def test_forecast_single_series_skips_comparison(tmp_path, capsys):
    src = tmp_path / "in.csv"
    write_input(src, n=150, p=2, seed=3)
    out = tmp_path / "out"
    code = main(
        [
            "forecast",
            "--input",
            str(src),
            "--value-columns",
            "a",
            "--horizon",
            "5",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    # the empty comparison is explained once, by the missing realized data
    assert "VARMA" not in printed
    assert "no realized data beyond the fit window" in printed
    models = read_lines(out / "models.csv")
    assert all(ln.startswith("arma,") for ln in models[1:])
    assert read_lines(out / "comparison.csv") == ["series,horizons,arma_mse,varma_mse,winner"]


def test_forecast_single_series_names_why_comparison_is_empty(tmp_path, capsys):
    # rows exist past the fit window; the comparison is empty for want of a VARMA
    src = tmp_path / "in.csv"
    write_input(src, n=300, p=1, seed=4)
    out = tmp_path / "out"
    argv = ["forecast", "--input", str(src), "--end", date_str(199), "--horizon", "5",
            "--out-dir", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "no realized data" not in printed
    assert "comparison left empty: no VARMA is fitted to a single series" in printed
    assert read_lines(out / "comparison.csv") == ["series,horizons,arma_mse,varma_mse,winner"]


def test_forecast_bad_horizon(tmp_path, capsys):
    src = tmp_path / "in.csv"
    write_input(src, n=150)
    code = main(
        ["forecast", "--input", str(src), "--horizon", "0", "--out-dir", str(tmp_path / "o")]
    )
    assert code == 1
    assert "horizon must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------- pipeline


def run_pipeline(tmp_path, out_name):
    src = tmp_path / "in.csv"
    if not src.exists():
        write_input(src, n=150, p=2, seed=5)
    out = tmp_path / out_name
    argv = [
        "pipeline",
        "--input",
        str(src),
        "--end",
        date_str(119),
        "--depth",
        "3",
        "--denoise-level",
        "3",
        "--horizon",
        "5",
        "--out-dir",
        str(out),
    ]
    assert main(argv) == 0
    return out


def test_pipeline_manifest_matches_directory(tmp_path):
    out = run_pipeline(tmp_path, "out")
    manifest = read_lines(out / "manifest.txt")
    assert manifest == sorted(manifest)
    assert "manifest.txt" in manifest
    assert set(manifest) == {p.name for p in out.iterdir()}
    # original grids carry partials, variant grids do not
    assert "mwc_original_a.csv" in manifest
    assert "pwc_original_a_b.csv" in manifest
    assert "mwc_trend_a.csv" in manifest
    assert "mwc_noise_a.csv" in manifest
    assert "mwc_denoised_a.csv" in manifest
    assert not any(n.startswith("pwc_trend_") for n in manifest)
    assert "forecasts.csv" in manifest
    assert "denoised.csv" in manifest
    assert "energy.csv" in manifest


def test_pipeline_coherence_runs_share_one_set_of_row_templates(tmp_path, capsys):
    # the original and the three variant runs build value-equal grids, so the
    # six grid files (mwc, pwc and phase of the original; three mwc) reuse one entry
    write_input(tmp_path / "in.csv", n=150, p=2, seed=1)
    cli._row_templates.cache_clear()
    run_pipeline(tmp_path, "out")
    info = cli._row_templates.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def _write_named_input(path, names, seed):
    write_input(path, n=150, p=len(names), seed=seed)
    lines = read_lines(path)
    lines[0] = "date," + ",".join(names)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("subcommand", ["coherence", "denoise", "pipeline"])
def test_colliding_file_names_are_data_error(tmp_path, capsys, subcommand):
    # "a b" and "a_b" both become "a_b" in file names
    src = tmp_path / "in.csv"
    _write_named_input(src, ["t", "a b", "a_b"], seed=11)
    out = tmp_path / "out"
    assert main([subcommand, "--input", str(src), "--out-dir", str(out)]) == 2
    assert "series 'a b' and 'a_b' both map to 'a_b'" in capsys.readouterr().err
    assert not out.exists()


def test_packet_accepts_names_that_share_a_file_name(tmp_path):
    # packet writes no per-series file, so the names cannot collide
    src = tmp_path / "in.csv"
    _write_named_input(src, ["t", "a b", "a_b"], seed=11)
    out = tmp_path / "out"
    assert main(["packet", "--input", str(src), "--depth", "3", "--out-dir", str(out)]) == 0
    assert read_lines(out / "trend.csv")[0] == "date,t,a b,a_b"


def test_pipeline_reruns_byte_identical(tmp_path):
    first = run_pipeline(tmp_path, "out1")
    second = run_pipeline(tmp_path, "out2")
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def write_random_walks(path, n=1461, p=4, seed=0, period=64.0):
    """CSV of p price-like random walks; the first two share one cycle."""
    rng = np.random.default_rng(seed)
    logp = np.log(100.0) + np.cumsum(0.01 * rng.standard_normal((n, p)), axis=0)
    logp[:, :2] += 0.04 * np.sin(2.0 * np.pi * np.arange(n) / period)[:, None]
    data = np.exp(logp)
    with open(path, "w") as fh:
        fh.write("date," + ",".join(f"s{k}" for k in range(p)) + "\n")
        for i in range(n):
            fh.write(f"{date_str(i)}," + ",".join(format(v, ".12g") for v in data[i]) + "\n")


def test_pipeline_random_walks_stay_in_unit_interval(tmp_path):
    # tiny smoothed auto-spectra of the packet noise variant once went
    # negative under a running-sum scale boxcar, pushing |rho| past 1
    src = tmp_path / "walks.csv"
    write_random_walks(src, seed=1)
    out = tmp_path / "out"
    argv = ["pipeline", "--input", str(src), "--target", "s0",
            "--end", date_str(1430), "--out-dir", str(out)]
    assert main(argv) == 0
    grids = sorted(out.glob("mwc_*.csv")) + sorted(out.glob("pwc_*.csv"))
    assert grids
    for path in grids:
        values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=2)
        assert values.min() >= 0.0 and values.max() <= 1.0, path.name


def test_names_with_commas_are_quoted(tmp_path):
    src = tmp_path / "in.csv"
    write_input(src, n=200, p=3, seed=12)
    lines = read_lines(src)
    lines[0] = 'date,"a,b",c,d'
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--end", date_str(180), "--out-dir", str(out)]) == 0
    assert read_lines(out / "trend.csv")[0] == 'date,"a,b",c,d'
    trend = load_csv(str(out / "trend.csv"))
    assert trend.names == ("a,b", "c", "d") and len(trend) == 181
    for name in ("energy.csv", "models.csv", "forecasts.csv", "comparison.csv"):
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), name
        assert {row[rows[0].index("series")] for row in rows[1:]} >= {"a,b", "c", "d"}, name


@pytest.mark.parametrize(
    "subcommand,flags,code",
    [
        ("pipeline", ["--horizon", "0"], 1),
        ("forecast", ["--horizon", "-3"], 1),
        ("coherence", ["--method", "bogus"], 1),
        ("pipeline", ["--rule", "bogus"], 1),
        ("pipeline", ["--wavelet", "nope"], 1),
        ("packet", ["--depth", "0"], 1),
        ("denoise", ["--denoise-level", "0"], 1),
    ],
    ids=["horizon", "negative-horizon", "method", "rule", "wavelet", "depth", "denoise-level"],
)
def test_bad_settings_refused_before_output(tmp_path, capsys, subcommand, flags, code):
    src = tmp_path / "in.csv"
    write_input(src, n=150)
    out = tmp_path / "out"
    assert main([subcommand, "--input", str(src), *flags, "--out-dir", str(out)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--start", "notadate"], "error: unparseable date: 'notadate'"),
        (["--start", "2016-01-10", "--end", "2016-01-01"], "error: window start 2016-01-10 is after end 2016-01-01"),
    ],
    ids=["unparseable", "reversed"],
)
def test_bad_window_refused_before_the_input_is_read(tmp_path, capsys, flags, message):
    # the input does not exist, so a check made after loading would exit 2
    out = tmp_path / "out"
    assert main(["forecast", "--input", str(tmp_path / "missing.csv"), *flags, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand,rows,flags,message",
    [
        ("pipeline", 100, ["--target", "a"],
         "denoise_level 4 exceeds 3, the deepest level the 100 rows of the analysis window allow"),
        ("pipeline", 45, ["--denoise-level", "2"], "the forecast fit needs at least 50 rows in the analysis window, got 45"),
        ("packet", 20, ["--depth", "5"],
         "depth 5 exceeds 4, the deepest level the 20 rows of the analysis window allow"),
        ("packet", 300, ["--depth", "40"],
         "depth 40 exceeds 8, the deepest level the 300 rows of the analysis window allow"),
        # a huge level is compared with the deepest one, so 2**level is never built
        ("packet", 300, ["--depth", "20000"],
         "depth 20000 exceeds 8, the deepest level the 300 rows of the analysis window allow"),
        ("denoise", 300, ["--denoise-level", "20000"],
         "denoise_level 20000 exceeds 5, the deepest level the 300 rows of the analysis window allow"),
        ("denoise", 300, ["--denoise-level", "14001"],
         "denoise_level 14001 exceeds 5, the deepest level the 300 rows of the analysis window allow"),
        ("pipeline", 300, ["--depth", "4000000000"],
         "depth 4000000000 exceeds 8, the deepest level the 300 rows of the analysis window allow"),
        # a horizon past the window is refused before the forecast allocates a row per step
        ("forecast", 300, ["--horizon", "301"], "horizon 301 exceeds the 300 rows of the analysis window"),
        ("pipeline", 300, ["--horizon", "301"], "horizon 301 exceeds the 300 rows of the analysis window"),
        ("forecast", 300, ["--end", date_str(199), "--horizon", "201"],
         "horizon 201 exceeds the 200 rows of the analysis window"),
    ],
    ids=["sweep", "fit", "depth", "depth-40", "depth-20000", "denoise-level-20000", "denoise-level-14001", "depth-4e9",
         "horizon", "horizon-pipeline", "horizon-window"],
)
def test_short_window_refused_before_output(tmp_path, capsys, subcommand, rows, flags, message):
    src = tmp_path / "in.csv"
    write_input(src, n=rows, p=2)
    out = tmp_path / "out"
    assert main([subcommand, "--input", str(src), *flags, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "column,message",
    [
        ("copy", "regressors are numerically collinear"),
        ("constant", "constant series has no wavelet power; coherence is undefined"),
    ],
    ids=["copy", "constant"],
)
def test_pipeline_refuses_unfittable_series_before_output(tmp_path, capsys, column, message):
    # only the fits can tell a copy, before the pipeline's first write; the
    # coherence steps' data check refuses a constant before any step runs
    src = tmp_path / "in.csv"
    write_input(src, n=150, p=2, seed=6)
    lines = read_lines(src)
    extra = [ln.split(",")[1] if column == "copy" else "7.5" for ln in lines[1:]]
    src.write_text("\n".join([lines[0] + ",c"] + [ln + "," + v for ln, v in zip(lines[1:], extra)]) + "\n")
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--end", date_str(119), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    # the refusal names the series, or the joint fit where each series fits alone
    assert ("joint VARMA fit: " if column == "copy" else "series 'c': ") in err
    assert not out.exists()


@pytest.mark.parametrize("columns", [[], ["--value-columns", "c"]], ids=["beside-ar", "alone"])
def test_forecast_refuses_a_pure_sine_column(tmp_path, capsys, columns):
    # its own lags predict a sine exactly, so the univariate fit refuses it,
    # also where no joint fit runs
    src = tmp_path / "in.csv"
    write_input(src, n=150, p=2, seed=6)
    lines = read_lines(src)
    sine = [format(np.sin(2 * np.pi * t / 37), ".12g") for t in range(len(lines) - 1)]
    src.write_text("\n".join([lines[0] + ",c"] + [ln + "," + v for ln, v in zip(lines[1:], sine)]) + "\n")
    out = tmp_path / "out"
    argv = ["forecast", "--input", str(src), *columns, "--end", date_str(119), "--horizon", "5"]
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert "regressors are numerically collinear" in capsys.readouterr().err
    assert not out.exists()


def _zero_column_input(path):
    """Column a is 100 + N(0, 1) and column b is 0.0, over 300 days."""
    a = 100.0 + np.random.default_rng(25).standard_normal(300)
    path.write_text("date,a,b\n" + "".join(f"{date_str(i)},{v:.12g},0.0\n" for i, v in enumerate(a)))


@pytest.mark.parametrize(
    "subcommand,message",
    [
        ("denoise", "all detail coefficients are zero; nothing to threshold"),
        ("packet", "signal has zero energy; fractions undefined"),
        ("pipeline", "constant series has no wavelet power; coherence is undefined"),
        ("coherence", "constant series has no wavelet power; coherence is undefined"),
    ],
    ids=["denoise", "packet", "pipeline", "coherence"],
)
def test_a_refused_later_series_leaves_no_output(tmp_path, capsys, subcommand, message):
    # series a is swept or split before b is refused, or the coherence steps'
    # data check refuses b first; nothing is written
    src = tmp_path / "in.csv"
    _zero_column_input(src)
    out = tmp_path / "out"
    assert main([subcommand, "--input", str(src), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: series 'b': {message}\n"
    assert not out.exists()


def test_coherence_judges_a_constant_column_on_the_analysis_window(tmp_path, capsys):
    # b varies over the file but not over the window, so its transform there
    # is the zero field and its grids would read all zero
    src, out = tmp_path / "in.csv", tmp_path / "out"
    write_input(src, n=150, p=2, seed=6)
    lines = read_lines(src)
    src.write_text("\n".join([lines[0]] + [ln.rsplit(",", 1)[0] + (",7.5" if i < 120 else ",8.5")
                                           for i, ln in enumerate(lines[1:])]) + "\n")
    assert main(["coherence", "--input", str(src), "--end", date_str(119), "--out-dir", str(out)]) == 2
    want = "series 'b': constant series has no wavelet power; coherence is undefined"
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not out.exists()


_REFUSING_CALLS = {
    "fit_arma11": (vm, "series 'a'"),
    "fit_varma11": (vm, "joint VARMA fit"),
    "method_sweep": (cli, "series 'a'"),
    "wpt_forward": (cli.pk, "series 'a'"),
    "energy_fractions": (cli.pk, "series 'a'"),
}


@pytest.mark.parametrize(
    "subcommand,call",
    [("forecast", "fit_arma11"), ("forecast", "fit_varma11"), ("denoise", "method_sweep"),
     ("packet", "wpt_forward"), ("packet", "energy_fractions"), *(("pipeline", call) for call in _REFUSING_CALLS)],
)
def test_a_refusal_at_any_compute_step_writes_nothing(tmp_path, capsys, monkeypatch, subcommand, call):
    # every step computes before the first write, whatever the step order
    module, step = _REFUSING_CALLS[call]

    def refuse(*args, **kwargs):
        raise ValueError("injected refusal")

    monkeypatch.setattr(module, call, refuse)
    src, out = tmp_path / "in.csv", tmp_path / "out"
    write_input(src, n=300, p=3, seed=4)
    assert main([subcommand, "--input", str(src), "--end", date_str(269), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {step}: injected refusal\n"
    assert not out.exists()


def test_pipeline_reports_every_write_after_its_other_output(tmp_path, capsys):
    # no realized rows after the window, so the forecast step says why its
    # comparison is empty; it says so before the first write
    src, out = tmp_path / "in.csv", tmp_path / "out"
    write_input(src, n=200, p=3, seed=4)
    assert main(["pipeline", "--input", str(src), "--out-dir", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("wrote "))
    assert all(ln.startswith("wrote ") for ln in lines[first:])
    assert "no realized data beyond the fit window; comparison left empty" in lines[:first]
    grids = [f"{kind}_original_a_{b}.csv" for b in "bc" for kind in ("pwc", "phase")]
    assert [os.path.basename(ln) for ln in lines[first:]] == [
        "models.csv", "forecasts.csv", "comparison.csv", "mwc_original_a.csv", *grids,
        "energy.csv", "trend.csv", "noise.csv", "sweep_a.csv", "sweep_b.csv", "sweep_c.csv", "denoised.csv",
        "mwc_trend_a.csv", "mwc_noise_a.csv", "mwc_denoised_a.csv",
    ]


# ---------------------------------------------------------------- contract suite

# the VarmaModel record's own refusals, which a fit must never hand on
_VARMA_INVARIANT = re.compile(
    r"(mu|phi|theta|sigma) (must be \(|contains non-finite)|unit circle|sigma must be|sigma's diagonal")


def _contract_column(kind, rng, n, earlier):
    """One column of a contract panel; ``earlier`` holds the columns before
    it, and a copy with none to copy is a plain random walk."""
    t = np.arange(n)
    walk = 100.0 + np.cumsum(rng.standard_normal(n))
    if kind == "noise":
        return rng.standard_normal(n)
    if kind == "sine":
        return np.sin(2.0 * np.pi * t / rng.uniform(8.0, 64.0)) + 1e-6 * rng.standard_normal(n)
    if kind == "steps":
        return np.repeat(rng.normal(0.0, 5.0, 6), -(-n // 6))[:n]
    if kind == "trend":
        return 0.05 * t + rng.standard_normal(n)
    if kind == "units":
        return walk * 10.0 ** rng.integers(-8, 9)
    if kind == "copy" and earlier:
        pick = earlier[rng.integers(len(earlier))]
        return pick + 1e-9 * np.abs(pick).max() * rng.standard_normal(n)
    if kind == "spike":
        walk[rng.integers(n)] += 1e3
    elif kind == "flat":
        lo = rng.integers(n // 2)
        walk[lo : lo + n // 3] = walk[lo]
    return walk


@pytest.mark.parametrize("draw", range(40))
def test_pipeline_contract_on_seeded_panels(tmp_path, capsys, draw):
    # a seeded mix of awkward columns: the run succeeds or refuses the data
    # cleanly, and what it writes is finite with coherences in [0, 1]
    rng = np.random.default_rng([40, draw])
    n, p = int(rng.integers(150, 301)), int(rng.integers(2, 6))
    kinds = ("walk", "noise", "sine", "steps", "spike", "flat", "trend", "units", "copy")
    columns = []
    for kind in rng.choice(kinds, p):
        columns.append(_contract_column(kind, rng, n, columns))
    src, out = tmp_path / "in.csv", tmp_path / "out"
    rows = np.column_stack(columns).tolist()
    src.write_text("date," + ",".join(f"s{k}" for k in range(p)) + "\n"
                   + "".join(f"{date_str(i)}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(rows)))
    config = PipelineConfig(input=str(src), out_dir=str(out), end=date_str(n - 31))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run("pipeline", config)
    err = capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code in (0, 2), err
    if code == 2:
        assert not out.exists()
        assert not _VARMA_INVARIANT.search(err), err
        return
    for path in out.iterdir():
        text = path.read_text()
        lower = text.lower()  # the regex matches only where this holds "nan" or "inf"
        if "nan" in lower or "inf" in lower:
            assert not re.search(r"(?i)\b(nan|inf)\b", text), path.name
    for path in [*out.glob("mwc_*.csv"), *out.glob("pwc_*.csv")]:
        values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=2)
        assert values.min() >= 0.0 and values.max() <= 1.0, path.name
