import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multiprobe.cli as cli
import multiprobe.imagespace as imagespace
from multiprobe.bounds import evaluate_points
from multiprobe.channels import ChannelFamily
from multiprobe.cli import COLUMNS, build_parser, build_space, main, parse_grid, UsageError
from multiprobe.presets import PRESET_NAMES, resolve_probe
from multiprobe.probes import Partition, format_partition


def run_cli(args):
    return main(args)


def test_usage_error_exit_code(capsys):
    assert run_cli(["bounds"]) == 1  # missing required flags
    err = capsys.readouterr().err
    assert "usage error" in err


def test_unknown_probe_is_usage_error(capsys):
    code = run_cli(
        ["bounds", "--family", "pure-loss", "--m", "2", "--eta-b", "0.9",
         "--eta-t", "0.8", "--ns", "1", "--copies", "1", "--probe", "bogus"]
    )
    assert code == 1


def test_identical_channels_rejected(capsys):
    code = run_cli(
        ["bounds", "--family", "pure-loss", "--m", "2", "--eta-b", "0.9",
         "--eta-t", "0.9", "--ns", "1", "--copies", "1", "--probe", "classical"]
    )
    assert code == 1
    assert "identical" in capsys.readouterr().err


def test_copies_and_mbar_are_exclusive(capsys):
    code = run_cli(
        ["bounds", "--family", "pure-loss", "--m", "2", "--eta-b", "0.9",
         "--eta-t", "0.8", "--ns", "1", "--copies", "2", "--mbar", "4",
         "--probe", "classical"]
    )
    assert code == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_parse_grid_forms():
    name, vals = parse_grid("mbar=10:30:3")
    assert name == "mbar"
    assert vals == [10.0, 20.0, 30.0]
    name, vals = parse_grid("ns=log:1:100:3")
    assert vals == pytest.approx([1.0, 10.0, 100.0])
    with pytest.raises(UsageError):
        parse_grid("bogus=1:2:3")
    with pytest.raises(UsageError):
        parse_grid("mbar=1:2")


@pytest.mark.parametrize("spec", [
    "copies=1:3:2:9", "mbar=log:1:10:2:3", "ns=log:0:3:2", "copies=log:-1:3:2", "copies=log:1:inf:2",
    "ns=nan:3:2", "ns=1:-inf:2",
])
def test_bad_grid_specs_are_usage_errors(tmp_path, capsys, spec):
    # trailing fields were dropped, and log endpoints reached np.geomspace,
    # which raised or warned (a traceback under -W error)
    out = tmp_path / "o.csv"
    assert run_cli(CONFIG_FLAGS + ["--grid", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and repr(spec) in err
    assert not out.exists()


def test_bounds_csv_deterministic(tmp_path):
    args = [
        "bounds", "--family", "additive-noise", "--m", "3",
        "--nu-b", "0.02", "--nu-t", "0.01", "--ns", "20",
        "--probe", "tmsv-disjoint", "--space", "cpf:1",
        "--grid", "copies=1:5:3", "--against-classical",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# multiprobe bounds columns-v1")
    assert lines[1].split(",")[0] == "family"
    assert len(lines) == 2 + 3


def test_bounds_rows_follow_the_grid_order(tmp_path):
    # mbar is the outer axis, so each ns configuration's rows are spread
    # over the output, although configurations are evaluated together
    want = [(mbar, ns) for mbar in (5.0, 10.0, 15.0) for ns in (10.0, 20.0)]
    for probe in ("tmsv-disjoint", "nn", "classical"):  # counting, mutual, classical
        args = [
            "bounds", "--family", "pure-loss", "--m", "3",
            "--eta-b", "0.99", "--eta-t", "0.97", "--probe", probe,
            "--grid", "mbar=5:15:3", "--grid", "ns=10:20:2", "--against-classical",
        ]
        out = tmp_path / f"{probe}.csv"
        assert run_cli(args + ["--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()[1:]
        cols = header.split(",")
        got = [(float(r.split(",")[cols.index("m_bar")]), float(r.split(",")[cols.index("ns")]))
               for r in rows]
        assert got == pytest.approx(want, rel=1e-12)


def test_bounds_jsonl_and_delta_pairing(tmp_path):
    out = tmp_path / "rows.jsonl"
    code = run_cli(
        ["bounds", "--family", "pure-loss", "--m", "4",
         "--eta-b", "0.99", "--eta-t", "0.97", "--ns", "20",
         "--probe", "nn", "--space", "cpf:1", "--mbar", "30",
         "--against-classical", "--format", "jsonl", "--out", str(out)]
    )
    assert code == 0
    row = json.loads(out.read_text().splitlines()[0])
    assert row["m_bar"] == 30.0
    assert row["copies"] == 15.0  # nearest-neighbour ring halves M
    assert row["rounds"] == 2
    assert row["delta_perr"] is not None


def _cell(value) -> str:
    """The CSV text of a JSONL value: repr of a float, str of an int or a
    string, the empty string for null."""
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("argv", [
    # shaped like the advantage surfaces: a channel grid times a log energy grid
    ["bounds", "--family", "pure-loss", "--m", "6", "--eta-t", "1.0", "--space", "cpf:1", "--probe", "nn",
     "--mbar", "100", "--grid", "eta-b=0.95:0.999:4", "--grid", "ns=log:1:50:3", "--against-classical"],
    # the copy axis outermost: rows are evaluated configuration by configuration, written in grid order
    ["bounds", "--family", "additive-noise", "--m", "6", "--nu-b", "0.02", "--nu-t", "0.01", "--space", "cpf:1",
     "--probe", "idler-full", "--grid", "mbar=10:500:3", "--grid", "ns=log:1:50:2", "--against-classical"],
    ["census", "--family", "pure-loss", "--m", "6", "--eta-b", "0.99", "--eta-t", "0.97", "--ns", "20",
     "--probe", "nn", "--copies", "1"],
], ids=["surface", "copies-outermost", "census"])
def test_csv_cells_are_the_jsonl_values(tmp_path, argv):
    csv_out, jsonl_out = tmp_path / "rows.csv", tmp_path / "rows.jsonl"
    assert run_cli(argv + ["--out", str(csv_out)]) == 0
    assert run_cli(argv + ["--format", "jsonl", "--out", str(jsonl_out)]) == 0
    header, *lines = csv_out.read_text().splitlines()[1:]
    rows = [json.loads(line) for line in jsonl_out.read_text().splitlines()]
    assert len(lines) == len(rows) > 2
    for line, row in zip(lines, rows):
        assert list(row) == header.split(",")
        assert line.split(",") == [_cell(value) for value in row.values()]
    if argv[0] == "bounds":
        # in grid order, the first grid outermost
        grids = [parse_grid(argv[i + 1]) for i, flag in enumerate(argv) if flag == "--grid"]
        names = [{"mbar": "m_bar"}.get(name, name.replace("-", "_")) for name, _ in grids]
        got = [tuple(row[name] for name in names) for row in rows]
        assert got == pytest.approx(list(itertools.product(*(values for _, values in grids))), rel=1e-12)


def test_writer_formats_each_column_value_by_value_where_equal_values_differ(tmp_path):
    # dict and set keys and list.count take -0.0 for 0.0 and 1 for 1.0 and
    # True, so a cache of each column's texts must not merge them
    columns = {
        "mixed": [0.0, -0.0, None, 1, "a", 1.0, True, 0],
        "floats": [0.5, -0.0, 0.5, 0.0, -0.0, 0.5, 2.0, 0.5],
        "repeats": [0.5, 2.0, 0.5, 0.5, 2.0, 0.5, 0.5, 0.5],
        "ints": [1, 2, 1, 1, 2, 1, 1, 0],
        "none": [None] * 8,
        "constant": -0.0,
        "label": "a",
        "empty": None,
    }
    out = tmp_path / "rows.csv"
    cli._write_rows(columns, 8, argparse.Namespace(out=str(out), format="csv"), "# comment")
    comment, header, *lines = out.read_text().splitlines()
    assert (comment, header) == ("# comment", ",".join(columns))
    want = [[_cell(col if not isinstance(col, list) else col[r]) for col in columns.values()] for r in range(8)]
    assert [line.split(",") for line in lines] == want
    assert [line.split(",")[:2] for line in lines[:4]] == [["0.0", "0.5"], ["-0.0", "-0.0"], ["", "0.5"], ["1", "0.0"]]
    assert lines[6].split(",")[:4] == ["True", "2.0", "0.5", "1"]
    out = tmp_path / "rows.jsonl"
    cli._write_rows(columns, 8, argparse.Namespace(out=str(out), format="jsonl"), "# comment")
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [list(map(_cell, row.values())) for row in rows] == want


def test_config_file_wins_with_warning(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ns": 20.0}))
    out = tmp_path / "o.csv"
    code = run_cli(
        ["bounds", "--family", "pure-loss", "--m", "2", "--eta-b", "0.99",
         "--eta-t", "0.97", "--ns", "5", "--copies", "1",
         "--probe", "classical", "--config", str(cfg), "--out", str(out)]
    )
    assert code == 0
    assert "overrides --ns=5.0 with 20.0" in capsys.readouterr().err
    assert ",20.0,20.5," in out.read_text().splitlines()[2]


CONFIG_FLAGS = ["bounds", "--family", "pure-loss", "--m", "2", "--eta-b", "0.99",
                "--eta-t", "0.97", "--copies", "1", "--probe", "classical"]


@pytest.mark.parametrize("spec", ["cpf:x", "cpf:", "cpf:1,2", "bcpf:", "bcpf:1,,2", "bcpf:1,x"])
def test_bad_space_specs_are_usage_errors(tmp_path, capsys, spec):
    # the message names the spec, not only the token that int() refused
    out = tmp_path / "o.csv"
    assert run_cli(CONFIG_FLAGS + ["--ns", "1", "--space", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and repr(spec) in err
    assert not out.exists()


def test_config_warns_only_about_flags_given(tmp_path, capsys):
    # --grid and --format keep their parser defaults ([] and "csv"), so the
    # file overrides nothing the command line said
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": ["ns=5:15:2"], "format": "jsonl"}))
    out = tmp_path / "o.jsonl"
    assert run_cli(CONFIG_FLAGS + ["--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert [json.loads(line)["ns"] for line in out.read_text().splitlines()] == [5.0, 15.0]


@pytest.mark.parametrize("data", [{"func": "x"}, {"command": "census"}, {"config": "other.json"},
                                  {"help": True}, {"scale": "full"}, {"bogus": 1}, ["ns", 20.0]],
                         ids=["func", "command", "config", "help", "validate-option", "unknown", "list"])
def test_config_sets_only_the_subcommand_options(tmp_path, capsys, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert run_cli(CONFIG_FLAGS + ["--ns", "5", "--config", str(cfg)]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    ({"m": "3"}, "'m' must be an integer"),
    ({"space": 5}, "'space' must be a string"),
    ({"ns": "abc"}, "'ns' must be a number"),
    ({"copies": True}, "'copies' must be a number"),
    ({"family": "bogus"}, "is not one of"),
    ({"format": "xml"}, "is not one of"),
    ({"grid": ["ns=5:15:2", 3]}, "'grid' must be a string"),
    ({"against-classical": "yes"}, "true or false"),
], ids=["int-as-string", "space-as-number", "float-as-string", "float-as-bool", "family-choice",
        "format-choice", "grid-item", "switch"])
def test_config_values_take_the_option_types(tmp_path, capsys, data, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert run_cli(CONFIG_FLAGS + ["--ns", "5", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert "Traceback" not in err


def test_config_values_convert_as_the_command_line_does(tmp_path, capsys):
    # an integer for a float option, one grid spec for the repeatable
    # --grid, null to unset an option that is unset by default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"copies": None, "mbar": 2, "grid": "ns=5:15:2", "m": 3}))
    out = tmp_path / "o.jsonl"
    assert run_cli(CONFIG_FLAGS + ["--format", "jsonl", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["m"], r["ns"], r["m_bar"]) for r in rows] == [(3, 5.0, 2.0), (3, 15.0, 2.0)]
    assert "overrides --m=2 with 3" in capsys.readouterr().err


# the guaranteed advantage compares the probe with the classical probe at the same energy
ENERGY_FLAGS = ["bounds", "--family", "pure-loss", "--eta-b", "0.99", "--eta-t", "0.97", "--m", "4",
                "--space", "cpf:1", "--probe", "tmsv-disjoint", "--copies", "10", "--against-classical"]


@pytest.mark.parametrize("energy", [["--ns", "5", "--mu", "3"], ["--ns", "5", "--grid", "mu=3:5.5:2"]],
                         ids=["flags", "grid"])
def test_inconsistent_ns_and_mu_are_usage_errors(capsys, energy):
    assert run_cli(ENERGY_FLAGS + energy) == 1
    assert "disagree" in capsys.readouterr().err


@pytest.mark.parametrize("ns, mu", [("5", "5.5"), ("0.1", "0.6"), ("0.13039117352056168", "0.6303911735205617")],
                         ids=["exact", "decimal", "one-ulp"])
def test_consistent_ns_and_mu_are_accepted(tmp_path, ns, mu):
    # in the last case ns + 0.5 rounds one unit in the last place below mu
    out = tmp_path / "both.csv"
    assert run_cli(ENERGY_FLAGS + ["--ns", ns, "--mu", mu, "--out", str(out)]) == 0
    row = dict(zip(COLUMNS, out.read_text().splitlines()[2].split(",")))
    assert (row["ns"], row["mu"]) == (repr(float(ns)), repr(float(mu)))


CENSUS_FLAGS = ["census", "--family", "pure-loss", "--m", "4", "--eta-b", "0.99", "--eta-t", "0.97",
                "--probe", "tmsv-disjoint"]


@pytest.mark.parametrize("argv", [
    CENSUS_FLAGS + ["--ns", "20", "--copies", "-1"],
    CENSUS_FLAGS + ["--ns", "20", "--copies", "nan"],
    CENSUS_FLAGS + ["--ns", "20", "--copies", "0.5"],
    CENSUS_FLAGS + ["--ns", "nan"],
    ENERGY_FLAGS[:-3] + ["--ns", "20", "--copies", "nan"],
    ENERGY_FLAGS[:-3] + ["--ns", "20", "--mbar", "inf"],
    ENERGY_FLAGS + ["--ns", "nan"],
    ENERGY_FLAGS + ["--ns", "inf"],
    ENERGY_FLAGS + ["--mu", "inf"],
], ids=["census-negative-copies", "census-nan-copies", "census-half-copy", "census-nan-ns", "nan-copies",
        "inf-mbar", "nan-ns", "inf-ns", "inf-mu"])
def test_bad_copy_numbers_and_energies_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert run_cli(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "copy number must be finite" in err or "energies must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--family", "additive-noise", "--nu-b", "inf", "--nu-t", "0.01", "--probe", "nn"],
    ["--family", "thermal", "--tau-b", "0.9", "--eps-b", "inf", "--tau-t", "0.8", "--eps-t", "1.0",
     "--probe", "nn"],
    ["--family", "additive-noise", "--nu-b", "nan", "--nu-t", "0.01", "--probe", "classical"],
], ids=["additive-inf-nn", "thermal-inf-nn", "additive-nan-classical"])
def test_non_finite_channel_parameters_are_config_errors(tmp_path, capsys, argv):
    # a NaN noise would give the classical probe lower = upper = 0.0
    out = tmp_path / "o.csv"
    flags = ["--m", "3", "--space", "full", "--ns", "5", "--copies", "3", "--out", str(out)]
    assert run_cli(["bounds"] + argv + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flags", "config"])
def test_repeated_grid_axis_is_usage_error(tmp_path, capsys, source):
    grids = ["ns=1:2:2", "ns=3:4:2"]
    out = tmp_path / "o.csv"
    if source == "flags":
        extra = [arg for grid in grids for arg in ("--grid", grid)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": grids}))
        extra = ["--config", str(cfg)]
    assert run_cli(CONFIG_FLAGS + extra + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "'ns'" in err
    assert not out.exists()


def test_space_from_file(tmp_path):
    space_file = tmp_path / "space.txt"
    space_file.write_text("# three-pattern custom space\n000 0.5\n011 0.25\n101 0.25\n")
    out = tmp_path / "o.csv"
    code = run_cli(
        ["bounds", "--family", "pure-loss", "--m", "3", "--eta-b", "0.99",
         "--eta-t", "0.97", "--ns", "20", "--copies", "2",
         "--probe", "part:12|3*", "--space", f"file:{space_file}",
         "--out", str(out)]
    )
    assert code == 0
    row = out.read_text().splitlines()[2]
    assert ",blocks," in row  # non-uniform priors fall back to the dense path


def test_space_file_wrong_length_is_usage_error(tmp_path):
    space_file = tmp_path / "space.txt"
    space_file.write_text("0000\n1111\n")
    code = run_cli(
        ["bounds", "--family", "pure-loss", "--m", "3", "--eta-b", "0.99",
         "--eta-t", "0.97", "--ns", "20", "--copies", "2",
         "--probe", "classical", "--space", f"file:{space_file}"]
    )
    assert code == 1


@pytest.mark.parametrize("weights", ["0 0 0", "0.5 nan 0.25"])
def test_space_file_bad_weights_is_config_error(tmp_path, capsys, weights):
    space_file = tmp_path / "space.txt"
    space_file.write_text("".join(f"{p} {w}\n" for p, w in zip(("000", "011", "101"), weights.split())))
    code = run_cli(
        ["bounds", "--family", "pure-loss", "--m", "3", "--eta-b", "0.99",
         "--eta-t", "0.97", "--ns", "20", "--copies", "2",
         "--probe", "classical", "--space", f"file:{space_file}"]
    )
    assert code == 1
    assert "pattern weights" in capsys.readouterr().err


def test_space_file_line_with_extra_tokens_is_config_error(tmp_path, capsys):
    space_file = tmp_path / "space.txt"
    space_file.write_text("000 0.5 junk\n011 0.25\n101 0.25\n")
    code = run_cli(
        ["bounds", "--family", "pure-loss", "--m", "3", "--eta-b", "0.99",
         "--eta-t", "0.97", "--ns", "20", "--copies", "2",
         "--probe", "classical", "--space", f"file:{space_file}"]
    )
    assert code == 1
    assert "more than a pattern and a weight" in capsys.readouterr().err


def test_thermal_family_bounds_run(tmp_path):
    out = tmp_path / "thermal.csv"
    code = run_cli(
        ["bounds", "--family", "thermal", "--m", "2", "--tau-b", "0.8",
         "--eps-b", "0.6", "--tau-t", "0.8", "--eps-t", "1.2", "--ns", "5",
         "--copies", "2", "--probe", "part:12", "--out", str(out)]
    )
    assert code == 0
    row = out.read_text().splitlines()[2].split(",")
    assert row[0] == "thermal"


def test_thermal_against_classical_is_rejected(capsys):
    code = run_cli(
        ["bounds", "--family", "thermal", "--m", "2", "--tau-b", "0.8",
         "--eps-b", "0.6", "--tau-t", "0.8", "--eps-t", "1.2", "--ns", "5",
         "--copies", "2", "--probe", "part:12", "--against-classical"]
    )
    assert code == 1
    assert "classical benchmark" in capsys.readouterr().err


def test_numeric_error_exit_three(monkeypatch, capsys):
    import multiprobe.cli as cli
    from multiprobe.errors import NumericError

    def boom(configs):
        raise NumericError("synthetic instability")

    monkeypatch.setattr(cli, "_eval_group", boom)
    code = run_cli(
        ["bounds", "--family", "pure-loss", "--m", "2", "--eta-b", "0.9",
         "--eta-t", "0.8", "--ns", "1", "--copies", "1", "--probe", "classical"]
    )
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


def test_validate_smoke_exit_zero(capsys):
    assert run_cli(["validate", "--scale", "smoke"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines:
        rec = json.loads(line)
        assert rec["passed"] is True


def test_python_m_multiprobe_runs_uninstalled(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "multiprobe", "validate", "--scale", "smoke"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert run_cli(["validate", "--scale", "smoke"]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert all(json.loads(line)["passed"] is True for line in proc.stdout.splitlines())


def test_cli_import_leaves_scipy_out():
    # the CLI runs on numpy alone
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, multiprobe.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_census_leaves_numpy_ma_out():
    # importing numpy.ma costs every census process about 11 ms
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    script = """
import contextlib, io, sys
from multiprobe.cli import main
for probe in ("nn", "tmsv-disjoint", "classical"):
    for space in ("full", "cpf:2"):
        argv = ["census", "--family", "pure-loss", "--m", "6", "--eta-b", "0.99", "--eta-t", "0.97",
                "--ns", "20", "--space", space, "--probe", probe, "--copies", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_validate_failure_exit_two(monkeypatch, capsys):
    import multiprobe.validate as validate

    def broken(scale):
        from multiprobe.validate import SuiteResult

        return SuiteResult("broken", False, 1.0, 1e-10, 1)

    monkeypatch.setattr(validate, "_SUITES", [broken])
    assert run_cli(["validate", "--scale", "smoke"]) == 2


def test_one_channel_block_beyond_nine_takes_a_trailing_comma(tmp_path, capsys):
    # "10*" reads as channels 1 and 0; the formatted "10,*" as channel 10
    partition = Partition(10, ((0, 1), (2, 3), (4, 5), (6, 7), (8,), (9,)), (0, 0, 0, 0, 1, 1))
    literal = format_partition(partition)
    assert literal == "1,2|3,4|5,6|7,8|9*|10,*"
    args = ["bounds", "--family", "pure-loss", "--m", "10", "--eta-b", "0.99", "--eta-t", "0.97",
            "--ns", "20", "--copies", "2", "--space", "cpf:1", "--probe"]
    out = tmp_path / "rows.csv"
    assert run_cli(args + [f"part:{literal}", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3
    assert run_cli(args + ["part:1,2|3,4|5,6|7,8|9*|10*"]) == 1
    err = capsys.readouterr().err
    assert "1-based" in err
    assert "block '10*' reads as channels [1, 0]" in err  # the offending block
    assert "'10,*'" in err  # and the spelling that means channel 10


def test_census_tmsv_m2(tmp_path):
    out = tmp_path / "census.csv"
    code = run_cli(
        ["census", "--family", "pure-loss", "--m", "2", "--eta-b", "0.99",
         "--eta-t", "0.97", "--ns", "20", "--probe", "part:12",
         "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().splitlines()[2:]
    mults = sorted(int(r.split(",")[1]) for r in rows)
    assert mults == [2, 2, 4, 4]
    assert all(0 < float(r.split(",")[0]) < 1 for r in rows)


def test_census_classical_buckets(tmp_path):
    out = tmp_path / "census.csv"
    code = run_cli(
        ["census", "--family", "additive-noise", "--m", "3", "--nu-b", "0.02",
         "--nu-t", "0.01", "--probe", "classical", "--ns", "1", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 3  # distances 1, 2, 3
    assert sum(int(r.split(",")[1]) for r in rows) == 8 * 8 - 8


def test_census_nn_support_wider_than_disjoint(tmp_path):
    # matched average channel use: disjoint probes at 2 copies, ring at 1
    def buckets(probe, copies):
        out = tmp_path / f"{probe}.csv"
        code = run_cli(
            ["census", "--family", "pure-loss", "--m", "10", "--eta-b", "0.99",
             "--eta-t", "0.97", "--ns", "20", "--space", "full",
             "--probe", probe, "--copies", str(copies), "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()[2:]
        assert sum(int(r.split(",")[1]) for r in rows) == 1024 * 1024 - 1024
        return len(rows)

    ghz = buckets("full-ghz", 2.0)
    disjoint = buckets("tmsv-disjoint", 2.0)
    ring = buckets("nn", 1.0)
    assert ring > ghz and ring > disjoint


@pytest.mark.parametrize("probe", ["tmsv-disjoint", "nn"])  # counting DP, frontier DP
def test_census_at_the_pattern_length_cap_counts_every_ordered_pair_once(tmp_path, probe):
    # m = 24, the longest pattern: 2^24 (2^24 - 1) ordered pairs, where the
    # int64 pair counts of the DPs are largest
    out = tmp_path / "census.csv"
    code = run_cli(
        ["census", "--family", "pure-loss", "--m", "24", "--eta-b", "0.99",
         "--eta-t", "0.97", "--ns", "20", "--space", "full",
         "--probe", probe, "--out", str(out)]
    )
    assert code == 0
    mults = [int(r.split(",")[1]) for r in out.read_text().splitlines()[2:]]
    assert min(mults) > 0
    assert sum(mults) == 2**24 * (2**24 - 1) == 281_474_959_933_440


def test_cli_import_leaves_process_pool_out():
    # no command runs a process pool, which is slow to import
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, multiprobe.cli; "
         "print(sorted(m for m in sys.modules if m in ('concurrent.futures.process', 'multiprocessing')))"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("space", ["full", "cpf:3", "bcpf:1,2"])
def test_classed_routes_never_enumerate_patterns(monkeypatch, tmp_path, space):
    def refuse(m, k):
        raise RuntimeError("patterns enumerated")

    monkeypatch.setattr(imagespace, "_cpf_patterns", refuse)
    m, mu = 7, 20.5
    families = [ChannelFamily.pure_loss(0.99, 0.97), ChannelFamily.additive(0.02, 0.01)]
    for probe in PRESET_NAMES:
        spec = resolve_probe(probe, m, mu)
        tables = evaluate_points(build_space(space, m), [(spec, f, mu - 0.5) for f in families])
        assert {t.method for t in tables} <= {"counting", "mutual", "classical"}
        flags = ["--family", "pure-loss", "--m", str(m), "--eta-b", "0.99", "--eta-t", "0.97",
                 "--ns", "20", "--space", space, "--probe", probe]
        assert main(["census", *flags, "--out", str(tmp_path / "census.csv")]) == 0
        assert main(["bounds", *flags, "--mbar", "100", "--against-classical",
                     "--out", str(tmp_path / "bounds.csv")]) == 0


def test_reused_parser_leaks_nothing_between_runs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": ["ns=5:15:2"], "ns": 7.0}))
    flags = ["bounds", "--family", "pure-loss", "--m", "3", "--eta-b", "0.99",
             "--eta-t", "0.97", "--ns", "20", "--probe", "tmsv-disjoint"]
    runs = [
        flags + ["--grid", "copies=1:5:3"],
        flags + ["--grid", "mbar=2:6:2", "--grid", "ns=1:3:2"],
        flags + ["--copies", "2", "--config", str(cfg)],
    ]

    def run_all(tag, fresh):
        seen = []
        for i, argv in enumerate(runs):
            if fresh:
                build_parser.cache_clear()
            out = tmp_path / f"{tag}{i}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            seen.append((out.read_bytes(), capsys.readouterr().err))
        return seen

    build_parser.cache_clear()
    parser = build_parser()
    reused = run_all("reused", fresh=False)
    assert build_parser() is parser
    assert parser.parse_args(flags).grid == []  # the append default stays empty
    assert reused == run_all("fresh", fresh=True)
    assert "overrides" in reused[2][1]


def test_every_space_past_24_channels_exits_1_with_one_message(tmp_path, capsys):
    space_file = tmp_path / "long.txt"
    space_file.write_text("1" + "0" * 24 + "\n" + "0" * 24 + "1\n")
    errors = set()
    for space in ("full", "cpf:1", f"file:{space_file}"):
        code = run_cli(["bounds", "--family", "pure-loss", "--m", "25", "--eta-b", "0.99",
                        "--eta-t", "0.97", "--ns", "20", "--copies", "1", "--space", space])
        assert code == 1
        errors.add(capsys.readouterr().err)
    assert errors == {"error: image spaces are capped at m=24, got m=25\n"}
