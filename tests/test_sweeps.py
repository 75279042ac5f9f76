"""Sweeps evaluate every grid point of a structure in one batch; each row
must be the bytes that a run of that point alone writes."""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import multiprobe.bounds as bounds_mod
from multiprobe.cli import main, parse_grid

FAMILIES = {
    "pure-loss": (["--eta-t", "0.97"], "eta-b", (0.9, 0.999)),
    "additive-noise": (["--nu-t", "0.01"], "nu-b", (0.012, 0.1)),
    "thermal": (["--eps-b", "0.7", "--tau-t", "0.8", "--eps-t", "1.2"], "tau-b", (0.85, 0.95)),
}
# the part: literal gets overlapping blocks 12|234|45..m
PROBES = ("nn", "idler-full", "tmsv-disjoint", "full-ghz", "classical", "part:12|234|")
SPACES = ("full", "cpf:1", "cpf:3", "bcpf:1,3", "file")


def _write_space(path, m):
    # every pattern with one or two targets, plus the empty one, weighted
    pats = [p for p in itertools.product((0, 1), repeat=m) if sum(p) <= 2]
    path.write_text("".join("".join(map(str, p)) + f" {1.0 + sum(p)!r}\n" for p in pats))
    return f"file:{path}"


def _run(argv, out):
    """Exit code and output bytes of one bounds run, its block fidelities
    computed afresh."""
    bounds_mod._BLOCK_FID_CACHE.clear()
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes() if code == 0 else None


def _assert_rows_equal_per_point_runs(tmp_path, base, grids):
    """``base`` swept over ``grids`` writes, row by row, what one run per
    grid point with the grid values as flags writes."""
    code, swept = _run(base + [arg for g in grids for arg in ("--grid", g)], tmp_path / "grid.csv")
    assert code == 0
    header = swept.splitlines(keepends=True)[:2]
    axes = [parse_grid(g) for g in grids]
    rows = []
    for point in itertools.product(*(values for _, values in axes)):
        flags = [arg for (name, _), v in zip(axes, point) for arg in (f"--{name}", repr(v))]
        code, alone = _run(base + flags, tmp_path / "point.csv")
        assert code == 0
        lines = alone.splitlines(keepends=True)
        assert lines[:2] == header
        rows += lines[2:]
    assert swept.splitlines(keepends=True)[2:] == rows


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    probe=st.sampled_from(PROBES),
    space=st.sampled_from(SPACES),
    m=st.integers(7, 8),
    lo=st.floats(0.0, 0.4),
    hi=st.floats(0.6, 1.0),
    ns_steps=st.integers(1, 3),
)
def test_two_dimensional_grid_equals_per_point_runs(tmp_path, family, probe, space, m, lo, hi, ns_steps):
    # no classical benchmark is defined for thermal channels
    assume(family != "thermal" or probe != "classical")
    fixed, swept, (start, stop) = FAMILIES[family]
    if probe.startswith("part:"):
        probe += "".join(str(c) for c in range(4, m + 1))
    if space == "file":
        space = _write_space(tmp_path / f"space{m}.txt", m)
    first, last = start + lo * (stop - start), start + hi * (stop - start)
    base = ["bounds", "--family", family, "--m", str(m), "--space", space, "--probe", probe,
            "--mbar", "300", *fixed]
    if family != "thermal":
        base.append("--against-classical")
    _assert_rows_equal_per_point_runs(
        tmp_path, base, [f"{swept}={first!r}:{last!r}:3", f"ns=log:1:50:{ns_steps}"]
    )


def test_three_dimensional_grid_with_energy_and_copies(tmp_path):
    # hybrid-coherent remainders carry the energy in a coherent amplitude
    base = ["bounds", "--family", "pure-loss", "--m", "7", "--space", "cpf:3",
            "--probe", "tmsv-disjoint", "--odd-strategy", "hybrid-coherent",
            "--eta-t", "0.97", "--against-classical"]
    _assert_rows_equal_per_point_runs(
        tmp_path, base, ["copies=1:400:3", "mu=0.6:30:3", "eta-b=0.95:0.999:2"]
    )


def test_m12_nn_energy_sweep_equals_per_point_runs(tmp_path):
    base = ["bounds", "--family", "pure-loss", "--m", "12", "--space", "full", "--probe", "nn",
            "--eta-b", "0.99", "--eta-t", "0.97", "--mbar", "100"]
    _assert_rows_equal_per_point_runs(tmp_path, base, ["ns=log:1:50:3"])


SURFACE = ["bounds", "--family", "additive-noise", "--m", "9", "--nu-t", "0.01", "--space", "cpf:3",
           "--probe", "nn", "--mbar", "500", "--grid", "nu-b=0.012:0.1:4", "--grid", "ns=log:1:50:4",
           "--against-classical"]


@pytest.mark.parametrize("floats", [64, 2048])
def test_batch_bounds_do_not_change_the_bytes(tmp_path, monkeypatch, floats):
    # small bounds split the frontier DP's rows, down to one point at 64
    # floats, and the block batches into one point per stack
    _, want = _run(SURFACE, tmp_path / "want.csv")
    groups = []
    rows = bounds_mod._frontier_rows

    def spy(*args):
        got = rows(*args)
        groups.append(len(got[2]))
        return got

    monkeypatch.setattr(bounds_mod, "BATCH_MAX_FLOATS", floats)
    monkeypatch.setattr(bounds_mod, "_frontier_rows", spy)
    assert _run(SURFACE, tmp_path / "got.csv") == (0, want)
    assert sum(groups) == 16  # the 4 x 4 grid's configurations
    if floats == 64:
        assert groups == [1] * 16


def test_large_nn_sweep_fills_its_block_fidelities_in_one_batch(tmp_path, monkeypatch):
    # 12 x 11 = 132 configurations; the ring's blocks all have two channels
    base = ["bounds", "--family", "pure-loss", "--m", "6", "--eta-t", "0.97", "--space", "cpf:1",
            "--probe", "nn", "--mbar", "100"]
    grids = ["eta-b=0.95:0.999:12", "ns=log:1:50:11"]
    fills = []
    fill = bounds_mod._fill_block_cache

    def spy(points, todo):
        fills.append(len(todo))
        fill(points, todo)

    monkeypatch.setattr(bounds_mod, "_fill_block_cache", spy)
    assert _run(base + ["--eta-b", "0.99", "--ns", "20"], tmp_path / "one.csv")[0] == 0
    lone = len(fills)
    fills.clear()
    assert _run(base + [arg for g in grids for arg in ("--grid", g)], tmp_path / "all.csv")[0] == 0
    assert lone and fills == [132] * lone
    monkeypatch.undo()
    _assert_rows_equal_per_point_runs(tmp_path, base, grids)
