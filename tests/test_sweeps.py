"""Sweeps evaluate every grid point of a structure in one batch; each row
must be the bytes that a run of that point alone writes."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import multiprobe.blocks as blocks_mod
import multiprobe.bounds as bounds_mod
import multiprobe.cli as cli_mod
import multiprobe.presets as presets_mod
from multiprobe.bounds import guaranteed_advantage
from multiprobe.cli import main, parse_grid
from multiprobe.errors import ComparabilityError, NumericError

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
    blocks_mod._BLOCK_FID_CACHE.clear()
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
    # small bounds split the frontier sums' rows into chunks, down to one
    # configuration at 64 floats, and the block batches into one point per stack
    _, want = _run(SURFACE, tmp_path / "want.csv")
    chunks = []
    sums = bounds_mod.replay_sums

    def spy(plan, final, luts):
        chunks.append(next(iter(luts.values())).shape[1] // 2)
        return sums(plan, final, luts)

    monkeypatch.setattr(bounds_mod, "BATCH_MAX_FLOATS", floats)
    monkeypatch.setattr(blocks_mod, "BATCH_MAX_FLOATS", floats)
    monkeypatch.setattr(bounds_mod, "replay_sums", spy)
    assert _run(SURFACE, tmp_path / "got.csv") == (0, want)
    assert sum(chunks) == 16  # the 4 x 4 grid's configurations
    assert len(chunks) > 1
    if floats == 64:
        assert chunks == [1] * 16


def test_large_nn_sweep_fills_its_block_fidelities_in_one_batch(tmp_path, monkeypatch):
    # 12 x 11 = 132 configurations; the ring's blocks all have two channels
    base = ["bounds", "--family", "pure-loss", "--m", "6", "--eta-t", "0.97", "--space", "cpf:1",
            "--probe", "nn", "--mbar", "100"]
    grids = ["eta-b=0.95:0.999:12", "ns=log:1:50:11"]
    fills = []
    fill = blocks_mod._fill_block_cache

    def spy(points, distinct, todo):
        fills.append(len(todo))
        fill(points, distinct, todo)

    monkeypatch.setattr(blocks_mod, "_fill_block_cache", spy)
    assert _run(base + ["--eta-b", "0.99", "--ns", "20"], tmp_path / "one.csv")[0] == 0
    lone = len(fills)
    fills.clear()
    assert _run(base + [arg for g in grids for arg in ("--grid", g)], tmp_path / "all.csv")[0] == 0
    assert lone and fills == [132] * lone
    monkeypatch.undo()
    _assert_rows_equal_per_point_runs(tmp_path, base, grids)


def test_dense_sweep_reads_each_table_before_the_next(tmp_path):
    # 512 weighted patterns: each dense table and its classical comparator
    # hold 130,816 entries, which dominate the run's memory
    pats = list(itertools.product((0, 1), repeat=9))
    path = tmp_path / "space.txt"
    path.write_text("".join("".join(map(str, p)) + f" {1.0 + sum(p)!r}\n" for p in pats))
    base = ["bounds", "--family", "pure-loss", "--m", "9", "--space", f"file:{path}", "--probe", "nn",
            "--eta-b", "0.99", "--eta-t", "0.97", "--mbar", "100", "--against-classical"]

    def peak(points):
        blocks_mod._BLOCK_FID_CACHE.clear()
        tracemalloc.start()
        try:
            assert main(base + ["--grid", f"ns=1:50:{points}", "--out", str(tmp_path / "o.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(1)
    assert peak(4) < 2 * one


@pytest.mark.parametrize("probe", ["tmsv-disjoint", "idler-full", "nn", "classical"])
@pytest.mark.parametrize("space", ["cpf:1", "cpf:3", "bcpf:1,3", "file"])
def test_energy_and_channel_grid_equals_per_point_runs(tmp_path, space, probe):
    # the probe's sums, its classical comparator and the rows of every route
    if space == "file":
        space = _write_space(tmp_path / "space.txt", 6)
    base = ["bounds", "--family", "pure-loss", "--m", "6", "--space", space, "--probe", probe,
            "--eta-t", "0.97", "--mbar", "100", "--against-classical"]
    _assert_rows_equal_per_point_runs(tmp_path, base, ["ns=log:1:50:3", "eta-b=0.95:0.999:3"])


SWEEP = ["bounds", "--family", "additive-noise", "--m", "6", "--nu-t", "0.01", "--space", "cpf:1",
         "--mbar", "100", "--grid", "nu-b=0.012:0.1:3", "--grid", "ns=log:1:50:3", "--against-classical"]


@pytest.mark.parametrize("probe, broken", [("nn", "replay_sums"), ("idler-full", "_table_sums")],
                         ids=["probe-sums", "classical-comparator"])
def test_sweep_with_a_non_finite_row_is_a_numeric_error(tmp_path, monkeypatch, capsys, probe, broken):
    evaluate = getattr(bounds_mod, broken)

    def one_row_infinite(*args):
        sums = evaluate(*args)
        sums[1] = np.inf if broken == "replay_sums" else (sums[1][0], np.inf)
        return sums

    checks = []
    check = bounds_mod._checked_columns

    def spy(copies, *args):
        checks.append(len(copies))
        return check(copies, *args)

    monkeypatch.setattr(bounds_mod, broken, one_row_infinite)
    monkeypatch.setattr(bounds_mod, "_checked_columns", spy)
    assert _run(SWEEP + ["--probe", probe], tmp_path / "o.csv") == (3, None)
    assert "numeric error: bound sums are not finite" in capsys.readouterr().err
    # one range check of every row of the sweep: the probe's, then the comparator's
    assert checks == [9] if broken == "replay_sums" else [9, 9]


def _spoil(sums, row, upper=None, lower=None):
    """``replay_sums`` columns, F^M of each row then F^2M, with the sums
    that give row ``row`` (one of the first chunk's) raw bounds ``upper``
    and ``lower`` over a 6-pattern space; see ``bounds._plan_columns``."""
    half = len(sums) // 2
    if upper is not None:
        sums[row] = 6.0 * upper
    if lower is not None:
        sums[half + row] = 2.0 * 36.0 * lower
    return sums


@pytest.mark.parametrize("upper, lower, message", [
    (np.inf, None, "bound sums are not finite"),
    (None, -1e-3, "negative lower bound -0.001"),
    (0.25, 0.5, "upper bound fell below lower bound"),
], ids=["not-finite", "negative", "crossed"])
def test_each_range_check_is_a_numeric_error(tmp_path, monkeypatch, capsys, upper, lower, message):
    # the nn probe on cpf:1, 6 patterns; the first row of the probe's sums is spoilt
    sums = bounds_mod.replay_sums
    monkeypatch.setattr(bounds_mod, "replay_sums", lambda *args: _spoil(sums(*args), 1, upper, lower))
    assert _run(SWEEP + ["--probe", "nn"], tmp_path / "o.csv") == (3, None)
    assert f"numeric error: {message}" in capsys.readouterr().err


def test_range_check_names_the_first_bad_row():
    # row 1 is negative, row 2 not finite, row 3 crossed: row 1 is named
    lower = np.array([0.1, -0.5, np.nan, 0.4])
    upper = np.array([0.2, 0.3, 0.3, 0.1])
    with pytest.raises(NumericError, match=r"^negative lower bound -0\.5$"):
        bounds_mod._check_range(lower, upper)
    with pytest.raises(NumericError, match="not finite"):
        bounds_mod._check_range(lower[2:], upper[2:])
    with pytest.raises(NumericError, match="fell below"):
        bounds_mod._check_range(lower[3:], upper[3:])
    # rounding below zero, or of the upper bound below the lower, passes
    bounds_mod._check_range(np.array([-1e-13, 0.5]), np.array([0.1, 0.5 - 1e-13]))


def test_columnar_advantage_checks_the_channel_use_of_each_row(tmp_path, monkeypatch, capsys):
    def columns(m_bar, lower, upper):
        m_bar = np.array(m_bar)
        return bounds_mod.BoundColumns(m_bar, m_bar, np.array(lower), np.array(upper), "counting")

    # clipped as min(max(x, 0.0), 1.0): rounding below zero to 0.0, above one to 1.0, -0.0 kept
    classical = columns([10.0, 20.0, 30.0], [0.3, -1e-13, 0.25], [0.8, 0.9, 1.5])
    quantum = columns([10.0, 20.0 * (1 + 5e-13), 30.0], [0.0, 0.0, 0.0], [0.1, 1.2, -0.0])
    assert guaranteed_advantage(classical, quantum).tolist() == [0.3 - 0.1, 0.0 - 1.0, 0.25 - -0.0]
    assert [repr(x) for x in quantum.upper.tolist()] == ["0.1", "1.0", "-0.0"]
    with pytest.raises(ComparabilityError, match="differs: 30.0 vs 30.5"):
        guaranteed_advantage(classical, columns([10.0, 20.0, 30.5], [0.0] * 3, [0.1] * 3))
    # in a sweep, a comparator read at another channel use than its probe: exit code 1
    reports = cli_mod.bound_reports

    def shifted(space, points, copies):
        cols = reports(space, points, copies)
        return replace(cols, m_bar=cols.m_bar * 2.0) if cols.method == "classical" else cols

    monkeypatch.setattr(cli_mod, "bound_reports", shifted)
    assert _run(SWEEP + ["--probe", "nn"], tmp_path / "o.csv") == (1, None)
    assert "average channel use differs" in capsys.readouterr().err


def test_sweep_builds_its_families_and_probe_states_once(tmp_path, monkeypatch):
    # 3 x 3 points: three channel settings, three energies
    builds, stacks, partitions = [], [], []
    build, checked, partition = cli_mod.build_family, blocks_mod._checked, presets_mod.full_idler_partition
    monkeypatch.setattr(cli_mod, "build_family", lambda payload: builds.append(payload["nu-b"]) or build(payload))
    monkeypatch.setattr(blocks_mod, "_checked", lambda data: stacks.append(data.shape) or checked(data))
    monkeypatch.setattr(presets_mod, "full_idler_partition", lambda m: partitions.append(m) or partition(m))
    assert _run(SWEEP + ["--probe", "idler-full"], tmp_path / "o.csv")[0] == 0
    assert len(builds) == len(set(builds)) == 3
    # the preset's partition, and its cover check, once for the three energies
    assert partitions == [6]
    # the nine blocks of idler-full share one batch: one (idler, channel) GHZ state per energy
    assert stacks == [(3, 4, 4)]
