"""Every committed figure regenerates from the scripts: the thirty bound
files of the two m = 9 sweeps, whose quantum bounds come from the two
counting DPs (``full-ghz``, ``tmsv-disjoint`` and ``idler-full`` over
blocks, the ``nn`` ring over channels) and whose six ``classical`` files
are closed forms read off the Hamming census, the four advantage surfaces
(``nn`` and ``idler-full`` on ``cpf:1``) and the three m = 10 censuses.

Regenerated on a 2-core x86-64 Linux machine (numpy with OpenBLAS
0.3.31), the three censuses and the 21 bound files of other probes match
the committed bytes, a deviation of 0.  The eight ``nn`` bound files
deviate by at most 1.9e-14 relative: the frontier DP merges each state
with its mirror, so its sums add in another order than when they were
committed.  How far they drift on other machines is not measured; the ``full-ghz`` files
carry 9- and 10-mode fidelities, whose LAPACK calls make the most
rounding, and RTOL leaves 1e-9 relative for it.
"""

import csv
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEXT_COLUMNS = {"family", "m", "space", "probe", "method", "rounds"}
RTOL = 1e-9
TINY = 1e-300


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path):
    with open(path) as fh:
        comment = fh.readline()
        return comment, list(csv.DictReader(fh))


def _assert_close(got: float, want: float, tol: float, where: str) -> None:
    assert abs(got - want) <= tol, f"{where}: {got!r} vs committed {want!r}"


def _assert_bounds_file_regenerates(got_path, want_path, n_rows):
    got_comment, got = _rows(got_path)
    want_comment, want = _rows(want_path)
    name = want_path.name
    assert got_comment == want_comment
    assert len(got) == len(want) == n_rows
    assert list(got[0]) == list(want[0])
    for i, (g, w) in enumerate(zip(got, want)):
        for col, w_text in w.items():
            where = f"{name} row {i} {col}"
            if col in TEXT_COLUMNS or w_text == "":
                assert g[col] == w_text, where
            elif col == "delta_perr":
                # classical lower minus quantum upper: judged on the
                # scale of its two terms, not of their difference
                upper = float(w["upper"])
                scale = abs(float(w_text) + upper) + upper
                _assert_close(float(g[col]), float(w_text), RTOL * scale, where)
            else:
                want_val = float(w_text)
                tol = RTOL * abs(want_val) if abs(want_val) > TINY else TINY
                _assert_close(float(g[col]), want_val, tol, where)


@pytest.mark.parametrize("script, prefix", [("sweep_loss_m9", "loss"), ("sweep_noise_m9", "noise")])
def test_counting_figures_regenerate(tmp_path, script, prefix):
    module = _load_script(script)
    assert module.run(tmp_path, 50) == 0
    assert len(module.SPACES) * len(module.PROBES) == 15
    for tag in module.SPACES:
        for probe in module.PROBES:
            name = f"{prefix}_m9_{tag}_{probe}.csv"
            _assert_bounds_file_regenerates(tmp_path / name, ROOT / "results" / name, 50)


def test_advantage_surfaces_regenerate(tmp_path):
    # the script's default grid: 25 x 25 points per file
    assert _load_script("advantage_surface").run(tmp_path, 25) == 0
    for family in ("loss", "noise"):
        for probe in ("nn", "idler-full"):
            name = f"advantage_{family}_cpf1_{probe}.csv"
            _assert_bounds_file_regenerates(tmp_path / name, ROOT / "results" / name, 25 * 25)


def test_censuses_regenerate(tmp_path):
    module = _load_script("census_histograms")
    assert module.run(tmp_path) == 0
    assert len(module.CONFIGS) == 3
    for probe, _ in module.CONFIGS:
        name = f"census_loss_m10_{probe}.csv"
        got_comment, got = _rows(tmp_path / name)
        want_comment, want = _rows(ROOT / "results" / name)
        assert got_comment == want_comment
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            where = f"{name} row {i}"
            assert g["multiplicity"] == w["multiplicity"], where
            want_val = float(w["fidelity"])
            _assert_close(float(g["fidelity"]), want_val, RTOL * want_val, where)
