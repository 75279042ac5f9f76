"""The bound sums that ``bound_reports`` takes straight from the DPs, the
counting DP of a disjoint probe and the frontier DP of overlapping blocks,
against the tables of the same DPs, which ``census`` and
``evaluate_points`` read, and against exact products of the block
fidelities."""

import itertools

import mpmath
import numpy as np
import pytest

import multiprobe.bounds as bounds_mod
from multiprobe.bounds import (
    block_fidelities,
    bound_reports,
    evaluate_points,
)
from multiprobe.channels import ChannelFamily
from multiprobe.cli import build_space, main
from multiprobe.presets import resolve_probe
from multiprobe.probes import HYBRID_COHERENT, SINGLE_IDLER

from conftest import assert_sums_match_entries, pair_codes, report_rows

FAMILIES = {
    "loss": ChannelFamily.pure_loss(0.99, 0.97),
    "additive": ChannelFamily.additive(0.02, 0.01),
    "thermal": ChannelFamily.thermal(0.9, 1.2, 0.8, 1.5),
}
# (probe, m, odd-m strategy): every disjoint structure the presets build and
# a literal, which take the counting DP; the ring and a literal of
# overlapping blocks, which take the frontier DP
PROBES = {
    "tmsv-even": ("tmsv-disjoint", 8, SINGLE_IDLER),
    "tmsv-single-idler": ("tmsv-disjoint", 7, SINGLE_IDLER),
    "tmsv-hybrid-coherent": ("tmsv-disjoint", 7, HYBRID_COHERENT),
    "idler-full": ("idler-full", 9, SINGLE_IDLER),
    "full-ghz": ("full-ghz", 9, SINGLE_IDLER),
    "literal": ("part:123|45*|6*|7*", 7, SINGLE_IDLER),
    "nn": ("nn", 9, SINGLE_IDLER),
    "part": ("part:123|345|567|71", 7, SINGLE_IDLER),
}
COPIES = [1, 10, 100, 1000, 5000]
MUS = (20.5, 5.5, 50.5)


def _points(probe, family):
    name, m, strategy = probe
    return [(resolve_probe(name, m, mu, strategy), family, None) for mu in MUS]


def _method(points):
    return "counting" if points[0][0].disjoint else "mutual"


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
@pytest.mark.parametrize("space_text", ["full", "cpf:1", "cpf:3", "bcpf:1,2"])
@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES.keys())
def test_sums_route_matches_the_entries_route(probe, space_text, family):
    space, points = build_space(space_text, probe[1]), _points(probe, family)
    tables = evaluate_points(space, points)
    assert {table.method for table in tables} == {_method(points)}
    copies = [COPIES, COPIES[::-1], COPIES[1:3]]
    reports = report_rows(space, points, copies)
    for row, table, cs in zip(reports, tables, copies):
        assert_sums_match_entries([row], [table], cs, _method(points))
    # a point's rows do not depend on the copy numbers of the others
    assert report_rows(space, points, [COPIES] * len(points))[0] == reports[0]


# the counting DP of a disjoint probe, the frontier DP of overlapping blocks
@pytest.mark.parametrize("probe, method", [("idler-full", "counting"), ("nn", "mutual")], ids=["idler-full", "nn"])
def test_bound_reports_sums_disjoint_probes_without_tables(monkeypatch, probe, method):
    space, family = build_space("cpf:3", 9), FAMILIES["loss"]
    points = [(resolve_probe(probe, 9, mu), family, mu - 0.5) for mu in MUS]
    tables = evaluate_points(space, points)

    def no_table(*args):
        raise AssertionError("the sums route builds no table")

    monkeypatch.setattr(bounds_mod, "replay_entries", no_table)
    reports = report_rows(space, points, [COPIES] * len(MUS))
    assert_sums_match_entries(reports, tables, COPIES, method)


@pytest.mark.parametrize("space_text", ["full", "cpf:3"])
def test_sums_route_rows_do_not_depend_on_their_chunks(monkeypatch, space_text):
    space = build_space(space_text, 9)
    probe = ("tmsv-disjoint", 9, SINGLE_IDLER)
    points = [point for family in FAMILIES.values() for point in _points(probe, family)]
    copies = [COPIES] * len(points)
    whole = report_rows(space, points, copies)
    chunks = []
    sums = bounds_mod.replay_sums

    def spy(plan, final, luts):
        chunks.append(next(iter(luts.values())).shape[1])
        return sums(plan, final, luts)

    monkeypatch.setattr(bounds_mod, "BATCH_MAX_FLOATS", 8)
    monkeypatch.setattr(bounds_mod, "replay_sums", spy)
    chunked = report_rows(space, points, copies)
    # one (point, copy number) row, as F^M and F^2M columns, per chunk
    assert chunks == [2] * len(points) * len(COPIES)
    assert chunked == whole
    assert_sums_match_entries(chunked, evaluate_points(space, points), COPIES, "counting")
    alone = [report_rows(space, [point], [[c]])[0][0] for point in points for c in COPIES]
    assert [r for row in whole for r in row] == alone


def test_sums_route_on_a_one_pattern_space():
    # no pair of patterns differs: both bounds are an empty sum, and the table is empty
    space = build_space("cpf:0", 4)
    point = (resolve_probe("tmsv-disjoint", 4, 20.5), FAMILIES["loss"], None)
    (row,) = report_rows(space, [point], [[1, 7]])
    assert [(r.lower_raw, r.upper_raw) for r in row] == [(0.0, 0.0)] * 2
    (table,) = evaluate_points(space, [point])
    assert len(table.logf) == 0
    # no points: no rows, as no tables
    assert len(bound_reports(space, [], [])) == 0 and evaluate_points(space, []) == []


def test_sums_route_checks_its_copy_numbers():
    point = (resolve_probe("idler-full", 4, 20.5), FAMILIES["loss"], None)
    with pytest.raises(ValueError, match="copy number"):
        bound_reports(build_space("full", 4), [point], [[0.5]])


def test_sums_route_is_exact_to_rounding_at_tiny_bounds():
    # the advantage surface's idler-assisted noise sweep on cpf:1: bounds
    # down to 1e-300, where exp(M log F) of a table loses up to 1e-13
    m, space = 9, build_space("cpf:1", 9)
    copies = [100.0, 500.0, 2000.0]
    configs = list(itertools.product(np.linspace(0.012, 0.1, 5), np.geomspace(1.0, 50.0, 5)))
    points = [(resolve_probe("idler-full", m, ns + 0.5), ChannelFamily.additive(nu_b, 0.01), None)
              for nu_b, ns in configs]
    reports = report_rows(space, points, [copies] * len(points))
    patterns = space.patterns
    checked = 0
    with mpmath.workdps(50):
        for (spec, family, _), row in zip(points, reports):
            descs = spec.blocks
            # every block of idler-full has one channel: its two local patterns
            f = block_fidelities([(descs[0], family)], pair_codes([((0,), (1,))]))[0, 0]
            assert all(len(d.channels) == 1 for d in descs)
            fids = {(a, b): mpmath.mpf(1.0 if a == b else f) for a in (0, 1) for b in (0, 1)}
            pair_fids = [
                mpmath.fprod(fids[pa[c], pb[c]] for c in range(m))
                for pa, pb in itertools.permutations(patterns, 2)
            ]
            n = len(patterns)
            for c, report in zip(copies, row):
                upper = mpmath.fsum(fid**c for fid in pair_fids) / n
                lower = mpmath.fsum(fid ** (2 * c) for fid in pair_fids) / (2 * n**2)
                for got, want in ((report.upper_raw, upper), (report.lower_raw, lower)):
                    if want > 1e-300:
                        assert abs(got - want) <= 1e-14 * want
                        checked += 1
    assert checked > len(points)


@pytest.mark.parametrize("probe", ["tmsv-disjoint", "full-ghz"])
def test_counting_entry_cap_names_the_counting_dp(monkeypatch, capsys, probe):
    # a census replays the counting DP's plan with (log F, count) entries,
    # capped at the entries of the largest dense table: 8 * 8 // 2 here
    monkeypatch.setattr(bounds_mod, "BLOCK_TABLE_MAX_PATTERNS", 8)
    argv = ["census", "--family", "pure-loss", "--m", "9", "--eta-b", "0.99", "--eta-t", "0.97", "--ns", "20",
            "--space", "full", "--probe", probe, "--copies", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: counting DP capped at 32 states and entries\n"
