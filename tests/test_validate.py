import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import multiprobe.blocks as blocks
import multiprobe.gaussian as gaussian
import multiprobe.validate as validate
from multiprobe.bounds import FidelityTable, bruteforce_fidelities, fidelity_table_bruteforce
from multiprobe.errors import NumericError
from multiprobe.imagespace import bcpf_space, cpf_space, full_space
from multiprobe.probes import extend_for_mutual_probing, nn_partition
from multiprobe.validate import SCALES, run_suites

from conftest import (
    pair_class_key,
    scalar_bona_fide,
    scalar_fidelity_symmetry,
    scalar_ghz_spectrum,
    scalar_multiplicativity,
    scalar_mutual_reference,
    squeezed_product,
)


def test_smoke_suites_all_pass():
    results = run_suites("smoke")
    assert results, "no suites ran"
    for res in results:
        assert res.passed, f"{res.suite} deviated by {res.max_deviation}"
        assert res.max_deviation < res.tolerance


def test_unknown_scale_rejected():
    with pytest.raises(ValueError):
        run_suites("huge")


def test_corrupted_symplectic_form_fails_loudly(monkeypatch):
    # a symplectic form that does not match the quadrature ordering must
    # fail loudly wherever it is read.  Phase-insensitive states never read
    # it: their spectra and mixed-state fidelities come from the n x n X
    # and P blocks and the pure-state overlap needs none, so every suite
    # but block_multiplicativity reads the same under the corrupted form.
    # The spectra of x-p-correlated states and their mixed-state
    # fidelities, the 2n x 2n routes, read it, and must raise: in
    # block_multiplicativity, whose last cases phase-rotate their blocks,
    # and in direct calls.
    def xxpp_form(n):
        top = np.hstack([np.zeros((n, n)), np.eye(n)])
        bottom = np.hstack([-np.eye(n), np.zeros((n, n))])
        return np.vstack([top, bottom])

    # near-pure squeezed thermal modes, with x-p correlations
    correlated = [squeezed_product((0.2, 0.8, 0.3), (0.1, 0.5, 1.1)),
                  squeezed_product((0.25, 0.7, 0.35), (0.1, 0.55, 1.0))]
    states = [gaussian.CovMatrix(data) for data in correlated]  # checked under the true form
    honest = run_suites("smoke")
    monkeypatch.setattr(gaussian, "symplectic_form", xxpp_form)
    monkeypatch.setattr(blocks, "_BLOCK_FID_CACHE", {})  # nothing cached before, nothing corrupted kept
    with pytest.raises(NumericError, match="not bona fide"):
        validate.suite_multiplicativity("smoke")
    monkeypatch.setattr(validate, "_SUITES", [s for s in validate._SUITES if s is not validate.suite_multiplicativity])
    assert run_suites("smoke") == [r for r in honest if r.suite != "block_multiplicativity"]
    for data in correlated:
        with pytest.raises(NumericError, match="not bona fide"):
            gaussian.CovMatrix(data)
    with pytest.raises(NumericError, match=r"outside \[0, 1\]"):
        gaussian.gaussian_fidelity(*states)


def test_suite_results_serialize():
    res = run_suites("smoke")[0]
    data = res.to_dict()
    assert set(data) == {"suite", "passed", "max_deviation", "tolerance", "cases"}


def test_sub_space_tables_index_the_full_space_oracle():
    # a pair's fidelity does not depend on the space it sits in, so the
    # cpf and bcpf tables read off the full-space fidelities equal the
    # brute-force tables of those spaces bit for bit
    m = 4
    index = {p: i for i, p in enumerate(full_space(m).patterns)}
    for spec in validate._partitions_for(m):
        for family in validate._families():
            fids = validate._full_fidelities(spec, family)
            for sub in (cpf_space(m, 1), cpf_space(m, 2), bcpf_space(m, (1, 2))):
                rows = np.array([index[p] for p in sub.patterns])
                got = FidelityTable.from_fidelities(len(rows), validate._sub_pairs(fids, len(index), rows))
                want = fidelity_table_bruteforce(sub.patterns, None, spec, family)
                assert got.logf.tolist() == want.logf.tolist()
                assert got.counts.tolist() == want.counts.tolist()
                assert got.weights is None and want.weights is None


def _count_pairs(monkeypatch) -> dict:
    """Count the index pairs that reach ``gaussian._pair_fidelities`` and
    the pairs that ``gaussian._fidelity`` evaluates."""
    counts = {"requested": 0, "evaluated": 0}
    pair_fidelities, fidelity = gaussian._pair_fidelities, gaussian._fidelity

    def requesting(data, means, pure, pairs):
        counts["requested"] += len(pairs)
        return pair_fidelities(data, means, pure, pairs)

    def evaluating(v1, v2, mixed, delta):
        counts["evaluated"] += len(v1)
        return fidelity(v1, v2, mixed, delta)

    monkeypatch.setattr(gaussian, "_pair_fidelities", requesting)
    monkeypatch.setattr(gaussian, "_fidelity", evaluating)
    return counts


@pytest.mark.parametrize("spec, distinct", [
    (validate._partitions_for(6)[0], 43),  # one 6-mode GHZ block
    (validate._partitions_for(6)[1], 293),  # three TMSV blocks
    (validate._partitions_for(6)[2], 179),  # two 3-mode GHZ blocks
])
def test_oracle_evaluates_each_distinct_canonical_pair_once(monkeypatch, spec, distinct):
    # the m = 6 full-state oracle of validate: of the 2,016 pattern pairs,
    # pairs that are mirror images under a symmetry of the probe share one
    # evaluation; a weaker key would evaluate fewer pairs, a stronger one more
    counts = _count_pairs(monkeypatch)
    for family in validate._families():
        validate._full_fidelities(spec, family)
    assert counts == {"requested": 2 * 2016, "evaluated": 2 * distinct}


def test_full_validation_evaluates_the_documented_distinct_pairs(monkeypatch):
    # every stacked fidelity call of validate --scale full, block
    # fidelities computed afresh; a block signature that misses any pair
    # has all of its pairs evaluated again, which requests 10 cached pairs
    monkeypatch.setattr(blocks, "_BLOCK_FID_CACHE", {})
    counts = _count_pairs(monkeypatch)
    assert all(r.passed for r in run_suites("full"))
    assert counts == {"requested": 16422, "evaluated": 2473}


def test_run_suites_shares_the_oracle_and_drops_it(monkeypatch):
    calls, alive = [], []

    def recording(patterns, spec, family):
        fids = bruteforce_fidelities(patterns, spec, family)
        calls.append((spec, family))
        alive.append(weakref.ref(fids))
        return fids

    monkeypatch.setattr(validate, "bruteforce_fidelities", recording)
    results = run_suites("smoke")
    assert all(r.passed for r in results)
    # one call per configuration: m = 2 has one spec, m = 3 two, each under
    # two families, and degeneracy_classes reuses the m = 3 ones
    assert len(calls) == len(set(calls)) == 6
    gc.collect()
    assert all(ref() is None for ref in alive), "oracle outlived run_suites"

    calls.clear()
    res = validate.suite_degeneracy_classes("smoke")  # alone: builds its own
    assert res.passed and res.cases == 4
    assert len(calls) == 4


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_class_codes_group_pairs_as_pair_class_key(m):
    space = full_space(m)
    bits = np.array(space.patterns)
    n = len(space)
    pairs = [(space.patterns[i], space.patterns[j]) for i in range(n) for j in range(i + 1, n)]
    for spec in validate._partitions_for(m):
        blocks = [desc.channels for desc in spec.blocks]
        codes = validate._class_codes(bits, blocks).tolist()
        keys = [pair_class_key(a, b, blocks) for a, b in pairs]
        # the codes name the classes one to one
        assert len(set(zip(codes, keys))) == len(set(codes)) == len(set(keys))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("suite, scalar", [
    (validate.suite_ghz_spectrum, scalar_ghz_spectrum),
    (validate.suite_bona_fide, scalar_bona_fide),
    (validate.suite_fidelity_symmetry, scalar_fidelity_symmetry),
    (validate.suite_multiplicativity, scalar_multiplicativity),
], ids=["ghz_spectrum", "bona_fide", "symmetry", "multiplicativity"])
def test_stacked_random_state_suites_equal_scalar_loops(suite, scalar, scale):
    # same rng draws, same states, same fidelities: equal deviations, not close ones
    assert suite(scale) == scalar(scale)


@pytest.mark.parametrize("m", [3, 4])
def test_stacked_mutual_reference_equals_scalar_loop(m):
    ext_part, ext_patterns = extend_for_mutual_probing(nn_partition(m), full_space(m))
    for family in validate._families():
        got = validate._mutual_reference(ext_part, ext_patterns, family, 20.5)
        assert got == scalar_mutual_reference(ext_part, ext_patterns, family, 20.5)


def test_mutual_suite_equals_its_scalar_reference(monkeypatch):
    stacked = validate.suite_mutual_vs_bruteforce("full")
    monkeypatch.setattr(validate, "_mutual_reference", scalar_mutual_reference)
    assert validate.suite_mutual_vs_bruteforce("full") == stacked


def test_mutual_suite_checks_the_frontier_sums():
    # reference against the dense table, the frontier table and the
    # frontier sums, at m = 3 and 4, two families, copies 1 and 7
    res = validate.suite_mutual_vs_bruteforce("full")
    assert res.passed and res.cases == 24 and res.tolerance == 1e-12


def test_counting_suite_checks_the_counting_sums(monkeypatch):
    # reference against the counting table and the counting sums, copies 1 and 10
    res = validate.suite_counting_vs_bruteforce("smoke")
    assert res.passed and res.cases == 96 and res.tolerance == 1e-10
    bound_reports = validate.bound_reports

    def off(space, points, copies):
        cols = bound_reports(space, points, copies)
        return replace(cols, upper_raw=cols.upper_raw * (1 + 1e-9))

    monkeypatch.setattr(validate, "bound_reports", off)
    broken = validate.suite_counting_vs_bruteforce("smoke")
    assert not broken.passed and broken.max_deviation > 5e-10


def test_quick_suites_build_a_covmatrix_only_per_bruteforce_probe(monkeypatch):
    # every other state is built unchecked and checked in a stacked call
    # per mode count; one CovMatrix per state would show up here
    built, oracles = [], []
    init = gaussian.CovMatrix.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording(patterns, spec, family):
        oracles.append((spec, family))
        return bruteforce_fidelities(patterns, spec, family)

    monkeypatch.setattr(gaussian.CovMatrix, "__init__", counting)
    monkeypatch.setattr(validate, "bruteforce_fidelities", recording)
    results = run_suites("quick")
    assert all(r.passed for r in results)
    # m = 2 has one spec, m = 3 and 4 two each, each under two families
    assert len(oracles) == 10
    assert len(built) == len(oracles)
