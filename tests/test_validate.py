import gc
import weakref

import numpy as np
import pytest

import multiprobe.gaussian as gaussian
import multiprobe.validate as validate
from multiprobe.bounds import FidelityTable, bruteforce_fidelities, fidelity_table_bruteforce
from multiprobe.imagespace import bcpf_space, cpf_space, full_space
from multiprobe.probes import extend_for_mutual_probing, nn_partition
from multiprobe.validate import SCALES, run_suites

from conftest import (
    pair_class_key,
    scalar_bona_fide,
    scalar_fidelity_symmetry,
    scalar_multiplicativity,
    scalar_mutual_reference,
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
    # a symplectic form that does not match the quadrature ordering breaks
    # the spectrum; the ghz suite must flag it rather than pass silently
    def xxpp_form(n):
        top = np.hstack([np.zeros((n, n)), np.eye(n)])
        bottom = np.hstack([-np.eye(n), np.zeros((n, n))])
        return np.vstack([top, bottom])

    monkeypatch.setattr(gaussian, "symplectic_form", xxpp_form)
    try:
        results = run_suites("smoke")
        failed = [r for r in results if not r.passed]
        assert failed, "corrupted build slipped through every suite"
    except Exception:
        pass  # failing by raising is also loud


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
        blocks = [desc.channels for desc in spec.descriptors()]
        codes = validate._class_codes(bits, blocks).tolist()
        keys = [pair_class_key(a, b, blocks) for a, b in pairs]
        # the codes name the classes one to one
        assert len(set(zip(codes, keys))) == len(set(codes)) == len(set(keys))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("suite, scalar", [
    (validate.suite_bona_fide, scalar_bona_fide),
    (validate.suite_fidelity_symmetry, scalar_fidelity_symmetry),
    (validate.suite_multiplicativity, scalar_multiplicativity),
], ids=["bona_fide", "symmetry", "multiplicativity"])
def test_stacked_random_state_suites_equal_scalar_loops(suite, scalar, scale):
    # same rng draws, same states, same fidelities: equal deviations, not close ones
    assert suite(scale) == scalar(scale)


@pytest.mark.parametrize("m", [3, 4])
def test_stacked_mutual_reference_equals_scalar_loop(m):
    ext_part, ext_space = extend_for_mutual_probing(nn_partition(m), full_space(m))
    for family in validate._families():
        got = validate._mutual_reference(ext_part, ext_space, family, 20.5)
        assert got == scalar_mutual_reference(ext_part, ext_space, family, 20.5)


def test_mutual_suite_equals_its_scalar_reference(monkeypatch):
    stacked = validate.suite_mutual_vs_bruteforce("full")
    monkeypatch.setattr(validate, "_mutual_reference", scalar_mutual_reference)
    assert validate.suite_mutual_vs_bruteforce("full") == stacked
