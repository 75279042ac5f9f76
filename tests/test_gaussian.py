import itertools
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiprobe import blocks
from multiprobe.channels import (
    ChannelFamily,
    additive_params,
    apply_mode_channels,
    layout_channels,
    mode_channel_map,
    pure_loss_params,
    thermal_params,
)
from multiprobe.errors import DimensionError, EnergyError, NumericError, PartitionError
from multiprobe.probes import BlockDescriptor
from multiprobe import gaussian
from multiprobe.gaussian import (
    SHOT_NOISE,
    CovMatrix,
    coherent_cm,
    coherent_state,
    direct_sum,
    gaussian_fidelity,
    ghz_cm,
    ghz_spectrum_closed_form,
    ghz_state,
    stacked_fidelities,
    symplectic_form,
    symplectic_spectrum,
    tensor,
    tmsv_cm,
    vacuum_cm,
)

from conftest import (
    any_family,
    apply_pattern,
    budget_pairs,
    class_pairs,
    fidelity_sqrtm_reference,
    pair_codes,
    patterns,
    rotated_squeezed,
    squeezed_product,
    whole_array_pick,
)


def test_symplectic_form_squares_to_minus_identity():
    for n in (1, 3, 5):
        omega = symplectic_form(n)
        assert np.array_equal(omega @ omega, -np.eye(2 * n))


def test_vacuum_spectrum_is_shot_noise():
    assert np.allclose(symplectic_spectrum(vacuum_cm(4)), 0.5, atol=1e-14)


def test_ghz_zero_squeezing_is_vacuum():
    state = ghz_cm(2, 0.5)
    assert np.allclose(state.data, 0.5 * np.eye(4), atol=1e-15)


def test_tmsv_correlation_at_fig4_energy():
    # N_S = 20 means mu = 20.5 and c = sqrt(mu^2 - 1/4) = sqrt(420)
    state = tmsv_cm(20.5)
    assert state.data[0, 2] == pytest.approx(np.sqrt(420.0), rel=1e-15)
    assert state.data[1, 3] == pytest.approx(-np.sqrt(420.0), rel=1e-15)


def test_ghz_three_mode_spectrum_closed_form():
    # c = sqrt(20.5^2 - 1/4)/2; spectrum has 1/2 once (saturated) and
    # sqrt(mu^2 - c^2) = sqrt(315.25) twice
    got = symplectic_spectrum(ghz_cm(3, 20.5))
    assert got[0] == pytest.approx(0.5, abs=1e-10)
    assert got[1] == pytest.approx(np.sqrt(315.25), rel=1e-12)
    assert got[2] == pytest.approx(np.sqrt(315.25), rel=1e-12)


def test_tmsv_is_pure():
    state = tmsv_cm(20.5)
    assert state.is_pure
    assert np.allclose(state.spectrum, 0.5, atol=1e-10)


def test_symplectic_form_is_shared_and_read_only():
    omega = symplectic_form(3)
    assert symplectic_form(3) is omega
    with pytest.raises(ValueError):
        omega[0, 0] = 1.0


@pytest.mark.parametrize("m", range(2, 13))
@pytest.mark.parametrize("mu", [0.5, 0.7, 2.5, 20.5, 300.0])
def test_ghz_spectrum_matches_closed_form_grid(m, mu):
    got = symplectic_spectrum(ghz_cm(m, mu))
    want = ghz_spectrum_closed_form(m, mu)
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("mu", [3e3, 1e4])
def test_ghz_spectrum_large_mu_scale_aware(mu):
    # storing the CM in doubles already moves the saturated eigenvalue by
    # O(eps mu^2); only a scale-aware comparison is meaningful here
    got = symplectic_spectrum(ghz_cm(12, mu))
    want = ghz_spectrum_closed_form(12, mu)
    assert np.max(np.abs(got - want) / np.maximum(want, 1.0)) < 1e-10 + 64 * 2.3e-16 * mu * mu


def _ghz_blocks(m, mu):
    """GHZ CM assembled 2x2 block by 2x2 block, as the definition reads."""
    c = np.sqrt(mu * mu - 0.25) / (m - 1)
    data = np.zeros((2 * m, 2 * m))
    for j in range(m):
        data[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = mu * np.eye(2)
        for k in range(j + 1, m):
            data[2 * j : 2 * j + 2, 2 * k : 2 * k + 2] = np.diag([c, -c])
            data[2 * k : 2 * k + 2, 2 * j : 2 * j + 2] = np.diag([c, -c])
    return data


@pytest.mark.parametrize("m", range(2, 13))
def test_ghz_cm_equals_blockwise_assembly(m):
    for mu in (0.5, 0.6, 2.5, 20.5, 317.0, 1e4):
        assert np.array_equal(ghz_cm(m, mu).data, _ghz_blocks(m, mu))


def test_ghz_validation_errors():
    with pytest.raises(EnergyError):
        ghz_cm(3, 0.49)
    with pytest.raises(PartitionError):
        ghz_cm(1, 2.0)


def test_cov_matrix_symmetrizes_and_validates():
    data = 0.5 * np.eye(2)
    data[0, 1] = 1e-13  # tiny asymmetry is symmetrized away
    state = CovMatrix(data)
    assert state.data[0, 1] == state.data[1, 0]
    with pytest.raises(NumericError):
        CovMatrix(0.4 * np.eye(2))
    with pytest.raises(DimensionError):
        CovMatrix(np.eye(3))
    with pytest.raises(NumericError):
        CovMatrix(np.full((2, 2), np.nan))


def test_fidelity_identical_states_is_one():
    state = ghz_cm(3, 7.3)
    assert gaussian_fidelity(state, state) == 1.0


def test_fidelity_pure_self_consistency():
    # pure-state CM reconstructed independently must give 1 within 1e-12
    a = tmsv_cm(20.5)
    b = CovMatrix(a.data.copy() + 0.0)
    assert gaussian_fidelity(a, b) == pytest.approx(1.0, abs=1e-12)


def test_coherent_displacement_factor():
    # two coherent states: F = exp(-|d|^2 / 4) with d the mean difference
    a = coherent_cm([0.35 + 0.2j])
    b = coherent_cm([-0.15 - 0.4j])
    delta = a.mean - b.mean
    want = np.exp(-np.dot(delta, delta) / 4.0)
    assert gaussian_fidelity(a, b) == pytest.approx(want, rel=1e-13)


def test_thermal_pair_closed_form():
    # 1 / (sqrt((n1+1)(n2+1)) - sqrt(n1 n2)) for thermal states
    n1, n2 = 0.8, 2.3
    a = CovMatrix((n1 + 0.5) * np.eye(2))
    b = CovMatrix((n2 + 0.5) * np.eye(2))
    want = 1.0 / (np.sqrt((n1 + 1) * (n2 + 1)) - np.sqrt(n1 * n2))
    assert gaussian_fidelity(a, b) == pytest.approx(want, rel=1e-13)


def test_pure_pure_overlap_form():
    a = tmsv_cm(3.7)
    sq = np.diag([np.exp(1.0), np.exp(-1.0)]) * 0.5
    b = CovMatrix(np.block([[sq, np.zeros((2, 2))], [np.zeros((2, 2)), sq]]))
    want = np.linalg.det(a.data + b.data) ** -0.25
    assert gaussian_fidelity(a, b) == pytest.approx(want, rel=1e-12)


def test_fidelity_mode_count_mismatch():
    with pytest.raises(DimensionError):
        gaussian_fidelity(vacuum_cm(1), vacuum_cm(2))


def _unchecked_state(data):
    """A CovMatrix that skipped the bona fide check, like a corrupted input."""
    state = object.__new__(CovMatrix)
    state.n_modes = data.shape[0] // 2
    state.data = data
    state.mean = np.zeros(data.shape[0])
    state.spectrum = np.full(state.n_modes, 0.5)
    state.is_pure = False
    return state


@pytest.mark.parametrize("a, bad", [
    # pure-overlap form: det(V_a + V_b) < 0
    (vacuum_cm(1), _unchecked_state(np.diag([0.1, -1.0]))),
    # mixed-state form: an indefinite matrix pushes F above 1
    (CovMatrix(1.5 * np.eye(2)), _unchecked_state(np.diag([2.0, -0.5]))),
])
def test_non_bona_fide_pair_raises_in_both_forms(a, bad):
    with pytest.raises(NumericError):
        gaussian_fidelity(a, bad)
    states = [a, CovMatrix(0.7 * np.eye(2)), bad]
    with pytest.raises(NumericError):
        stacked_fidelities(np.stack([s.data for s in states]), np.stack([s.mean for s in states]), [(0, 1), (0, 2)])


def test_fidelities_of_no_states_is_empty():
    a = tmsv_cm(2.5)
    got = stacked_fidelities(a.data[None], a.mean[None], [])
    assert got.shape == (0,)


def _record_fidelity_inputs(monkeypatch) -> tuple[list, list]:
    """Patch ``gaussian._fidelity`` to record, per pair it evaluates, the
    exact bytes of its canonical inputs and its route: (mixed, V1, V2,
    mean difference); and per call, its route and number of pairs."""
    inputs, stacks = [], []
    fidelity = gaussian._fidelity

    def recording(v1, v2, mixed, delta):
        inputs.extend((mixed, a.tobytes(), b.tobytes(), d.tobytes()) for a, b, d in zip(v1, v2, delta))
        stacks.append((mixed, len(v1)))
        return fidelity(v1, v2, mixed, delta)

    monkeypatch.setattr(gaussian, "_fidelity", recording)
    return inputs, stacks


def test_fidelities_beyond_the_stack_cap_equal_scalar_calls(monkeypatch):
    # with the float budget at eight pairs of 2-mode states per stacked
    # call, both purity groups run their keys in several chunks and their
    # distinct canonical pairs in several stacked calls; self-pairs give
    # exactly 1
    a = coherent_cm([0.3 - 0.1j, 0.2j])
    others = []
    for k in range(21):
        others.append(coherent_cm([0.01 * k, -0.02j * k]))
        others.append(CovMatrix(np.diag(np.repeat([0.5 + 0.03 * k, 0.6 + 0.01 * k], 2))))
    states = [a, *others]
    data = np.stack([s.data for s in states])
    means = np.stack([s.mean for s in states])
    pairs = [(0, j) for j in range(1, len(states))]
    pairs += [(i, j) for i in range(1, len(states), 7) for j in range(1, len(states))]
    inputs, stacks = _record_fidelity_inputs(monkeypatch)
    want = [gaussian_fidelity(states[i], states[j]) for i, j in pairs]
    distinct = set(inputs)
    inputs.clear()
    stacks.clear()
    chunks = budget_pairs(monkeypatch, 8, 2)
    got = stacked_fidelities(data, means, pairs).tolist()
    assert got == want
    assert len(inputs) == len(distinct) and set(inputs) == distinct
    for mixed in (False, True):
        sizes = [size for route, size in stacks if route == mixed]
        assert len(sizes) > 2 and max(sizes) == 8
    assert len(chunks) > 2 and max(chunks) == 32


@pytest.mark.parametrize("kind", ["pure", "mixed", "correlated"])
def test_each_distinct_canonical_pair_reaches_the_formula_once(monkeypatch, kind):
    # outputs of a symmetric 3-mode block for every pattern, so mirror-image
    # patterns give pairs with one canonical form; every pair in both
    # argument orders, repeated past one key chunk so that copies of a pair
    # sit on both sides of a chunk boundary.  "pure" pairs each output with
    # the pure probe, "mixed" pairs outputs without x-p correlations, and
    # "correlated" outputs of a probe whose every mode is phase-rotated
    # alike: one route group each
    probe = ghz_cm(3, 4.5)
    if kind == "correlated":
        c, s = np.cos(0.4), np.sin(0.4)
        rot = np.kron(np.eye(3), [[c, -s], [s, c]])  # one phase rotation per mode
        probe = CovMatrix(rot @ probe.data @ rot.T)
    family = ChannelFamily.thermal(0.9, 1.3, 0.7, 0.6)
    outputs = [apply_pattern(probe, family, bits) for bits in itertools.product((0, 1), repeat=3)]
    states = [probe, *outputs] if kind == "pure" else outputs
    if kind == "pure":
        ordered = [(0, k) for k in range(1, len(states))] + [(k, 0) for k in range(1, len(states))]
    else:
        ordered = [(i, j) for i in range(len(states)) for j in range(len(states)) if i != j]
    per_chunk = 16  # four pairs per stacked call
    pairs = ordered * (per_chunk // len(ordered) + 2)
    inputs, _ = _record_fidelity_inputs(monkeypatch)
    want = [gaussian_fidelity(states[i], states[j]) for i, j in pairs]
    keys = inputs[:]  # one scalar call per pair, each pair its own group of one
    assert len(keys) == len(pairs) and len({key[0] for key in keys}) == 1
    assert (kind == "correlated") == bool(np.abs(states[0].data[0::2, 1::2]).max() > 0.1)
    distinct = set(keys)
    # mirror images: fewer distinct canonical pairs than unordered index pairs
    assert len(distinct) < len({frozenset(pair) for pair in ordered})
    # some canonical pair has copies in two key chunks
    chunks = {}
    for at, key in enumerate(keys):
        chunks.setdefault(key, set()).add(at // per_chunk)
    assert max(len(c) for c in chunks.values()) > 1
    inputs.clear()
    sizes = budget_pairs(monkeypatch, per_chunk // 4, 3)
    got = stacked_fidelities(np.stack([s.data for s in states]), np.stack([s.mean for s in states]), pairs)
    assert sizes[0] == per_chunk and len(sizes) == -(-len(pairs) // per_chunk)
    assert got.tolist() == want
    assert len(inputs) == len(distinct) and set(inputs) == distinct


def test_canonical_pick_equals_the_whole_array_pick(rng):
    # symmetric 3-mode states whose X and P differ off the diagonal alone,
    # so many candidates tie on their mode codes; phase-rotated copies
    # (x-p correlated), displaced copies, some alike on every mode, mode
    # permutations, random symmetric matrices, and exact copies
    states = []
    for c1, c2 in ((0.3, -0.3), (0.3, -0.2), (0.2, -0.3), (0.0, 0.1)):
        x, p = np.full((3, 3), c1), np.full((3, 3), c2)
        np.fill_diagonal(x, 1.5)
        np.fill_diagonal(p, 1.5)
        states.append((_x_plus_p(x, p), np.zeros(6)))
    rot = np.kron(np.eye(3), [[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    states += [(rot @ v @ rot.T, m) for v, m in states[:3]]
    states += [(v, np.tile([0.2, -0.1], 3)) for v, _ in states[:6:2]]
    states += [(v, rng.choice([0.0, 0.5], 6)) for v, _ in states[1:7:2]]
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        q = (2 * np.array(perm)[:, None] + np.arange(2)).ravel()
        states += [(v[np.ix_(q, q)], m[q]) for v, m in states[5:14:4]]
    for _ in range(4):
        g = rng.standard_normal((6, 6))
        states.append((g @ g.T + np.eye(6), rng.standard_normal(6)))
    states += states[:3]
    data, means = (np.stack(part) for part in zip(*states))
    code, count = gaussian._mode_codes(data, means)
    free = ~data[:, 0::2, 1::2].any(axis=(1, 2))
    i, j = np.array([(a, b) for a in range(len(states)) for b in range(len(states))]).T
    both = free[i] & free[j]
    assert both.any() and not both.all()
    for in_free in (True, False):
        a, b = i[both == in_free], j[both == in_free]
        (first, second), order = gaussian._canonical(data, code, count, np.stack([a, b]), gaussian._template(3, in_free))
        assert list(zip(first.tolist(), second.tolist(), order.tolist())) == whole_array_pick(data, means, a, b)
        # pairs whose candidates tie on their sorted codes, in either pick
        tie = (np.sort(code[a] * count + code[b]) == np.sort(code[b] * count + code[a])).all(axis=1)
        assert 0 < (tie & (first == a)).sum() and 0 < (tie & (first == b) & (a != b)).sum()


def test_stacked_fidelities_canonicalise_each_pair_as_gaussian_fidelity():
    # duplicates at other indices, both orders of every pair, self-pairs,
    # and pure and mixed states, some displaced.  With a pure member at
    # mu ~ 1000 the mixed form is off by 1e-6 to 1e-4, so each group must
    # take the pure flags of its pair's own two states; the pure member is
    # first in canonical order in one such pair and second in the other.
    tmsv = tmsv_cm(3.5)
    lossy = apply_mode_channels(tmsv, [0.8, 0.6], [0.1, 0.25])
    states = [
        lossy,
        tmsv,
        coherent_cm([0.3 + 0.2j, -0.1j]),
        CovMatrix(lossy.data, [0.2, -0.1, 0.05, 0.3]),
        CovMatrix(np.diag(np.repeat([0.9, 1.4], 2))),
        CovMatrix(tmsv.data, [0.1, 0.0, -0.2, 0.4]),
        tmsv_cm(1e3),
        apply_mode_channels(tmsv, [0.99, 0.97], [0.005, 0.015]),
        CovMatrix(tmsv_cm(1e3).data, [0.0, 0.1, 0.0, 0.0]),
        tmsv_cm(1000.1),
        apply_mode_channels(tmsv_cm(1000.1), [0.999, 0.999], [0.0005, 0.0005]),
    ]
    states += [CovMatrix(s.data, s.mean) for s in states[::-1]]
    pairs = [(i, j) for i in range(len(states)) for j in range(len(states))]
    got = stacked_fidelities(np.stack([s.data for s in states]), np.stack([s.mean for s in states]), pairs)
    assert got.tolist() == [gaussian_fidelity(states[i], states[j]) for i, j in pairs]


@pytest.mark.parametrize("n", [1, 2, 6, 16])
@pytest.mark.parametrize("axis", [-1, -2])
def test_split_is_exact_and_heads_keep_s_bits(rng, n, axis):
    # entries spread over many orders of magnitude, one zero line per matrix
    x = rng.standard_normal((5, 2 * n, 2 * n)) * 10.0 ** rng.integers(-8, 9, (5, 2 * n, 2 * n))
    (x[:, 0, :] if axis == -2 else x[:, :, 0]).fill(0.0)
    head, tail = gaussian._split(x, axis)
    assert np.array_equal(head + tail, x)
    s = (53 - (2 * n - 1).bit_length()) // 2
    unit = np.ldexp(1.0, np.frexp(np.abs(x).max(axis=axis, keepdims=True))[1] - s)
    digits = head / unit  # exact: a power-of-two scaling
    assert np.array_equal(digits, np.round(digits))
    assert np.abs(digits).max() <= 2.0**s
    # so the head product has no rounding: every entry equals its exact sum
    a, b = gaussian._split(x[0], -1)[0], gaussian._split(x[1], -2)[0]
    exact = [[sum((Fraction(p) * Fraction(q) for p, q in zip(row, col)), Fraction(0)) for col in b.T] for row in a]
    assert (a @ b).tolist() == [[float(v) for v in row] for row in exact]


@pytest.mark.parametrize("m", [2, 3])
def test_stacked_fidelities_equal_scalar_calls_where_the_product_cancels(monkeypatch, m):
    # GHZ/TMSV outputs near purity at mu ~ 50 through loss 0.999 vs 0.998,
    # where V2 Omega V1 cancels far below its terms; with the float budget
    # at eight pairs per stacked call, more pairs than one stack, every
    # state first in many mixed pairs and second in many
    family = ChannelFamily.pure_loss(0.999, 0.998)
    states = [
        apply_pattern(ghz_cm(m, mu), family, bits)
        for mu in (49.5, 50.5)
        for bits in itertools.product((0, 1), repeat=m)
    ]
    assert not any(s.is_pure for s in states)
    pairs = [(i, j) for i in range(len(states)) for j in range(len(states)) if i != j]
    want = [gaussian_fidelity(states[i], states[j]) for i, j in pairs]
    _, stacks = _record_fidelity_inputs(monkeypatch)
    budget_pairs(monkeypatch, 8, m)
    got = stacked_fidelities(np.stack([s.data for s in states]), np.stack([s.mean for s in states]), pairs)
    assert got.tolist() == want
    assert len(stacks) > 1


GOOD_ROW = 0.7 * np.eye(2)
BAD_ROWS = {
    "non-finite": np.diag([np.nan, 0.5]),
    "not bona fide": 0.4 * np.eye(2),
    # not symmetric, so eig(Omega V) has moduli 0.21 and 4.79
    "unpaired spectrum": np.array([[1.0, 5.0], [0.0, 1.0]]),
    # symplectic spectra [1.0] and [2.29] pass the bona fide test; V itself
    # has eigenvalues -1, -1 and -1.5, 3.5
    "negative definite": -np.eye(2),
    "indefinite": np.array([[1.0, 2.5], [2.5, 1.0]]),
}


@pytest.mark.parametrize("bad", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
def test_stacked_check_raises_where_covmatrix_does(bad):
    # the one-matrix case is the check CovMatrix runs after symmetrising
    with pytest.raises(NumericError):
        gaussian._checked(bad)
    for rows in ([bad], [GOOD_ROW, bad], [GOOD_ROW, bad, GOOD_ROW]):
        with pytest.raises(NumericError):
            gaussian._checked(np.stack(rows))
    gaussian._checked(np.stack([GOOD_ROW, GOOD_ROW]))


@pytest.mark.parametrize(
    "bad", [BAD_ROWS[name] for name in ("non-finite", "not bona fide", "negative definite", "indefinite")]
)
def test_stacked_fidelities_reject_rows_covmatrix_rejects(bad):
    with pytest.raises(NumericError):
        CovMatrix(bad)
    with pytest.raises(NumericError):
        stacked_fidelities(np.stack([GOOD_ROW, bad]), np.zeros((2, 2)), [(0, 1)])


@pytest.mark.parametrize("bad", ["negative definite", "indefinite"])
def test_covariance_matrices_must_be_positive_definite(bad):
    # rejected where they are built, not later by a fidelity out of range
    for build in (
        lambda: CovMatrix(BAD_ROWS[bad]),
        lambda: stacked_fidelities(np.stack([SHOT_NOISE * np.eye(2), BAD_ROWS[bad]]), np.zeros((2, 2)), [(0, 1)]),
    ):
        with pytest.raises(NumericError, match="not positive definite"):
            build()


def _x_plus_p(x, p):
    """The interleaved covariance matrix X (+) P, without x-p correlations."""
    n = len(x)
    data = np.zeros((2 * n, 2 * n))
    data[0::2, 0::2] = x
    data[1::2, 1::2] = p
    return data


def _random_channel(rng):
    """A random physical channel: identity, pure loss, additive noise or thermal."""
    kind = rng.integers(4)
    if kind == 0:
        return pure_loss_params(1.0)
    if kind == 1:
        return pure_loss_params(rng.uniform(0.0, 1.0))
    if kind == 2:
        return additive_params(rng.uniform(0.0, 2.0))
    return thermal_params(rng.uniform(0.0, 2.0), rng.uniform(0.5, 3.0))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9])
def test_half_size_spectra_match_the_general_eigensolve(rng, m):
    # GHZ (TMSV at m = 2) and coherent outputs of random physical channels;
    # identity channels on every mode of each fifth output, and loss on
    # coherent states, leave some outputs pure
    probes = [ghz_state(m, mu) for mu in (0.5, 0.7, 2.5, 20.5, 1000.0) if m > 1]
    probes.append(coherent_state(rng.standard_normal(m) + 1j * rng.standard_normal(m)))
    data, means, taus, nus = [], [], [], []
    for k in range(60):
        probe = probes[rng.integers(len(probes))]
        params = [pure_loss_params(1.0) if k % 5 == 0 else _random_channel(rng) for _ in range(m)]
        channels = [p.tau for p in params], [p.nu for p in params]
        for part, value in zip((data, means, taus, nus), (*probe, *channels)):
            part.append(value)
    data, _ = mode_channel_map(np.stack(data), np.stack(means), taus, nus)
    data = 0.5 * (data + data.swapaxes(1, 2))
    half = gaussian._half_spectrum(data)
    assert half is not None
    spectrum, pure = gaussian._checked(data)
    assert np.array_equal(spectrum, half)
    full = gaussian._spectrum_of(data)
    scale = np.maximum(1.0, np.abs(data).max(axis=(-2, -1)))
    slack = gaussian._scale_tol(1e-12, scale)[:, None] * np.maximum(1.0, full)
    assert (np.abs(half - full) <= slack).all()
    assert pure.tolist() == (full[:, -1] <= SHOT_NOISE + gaussian._scale_tol(gaussian.PURITY_TOL, scale)).tolist()
    assert pure.any() and not pure.all()


def test_xp_correlated_states_take_the_general_eigensolve(monkeypatch):
    # V = (nbar + 1/2) R S R^T, whose one symplectic eigenvalue is nbar + 1/2
    # whatever r, theta
    calls, spectrum_of = [], gaussian._spectrum_of
    monkeypatch.setattr(gaussian, "_spectrum_of", lambda data: calls.append(data.shape) or spectrum_of(data))
    single = rotated_squeezed(0.0, 0.8, 0.3)
    pair, _ = direct_sum([(rotated_squeezed(2.3, 1.1, 1.2), np.zeros(2)), (SHOT_NOISE * np.eye(2), np.zeros(2))])
    assert single[0, 1] != 0.0 and pair[0, 1] != 0.0
    spectrum, pure = gaussian._checked(single)
    assert spectrum[0] == pytest.approx(0.5, abs=1e-12) and pure
    spectrum, pure = gaussian._checked(np.stack([pair, _x_plus_p(np.eye(2), np.eye(2))]))
    assert spectrum[0] == pytest.approx([0.5, 2.8], rel=1e-12)
    assert spectrum[1] == pytest.approx([1.0, 1.0], rel=1e-12)
    assert pure.tolist() == [False, False]
    # the x-p-free second state takes the half-size route
    assert calls == [(2, 2), (1, 4, 4)]


def test_mixed_stack_checks_each_state_as_its_own_check(monkeypatch):
    # x-p-correlated states among GHZ outputs and a coherent state: one
    # check per route, so each state's spectrum and purity flag are those
    # of its own one-state check, and only the correlated states reach the
    # 2n x 2n eigensolve
    probe = ghz_cm(3, 2.5)
    free = [coherent_cm([0.2, -0.1j, 0.3])] + [apply_pattern(probe, ChannelFamily.pure_loss(0.9, 0.7), bits)
                                                for bits in ((0, 0, 1), (1, 0, 1))]
    correlated = [squeezed_product((0.0, 0.8, 0.3), (0.4, 0.2, 1.0), (1.1, 0.5, 2.0)),
                  squeezed_product((0.0, 0.3, 0.5), (0.0, 0.1, 2.5), (0.0, 0.7, 1.5))]
    data = np.stack([correlated[0], *(s.data for s in free[:2]), correlated[1], free[2].data])
    calls, spectrum_of = [], gaussian._spectrum_of
    monkeypatch.setattr(gaussian, "_spectrum_of", lambda data: calls.append(data.shape) or spectrum_of(data))
    spectrum, pure = gaussian._checked(data)
    assert calls == [(2, 6, 6)]
    alone = [gaussian._checked(state) for state in data]
    assert all(np.array_equal(got, want) for got, (want, _) in zip(spectrum, alone))
    assert pure.tolist() == [bool(flag) for _, flag in alone] == [False, True, False, True, False]


XP_FREE_BAD_ROWS = {
    "non-finite": _x_plus_p(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(2)),
    "not bona fide": _x_plus_p(0.4 * np.eye(2), 0.4 * np.eye(2)),
    # X and P positive definite, eig(X P) = 0.2 and 1
    "not bona fide, definite blocks": _x_plus_p(np.diag([2.0, 1.0]), np.diag([0.1, 1.0])),
    "negative definite": _x_plus_p(-np.eye(2), -np.eye(2)),
    # the 2n x 2n route finds this one not bona fide before its Cholesky
    "negative definite, not bona fide": _x_plus_p(-0.1 * np.eye(2), -0.1 * np.eye(2)),
    # its 2n x 2n spectrum sqrt(1.5), sqrt(3.5) passes the bona fide test
    "indefinite X": _x_plus_p(np.array([[1.0, 2.5], [2.5, 1.0]]), np.eye(2)),
    "indefinite P": _x_plus_p(np.eye(2), np.array([[1.0, 2.5], [2.5, 1.0]])),
}


@pytest.mark.parametrize("bad", list(XP_FREE_BAD_ROWS.values()), ids=list(XP_FREE_BAD_ROWS))
def test_half_size_check_raises_as_the_general_route(monkeypatch, bad):
    good = _x_plus_p(0.7 * np.eye(2), 0.7 * np.eye(2))

    def messages():
        out = []
        for data in (bad, np.stack([bad]), np.stack([good, bad, good])):
            with pytest.raises(NumericError) as exc:
                gaussian._checked(data)
            out.append(str(exc.value))
        return out

    got = messages()
    monkeypatch.setattr(gaussian, "_half_spectrum", lambda data: None)  # the 2n x 2n route alone
    assert got == messages()


def _exact_ghz_output(m, mu, taus, nus):
    """X and P blocks, at the working mpmath precision, of the GHZ state
    ``ghz_state(m, mu)`` after a (tau_k, nu_k) channel on each mode, built
    from the parameters rather than from rounded matrices."""
    mu = mpmath.mpf(mu)
    c = mpmath.sqrt(mu * mu - mpmath.mpf(1) / 4) / (m - 1)
    roots = [mpmath.sqrt(mpmath.mpf(t)) for t in taus]
    x, p = mpmath.matrix(m), mpmath.matrix(m)
    for k in range(m):
        for l in range(m):
            x[k, l] = (mu if k == l else c) * roots[k] * roots[l]
            p[k, l] = (mu if k == l else -c) * roots[k] * roots[l]
        x[k, k] += mpmath.mpf(nus[k])
        p[k, k] += mpmath.mpf(nus[k])
    return x, p


def _exact_fidelity(a, b, nudge=None):
    """Fidelity of two states without x-p correlations from their (X, P)
    blocks: the squared auxiliary moduli are eig(A B) with
    A = (P1 + P2)^-1 (I/4 + P2 X1) and B = (X1 + X2)^-1 (I/4 + X2 P1), each
    adding asinh(sqrt(4 w^2 - 1)) = log(2w + sqrt(4w^2 - 1)) to 2 log F.

    mpmath's QR iteration stalls on the exactly degenerate spectra of
    symmetric pattern pairs; a fixed perturbation ``nudge`` of A B splits
    them, by default one 1e-40 below the entries, which moves no eigenvalue
    by more than about 1e-20."""
    (x1, p1), (x2, p2) = a, b
    quarter = mpmath.eye(x1.rows) / 4
    sx, sp = x1 + x2, p1 + p2
    ab = mpmath.inverse(sp) * (quarter + p2 * x1) * mpmath.inverse(sx) * (quarter + x2 * p1)
    if nudge is None:
        nudge = mpmath.matrix([[mpmath.mpf(10) ** -40 / (k + 2 * l + 1) for l in range(ab.cols)] for k in range(ab.rows)])
    terms = sum(mpmath.asinh(mpmath.sqrt(max(4 * mpmath.re(w2) - 1, 0)))
                for w2 in mpmath.eig(ab + nudge, left=False, right=False))
    return mpmath.exp(terms / 2) / (mpmath.det(sx) * mpmath.det(sp)) ** mpmath.mpf(0.25)


def _blocks_of(data):
    """The X and P blocks of an interleaved float matrix, as mpmath matrices."""
    return mpmath.matrix(data[0::2, 0::2].tolist()), mpmath.matrix(data[1::2, 1::2].tolist())


def test_exact_block_fidelity_is_the_mixed_state_formula():
    # the X/P reduction the accuracy reference uses agrees with the 2n x 2n
    # matrix-function form on the same float matrices, to far below the
    # errors measured against it
    family = ChannelFamily.pure_loss(0.97, 0.99)
    for m, mu in ((2, 3.5), (3, 20.5), (4, 7.3)):
        probe = ghz_cm(m, mu)
        a = apply_pattern(probe, family, (1,) + (0,) * (m - 1))
        b = apply_pattern(probe, family, (0,) * (m - 1) + (1,))
        with mpmath.workdps(50):
            got = _exact_fidelity(_blocks_of(a.data), _blocks_of(b.data))
        assert abs(float(got) - fidelity_sqrtm_reference(a.data, b.data)) < 1e-15


# Measured worst relative errors on these cases at 2 / 3 / 4 modes: 4.6e-13,
# 1.2e-13 and 4.6e-13 for the half-size form; 7.9e-13, 1.0e-12 and 5.7e-12
# when every mixed pair took the 2n x 2n form
FIDELITY_ACCURACY = 1.5e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_block_fidelities_match_exact_arithmetic(m):
    # GHZ (TMSV at m = 2) outputs over the advantage surfaces' grid: pure
    # loss eta-b 0.95-0.999 against a perfect target, additive noise nu-b
    # 0.012-0.1 against 0.01, N_S 1-50; the reference is built from the
    # parameters in 50-digit arithmetic
    rng = np.random.default_rng(24 + m)
    data, means, cases = [], [], []
    for k in range(150):
        if k % 2:
            family = ChannelFamily.additive(rng.uniform(0.012, 0.1), 0.01)
        else:
            family = ChannelFamily.pure_loss(rng.uniform(0.95, 0.999), 1.0)
        mu = float(np.exp(rng.uniform(0.0, np.log(50.0)))) + SHOT_NOISE
        pa = tuple(int(bit) for bit in rng.integers(0, 2, m))
        pb = tuple(int(bit) for bit in rng.integers(0, 2, m))
        if pa == pb:
            pb = tuple(1 - bit for bit in pa)
        probe = ghz_state(m, mu)
        for pattern in (pa, pb):
            params = [family.params(bit) for bit in pattern]
            taus, nus = [q.tau for q in params], [q.nu for q in params]
            state = mode_channel_map(*probe, taus, nus)
            data.append(state[0])
            means.append(state[1])
            cases.append((mu, taus, nus))
    got = stacked_fidelities(np.stack(data), np.stack(means), [(k, k + 1) for k in range(0, len(data), 2)])
    with mpmath.workdps(50):
        want = [float(_exact_fidelity(_exact_ghz_output(m, *cases[k]), _exact_ghz_output(m, *cases[k + 1])))
                for k in range(0, len(data), 2)]
    errors = np.abs(got - want) / want
    assert errors.max() < FIDELITY_ACCURACY


@pytest.mark.parametrize("family", [ChannelFamily.pure_loss(0.99, 0.97), ChannelFamily.additive(0.02, 0.01)],
                         ids=["loss", "noise"])
def test_quotient_block_fidelities_are_no_less_accurate_than_the_whole_block(family):
    # a 9-channel GHZ block at mu 20.5, the m = 9 figures' probe, on every
    # fourth of its 115 (n00, n01, n10, n11) classes (29), each at its
    # representative pair, in the order of the integers whose bits are
    # a0..a8 b0..b8: block_fidelities takes the block's quotient, stacked_fidelities on
    # the 9-mode outputs is the route it replaced, and the reference is
    # built from the parameters at 70 digits.  The structured 1e-40 nudge of
    # _exact_fidelity stalls mpmath's QR iteration at 9 modes; a fixed
    # pseudo-random one of 1e-45 does not.  Measured worst relative errors
    # on -log F, quotient against whole block: 4.2e-12 against 1.7e-11
    # under loss, 2.1e-9 against 2.7e-9 under noise (on all 115 classes
    # 1.1e-11 against 1.7e-11 and 2.1e-9 against 2.7e-9; class by class
    # either route may be the closer one)
    m, mu = 9, 20.5
    pairs = sorted((pair for pair in class_pairs(m) if pair[0] != pair[1]),
                   key=lambda pair: sum(bit << k for k, bit in enumerate(pair[0] + pair[1])))[::4]
    desc = BlockDescriptor("ghz", tuple(range(m)), mu=mu)
    blocks._BLOCK_FID_CACHE.clear()
    quotient = blocks.block_fidelities([(desc, family)], pair_codes(pairs))[0]
    patterns = sorted({local for pair in pairs for local in pair})
    row = {local: r for r, local in enumerate(patterns)}
    taus, nus = layout_channels(family, desc.layout, patterns)
    whole = stacked_fidelities(*mode_channel_map(*(part[None] for part in desc.state()), taus, nus),
                               [(row[a], row[b]) for a, b in pairs])
    with mpmath.workdps(70):
        nudge = mpmath.matrix(np.random.default_rng(9).uniform(-1.0, 1.0, (m, m)).tolist()) * mpmath.mpf(10) ** -45
        want = np.array([float(-mpmath.log(_exact_fidelity(*(_exact_ghz_output(m, mu, taus[row[p]], nus[row[p]])
                                                            for p in pair), nudge)))
                         for pair in pairs])
    errors = [np.abs(-np.log(got) - want) / want for got in (quotient, whole)]
    assert errors[0].max() <= errors[1].max()


def _route_calls(monkeypatch):
    """Record the form each ``_fidelity`` stack takes: 'half' (the
    half-size form evaluated it), 'half declined', 'full mixed' or
    'full pure' (the 2n x 2n form with or without the mixed-state terms)."""
    calls, half, full = [], gaussian._half_log_fidelity, gaussian._full_log_fidelity

    def recording_half(*args):
        out = half(*args)
        calls.append("half" if out is not None else "half declined")
        return out

    def recording_full(v1, v2, mixed, delta):
        calls.append("full mixed" if mixed else "full pure")
        return full(v1, v2, mixed, delta)

    monkeypatch.setattr(gaussian, "_half_log_fidelity", recording_half)
    monkeypatch.setattr(gaussian, "_full_log_fidelity", recording_full)
    return calls


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_phase_insensitive_pairs_take_the_half_size_route(monkeypatch, rng, m):
    # GHZ and coherent outputs of random physical channels; the half-size
    # and 2n x 2n forms agree to about 1e-12 on every mixed pair
    probes = [ghz_state(m, mu) for mu in (0.7, 2.5, 20.5) if m > 1]
    probes.append(coherent_state(rng.standard_normal(m) + 1j * rng.standard_normal(m)))
    data, means = [], []
    for _ in range(12):
        probe = probes[rng.integers(len(probes))]
        params = [_random_channel(rng) for _ in range(m)]
        state = mode_channel_map(*probe, [q.tau for q in params], [q.nu for q in params])
        data.append(state[0])
        means.append(state[1])
    data, means = np.stack(data), np.stack(means)
    pairs = list(itertools.combinations(range(len(data)), 2))
    calls = _route_calls(monkeypatch)
    half = stacked_fidelities(data, means, pairs)
    assert "half" in calls and not {"half declined", "full mixed"} & set(calls)
    monkeypatch.setattr(gaussian, "_half_log_fidelity", lambda *args: None)  # the 2n x 2n route alone
    full = stacked_fidelities(data, means, pairs)
    assert half == pytest.approx(full, rel=1e-12, abs=0.0)


def test_xp_correlated_pairs_take_the_general_route(monkeypatch):
    # products of rotated squeezed thermal states, each in a mixed pair
    # with another such state or with a phase-insensitive one; the pair of
    # two phase-insensitive states in the same call takes the half-size form
    data = np.stack([
        squeezed_product((0.2, 0.8, 0.3), (0.1, 0.5, 1.1)),
        squeezed_product((0.25, 0.7, 0.35), (0.1, 0.55, 1.0)),
        _x_plus_p(np.diag([1.2, 0.9]), np.diag([0.8, 1.1])),
        _x_plus_p(np.array([[1.0, 0.3], [0.3, 1.4]]), np.diag([0.9, 1.3])),
    ])
    assert data[0, 0, 1] != 0.0 and data[1, 0, 1] != 0.0
    pairs = [(0, 1), (0, 2), (3, 1), (2, 3)]
    calls = _route_calls(monkeypatch)
    got = stacked_fidelities(data, np.zeros((4, 4)), pairs)
    assert calls == ["half", "full mixed"]  # one stack per route, the half-size one first
    want = [fidelity_sqrtm_reference(data[i], data[j]) for i, j in pairs]
    assert got == pytest.approx(want, rel=1e-12)


# Unchecked mixed pairs without x-p correlations, as a corrupted input would
# reach ``_fidelity``.  Non-finite entries are left out: every input is
# checked finite first, and both routes then stop in LAPACK.
XP_FREE_BAD_PAIRS = {
    **{name: (_x_plus_p(0.7 * np.eye(2), 0.7 * np.eye(2)), row)
       for name, row in XP_FREE_BAD_ROWS.items() if name != "non-finite"},
    # the mixed pair of test_non_bona_fide_pair_raises_in_both_forms
    "indefinite, one mode": (1.5 * np.eye(2), np.diag([2.0, -0.5])),
    "indefinite sums": (_x_plus_p(np.diag([1.0, -2.0, 1.0]), np.eye(3)), _x_plus_p(np.eye(3), np.eye(3))),
    "negative definite pair": (_x_plus_p(-np.eye(2), -np.eye(2)), _x_plus_p(-0.5 * np.eye(2), -0.5 * np.eye(2))),
}


@pytest.mark.parametrize("pair", list(XP_FREE_BAD_PAIRS.values()), ids=list(XP_FREE_BAD_PAIRS))
def test_half_size_fidelity_raises_where_the_general_route_does(monkeypatch, pair):
    def raises():
        out = []
        for a, b in (pair, pair[::-1]):
            try:
                gaussian._fidelity(a[None], b[None], True, np.zeros((1, len(a))))
            except NumericError:
                out.append(True)
            else:
                out.append(False)
        return out

    got = raises()
    monkeypatch.setattr(gaussian, "_half_log_fidelity", lambda *args: None)  # the 2n x 2n route alone
    assert got == raises()


def test_stacked_fidelities_reject_bad_means_and_shapes():
    data = np.stack([GOOD_ROW, GOOD_ROW])
    with pytest.raises(NumericError):
        stacked_fidelities(data, np.array([[0.0, 0.0], [np.inf, 0.0]]), [(0, 1)])
    with pytest.raises(DimensionError):
        stacked_fidelities(GOOD_ROW, np.zeros(2), [])
    with pytest.raises(DimensionError):
        stacked_fidelities(data, np.zeros((2, 4)), [])


@st.composite
def gaussian_states(draw, n):
    """Pure (coherent, squeezed), thermal and channel-mixed n-mode states,
    optionally displaced."""
    kind = draw(st.sampled_from(("coherent", "squeezed", "thermal", "channel")))
    if kind == "coherent":
        amps = st.complex_numbers(max_magnitude=2.0)
        return coherent_cm(draw(st.lists(amps, min_size=n, max_size=n)))
    if kind == "thermal":
        occupation = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)))
        state = CovMatrix(np.diag(np.repeat(occupation + 0.5, 2)))
    else:
        mu = draw(st.floats(0.6, 40.0))
        state = ghz_cm(n, mu) if n > 1 else CovMatrix(np.diag([mu, 0.25 / mu]))
        if kind == "channel":
            # loss tau plus excess noise on top of the vacuum it lets in
            taus = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
            excess = np.array(draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n)))
            state = apply_mode_channels(state, taus, (1.0 - taus) / 2.0 + excess)
    if draw(st.booleans()):
        state = CovMatrix(state.data, draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n, max_size=2 * n)))
    return state


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_fidelities_equal_scalar_calls_bit_for_bit(data, n):
    a = data.draw(gaussian_states(n))
    others = data.draw(st.lists(gaussian_states(n), min_size=1, max_size=6))
    others.insert(data.draw(st.integers(0, len(others))), a)
    states = [a, *others]
    covs = np.stack([s.data for s in states])
    means = np.stack([s.mean for s in states])
    got = stacked_fidelities(covs, means, [(0, j) for j in range(1, len(states))]).tolist()
    assert got == [gaussian_fidelity(a, b) for b in others]
    assert got == [gaussian_fidelity(b, a) for b in others]
    assert got == stacked_fidelities(covs, means, [(j, 0) for j in range(1, len(states))]).tolist()


@settings(max_examples=30, deadline=None)
@given(family=any_family(), pa=patterns(3), pb=patterns(3), mu=st.floats(0.6, 50.0))
def test_fidelity_symmetric_and_in_range(family, pa, pb, mu):
    probe = ghz_cm(3, mu)
    a = apply_pattern(probe, family, pa)
    b = apply_pattern(probe, family, pb)
    fab = gaussian_fidelity(a, b)
    fba = gaussian_fidelity(b, a)
    assert fab == fba
    assert 0.0 <= fab <= 1.0


@settings(max_examples=25, deadline=None)
@given(family=any_family(), pa=patterns(2), pb=patterns(2),
       mu1=st.floats(0.6, 40.0), mu2=st.floats(0.6, 40.0))
def test_fidelity_multiplicative_over_blocks(family, pa, pb, mu1, mu2):
    a1 = apply_pattern(tmsv_cm(mu1), family, pa)
    b1 = apply_pattern(tmsv_cm(mu1), family, pb)
    a2 = apply_pattern(tmsv_cm(mu2), family, pa[::-1])
    b2 = apply_pattern(tmsv_cm(mu2), family, pb[::-1])
    joint = gaussian_fidelity(tensor(a1, a2), tensor(b1, b2))
    split = gaussian_fidelity(a1, b1) * gaussian_fidelity(a2, b2)
    assert joint == pytest.approx(split, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(family=any_family(), pa=patterns(2), pb=patterns(2), mu=st.floats(0.6, 60.0))
# a case that once failed here, near purity at large mu
@example(family=ChannelFamily.pure_loss(0.7622, 0.9914), pa=(1, 0), pb=(1, 1), mu=53.807)
def test_fidelity_agrees_with_matrix_function_reference(family, pa, pb, mu):
    from hypothesis import assume

    a = apply_pattern(tmsv_cm(mu), family, pa)
    b = apply_pattern(tmsv_cm(mu), family, pb)
    # the reference has no branch protection for pure tensor factors;
    # compare on solidly mixed states
    assume(pa != pb)
    assume(min(a.spectrum[0], b.spectrum[0]) > 0.5 + 1e-2)
    got = gaussian_fidelity(a, b)
    ref = fidelity_sqrtm_reference(a.data, b.data)
    assert got == pytest.approx(ref, rel=1e-10)


def test_fidelity_matches_fock_truncation_oracle():
    """Fully independent check: build the states in a truncated photon-number
    basis, apply the loss channel through its Kraus operators, and compute
    the Uhlmann fidelity by direct matrix algebra.

    Shares no code and no phase-space formalism with the production path,
    so it pins the conventions (intensity transmissivity, shot noise 1/2,
    square-root fidelity).  Agreement is limited to ~1e-8 by square-root
    noise at the truncated density matrices' zero eigenvalues.
    """
    mu, eta_b, eta_t = 0.8, 0.7, 0.5
    dim, kmax = 26, 14

    r = 0.5 * np.arccosh(2.0 * mu)
    lam = np.tanh(r)
    psi = np.zeros(dim * dim)
    for n in range(dim):
        psi[n * dim + n] = lam**n
    psi *= np.sqrt(1.0 - lam * lam)
    rho0 = np.outer(psi, psi)

    lower = np.zeros((dim, dim))
    for n in range(1, dim):
        lower[n - 1, n] = np.sqrt(n)

    def loss_kraus(eta):
        eta_half_n = np.diag(np.sqrt(eta) ** np.arange(dim))
        ops, ak, fact = [], np.eye(dim), 1.0
        for k in range(kmax + 1):
            if k:
                ak = ak @ lower
                fact *= k
            ops.append(np.sqrt((1 - eta) ** k / fact) * eta_half_n @ ak)
        return ops

    def apply_loss(rho, eta, mode):
        eye = np.eye(dim)
        out = np.zeros_like(rho)
        for op in loss_kraus(eta):
            full = np.kron(op, eye) if mode == 0 else np.kron(eye, op)
            out += full @ rho @ full.T
        return out

    def uhlmann(rho, sigma):
        w, v = np.linalg.eigh(rho)
        sq = (v * np.sqrt(np.clip(w, 0, None))) @ v.T
        ev = np.clip(np.linalg.eigvalsh(sq @ sigma @ sq), 0, None)
        return float(np.sum(np.sqrt(ev)))

    def fock_output(pattern):
        etas = [eta_b if b == 0 else eta_t for b in pattern]
        return apply_loss(apply_loss(rho0, etas[0], 0), etas[1], 1)

    family = ChannelFamily.pure_loss(eta_b, eta_t)
    for pat_a, pat_b in (((0, 1), (1, 0)), ((0, 0), (0, 1)), ((0, 0), (1, 1))):
        fock = uhlmann(fock_output(pat_a), fock_output(pat_b))
        out_a = apply_pattern(tmsv_cm(mu), family, pat_a)
        out_b = apply_pattern(tmsv_cm(mu), family, pat_b)
        gauss = gaussian_fidelity(out_a, out_b)
        assert gauss == pytest.approx(fock, abs=5e-8)


def test_tensor_concatenates_means():
    a = coherent_cm([1.0])
    b = vacuum_cm(1)
    joint = tensor(a, b)
    assert joint.n_modes == 2
    assert joint.mean[0] == pytest.approx(np.sqrt(2.0))
    assert np.all(joint.mean[2:] == 0)
