import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiprobe.channels import ChannelFamily, apply_mode_channels, apply_pattern
from multiprobe.errors import DimensionError, EnergyError, NumericError, PartitionError
from multiprobe import gaussian
from multiprobe.gaussian import (
    SHOT_NOISE,
    STACK_MAX_PAIRS,
    CovMatrix,
    coherent_cm,
    gaussian_fidelities,
    gaussian_fidelity,
    ghz_cm,
    ghz_spectrum_closed_form,
    stacked_fidelities,
    symplectic_form,
    symplectic_spectrum,
    tensor,
    tmsv_cm,
    vacuum_cm,
)

from conftest import any_family, fidelity_sqrtm_reference, patterns


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
    with pytest.raises(DimensionError):
        gaussian_fidelities(vacuum_cm(1), [vacuum_cm(1), vacuum_cm(2)])


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
    with pytest.raises(NumericError):
        gaussian_fidelities(a, [CovMatrix(0.7 * np.eye(2)), bad])


def test_fidelities_of_no_states_is_empty():
    got = gaussian_fidelities(tmsv_cm(2.5), [])
    assert got.shape == (0,)


def test_fidelities_beyond_the_stack_cap_equal_scalar_calls():
    # both purity groups longer than one stack
    a = coherent_cm([0.3 - 0.1j, 0.2j])
    others = []
    for k in range(2 * STACK_MAX_PAIRS + 5):
        others.append(coherent_cm([0.01 * k, -0.02j * k]))
        others.append(CovMatrix(np.diag(np.repeat([0.5 + 0.03 * k, 0.6 + 0.01 * k], 2))))
    got = gaussian_fidelities(a, others).tolist()
    assert got == [gaussian_fidelity(a, b) for b in others]
    data = np.stack([s.data for s in others])
    means = np.stack([s.mean for s in others])
    pairs = [(i, j) for i in range(0, len(others), 7) for j in range(len(others))]
    got = stacked_fidelities(data, means, pairs).tolist()
    assert got == [gaussian_fidelity(others[i], others[j]) for i, j in pairs]


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
    got = gaussian_fidelities(a, others).tolist()
    assert got == [gaussian_fidelity(a, b) for b in others]
    assert got == [gaussian_fidelity(b, a) for b in others]
    assert got == [gaussian_fidelities(b, [a])[0] for b in others]


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
