import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiprobe.channels import (
    ChannelFamily,
    additive_params,
    apply_pattern_with_idlers,
    layout_channels,
    pure_loss_params,
    thermal_params,
)
from multiprobe.errors import DimensionError
from multiprobe.gaussian import gaussian_fidelity, ghz_cm, tensor, tmsv_cm, vacuum_cm

from conftest import any_family, apply_pattern, patterns


def test_param_constructors_derive_noise():
    assert pure_loss_params(0.9).nu == pytest.approx(0.05)
    assert additive_params(0.02) == additive_params(0.02)
    assert thermal_params(0.8, 1.5).nu == pytest.approx(0.3)
    assert thermal_params(1.25, 0.5).nu == pytest.approx(0.125)


def test_param_constructors_reject_unphysical():
    with pytest.raises(ValueError):
        pure_loss_params(1.2)
    with pytest.raises(ValueError):
        additive_params(-0.1)
    with pytest.raises(ValueError):
        thermal_params(0.9, 0.4)


def test_family_rejects_identical_channels():
    with pytest.raises(ValueError, match="identical"):
        ChannelFamily.pure_loss(0.97, 0.97)


def test_zero_noise_additive_is_identity():
    family = ChannelFamily.additive(0.0, 0.3)
    state = ghz_cm(3, 4.2)
    out = apply_pattern(state, family, (0, 0, 0))
    assert np.allclose(out.data, state.data, atol=1e-15)


def test_pure_loss_fixes_vacuum():
    family = ChannelFamily.pure_loss(0.7, 0.2)
    for pattern in [(0, 0), (0, 1), (1, 1)]:
        out = apply_pattern(vacuum_cm(2), family, pattern)
        assert np.allclose(out.data, 0.5 * np.eye(4), atol=1e-15)


def test_tmsv_through_loss_hand_expansion():
    # diagonal blocks (eta_k mu + (1 - eta_k)/2) I, off-diagonal
    # sqrt(eta_b eta_t) diag(c, -c)
    mu, eta_b, eta_t = 20.5, 0.99, 0.97
    family = ChannelFamily.pure_loss(eta_b, eta_t)
    out = apply_pattern(tmsv_cm(mu), family, (0, 1))
    c = np.sqrt(mu**2 - 0.25)
    want = np.zeros((4, 4))
    want[:2, :2] = (eta_b * mu + (1 - eta_b) / 2) * np.eye(2)
    want[2:, 2:] = (eta_t * mu + (1 - eta_t) / 2) * np.eye(2)
    want[:2, 2:] = want[2:, :2] = np.sqrt(eta_b * eta_t) * np.diag([c, -c])
    assert np.allclose(out.data, want, atol=1e-12)


def test_loss_scales_means():
    from multiprobe.gaussian import coherent_cm

    family = ChannelFamily.pure_loss(0.81, 0.25)
    state = coherent_cm([2.0, 1.0])
    out = apply_pattern(state, family, (0, 1))
    assert out.mean[0] == pytest.approx(0.9 * state.mean[0])
    assert out.mean[2] == pytest.approx(0.5 * state.mean[2])


def test_additive_noise_composes():
    family1 = ChannelFamily.additive(0.013, 0.4)
    family2 = ChannelFamily.additive(0.029, 0.5)
    combined = ChannelFamily.additive(0.013 + 0.029, 0.9)
    state = ghz_cm(2, 6.0)
    once = apply_pattern(apply_pattern(state, family1, (0, 0)), family2, (0, 0))
    direct = apply_pattern(state, combined, (0, 0))
    assert np.allclose(once.data, direct.data, atol=1e-12)


def test_all_eta_one_is_identity():
    family = ChannelFamily.pure_loss(1.0, 0.5)
    state = ghz_cm(3, 9.0)
    out = apply_pattern(state, family, (0, 0, 0))
    assert np.allclose(out.data, state.data, atol=0)


@settings(max_examples=30, deadline=None)
@given(family=any_family(), pattern=patterns(3), mu=st.floats(0.6, 80.0),
       perm=st.permutations(range(3)))
def test_permutation_covariance(family, pattern, mu, perm):
    state = ghz_cm(3, mu)
    perm_modes = np.zeros((6, 6))
    for i, p in enumerate(perm):
        perm_modes[2 * i, 2 * p] = 1.0
        perm_modes[2 * i + 1, 2 * p + 1] = 1.0
    from multiprobe.gaussian import CovMatrix

    permuted_in = CovMatrix(perm_modes @ state.data @ perm_modes.T)
    sigma_pattern = tuple(pattern[p] for p in perm)
    lhs = apply_pattern(permuted_in, family, sigma_pattern).data
    rhs = perm_modes @ apply_pattern(state, family, pattern).data @ perm_modes.T
    assert np.allclose(lhs, rhs, atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(family=any_family(), pattern=patterns(3), mu=st.floats(0.6, 100.0))
def test_outputs_stay_bona_fide(family, pattern, mu):
    out = apply_pattern(ghz_cm(3, mu), family, pattern)  # construction validates
    assert out.spectrum[0] >= 0.5 - 1e-9


def test_idler_layout_zero_idlers_matches_plain_apply():
    family = ChannelFamily.pure_loss(0.9, 0.6)
    state = ghz_cm(3, 5.5)
    layout = (0, 1, 2)
    a = apply_pattern_with_idlers(state, family, (1, 0, 1), layout)
    b = apply_pattern(state, family, (1, 0, 1))
    assert np.array_equal(a.data, b.data)


def test_idler_choi_state():
    # one idler plus one probe arm: the probe arm sees the channel, the
    # idler is untouched
    mu, eta = 12.5, 0.8
    family = ChannelFamily.pure_loss(eta, 0.3)
    layout = (None, 0)
    out = apply_pattern_with_idlers(tmsv_cm(mu), family, (0,), layout)
    c = np.sqrt(mu**2 - 0.25)
    want = np.zeros((4, 4))
    want[:2, :2] = mu * np.eye(2)
    want[2:, 2:] = (eta * mu + (1 - eta) / 2) * np.eye(2)
    want[:2, 2:] = want[2:, :2] = np.sqrt(eta) * np.diag([c, -c])
    assert np.allclose(out.data, want, atol=1e-12)


def test_full_idler_assistance_fidelity_is_choi_squared():
    mu = 20.5
    family = ChannelFamily.pure_loss(0.99, 0.97)
    choi_layout = (None, 0)
    choi_b = apply_pattern_with_idlers(tmsv_cm(mu), family, (0,), choi_layout)
    choi_t = apply_pattern_with_idlers(tmsv_cm(mu), family, (1,), choi_layout)
    f_choi = gaussian_fidelity(choi_b, choi_t)

    layout = (None, 0, None, 1)
    probe = tensor(tmsv_cm(mu), tmsv_cm(mu))
    out_00 = apply_pattern_with_idlers(probe, family, (0, 0), layout)
    out_11 = apply_pattern_with_idlers(probe, family, (1, 1), layout)
    assert gaussian_fidelity(out_00, out_11) == pytest.approx(f_choi**2, abs=1e-10)


def test_layout_dimension_mismatch():
    family = ChannelFamily.pure_loss(0.9, 0.4)
    layout = (None, 0)
    with pytest.raises(DimensionError):
        apply_pattern_with_idlers(ghz_cm(3, 2.0), family, (0,), layout)
    with pytest.raises(DimensionError):
        apply_pattern(ghz_cm(3, 2.0), family, (0, 1))


def test_idler_layout_rejects_patterns_longer_than_the_probed_channels():
    # one bit per probed channel: extra bits are an error, not ignored
    family = ChannelFamily.pure_loss(0.9, 0.4)
    choi = (None, 0)
    with pytest.raises(DimensionError):
        apply_pattern_with_idlers(tmsv_cm(2.0), family, (0, 1), choi)
    pairs = (0, 1, 2, 3)
    probe = tensor(tmsv_cm(2.0), tmsv_cm(2.0))
    apply_pattern_with_idlers(probe, family, (0, 1, 0, 1), pairs)
    with pytest.raises(DimensionError):
        apply_pattern_with_idlers(probe, family, (0, 1, 0, 1, 1, 1), pairs)


def test_layout_channels_on_a_stack_of_patterns_and_families_follow_the_per_mode_rule():
    families = [ChannelFamily.pure_loss(0.99, 0.97), ChannelFamily.additive(0.01, 0.05),
                ChannelFamily.thermal(0.5, 1.5, 0.9, 2.0)]
    layout = (None, 2, 0, None, 1)
    stack = [tuple(int(b) for b in f"{i:03b}") for i in range(8)]
    taus, nus = layout_channels(families, layout, stack)
    assert taus.shape == nus.shape == (3, 8, 5)
    for family, fam_taus, fam_nus in zip(families, taus, nus):
        want = [[(1.0, 0.0) if ch is None else (family.params(p[ch]).tau, family.params(p[ch]).nu)
                 for ch in layout] for p in stack]
        assert np.array_equal(np.stack([fam_taus, fam_nus], axis=-1), np.array(want))
        # one family gives the list's row for it
        one = layout_channels(family, layout, stack)
        assert np.array_equal(one[0], fam_taus) and np.array_equal(one[1], fam_nus)


@pytest.mark.parametrize("layout, pattern, error, message", [
    ((None, 0, 1), (1,), DimensionError, "pattern length 1 != expected 2"),
    ((None, 0, 1), (1, 0, 1), DimensionError, "pattern length 3 != expected 2"),
    ((None, 0, 1), (1, 2), ValueError, "pattern bits must be 0 or 1"),
    ((None, 0, 2), (1, 0), DimensionError, "layout channel 2 outside pattern of length 2"),
    ((-1, None, 0), (1, 0), DimensionError, "layout channel -1 outside pattern of length 2"),
], ids=["short", "long", "not-binary", "channel-past-the-pattern", "negative-channel"])
def test_layout_channels_reject_bad_patterns_and_layouts(layout, pattern, error, message):
    family = ChannelFamily.pure_loss(0.9, 0.4)
    for fam in (family, [family, family]):
        with pytest.raises(error, match=message):
            layout_channels(fam, layout, [(0, 0), pattern])

