import numpy as np
import pytest

from multiprobe.channels import ChannelFamily
from multiprobe.closedform import (
    coherent_loss_fidelity,
    subfidelity_oracle,
    tmsv_additive_f01_limit,
    tmsv_additive_f02_limit,
    tmsv_additive_f11,
    tmsv_additive_f12_limit,
    tmsv_loss_f02,
    tmsv_loss_f02_limit,
    vacuum_additive_fidelity,
)
from multiprobe.errors import NoClosedFormError
from multiprobe.gaussian import CovMatrix, coherent_cm, gaussian_fidelity, tmsv_cm
from multiprobe.bounds import tmsv_subfidelity

from conftest import apply_pattern


def test_coherent_loss_fidelity_matches_displaced_vacua():
    # closed form vs the numeric fidelity of the channel outputs of one
    # coherent probe: both are exp(-E (sqrt(eta_b) - sqrt(eta_t))^2 / 2)
    eta_b, eta_t, energy = 0.99, 0.97, 20.0
    family = ChannelFamily.pure_loss(eta_b, eta_t)
    probe = coherent_cm([np.sqrt(energy)])
    out_b = apply_pattern(probe, family, (0,))
    out_t = apply_pattern(probe, family, (1,))
    want = gaussian_fidelity(out_b, out_t)
    assert coherent_loss_fidelity(eta_b, eta_t, energy) == pytest.approx(want, rel=1e-13)


def test_coherent_loss_fidelity_multiplicative_in_energy():
    f1 = coherent_loss_fidelity(0.99, 0.97, 20.0)
    f5 = coherent_loss_fidelity(0.99, 0.97, 100.0)
    assert f5 == pytest.approx(f1**5, rel=1e-12)


def test_vacuum_additive_fidelity_matches_thermal_states():
    nu_b, nu_t = 0.02, 0.01
    a = CovMatrix((nu_b + 0.5) * np.eye(2))
    b = CovMatrix((nu_t + 0.5) * np.eye(2))
    want = gaussian_fidelity(a, b)
    assert vacuum_additive_fidelity(nu_b, nu_t) == pytest.approx(want, rel=1e-13)


def test_additive_f11_point_value():
    fam = ChannelFamily.additive(0.02, 0.01)
    got = tmsv_subfidelity(fam, 20.5, 1, 1, 2)
    assert got == pytest.approx(tmsv_additive_f11(20.5, 0.02, 0.01), rel=1e-9)


def test_additive_f11_limit_is_one():
    assert tmsv_additive_f11(1e9, 0.02, 0.01) == pytest.approx(1.0, abs=1e-6)


def test_loss_f02_point_value():
    fam = ChannelFamily.pure_loss(0.99, 0.97)
    got = tmsv_subfidelity(fam, 20.5, 0, 2, 2)
    assert got == pytest.approx(tmsv_loss_f02(20.5, 0.99, 0.97), rel=1e-9)


def test_loss_f02_limit_value():
    # 4 sqrt(eta_b eta_t (eta_b - 1)(eta_t - 1) / ((eta_b + eta_t - 2)^2
    # (eta_b + eta_t)^2)) at 0.99/0.97 is about 0.8660
    val = tmsv_loss_f02_limit(0.99, 0.97)
    direct = 4 * np.sqrt(0.99 * 0.97 * 0.01 * 0.03 / ((0.04**2) * (1.96**2)))
    assert val == pytest.approx(direct, rel=1e-14)
    assert round(val, 4) == 0.866


def test_loss_f02_closed_form_tends_to_limit():
    vals = [tmsv_loss_f02(mu, 0.99, 0.97) for mu in (1e3, 1e4, 1e5)]
    lim = tmsv_loss_f02_limit(0.99, 0.97)
    gaps = [abs(v - lim) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_f12_is_f01_with_roles_swapped():
    assert tmsv_additive_f12_limit(0.02, 0.01) == tmsv_additive_f01_limit(0.01, 0.02)


def test_oracle_dispatch_additive():
    fam = ChannelFamily.additive(0.02, 0.01)
    assert subfidelity_oracle(fam, 1, 1, 2, mu=20.5) == tmsv_additive_f11(20.5, 0.02, 0.01)
    assert subfidelity_oracle(fam, 1, 1, 2, mu=None) == 1.0
    assert subfidelity_oracle(fam, 0, 1, 1) == tmsv_additive_f01_limit(0.02, 0.01)
    assert subfidelity_oracle(fam, 2, 1, 1) == tmsv_additive_f12_limit(0.02, 0.01)
    with pytest.raises(NoClosedFormError):
        subfidelity_oracle(fam, 0, 1, 1, mu=20.5)  # finite form not displayed


def test_oracle_dispatch_loss():
    fam = ChannelFamily.pure_loss(0.99, 0.97)
    assert subfidelity_oracle(fam, 0, 2, 2, mu=20.5) == tmsv_loss_f02(20.5, 0.99, 0.97)
    assert subfidelity_oracle(fam, 0, 2, 2) == tmsv_loss_f02_limit(0.99, 0.97)
    with pytest.raises(NoClosedFormError):
        subfidelity_oracle(fam, 0, 1, 1, mu=20.5)


def test_oracle_rejects_unknown_class_and_thermal():
    fam = ChannelFamily.additive(0.02, 0.01)
    with pytest.raises(NoClosedFormError):
        subfidelity_oracle(fam, 0, 3, 3)
    thermal = ChannelFamily.thermal(0.8, 1.0, 0.8, 1.5)
    with pytest.raises(NoClosedFormError):
        subfidelity_oracle(thermal, 1, 1, 2, mu=5.0)
