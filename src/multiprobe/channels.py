"""Gaussian phase-insensitive channels and their action on channel patterns.

A channel (tau, nu) maps a covariance matrix V to tau*V + nu*I per mode and
scales means by sqrt(tau).  A pattern is a tuple of bits, one per channel,
with 0 = background and 1 = target.  A layout maps the modes of a probe
to channels: per mode the 0-based index of the channel it probes, or None
for an idler mode, which passes untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .gaussian import CovMatrix

PURE_LOSS = "pure-loss"
ADDITIVE = "additive-noise"
THERMAL = "thermal"

MAX_PATTERN_LEN = 24


@dataclass(frozen=True)
class GpiParams:
    """Transmissivity / added-noise pair of one phase-insensitive channel.

    Construct through the family helpers on ChannelFamily (or the module
    functions below); they derive nu from the physical constraint instead
    of accepting free pairs.
    """

    tau: float
    nu: float


def pure_loss_params(eta: float) -> GpiParams:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"pure-loss transmissivity must be in [0, 1], got {eta}")
    return GpiParams(float(eta), (1.0 - eta) / 2.0)


def additive_params(nu: float) -> GpiParams:
    if not 0.0 <= nu < np.inf:
        raise ValueError(f"additive noise must be finite and >= 0, got {nu}")
    return GpiParams(1.0, float(nu))


def thermal_params(tau: float, epsilon: float) -> GpiParams:
    if not 0.0 <= tau < np.inf:
        raise ValueError(f"thermal transmissivity must be finite and >= 0, got {tau}")
    if not 0.5 <= epsilon < np.inf:
        raise ValueError(f"thermal noise parameter must be finite and >= 1/2, got {epsilon}")
    return GpiParams(float(tau), epsilon * abs(1.0 - tau))


@dataclass(frozen=True)
class ChannelFamily:
    """Background/target channel pair of one phase-insensitive kind."""

    kind: str
    background: GpiParams
    target: GpiParams

    def __post_init__(self):
        if self.kind not in (PURE_LOSS, ADDITIVE, THERMAL):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.background == self.target:
            raise ValueError("background and target channels are identical; nothing to discriminate")

    @classmethod
    def pure_loss(cls, eta_b: float, eta_t: float) -> "ChannelFamily":
        return cls(PURE_LOSS, pure_loss_params(eta_b), pure_loss_params(eta_t))

    @classmethod
    def additive(cls, nu_b: float, nu_t: float) -> "ChannelFamily":
        return cls(ADDITIVE, additive_params(nu_b), additive_params(nu_t))

    @classmethod
    def thermal(cls, tau_b: float, eps_b: float, tau_t: float, eps_t: float) -> "ChannelFamily":
        return cls(THERMAL, thermal_params(tau_b, eps_b), thermal_params(tau_t, eps_t))

    def params(self, bit: int) -> GpiParams:
        return self.target if bit else self.background


def check_pattern(pattern, m: int | None = None) -> tuple[int, ...]:
    bits = tuple(int(b) for b in pattern)
    if not 1 <= len(bits) <= MAX_PATTERN_LEN:
        raise DimensionError(f"pattern length must be in [1, {MAX_PATTERN_LEN}], got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"pattern bits must be 0 or 1, got {pattern!r}")
    if m is not None and len(bits) != m:
        raise DimensionError(f"pattern length {len(bits)} != expected {m}")
    return bits


def mode_channel_map(data, mean, taus, nus) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrices and means after an independent (tau_k, nu_k)
    channel on each mode, unchecked.

    ``data`` (..., 2n, 2n) and ``mean`` (..., 2n) broadcast against the
    rows of ``taus`` and ``nus`` (..., n); the results are (..., 2n, 2n)
    and (..., 2n).
    """
    taus = np.asarray(taus, dtype=float)
    nus = np.asarray(nus, dtype=float)
    if taus.shape[-1:] != (data.shape[-1] // 2,) or nus.shape != taus.shape:
        raise DimensionError("one (tau, nu) pair per mode required")
    scale = np.repeat(np.sqrt(taus), 2, axis=-1)
    noise = np.zeros(scale.shape + scale.shape[-1:])
    diag = np.arange(data.shape[-1])
    noise[..., diag, diag] = np.repeat(nus, 2, axis=-1)
    return data * (scale[..., :, None] * scale[..., None, :]) + noise, scale * mean


def apply_mode_channels(state: CovMatrix, taus, nus) -> CovMatrix:
    """Apply an independent (tau_k, nu_k) channel to each mode."""
    return CovMatrix(*mode_channel_map(state.data, state.mean, taus, nus))


def layout_channels(family: ChannelFamily | list[ChannelFamily], layout,
                    patterns) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode (taus, nus) rows that send each probed mode of the layout
    through ``family.params(bit)`` of its channel's bit; idler modes pass
    (tau 1, nu 0).  ``patterns`` is a stack of patterns, each one bit per
    distinct channel the layout probes, so modes of one channel read one
    bit; the rows are (len(patterns), len(layout)), or (len(family),
    len(patterns), len(layout)) for a list of families, one per point."""
    n = len({ch for ch in layout if ch is not None})
    # each pattern's bits, then a 2 that picks the passing entry of a family's row
    bits = np.array([check_pattern(p, n) + (2,) for p in patterns], dtype=int).reshape(-1, n + 1)
    for ch in layout:
        if ch is not None and not 0 <= ch < n:
            raise DimensionError(f"layout channel {ch} outside pattern of length {n}")
    pick = bits[:, [n if ch is None else ch for ch in layout]]
    one = isinstance(family, ChannelFamily)
    params = [(f.params(0), f.params(1)) for f in ([family] if one else family)]
    table = np.array([[(b.tau, t.tau, 1.0) for b, t in params], [(b.nu, t.nu, 0.0) for b, t in params]])
    taus, nus = table[:, 0, pick] if one else table[:, :, pick]
    return taus, nus


def apply_pattern_with_idlers(state: CovMatrix, family: ChannelFamily, pattern, layout) -> CovMatrix:
    """Send each probed mode of the layout through the pattern's channel;
    idler modes (None) pass untouched (see ``layout_channels``)."""
    taus, nus = layout_channels(family, layout, [pattern])
    if len(layout) != state.n_modes:
        raise DimensionError(f"layout covers {len(layout)} modes but state has {state.n_modes}")
    return apply_mode_channels(state, taus[0], nus[0])
