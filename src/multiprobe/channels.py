"""Gaussian phase-insensitive channels and their action on channel patterns.

A channel (tau, nu) maps a covariance matrix V to tau*V + nu*I per mode and
scales means by sqrt(tau).  A pattern is a tuple of bits, one per channel,
with 0 = background and 1 = target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PartitionError
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
    if nu < 0.0:
        raise ValueError(f"additive noise must be >= 0, got {nu}")
    return GpiParams(1.0, float(nu))


def thermal_params(tau: float, epsilon: float) -> GpiParams:
    if tau < 0.0:
        raise ValueError(f"thermal transmissivity must be >= 0, got {tau}")
    if epsilon < 0.5:
        raise ValueError(f"thermal noise parameter must be >= 1/2, got {epsilon}")
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


def apply_pattern(state: CovMatrix, family: ChannelFamily, pattern) -> CovMatrix:
    """Send mode k of the state through the pattern's k-th channel."""
    bits = check_pattern(pattern, state.n_modes)
    params = [family.params(b) for b in bits]
    return apply_mode_channels(state, [p.tau for p in params], [p.nu for p in params])


@dataclass(frozen=True)
class BlockLayout:
    """One entangled block: idler modes first, then one probe mode per channel."""

    idlers: int
    channels: tuple[int, ...]

    def __post_init__(self):
        if self.idlers < 0:
            raise PartitionError("idler count must be >= 0")
        if len(set(self.channels)) != len(self.channels):
            raise PartitionError(f"duplicate channel in block {self.channels}")

    @property
    def n_modes(self) -> int:
        return self.idlers + len(self.channels)


@dataclass(frozen=True)
class IdlerLayout:
    """Mode-to-channel assignment of a multi-block probe state.

    Blocks are laid out in order; within a block the idler modes come first.
    Channel indices are 0-based.
    """

    blocks: tuple[BlockLayout, ...]

    @property
    def n_modes(self) -> int:
        return sum(b.n_modes for b in self.blocks)

    def mode_channels(self) -> list[int | None]:
        """Per mode: probed channel index, or None for an idler."""
        out: list[int | None] = []
        for b in self.blocks:
            out.extend([None] * b.idlers)
            out.extend(b.channels)
        return out


def layout_channels(family: ChannelFamily, pattern, layout: IdlerLayout) -> tuple[list[float], list[float]]:
    """Per-mode (taus, nus) that send each probed mode of the layout through
    the pattern's channel; idler modes pass (tau 1, nu 0).  The pattern
    holds one bit per channel the layout probes."""
    modes = layout.mode_channels()
    bits = check_pattern(pattern, sum(ch is not None for ch in modes))
    taus, nus = [], []
    for ch in modes:
        if ch is None:
            taus.append(1.0)
            nus.append(0.0)
        else:
            if not 0 <= ch < len(bits):
                raise DimensionError(f"layout channel {ch} outside pattern of length {len(bits)}")
            p = family.params(bits[ch])
            taus.append(p.tau)
            nus.append(p.nu)
    return taus, nus


def apply_pattern_with_idlers(
    state: CovMatrix, family: ChannelFamily, pattern, layout: IdlerLayout
) -> CovMatrix:
    """Like apply_pattern, but modes marked as idlers pass through untouched
    (see ``layout_channels``)."""
    taus, nus = layout_channels(family, pattern, layout)
    if layout.n_modes != state.n_modes:
        raise DimensionError(
            f"layout covers {layout.n_modes} modes but state has {state.n_modes}"
        )
    return apply_mode_channels(state, taus, nus)
