"""Oracle-equivalence and invariant suites behind ``multiprobe validate``.

Each suite reports its maximum observed deviation against a fixed
tolerance.  The ``quick`` scale keeps pattern lengths at m <= 4 and runs in
well under a minute; ``full`` extends to m <= 6 and adds the mutual-probing
cross-checks.  ``smoke`` is a seconds-scale subset used by the CLI tests.

Every fidelity table is built once per configuration, through
``evaluate`` or ``evaluate_points``, and read at each copy number with
``bounds_from_table``; the bound sums that ``bounds`` takes come from
``bound_reports``, with the same (probe, family, ns) points.  The
full-state oracle, every pair fidelity on the full space of one probe
configuration, is built once per configuration in ``run_suites`` and shared
by ``counting_vs_bruteforce``, which reads its cpf and bcpf tables off it,
and ``degeneracy_classes``; a suite called alone builds its own.

Every suite evaluates its states in stacked calls.  States are built unchecked
(``probes.probe_state`` and ``gaussian.ghz_state``, both from
``gaussian.symmetric_state``) and checked in one stacked ``gaussian._checked``
call per mode count, so the only ``CovMatrix`` a run builds is the probe of
each brute-force oracle.  The random-state suites draw all their cases first,
then send the states of each mode count through one channel map and one stacked
check or ``stacked_fidelities`` call; the mutual reference takes one channel
map per block.  Each value equals the one-``CovMatrix``-per-state evaluation
bit for bit.  ``fidelity_symmetry`` runs the fidelity formula itself in both
argument orders, since ``gaussian_fidelity`` orders each pair canonically.
Every probe of this package is phase-insensitive, so its states take the
half-size n x n routes; the last XP_CASES cases of ``block_multiplicativity``
phase-rotate their blocks, so the 2n x 2n spectrum and fidelity routes,
which read the symplectic form, run too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import closedform, gaussian
from .bounds import (
    BoundReport,
    FidelityTable,
    bounds_from_table,
    bounds_tmsv_pairs,
    bounds_tmsv_pairs_odd,
    bruteforce_fidelities,
    bound_reports,
    evaluate,
    evaluate_points,
    fidelity_table_blocks,
    tmsv_subfidelity,
)
from .channels import ChannelFamily, layout_channels, mode_channel_map
from .dp import pattern_classes
from .gaussian import direct_sum, ghz_state, stacked_fidelities
from .imagespace import bcpf_space, cpf_space, full_space
from .presets import SCALES, resolve_probe
from .probes import SINGLE_IDLER, ProbeSpec, extend_for_mutual_probing, nn_partition, probe_state


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    max_deviation: float
    tolerance: float
    cases: int

    def to_dict(self) -> dict:
        return asdict(self)


# x-p-correlated cases that ``block_multiplicativity`` adds at every scale
XP_CASES = 4


def _families() -> list[ChannelFamily]:
    return [
        ChannelFamily.pure_loss(0.99, 0.97),
        ChannelFamily.additive(0.02, 0.01),
    ]


def _random_family(rng) -> ChannelFamily:
    kind = rng.integers(0, 3)
    if kind == 0:
        eta = rng.uniform(0.3, 0.999, 2)
        return ChannelFamily.pure_loss(*eta)
    if kind == 1:
        nu = rng.uniform(0.002, 0.4, 2)
        return ChannelFamily.additive(*nu)
    tau = rng.uniform(0.3, 1.7, 2)
    eps = rng.uniform(0.5, 2.0, 2)
    return ChannelFamily.thermal(tau[0], eps[0], tau[1], eps[1])


def _random_spec(rng, m: int) -> ProbeSpec:
    """``full-ghz`` for one choice in three, else ``tmsv-disjoint``."""
    mu = float(rng.uniform(0.6, 50.0))
    return resolve_probe("full-ghz" if rng.integers(0, 3) == 0 else "tmsv-disjoint", m, mu)


def _partitions_for(m: int) -> list[ProbeSpec]:
    """``full-ghz``, then ``tmsv-disjoint`` where it differs (m > 2), and
    two triples at m = 6."""
    mu = 20.5
    names = ("full-ghz", "tmsv-disjoint") if m > 2 else ("full-ghz",)
    specs = [resolve_probe(name, m, mu) for name in names]
    if m == 6:
        specs.append(resolve_probe("part:123|456", m, mu))
    return specs


def _spaces_for(m: int):
    spaces = [full_space(m), cpf_space(m, 1)]
    if m >= 2:
        spaces.append(cpf_space(m, 2))
        spaces.append(bcpf_space(m, (1, 2)))
    return spaces


def suite_ghz_spectrum(scale: str) -> SuiteResult:
    """GHZ symplectic spectra match their closed form.

    The 1e-10 tolerance widens quadratically with mu: at saturation the
    stored double-precision CM itself shifts the critical eigenvalue by
    O(eps mu^2), so no algorithm can do better (deviation is reported as
    excess over the scale-aware slack).
    """
    tol = 1e-10
    mus = [0.5, 0.7, 2.5, 20.5, 317.0, 1e4]
    ms = range(2, 13)
    worst, cases = 0.0, 0
    spectra = iter(_spectra([ghz_state(m, mu) for mu in mus for m in ms]))
    for mu in mus:
        slack = float(gaussian._scale_tol(0.0, mu))
        for m in ms:
            want = gaussian.ghz_spectrum_closed_form(m, mu)
            dev = float(np.max(np.abs(next(spectra) - want) / np.maximum(want, 1.0)))
            worst = max(worst, dev - slack)
            cases += 1
    return SuiteResult("ghz_spectrum", worst < tol, worst, tol, cases)


def _by_modes(states) -> list[list[int]]:
    """Indices of (covariance matrix, mean) states, grouped by mode count."""
    groups: dict[int, list[int]] = {}
    for k, (data, _) in enumerate(states):
        groups.setdefault(len(data), []).append(k)
    return list(groups.values())


def _spectra(states) -> list[np.ndarray]:
    """Symplectic spectra of (covariance matrix, mean) states, one stacked
    ``gaussian._checked`` call per mode count, which raises where
    ``CovMatrix`` would."""
    out = [None] * len(states)
    for idx in _by_modes(states):
        spectrum, _ = gaussian._checked(np.stack([states[k][0] for k in idx]))
        for k, row in zip(idx, spectrum):
            out[k] = row
    return out


def _outputs(cases) -> list[tuple[np.ndarray, np.ndarray]]:
    """(covariance matrix, mean) of each ((covariance matrix, mean), layout,
    family, pattern) case's output, as ``apply_pattern_with_idlers`` gives
    it: one ``layout_channels`` call per (layout, family) and one
    ``mode_channel_map`` call per mode count, the matrices symmetrised as
    ``CovMatrix`` does but not checked."""
    out = [None] * len(cases)
    for idx in _by_modes([state for state, *_ in cases]):
        group = [cases[c] for c in idx]
        rows: dict[tuple, list[int]] = {}
        for r, (_, layout, family, _) in enumerate(group):
            rows.setdefault((layout, family), []).append(r)
        taus, nus = np.empty((2, len(group), len(group[0][1])))
        for (layout, family), rs in rows.items():
            taus[rs], nus[rs] = layout_channels(family, layout, [group[r][3] for r in rs])
        data, means = (np.stack(part) for part in zip(*(state for state, *_ in group)))
        data, means = mode_channel_map(data, means, taus, nus)
        data = 0.5 * (data + data.swapaxes(1, 2))
        for r, c in enumerate(idx):
            out[c] = (data[r], means[r])
    return out


def _fidelities(states, pairs) -> list[float]:
    """Fidelities of the index pairs (a, b) of (covariance matrix, mean)
    states, a and b of one mode count: one ``stacked_fidelities`` call per
    mode count."""
    out = [0.0] * len(pairs)
    for idx in _by_modes(states):
        row = {k: r for r, k in enumerate(idx)}
        mine = [p for p, (a, _) in enumerate(pairs) if a in row]
        got = stacked_fidelities(
            np.stack([states[k][0] for k in idx]),
            np.stack([states[k][1] for k in idx]),
            [(row[pairs[p][0]], row[pairs[p][1]]) for p in mine],
        )
        for p, fid in zip(mine, got.tolist()):
            out[p] = fid
    return out


def suite_bona_fide(scale: str, seed: int = 0) -> SuiteResult:
    """Random probes through random physical channels stay bona fide."""
    tol = gaussian.BONA_FIDE_TOL
    rng = np.random.default_rng(seed)
    n_cases = {"smoke": 10, "quick": 60, "full": 200}[scale]
    cases = []
    for _ in range(n_cases):
        m = int(rng.integers(2, 6))
        spec = _random_spec(rng, m)
        family = _random_family(rng)
        *state, layout = probe_state(spec)
        pattern = tuple(int(b) for b in rng.integers(0, 2, m))
        cases.append((state, layout, family, pattern))
    _spectra([state for state, *_ in cases])
    worst = max([0.0] + [0.5 - float(spectrum[0]) for spectrum in _spectra(_outputs(cases))])
    return SuiteResult("bona_fide_outputs", worst < tol, worst, tol, n_cases)


def suite_fidelity_symmetry(scale: str, seed: int = 1) -> SuiteResult:
    """F(a, b) == F(b, a) on random physical output pairs, from the
    fidelity formula in both argument orders with each pair's purity flags.

    ``gaussian_fidelity`` and ``stacked_fidelities`` put every pair in one
    canonical order first, so their two orders would run one computation.
    """
    tol = 1e-12
    rng = np.random.default_rng(seed)
    n_cases = {"smoke": 10, "quick": 50, "full": 150}[scale]
    probes, cases = [], []
    for _ in range(n_cases):
        m = int(rng.integers(2, 5))
        spec = _random_spec(rng, m)
        family = _random_family(rng)
        *state, layout = probe_state(spec)
        pa = tuple(int(b) for b in rng.integers(0, 2, m))
        pb = tuple(int(b) for b in rng.integers(0, 2, m))
        probes.append(state)
        cases += [(state, layout, family, pa), (state, layout, family, pb)]
    _spectra(probes)
    outs = _outputs(cases)
    worst = 0.0
    for idx in _by_modes(outs):
        data, means = (np.stack(part) for part in zip(*(outs[c] for c in idx)))
        _, pure = gaussian._checked(data)
        a, b = np.arange(0, len(idx), 2), np.arange(1, len(idx), 2)  # a case's two outputs are adjacent
        mixed = ~(pure[a] | pure[b])
        for group in (False, True):
            ia, ib = a[mixed == group], b[mixed == group]
            if len(ia):
                ab = gaussian._fidelity(data[ia], data[ib], group, means[ia] - means[ib])
                ba = gaussian._fidelity(data[ib], data[ia], group, means[ib] - means[ia])
                worst = max(worst, float(np.max(np.abs(ab - ba))))
    return SuiteResult("fidelity_symmetry", worst < tol, worst, tol, n_cases)


def suite_closed_form_oracles(scale: str) -> SuiteResult:
    """Numeric two-mode sub-fidelities match the displayed closed forms."""
    tol = 1e-9
    worst, cases = 0.0, 0
    grid = [(0.02, 0.01), (0.05, 0.01), (0.1, 0.005)]
    mus = [0.6, 5.5, 20.5] if scale == "smoke" else [0.6, 1.5, 5.5, 20.5, 100.5]
    for nu_b, nu_t in grid:
        fam = ChannelFamily.additive(nu_b, nu_t)
        for mu in mus:
            want = closedform.tmsv_additive_f11(mu, nu_b, nu_t)
            got = tmsv_subfidelity(fam, mu, 1, 1, 2)
            worst = max(worst, abs(got - want) / want)
            cases += 1
    for eta_b, eta_t in [(0.99, 0.97), (0.9, 0.95), (0.999, 0.9)]:
        fam = ChannelFamily.pure_loss(eta_b, eta_t)
        for mu in mus:
            want = closedform.tmsv_loss_f02(mu, eta_b, eta_t)
            got = tmsv_subfidelity(fam, mu, 0, 2, 2)
            worst = max(worst, abs(got - want) / want)
            cases += 1
    return SuiteResult("closed_form_oracles", worst < tol, worst, tol, cases)


def _full_fidelities(spec: ProbeSpec, family: ChannelFamily) -> np.ndarray:
    """The full-state oracle of one configuration: every pair i < j of
    ``full_space(spec.m)``, in row-major order."""
    return bruteforce_fidelities(full_space(spec.m).patterns, spec, family)


def _sub_pairs(fids: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """The pairs i < j of the patterns ``rows`` (ascending indices into the
    n patterns of ``fids``), in row-major order: a pair's fidelity does not
    depend on the space it sits in."""
    first, second = np.triu_indices(len(rows), 1)
    a, b = rows[first], rows[second]
    return fids[a * n - a * (a + 1) // 2 + b - a - 1]


def _relative_gap(ref: BoundReport, got) -> float:
    """The largest gap of the raw bounds ``got`` = (upper, lower) to
    ``ref``'s, relative to ``ref``'s, over the raw bounds that ``ref`` holds
    positive."""
    pairs = zip((ref.upper_raw, ref.lower_raw), got)
    return max([abs(r - g) / r for r, g in pairs if r > 0], default=0.0)


def _raw(report: BoundReport) -> tuple[float, float]:
    return report.upper_raw, report.lower_raw


def _raw_rows(columns) -> list[tuple[float, float]]:
    """The raw (upper, lower) bounds of each row of ``bound_reports`` columns."""
    return list(zip(columns.upper_raw.tolist(), columns.lower_raw.tolist()))


def suite_counting_vs_bruteforce(scale: str, oracle=None) -> SuiteResult:
    """Occupancy-counting bounds, from the counting DP tables of
    ``evaluate_points`` and from the counting sums of ``bound_reports``,
    equal exhaustive full-state evaluation.

    ``oracle(spec, family)`` gives the full-space pair fidelities (see
    ``_full_fidelities``); the tables of the smaller spaces index into them.
    The families of one configuration run in one batch, as a sweep's
    points do.
    """
    tol = 1e-10
    worst, cases = 0.0, 0
    oracle = oracle or functools.cache(_full_fidelities)
    ms = {"smoke": [2, 3], "quick": [2, 3, 4], "full": [2, 3, 4, 5, 6]}[scale]
    copies = (1, 10)
    families = _families()
    for m in ms:
        index = {p: i for i, p in enumerate(full_space(m).patterns)}
        for spec in _partitions_for(m):
            for space in _spaces_for(m):
                rows = np.array([index[p] for p in space.patterns])
                points = [(spec, family, None) for family in families]
                tables = evaluate_points(space, points)
                sums = iter(_raw_rows(bound_reports(space, points, [copies] * len(families))))
                for family, table_c in zip(families, tables):
                    fids = _sub_pairs(oracle(spec, family), len(index), rows)
                    table_b = FidelityTable.from_fidelities(len(rows), fids)
                    for c in copies:
                        rb = bounds_from_table(table_b, c)
                        for rc in (_raw(bounds_from_table(table_c, c)), next(sums)):
                            worst = max(worst, _relative_gap(rb, rc))
                            cases += 1
    return SuiteResult("counting_vs_bruteforce", worst < tol, worst, tol, cases)


def suite_tmsv_closed_form(scale: str) -> SuiteResult:
    """Paired-TMSV closed-form bounds equal the counting path, relative to
    the counted value, from one copy to the figures' 5000."""
    tol = 1e-10
    worst, cases = 0.0, 0
    ms = {"smoke": [2, 3], "quick": [2, 3, 4], "full": [2, 3, 4, 5, 6]}[scale]
    mu = 20.5
    for m in ms:
        space = full_space(m)
        spec = resolve_probe("tmsv-disjoint", m, mu)
        for family in _families():
            table = evaluate(spec, space, family)
            for copies in (1, 10, 100, 1000, 5000):
                if m % 2 == 0:
                    closed = bounds_tmsv_pairs(family, mu, copies, m)
                else:
                    closed = bounds_tmsv_pairs_odd(family, mu, copies, m, SINGLE_IDLER)
                worst = max(worst, _relative_gap(bounds_from_table(table, copies), _raw(closed)))
                cases += 1
    return SuiteResult("tmsv_closed_form", worst < tol, worst, tol, cases)


def _class_codes(bits: np.ndarray, blocks) -> np.ndarray:
    """One integer per pattern pair i < j, in row-major order, naming its
    per-block classes (``dp.pattern_classes``); ``bits`` is (patterns, m)."""
    first, second = np.triu_indices(len(bits), 1)
    codes = np.zeros(len(first), dtype=np.int64)
    for blk in blocks:
        sub = bits[:, list(blk)]
        codes = codes * (len(blk) + 1) ** 3 + pattern_classes(sub[first], sub[second])
    return codes


def suite_degeneracy_classes(scale: str, oracle=None) -> SuiteResult:
    """Fidelities are constant within per-block (v, u, d) classes.

    Checks a single GHZ probe (global classes) and a blocked probe
    (per-block classes) by exhausting all pattern pairs; ``oracle`` is as
    in ``suite_counting_vs_bruteforce``.
    """
    tol = 1e-10
    worst, cases = 0.0, 0
    oracle = oracle or functools.cache(_full_fidelities)
    ms = {"smoke": [3], "quick": [3, 4], "full": [3, 4, 5, 6]}[scale]
    for m in ms:
        bits = np.array(full_space(m).patterns)
        for family in _families():
            for spec in _partitions_for(m):
                codes = _class_codes(bits, [desc.channels for desc in spec.blocks])
                order = np.argsort(codes, kind="stable")
                starts = np.flatnonzero(np.r_[True, np.diff(codes[order]) != 0])
                fids = oracle(spec, family)[order]
                spread = np.maximum.reduceat(fids, starts) - np.minimum.reduceat(fids, starts)
                worst = max(worst, float(spread.max()))
                cases += 1
    return SuiteResult("degeneracy_classes", worst < tol, worst, tol, cases)


def _phase_rotated(state, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """(covariance matrix, mean) of ``state`` with every mode rotated in
    phase space by ``theta``, symmetrised as ``CovMatrix`` does: a GHZ
    block gains x-p correlations between its modes."""
    c, s = math.cos(theta), math.sin(theta)
    rot = np.kron(np.eye(len(state[1]) // 2), [[c, -s], [s, c]])
    data = rot @ state[0] @ rot.T
    return 0.5 * (data + data.T), rot @ state[1]


def suite_multiplicativity(scale: str, seed: int = 2) -> SuiteResult:
    """F(A (+) A', B (+) B') = F(A, B) F(A', B') for block-diagonal states.

    The last XP_CASES cases phase-rotate their blocks, so their spectra and
    mixed-state fidelities take the 2n x 2n routes.  They are evaluated
    apart, so the other cases keep the half-size routes.
    """
    tol = 1e-10
    rng = np.random.default_rng(seed)
    n_cases = {"smoke": 10, "quick": 40, "full": 100}[scale] + XP_CASES
    drawn = []  # per case, its blocks as (state, family, pattern A, pattern B)
    for case in range(n_cases):
        family = _random_family(rng)
        theta = float(rng.uniform(0.1, 1.4)) if case >= n_cases - XP_CASES else 0.0
        parts = []
        for _ in range(int(rng.integers(2, 4))):
            mu = float(rng.uniform(0.6, 30.0))
            k = int(rng.integers(2, 4))
            block = ghz_state(k, mu)
            if theta:
                block = _phase_rotated(block, theta)
            pa = tuple(int(b) for b in rng.integers(0, 2, k))
            pb = tuple(int(b) for b in rng.integers(0, 2, k))
            parts.append((block, family, pa, pb))
        drawn.append(parts)
    split = n_cases - XP_CASES
    worst = max(_product_gap(drawn[:split]), _product_gap(drawn[split:]))
    return SuiteResult("block_multiplicativity", worst < tol, worst, tol, n_cases)


def _product_gap(drawn) -> float:
    """Largest |F(A (+) A', B (+) B') - F(A, B) F(A', B')| over cases given
    as lists of (block state, family, pattern A, pattern B): one channel map
    and one ``stacked_fidelities`` call per mode count for the blocks, and
    one ``stacked_fidelities`` call per mode count for the joint states."""
    blocks, cases = [], []  # cases per block: output A, then output B
    for parts in drawn:
        for block, family, pa, pb in parts:
            lay = tuple(range(len(pa)))
            blocks.append(block)
            cases += [(block, lay, family, pa), (block, lay, family, pb)]
    _spectra(blocks)
    outs = _outputs(cases)
    per_block = _fidelities(outs, [(c, c + 1) for c in range(0, len(cases), 2)])
    starts = np.cumsum([0, *map(len, drawn)]).tolist()
    joints = []
    for a, b in zip(starts, starts[1:]):
        joints += [direct_sum(outs[2 * a:2 * b:2]), direct_sum(outs[2 * a + 1:2 * b:2])]
    joint = _fidelities(joints, [(t, t + 1) for t in range(0, len(joints), 2)])
    worst = 0.0
    for fid, a, b in zip(joint, starts, starts[1:]):
        worst = max(worst, abs(fid - math.prod(per_block[a:b])))
    return worst


def suite_monotonicity(scale: str) -> SuiteResult:
    """Clipped bounds never increase with the copy number."""
    tol = 1e-12
    worst, cases = 0.0, 0
    ms = [3, 4] if scale != "full" else [3, 4, 5]
    for m in ms:
        space = full_space(m)
        spec = _partitions_for(m)[0]
        for family in _families():
            table = evaluate(spec, space, family)
            prev = None
            for copies in (1, 2, 5, 10, 50, 200):
                rep = bounds_from_table(table, copies)
                if prev is not None:
                    worst = max(worst, rep.upper - prev.upper, rep.lower - prev.lower)
                prev = rep
                cases += 1
    return SuiteResult("bound_monotonicity", worst < tol, worst, tol, cases)


def _mutual_reference(ext_part, ext_patterns, family: ChannelFamily, mu: float) -> list[float]:
    """log F of every extended pattern pair i < j, in row-major order: the
    product of its per-block fidelities, with no grouping.  The blocks'
    GHZ states are checked together; each block's outputs come from one
    channel map and its pairs from one ``stacked_fidelities`` call."""
    first, second = np.triu_indices(len(ext_patterns), 1)
    pairs = list(zip(first.tolist(), second.tolist()))
    states = [ghz_state(len(blk), mu) for blk in ext_part.blocks]
    _spectra(states)
    per_block = []
    for blk, state in zip(ext_part.blocks, states):
        lay = tuple(range(len(blk)))
        cases = [(state, lay, family, tuple(pat[c] for c in blk)) for pat in ext_patterns]
        per_block.append(_fidelities(_outputs(cases), pairs))
    return [math.log(math.prod(fids)) for fids in zip(*per_block)]


def suite_mutual_vs_bruteforce(scale: str) -> SuiteResult:
    """Mutual-probing bounds, from the dense extension table, from the
    frontier DP table of ``evaluate_points`` and from the frontier sums of
    ``bound_reports``, equal exhaustive evaluation on the extension."""
    tol = 1e-12
    worst, cases = 0.0, 0
    mu = 20.5
    copies = (1, 7)
    ms = [3] if scale != "full" else [3, 4]
    for m in ms:
        partition = nn_partition(m)
        space = full_space(m)
        probe = ProbeSpec.from_partition(partition, mu)
        for family in _families():
            ext_part, ext_patterns = extend_for_mutual_probing(partition, space)
            ext = ProbeSpec.from_partition(ext_part, mu)
            ref = FidelityTable.pairs(len(ext_patterns), _mutual_reference(ext_part, ext_patterns, family, mu))
            dense = fidelity_table_blocks(ext_patterns, None, ext.blocks, family)
            point = (probe, family, None)
            (frontier,) = evaluate_points(space, [point])
            sums = _raw_rows(bound_reports(space, [point], [copies]))
            for c, rs in zip(copies, sums):
                rb = bounds_from_table(ref, c)
                for rc in (_raw(bounds_from_table(dense, c)), _raw(bounds_from_table(frontier, c)), rs):
                    worst = max(worst, _relative_gap(rb, rc))
                    cases += 1
    return SuiteResult("mutual_vs_bruteforce", worst < tol, worst, tol, cases)


_SUITES = [
    suite_ghz_spectrum,
    suite_bona_fide,
    suite_fidelity_symmetry,
    suite_closed_form_oracles,
    suite_counting_vs_bruteforce,
    suite_tmsv_closed_form,
    suite_degeneracy_classes,
    suite_multiplicativity,
    suite_monotonicity,
]


def run_suites(scale: str = "quick") -> list[SuiteResult]:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    oracle = functools.cache(_full_fidelities)  # dropped on return
    shared = (suite_counting_vs_bruteforce, suite_degeneracy_classes)
    results = [suite(scale, oracle) if suite in shared else suite(scale) for suite in _SUITES]
    if scale == "full":
        results.append(suite_mutual_vs_bruteforce(scale))
    return results
