"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else.  Reference values come from
closed forms evaluated in-test, exhaustive brute-force paths, or
infinite-squeezing extrapolation of the numeric fidelity; no expected
value is copied in by hand.
"""

import time

import numpy as np
import pytest

from multiprobe.bounds import (
    bounds_from_table,
    bounds_tmsv_pairs,
    bounds_tmsv_pairs_odd,
    evaluate,
    fidelity_table_blocks,
    fidelity_table_bruteforce,
    tmsv_subfidelity,
)
from multiprobe.channels import ChannelFamily
from multiprobe.closedform import (
    coherent_loss_fidelity,
    tmsv_additive_f01_limit,
    tmsv_additive_f02_limit,
    tmsv_additive_f11,
    tmsv_additive_f12_limit,
    tmsv_loss_f02,
    tmsv_loss_f02_limit,
    vacuum_additive_fidelity,
)
from multiprobe.gaussian import CovMatrix, coherent_cm, gaussian_fidelity
from multiprobe.imagespace import bcpf_space, cpf_space, full_space
from multiprobe.presets import CLASSICAL
from multiprobe.probes import (
    SINGLE_IDLER,
    ProbeSpec,
    decompose_rounds,
    extend_for_mutual_probing,
    full_idler_partition,
    nn_partition,
    odd_m_disjoint_spec,
    pair_partition,
)
from multiprobe.validate import run_suites

from conftest import apply_pattern, ghz_spec

NU_GRID = (0.005, 0.01, 0.02, 0.05, 0.1)
ETA_GRID = (0.9, 0.95, 0.99, 0.999)
MU_GRID = (0.6, 1.5, 5.5, 20.5, 100.5, 1000.5, 1e4)

# infinite-squeezing extrapolation: least-squares polynomial in 1/mu
EXTRAP_LO, EXTRAP_HI, EXTRAP_NODES, EXTRAP_DEG = 300.0, 3e4, 48, 6


def extrapolate_to_infinite_squeezing(fid_of_mu) -> float:
    mus = np.geomspace(EXTRAP_LO, EXTRAP_HI, EXTRAP_NODES)
    xs = 1.0 / mus
    ys = np.array([fid_of_mu(mu) for mu in mus])
    coef = np.polynomial.polynomial.polyfit(xs / xs.max(), ys, EXTRAP_DEG)
    return float(coef[0])


def ordered_pairs(grid):
    return [(a, b) for a in grid for b in grid if a != b]


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_1_closed_form_oracles():
    """Numeric fidelity matches every displayed closed form to 1e-9."""
    t0 = time.monotonic()
    worst = 0.0
    for nu_b, nu_t in ordered_pairs(NU_GRID):
        family = ChannelFamily.additive(nu_b, nu_t)
        for mu in MU_GRID:
            got = tmsv_subfidelity(family, mu, 1, 1, 2)
            want = tmsv_additive_f11(mu, nu_b, nu_t)
            worst = max(worst, abs(got - want) / want)
        for (v, u, d), closed in (
            ((0, 1, 1), tmsv_additive_f01_limit),
            ((0, 2, 2), tmsv_additive_f02_limit),
            ((1, 2, 1), tmsv_additive_f12_limit),
        ):
            got = extrapolate_to_infinite_squeezing(
                lambda mu: tmsv_subfidelity(family, mu, v, u, d)
            )
            want = closed(nu_b, nu_t)
            worst = max(worst, abs(got - want) / want)
    for eta_b, eta_t in ordered_pairs(ETA_GRID):
        family = ChannelFamily.pure_loss(eta_b, eta_t)
        for mu in MU_GRID:
            got = tmsv_subfidelity(family, mu, 0, 2, 2)
            want = tmsv_loss_f02(mu, eta_b, eta_t)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9, f"closed-form deviation {worst}"
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"closed-form oracle agreement, worst rel dev {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_limit_behaviour():
    """F11 rises monotonically to 1; the loss 02 class approaches its limit."""
    family = ChannelFamily.additive(0.02, 0.01)
    mus = np.geomspace(0.6, 1e4, 24)
    vals = [tmsv_subfidelity(family, mu, 1, 1, 2) for mu in mus]
    assert all(b > a for a, b in zip(vals, vals[1:])), "F11 not monotone in mu"
    assert vals[-1] > 1 - 1e-5 and vals[-1] <= 1.0

    loss = ChannelFamily.pure_loss(0.99, 0.97)
    got = tmsv_subfidelity(loss, 1e4 + 0.5, 0, 2, 2)
    want = tmsv_loss_f02_limit(0.99, 0.97)  # about 0.8660
    assert want == pytest.approx(0.8660, abs=5e-5)
    assert abs(got - want) < 1e-3
    report(2, f"F11 -> 1 monotonically; loss 02 at N_S=1e4 within {abs(got-want):.1e} of {want:.4f}")


def _specs_for_m(m):
    specs = [("single-block", ghz_spec(m, 20.5, (tuple(range(m)),)))]
    if m % 2 == 0 and m > 2:
        specs.append(("pairs", ProbeSpec.from_partition(pair_partition(m), 20.5)))
    if m % 2 and m >= 3:
        specs.append(("pairs+idler", odd_m_disjoint_spec(m, 20.5, SINGLE_IDLER)))
    if m == 6:
        specs.append(("3+3", ghz_spec(m, 20.5, ((0, 1, 2), (3, 4, 5)))))
    return specs


def test_criterion_3_counting_equals_brute_force():
    """All bound paths agree within 1e-10 relative for m <= 6."""
    t0 = time.monotonic()
    worst, cases = 0.0, 0
    families = [ChannelFamily.pure_loss(0.99, 0.97), ChannelFamily.additive(0.02, 0.01)]
    for m in range(2, 7):
        full = full_space(m)
        spaces = [full, cpf_space(m, 1), cpf_space(m, 2), bcpf_space(m, (1, 2))]
        for label, spec in _specs_for_m(m):
            for family in families:
                for space in spaces:
                    brute = fidelity_table_bruteforce(space.patterns, None, spec, family)
                    counting = evaluate(spec, space, family)
                    for copies in (1, 10):
                        rb = bounds_from_table(brute, copies)
                        rc = bounds_from_table(counting, copies)
                        for a, b in (
                            (rb.upper_raw, rc.upper_raw),
                            (rb.lower_raw, rc.lower_raw),
                        ):
                            if a > 0:
                                worst = max(worst, abs(a - b) / a)
                        if space is full and label in ("pairs", "pairs+idler"):
                            if m % 2 == 0:
                                closed = bounds_tmsv_pairs(family, 20.5, copies, m)
                            else:
                                closed = bounds_tmsv_pairs_odd(
                                    family, 20.5, copies, m, SINGLE_IDLER
                                )
                            worst = max(
                                worst,
                                abs(closed.upper_raw - rb.upper_raw) / rb.upper_raw,
                                abs(closed.lower_raw - rb.lower_raw) / rb.lower_raw,
                            )
                        cases += 1
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10, f"path disagreement {worst}"
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s"
    report(3, f"counting = brute force over {cases} configs, worst rel dev {worst:.2e} in {elapsed:.1f}s")


def test_criterion_4_mutual_probing_equals_extended_brute_force():
    """Nearest-neighbour rings match exhaustive extended-space evaluation."""
    import math

    from multiprobe.bounds import FidelityTable
    from multiprobe.channels import apply_pattern_with_idlers
    from multiprobe.gaussian import ghz_cm

    worst = 0.0
    for m in (3, 4):
        partition = nn_partition(m)
        space = full_space(m)
        ext_part, ext_patterns = extend_for_mutual_probing(partition, space)
        assert len(set(ext_patterns)) == len(space)
        for family in (
            ChannelFamily.pure_loss(0.99, 0.97),
            ChannelFamily.additive(0.02, 0.01),
        ):
            blocks = []
            for blk in ext_part.blocks:
                lay = tuple(range(len(blk)))
                blocks.append((blk, ghz_cm(len(blk), 20.5), lay))
            outs = [
                [
                    apply_pattern_with_idlers(st, family, tuple(pat[c] for c in blk), lay)
                    for blk, st, lay in blocks
                ]
                for pat in ext_patterns
            ]
            n = len(outs)
            ref_table = FidelityTable.pairs(n, [
                math.log(math.prod(gaussian_fidelity(a, b) for a, b in zip(outs[i], outs[j])))
                for i in range(n)
                for j in range(i + 1, n)
            ])
            table = evaluate(ProbeSpec.from_partition(partition, 20.5), space, family)
            for copies in (1, 5):
                ref = bounds_from_table(ref_table, copies)
                got = bounds_from_table(table, copies)
                for a, b in ((ref.upper_raw, got.upper_raw), (ref.lower_raw, got.lower_raw)):
                    worst = max(worst, abs(a - b) / a)
    assert worst <= 1e-12, f"mutual-probing deviation {worst}"
    assert len(decompose_rounds(nn_partition(4).blocks)) == 2
    assert len(decompose_rounds(nn_partition(8).blocks)) == 2
    report(4, f"mutual probing = extended brute force, worst rel dev {worst:.2e}; even rings need 2 rounds")


def test_criterion_5_classical_closed_forms():
    """Classical benchmark closed forms match the numeric Gaussian fidelity
    on the corresponding output states to 1e-12."""
    worst = 0.0
    for eta_b, eta_t in ordered_pairs(ETA_GRID):
        family = ChannelFamily.pure_loss(eta_b, eta_t)
        for energy in (0.1, 1.0, 20.0, 200.0, 2000.0):
            probe = coherent_cm([np.sqrt(energy)])
            out_b = apply_pattern(probe, family, (0,))
            out_t = apply_pattern(probe, family, (1,))
            got = gaussian_fidelity(out_b, out_t)
            want = coherent_loss_fidelity(eta_b, eta_t, energy)
            worst = max(worst, abs(got - want) / want)
    for nu_b, nu_t in ordered_pairs(NU_GRID):
        a = CovMatrix((nu_b + 0.5) * np.eye(2))
        b = CovMatrix((nu_t + 0.5) * np.eye(2))
        got = gaussian_fidelity(a, b)
        want = vacuum_additive_fidelity(nu_b, nu_t)
        worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-12, f"classical closed-form deviation {worst}"
    report(5, f"classical closed forms match numeric fidelity, worst rel dev {worst:.2e}")


def _first_advantage(space, family, ns, quantum_eval, mbar_grid):
    """Smallest grid point with positive guaranteed advantage, or None."""
    classical = evaluate(CLASSICAL, space, family, ns=ns)
    for mbar in mbar_grid:
        q_rep = quantum_eval(mbar)
        cl = bounds_from_table(classical, mbar)
        if cl.lower - q_rep.upper > 0:
            return float(mbar)
    return None


def test_criterion_6_pure_loss_figure_regime():
    """m=9 pure-loss regime: NN advantage in [10, 5000] for all three
    spaces; GHZ crossover within a decade of 3000, idler-assisted within a
    decade of 30."""
    t0 = time.monotonic()
    m, ns = 9, 20.0
    mu = ns + 0.5
    family = ChannelFamily.pure_loss(0.99, 0.97)

    nn = nn_partition(m)
    crossings = {}
    for name, space in (
        ("1-CPF", cpf_space(m, 1)),
        ("3-CPF", cpf_space(m, 3)),
        ("full", full_space(m)),
    ):
        ext_part, ext_patterns = extend_for_mutual_probing(nn, space)
        spec = ProbeSpec.from_partition(ext_part, mu)
        table = fidelity_table_blocks(ext_patterns, None, spec.blocks, family)
        found = _first_advantage(
            space, family, ns,
            lambda mb: bounds_from_table(table, mb / 2.0, m_bar=mb),
            np.geomspace(10, 5000, 120),
        )
        assert found is not None, f"no NN advantage for {name} within [10, 5000]"
        crossings[f"nn-{name}"] = found

    space1 = cpf_space(m, 1)
    ghz_table = evaluate(ghz_spec(m, mu, (tuple(range(m)),)), space1, family)
    ghz_cross = _first_advantage(
        space1, family, ns,
        lambda mb: bounds_from_table(ghz_table, mb, m_bar=mb),
        np.geomspace(100, 50000, 400),
    )
    assert ghz_cross is not None and 300 <= ghz_cross <= 30000, f"GHZ crossover {ghz_cross}"

    idler_spec = ProbeSpec.from_partition(full_idler_partition(m), mu)
    idler_table = evaluate(idler_spec, space1, family)
    idler_cross = _first_advantage(
        space1, family, ns,
        lambda mb: bounds_from_table(idler_table, mb, m_bar=mb),
        np.geomspace(1, 1000, 400),
    )
    assert idler_cross is not None and 3 <= idler_cross <= 300, f"idler crossover {idler_cross}"

    elapsed = time.monotonic() - t0
    assert elapsed < 900.0, f"criterion 6 took {elapsed:.1f}s"
    report(
        6,
        f"NN advantage at M_bar ~ {crossings['nn-1-CPF']:.0f}/{crossings['nn-3-CPF']:.0f}/"
        f"{crossings['nn-full']:.0f} (1-CPF/3-CPF/full); GHZ crossover ~{ghz_cross:.0f} "
        f"(decade of 3000), idler ~{idler_cross:.1f} (decade of 30); {elapsed:.1f}s",
    )


def test_criterion_7_additive_noise_regime():
    """m=9 additive regime: disjoint TMSV stays worse than classical; the
    nearest-neighbour ring recovers guaranteed advantage for 1-CPF.

    Clipped bounds tie at 1 for small average channel use, so the strict
    comparison runs where the classical bound is informative (clipped
    upper bound below 1)."""
    t0 = time.monotonic()
    m, ns = 9, 20.0
    mu = ns + 0.5
    family = ChannelFamily.additive(0.02, 0.01)
    space = cpf_space(m, 1)

    spec = odd_m_disjoint_spec(m, mu, SINGLE_IDLER)
    table = evaluate(spec, space, family)
    classical = evaluate(CLASSICAL, space, family, ns=ns)
    grid = np.geomspace(10, 5000, 40)
    informative = 0
    for mbar in grid:
        q = bounds_from_table(table, mbar, m_bar=mbar)
        cl = bounds_from_table(classical, mbar)
        assert cl.lower - q.upper <= 0, f"disjoint TMSV claimed advantage at {mbar}"
        if cl.upper < 1.0:
            informative += 1
            assert q.upper > cl.upper, f"disjoint TMSV not worse at M_bar={mbar}"
    assert informative >= 5, "grid never left the clipped regime"

    nn = nn_partition(m)
    ext_part, ext_patterns = extend_for_mutual_probing(nn, space)
    nn_spec = ProbeSpec.from_partition(ext_part, mu)
    nn_table = fidelity_table_blocks(ext_patterns, None, nn_spec.blocks, family)
    found = _first_advantage(
        space, family, ns,
        lambda mb: bounds_from_table(nn_table, mb / 2.0, m_bar=mb),
        np.geomspace(10, 5000, 200),
    )
    assert found is not None, "no NN advantage for additive 1-CPF within [10, 5000]"
    elapsed = time.monotonic() - t0
    report(
        7,
        f"disjoint TMSV worse than classical on {informative} informative grid points; "
        f"NN redeems advantage at M_bar ~ {found:.0f}; {elapsed:.1f}s",
    )


def test_criterion_8_invariant_suites():
    """Full-scale validation suites all green."""
    t0 = time.monotonic()
    results = run_suites("full")
    elapsed = time.monotonic() - t0
    failures = [r for r in results if not r.passed]
    assert not failures, f"failing suites: {[r.suite for r in failures]}"
    assert elapsed < 600.0, f"criterion 8 took {elapsed:.1f}s"
    # the full-scale contract: every suite, in order, with all of its cases
    assert [(r.suite, r.cases) for r in results] == [
        ("ghz_spectrum", 66),
        ("bona_fide_outputs", 200),
        ("fidelity_symmetry", 150),
        ("closed_form_oracles", 30),
        ("counting_vs_bruteforce", 320),
        ("tmsv_closed_form", 50),
        ("degeneracy_classes", 18),
        ("block_multiplicativity", 104),
        ("bound_monotonicity", 36),
        ("mutual_vs_bruteforce", 24),
    ]
    names = ", ".join(r.suite for r in results)
    report(8, f"all {len(results)} invariant suites green ({names}) in {elapsed:.1f}s")
