"""Checks of the program's outputs against computations made apart from it.

Only single-block output fidelities come from the program
(``multiprobe.bounds.block_subfidelity``).  The pattern counts, the ways
blocks combine into bound sums, the classical fidelities, the grids and
the average channel use are computed here, with log1p/expm1 where a sum
sits next to 1 so that no check cancels.  Agreement with the program has
been within about 1e-14 relative down to bounds near 1e-233, except for
what the block fidelities themselves carry (see FID_RTOL).
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math

from multiprobe.bounds import block_subfidelity
from multiprobe.channels import ChannelFamily
from multiprobe.probes import BlockDescriptor
from tracing import SUITES

RTOL = 1e-10
# Equivalent evaluations of one block fidelity (mirror-image local patterns
# of a two-mode block) differ by up to 4.2e-10 relative over the surface
# workload's ranges, and F^x turns that into x times as much, so the
# tolerance of a bound at copy number x grows by x * FID_RTOL.
FID_RTOL = 1e-9
# below this both sides are lost in subnormal rounding
ATOL = 1e-280
# census fidelities are printed rounded to 12 decimals
CENSUS_ROUNDING = 0.5e-12

CHANNEL_COLUMNS = ("eta_b", "eta_t", "nu_b", "nu_t")


class CheckError(Exception):
    pass


def _close(a: float, b: float, what: str, rtol: float = RTOL, atol: float = ATOL) -> None:
    if not abs(a - b) <= rtol * max(abs(a), abs(b)) + atol:
        raise CheckError(f"{what}: program {a!r}, independent {b!r}")


# ---------------------------------------------------------------------------
# inputs


def grid_values(grid: dict) -> list[float]:
    steps, a, b = grid["steps"], grid["start"], grid["stop"]
    if steps == 1:
        return [a]
    if grid["log"]:
        return [a * (b / a) ** (i / (steps - 1)) for i in range(steps)]
    return [a + (b - a) * i / (steps - 1) for i in range(steps)]


def family_of(kind: str, point: dict) -> ChannelFamily:
    if kind == "pure-loss":
        return ChannelFamily.pure_loss(point["eta-b"], point["eta-t"])
    return ChannelFamily.additive(point["nu-b"], point["nu-t"])


def classical_fidelity(kind: str, point: dict) -> float:
    """One channel, optimal classical probe: coherent light of energy ns, or vacuum."""
    if kind == "pure-loss":
        gap = math.sqrt(point["eta-b"]) - math.sqrt(point["eta-t"])
        return math.exp(-0.5 * point["ns"] * gap * gap)
    nb, nt = point["nu-b"], point["nu-t"]
    return 1.0 / (math.sqrt((nb + 1.0) * (nt + 1.0)) - math.sqrt(nb * nt))


def probe_blocks(probe: str, m: int, mu: float):
    """(descriptor, channels) per block; the ring's blocks overlap."""
    def ghz(channels, idlers=0):
        return BlockDescriptor("ghz", tuple(channels), idlers, mu=mu), tuple(channels)

    if probe == "full-ghz":
        return [ghz(range(m))]
    if probe == "tmsv-disjoint":
        blocks = [ghz((2 * k, 2 * k + 1)) for k in range(m // 2)]
        return blocks + ([ghz((m - 1,), 1)] if m % 2 else [])
    if probe == "idler-full":
        return [ghz((k,), 1) for k in range(m)]
    if probe == "nn":
        return [ghz((k, (k + 1) % m)) for k in range(m)]
    raise CheckError(f"no independent computation for probe {probe!r}")


def overlap(probe: str, m: int) -> int:
    """Extra channel uses per round: the ring probes every channel twice."""
    return m if probe == "nn" else 0


def space_size(space: str, m: int) -> int:
    return 2**m if space == "full" else math.comb(m, int(space[4:]))


# ---------------------------------------------------------------------------
# independent bound sums: sum over ordered pairs a != b of prod_blocks F^M


def _power(f: float, x: float) -> float:
    return math.exp(x * math.log(f)) if f > 0.0 else 0.0


def _local_class(bits_a, bits_b):
    v, u = sum(bits_a), sum(bits_b)
    d = sum(1 for x, y in zip(bits_a, bits_b) if x != y)
    return min(v, u), max(v, u), d


class Bounds:
    """UB and LB of one probe on one space and channel pair, as functions of M."""

    def __init__(self, kind: str, point: dict, m: int, space: str, probe: str):
        self.m, self.space, self.probe = m, space, probe
        self.n = space_size(space, m)
        self.family = family_of(kind, point)
        self.f_classical = classical_fidelity(kind, point)
        self._fids: dict = {}
        if probe != "classical":
            self.blocks = probe_blocks(probe, m, point["ns"] + 0.5)
        if space != "full" and probe != "classical":
            self._log_pairs = self._pair_log_fidelities()

    def fid(self, desc, cls) -> float:
        key = (desc, cls)
        if key not in self._fids:
            self._fids[key] = 1.0 if cls[2] == 0 else block_subfidelity(desc, self.family, *cls)
        return self._fids[key]

    def pair_sum(self, x: float) -> float:
        """sum_{a != b} F_ab^x / n, i.e. UB at M = x."""
        if self.probe == "classical":
            return self._classical(x)
        if self.space != "full":
            return math.fsum(c * math.exp(x * lf) for c, lf in self._log_pairs if lf > -math.inf) / self.n
        if self.probe == "nn":
            return self._ring(x) / self.n
        return self._block_product(x)

    def upper(self, copies: float) -> float:
        return self.pair_sum(copies)

    def lower(self, copies: float) -> float:
        return self.pair_sum(2.0 * copies) / (2.0 * self.n)

    def classical_lower(self, m_bar: float) -> float:
        return self._classical(2.0 * m_bar) / (2.0 * self.n)

    def _classical(self, x: float) -> float:
        """Classical probes factor per channel: F = f^d at Hamming distance d."""
        g = _power(self.f_classical, x)
        m = self.m
        if self.space == "full":
            return math.expm1(m * math.log1p(g))
        k = int(self.space[4:])
        # cpf:k pairs at distance 2j: choose j targets to drop and j to add
        return math.fsum(math.comb(k, j) * math.comb(m - k, j) * g ** (2 * j)
                         for j in range(1, min(k, m - k) + 1))

    def _block_product(self, x: float) -> float:
        """Full space, disjoint blocks: the pair sum factors over blocks."""
        total = 0.0
        for desc, channels in self.blocks:
            s = len(channels)
            inner = 0.0
            for v in range(s + 1):
                for u in range(s + 1):
                    for o in range(max(0, v + u - s), min(v, u) + 1):
                        d = v + u - 2 * o
                        if d:
                            pairs = math.comb(s, v) * math.comb(v, o) * math.comb(s - v, u - o)
                            inner += pairs * _power(self.fid(desc, (min(v, u), max(v, u), d)), x)
            total += math.log1p(inner / 2**s)
        return math.expm1(total)

    def _ring(self, x: float) -> float:
        """Full space, ring of two-channel blocks: DP over (a_k, b_k, differs so far)."""
        desc = self.blocks[0][0]
        weight = {}
        for la in itertools.product((0, 1), repeat=2):
            for lb in itertools.product((0, 1), repeat=2):
                weight[la, lb] = _power(self.fid(desc, _local_class(la, lb)), x)
        states = list(itertools.product((0, 1), repeat=2))
        total = 0.0
        for first in states:
            vec = {(first, first[0] != first[1]): 1.0}
            for _ in range(self.m - 1):
                new: dict = {}
                for (s, differs), w in vec.items():
                    for t in states:
                        key = (t, differs or t[0] != t[1])
                        new[key] = new.get(key, 0.0) + w * weight[(s[0], t[0]), (s[1], t[1])]
                vec = new
            for (s, differs), w in vec.items():
                if differs:
                    total += w * weight[(s[0], first[0]), (s[1], first[1])]
        return total

    def _pair_log_fidelities(self) -> list[tuple[int, float]]:
        """cpf:k, any probe: (pair count, log F) per group of pairs with equal block classes."""
        by_shape = {(len(c), d.idlers): d for d, c in self.blocks}
        out = []
        for key, count in _cpf_pair_classes(self.m, int(self.space[4:]), self.probe).items():
            total = 0.0
            for shape, cls in key:
                f = self.fid(by_shape[shape], cls)
                total += math.log(f) if f > 0.0 else -math.inf
            out.append((count, total))
        return out


@functools.lru_cache(maxsize=None)
def _cpf_pair_classes(m: int, k: int, probe: str) -> dict:
    """Every ordered pair of the cpf:k space, grouped by its multiset of block classes."""
    blocks = [(len(c), d.idlers, c) for d, c in probe_blocks(probe, m, 1.0)]
    patterns = [tuple(1 if c in targets else 0 for c in range(m))
                for targets in itertools.combinations(range(m), k)]
    groups: dict = {}
    for a, b in itertools.permutations(patterns, 2):
        key = tuple(sorted(((size, idlers), _local_class([a[c] for c in chans], [b[c] for c in chans]))
                           for size, idlers, chans in blocks))
        groups[key] = groups.get(key, 0) + 1
    return groups


# ---------------------------------------------------------------------------
# per-file checks


def _read_csv(path):
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _float(row: dict, key: str):
    text = row[key]
    return None if text == "" else float(text)


def check_bounds(op: dict, path) -> None:
    spec = op["spec"]
    kind, m, space, probe = spec["family"], spec["m"], spec["space"], spec["probe"]
    rows = _read_csv(path)
    grids = spec["grids"]
    points = list(itertools.product(*(grid_values(g) for g in grids)))
    if len(rows) != len(points):
        raise CheckError(f"{len(rows)} rows for {len(points)} grid points")
    n = space_size(space, m)
    l_extra = overlap(probe, m)
    cache: dict = {}
    previous = None
    for row, values in zip(rows, points):
        point = dict(spec["fixed"])
        point.update({g["name"]: v for g, v in zip(grids, values)})
        if (row["family"], int(row["m"]), row["space"], row["probe"]) != (kind, m, space, probe):
            raise CheckError(f"row labels {row['family']},{row['m']},{row['space']},{row['probe']}")
        for col in CHANNEL_COLUMNS:
            key = col.replace("_", "-")
            if key in point:
                _close(_float(row, col), point[key], col, rtol=1e-12)
                point[key] = _float(row, col)
        _close(_float(row, "ns"), point["ns"], "ns", rtol=1e-12)
        point["ns"] = _float(row, "ns")
        _close(_float(row, "mu"), point["ns"] + 0.5, "mu", rtol=1e-12)
        copies, m_bar = _float(row, "copies"), _float(row, "m_bar")
        _close(m_bar, point["mbar"], "m_bar", rtol=1e-12)
        _close(m_bar, (m + l_extra) / m * copies, "m_bar = (m+l)/m M", rtol=1e-12)
        lower_raw, upper_raw = _float(row, "lower_raw"), _float(row, "upper_raw")
        lower, upper = _float(row, "lower"), _float(row, "upper")
        if lower != min(max(lower_raw, 0.0), 1.0) or upper != min(max(upper_raw, 0.0), 1.0):
            raise CheckError("clipped bounds do not match the raw sums")
        if not 0.0 <= lower <= upper:
            raise CheckError(f"bounds out of order: lower {lower!r}, upper {upper!r}")
        if lower_raw < upper_raw**2 / (2 * n * (n - 1)) * (1.0 - 1e-9) - ATOL:
            raise CheckError("lower_raw below upper_raw^2 / (2 n (n-1))")
        key = tuple(sorted((k, v) for k, v in point.items() if k != "mbar"))
        if key not in cache:
            cache = {key: Bounds(kind, point, m, space, probe)}
        ref = cache[key]
        tol = RTOL + copies * FID_RTOL
        _close(upper_raw, ref.upper(copies), "upper_raw", rtol=tol)
        _close(lower_raw, ref.lower(copies), "lower_raw", rtol=tol + copies * FID_RTOL)
        delta = _float(row, "delta_perr")
        if probe == "classical":
            if delta is not None:
                raise CheckError("classical row carries delta_perr")
        else:
            classical = min(max(ref.classical_lower(m_bar), 0.0), 1.0)
            _close(delta, classical - upper, "delta_perr",
                   atol=RTOL * classical + tol * upper + ATOL)
        if len(grids) == 1 and grids[0]["name"] == "mbar":
            if previous is not None and (upper_raw > previous[0] or lower_raw > previous[1]):
                raise CheckError("bounds increase along the M sweep")
            previous = (upper_raw, lower_raw)


def check_census(op: dict, path) -> None:
    spec = op["spec"]
    m, copies = spec["m"], spec["copies"]
    rows = _read_csv(path)
    values = [float(r["fidelity"]) for r in rows]
    mult = [int(r["multiplicity"]) for r in rows]
    n = space_size(spec["space"], m)
    if sum(mult) != n * (n - 1):
        raise CheckError(f"multiplicities sum to {sum(mult)}, not n(n-1) = {n * (n - 1)}")
    if any(c <= 0 for c in mult) or values != sorted(set(values)):
        raise CheckError("census values are not distinct and ascending with positive counts")
    if values and not 0.0 <= values[0] <= values[-1] <= 1.0:
        raise CheckError("census fidelity outside [0, 1]")
    point = dict(spec["fixed"])
    ref = Bounds(spec["family"], point, m, spec["space"], spec["probe"]).upper(copies)
    got = math.fsum(c * v for c, v in zip(mult, values)) / n
    _close(got, ref, "census sum / n", rtol=RTOL + copies * FID_RTOL,
           atol=CENSUS_ROUNDING * (n - 1))


def check_validate(op: dict, path) -> None:
    with open(path) as fh:
        results = [json.loads(line) for line in fh if line.strip()]
    names = {r["suite"] for r in results}
    if names != set(SUITES) or len(results) != len(SUITES):
        raise CheckError(f"suites reported: {sorted(names)}")
    failed = [r["suite"] for r in results if not r["passed"]]
    if failed:
        raise CheckError(f"suites failed: {failed}")


CHECKS = {"bounds": check_bounds, "census": check_census, "validate": check_validate}


def check(op: dict, path) -> None:
    """Raise CheckError if the output of ``op`` at ``path`` is wrong."""
    CHECKS[op["kind"]](op, path)
