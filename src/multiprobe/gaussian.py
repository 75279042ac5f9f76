"""Covariance-matrix algebra for multimode Gaussian states.

Quadratures are ordered (x1, p1, ..., xn, pn) and the vacuum carries shot
noise 1/2 (hbar = 1).  A state is a 2n x 2n covariance matrix plus an
optional mean vector; everything here is a pure function of those values.

The squeezing/energy parameter ``mu`` equals N_S + 1/2 for mean photon
number N_S per mode, so ``mu = 1/2`` is the vacuum.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError, EnergyError, NumericError, PartitionError

SHOT_NOISE = 0.5

# Bona fide and fidelity-range slack.  Double-precision eigensolves on the
# matrices used here (up to ~40 x 40) stay below ~1e-12, so 1e-9 is margin.
BONA_FIDE_TOL = 1e-9
FIDELITY_RANGE_TOL = 1e-9

# States whose smallest symplectic eigenvalue sits this close to 1/2 are
# treated as pure; the fidelity then uses the exact overlap formula, which
# is stable where the general formula hits a square-root branch point.
PURITY_TOL = 1e-10

# Auxiliary-spectrum values within this band of 1/2 come from exactly-pure
# tensor factors (their true contribution is log 1 = 0); eigensolver noise
# inside the band would otherwise be amplified as sqrt(noise).
BRANCH_TOL = 1e-10

_EPS = float(np.finfo(float).eps)

# Pairs per stacked fidelity call: bounds the (pairs, 2n, 2n) temporaries of
# a large batch; the results do not depend on it.
STACK_MAX_PAIRS = 64


def _scale_tol(base: float, scale):
    """Absolute tolerance for eigenvalues of a matrix with entries ~scale.

    States built at saturated correlations have zero analytic margin, and
    storing their CM in doubles already moves the critical eigenvalue by
    O(eps * scale^2) (the sensitivity is ~2*scale at the saturation point),
    so the slack must widen quadratically with the matrix scale.  ``scale``
    may be an array of per-matrix scales.
    """
    return np.maximum(base, 64.0 * _EPS * scale * scale)


@functools.cache
def symplectic_form(n: int) -> np.ndarray:
    """Symplectic form matching the interleaved (x1, p1, ...) ordering.

    Built once per n and shared, so the array is read-only.
    """
    omega = np.zeros((2 * n, 2 * n))
    for k in range(n):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    omega.flags.writeable = False
    return omega


def _times_omega(x: np.ndarray) -> np.ndarray:
    """``x @ symplectic_form(n)`` over any leading shape, exactly: a signed
    column swap within each mode."""
    return np.stack([-x[..., 1::2], x[..., 0::2]], axis=-1).reshape(x.shape)


def _split(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact split ``x == head + tail`` of the rows (``axis`` -1) or columns
    (``axis`` -2) of square matrices, over any leading shape.

    Each head line is rounded to multiples of the unit 2^e that sits
    s = (53 - bitlen(2n - 1)) // 2 bits below the line's largest entry, so
    its entries are integers of at most s significant bits times that unit;
    the tail is the exact rounding remainder.  The split of a matrix
    depends on that matrix alone, so a stack of pairs can split each of its
    states once.
    """
    s = (53 - (x.shape[-1] - 1).bit_length()) // 2
    e = np.frexp(np.abs(x).max(axis=axis, keepdims=True))[1] - s
    head = np.ldexp(np.round(np.ldexp(x, -e)), e)
    return head, x - head


def _cancelling_product(rows, cols, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over any leading shape, within about one rounding of each
    entry even where its sum cancels far below its terms, from the row
    split ``rows`` of ``a`` and the column split ``cols`` of ``b``
    (``_split``).

    Sums of 2n head products are multiples of one unit bounded by
    2n 2^(2s) units, so with 2s + log2 2n <= 53 the head product is exact;
    the tail products carry 2^-s of the terms' size, so their rounding is
    negligible.
    """
    (ah, at), (bh, bt) = rows, cols
    return ah @ bh + (ah @ bt + at @ b)


def _spectrum_of(data: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues |eig(i Omega V)|, ascending, one per mode,
    over any leading shape."""
    n = data.shape[-1] // 2
    eigs = np.linalg.eigvals(symplectic_form(n) @ data)
    vals = np.sort(np.abs(eigs), axis=-1)
    lo, hi = vals[..., ::2], vals[..., 1::2]
    scale = np.maximum(1.0, vals[..., -1:])
    if (np.abs(hi - lo) > 1e-8 * scale).any():
        raise NumericError("symplectic spectrum does not come in +/- pairs")
    return (lo + hi) / 2.0


def _half_spectrum(data: np.ndarray) -> np.ndarray | None:
    """Symplectic eigenvalues, ascending, of symmetric covariance matrices
    over any leading shape, when no matrix has x-p correlations: every
    ``data[..., 0::2, 1::2]`` entry is zero, so V = X (+) P in the
    interleaved order.  None unless that holds, every X and P is positive
    definite and every eigenvalue of X P positive.

    V > 0 exactly when X > 0 and P > 0, so the two n x n Cholesky
    factorisations are the positive-definiteness check, and the spectrum is
    sqrt(eig(X P)) = sqrt(eig(L^T P L)) with X = L L^T, one n x n symmetric
    eigensolve in place of the 2n x 2n general one.
    """
    if data[..., 0::2, 1::2].any():
        return None
    p = data[..., 1::2, 1::2]
    try:
        lx = np.linalg.cholesky(data[..., 0::2, 0::2])
        np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        return None
    squares = np.linalg.eigvalsh(lx.swapaxes(-2, -1) @ p @ lx)
    return np.sqrt(squares) if (squares > 0.0).all() else None


def _checked(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic spectra and purity flags of symmetric covariance matrices
    over any leading shape, one stacked eigensolve; NumericError unless
    every matrix is bona fide and positive definite.

    A stack without x-p correlations, as is every probe of this package
    through phase-insensitive channels, takes the half-size route on its
    n x n X and P blocks (``_half_spectrum``).  Any other stack, and one
    whose X or P is not positive definite, takes the 2n x 2n route: the
    general eigensolve of Omega V (``_spectrum_of``) and a Cholesky
    factorisation of V, so every error reads as it does there.
    """
    if not np.isfinite(data).all():
        raise NumericError("covariance matrix has non-finite entries")
    spectrum = _half_spectrum(data)
    definite = spectrum is not None
    if not definite:
        spectrum = _spectrum_of(data)
    scale = np.maximum(1.0, np.abs(data).max(axis=(-2, -1)))
    low = spectrum[..., 0]
    bad = low < SHOT_NOISE - _scale_tol(BONA_FIDE_TOL, scale)
    if bad.any():
        raise NumericError(
            f"covariance matrix is not bona fide: min symplectic eigenvalue "
            f"{float(np.extract(bad, low)[0]):.12g} < 1/2"
        )
    # |eig(i Omega V)| >= 1/2 holds for -V as well as for V
    if not definite:
        try:
            np.linalg.cholesky(data)
        except np.linalg.LinAlgError as exc:
            raise NumericError("covariance matrix is not positive definite") from exc
    return spectrum, spectrum[..., -1] <= SHOT_NOISE + _scale_tol(PURITY_TOL, scale)


class CovMatrix:
    """Covariance matrix of an n-mode Gaussian state, optionally displaced.

    The matrix is symmetrised on construction and checked bona fide: every
    symplectic eigenvalue must be >= 1/2 - BONA_FIDE_TOL, and the matrix
    positive definite.  A matrix without x-p correlations is checked on
    its n x n X and P blocks, any other on the whole 2n x 2n matrix (see
    ``_checked``).  Instances are treated as immutable values.
    """

    __slots__ = ("n_modes", "data", "mean", "spectrum", "is_pure")

    def __init__(self, data, mean=None):
        data = np.array(data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] % 2:
            raise DimensionError(f"covariance matrix must be 2n x 2n, got {data.shape}")
        n = data.shape[0] // 2
        data = 0.5 * (data + data.T)
        if mean is None:
            mean = np.zeros(2 * n)
        else:
            mean = np.array(mean, dtype=float)
            if mean.shape != (2 * n,):
                raise DimensionError(f"mean vector must have length {2 * n}, got {mean.shape}")
            if not np.isfinite(mean).all():
                raise NumericError("mean vector has non-finite entries")
        spectrum, is_pure = _checked(data)
        self.n_modes = n
        self.data = data
        self.mean = mean
        self.spectrum = spectrum
        self.is_pure = bool(is_pure)

    def __repr__(self):
        return f"CovMatrix(n_modes={self.n_modes}, pure={self.is_pure})"


def symplectic_spectrum(state: CovMatrix) -> np.ndarray:
    """Symplectic eigenvalues of a state, sorted ascending."""
    return state.spectrum.copy()


def vacuum_cm(n: int) -> CovMatrix:
    if n < 1:
        raise DimensionError("need at least one mode")
    return CovMatrix(SHOT_NOISE * np.eye(2 * n))


def coherent_cm(alphas) -> CovMatrix:
    """Product of coherent states |alpha_k> (vacuum CM, displaced means).

    With x = (a + a^dag)/sqrt(2) the mean of |alpha> is
    (sqrt(2) Re alpha, sqrt(2) Im alpha).
    """
    return CovMatrix(*coherent_state(alphas))


def coherent_state(alphas) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrix and mean of ``coherent_cm``, unchecked."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    mean = np.empty(2 * len(alphas))
    mean[0::2] = np.sqrt(2.0) * alphas.real
    mean[1::2] = np.sqrt(2.0) * alphas.imag
    return SHOT_NOISE * np.eye(2 * len(alphas)), mean


def max_correlation(mu: float, m: int) -> float:
    """Largest |c| compatible with bona fide for an m-mode symmetric state."""
    return float(np.sqrt(mu * mu - 0.25) / (m - 1))


def ghz_cm(m: int, mu: float) -> CovMatrix:
    """CM of the m-mode bosonic GHZ state at maximal symmetric correlations.

    Diagonal blocks are mu * I, off-diagonal blocks diag(c, -c) with
    c = sqrt(mu^2 - 1/4) / (m - 1), which saturates the bona fide condition.
    For m = 2 this is the standard two-mode squeezed vacuum.
    """
    return CovMatrix(*ghz_state(m, mu))


def ghz_state(m: int, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrix and (zero) mean of ``ghz_cm``, unchecked."""
    if m < 2:
        raise PartitionError(f"GHZ state needs at least 2 modes, got m={m}")
    if mu < SHOT_NOISE:
        raise EnergyError(f"squeezing mu must be >= 1/2, got {mu}")
    c = max_correlation(mu, m)
    x, p = np.full((m, m), c), np.full((m, m), -c)
    np.fill_diagonal(x, mu)
    np.fill_diagonal(p, mu)
    data = np.zeros((2 * m, 2 * m))  # no x-p correlation
    data[0::2, 0::2] = x
    data[1::2, 1::2] = p
    return data, np.zeros(2 * m)


def tmsv_cm(mu: float) -> CovMatrix:
    """Two-mode squeezed vacuum with energy mu = N_S + 1/2 per mode."""
    return ghz_cm(2, mu)


def ghz_spectrum_closed_form(m: int, mu: float) -> np.ndarray:
    """Expected symplectic spectrum of ghz_cm, ascending.

    The saturated correlation pins one eigenvalue at exactly 1/2; the
    remaining (m-1)-fold degenerate value is sqrt(mu^2 - c^2).
    """
    c = max_correlation(mu, m)
    bulk = float(np.sqrt(mu * mu - c * c))
    return np.sort(np.array([0.5] + [bulk] * (m - 1)))


def tensor(*states: CovMatrix) -> CovMatrix:
    """Tensor product: block-diagonal CM, concatenated means."""
    if not states:
        raise DimensionError("tensor of zero states")
    return CovMatrix(*direct_sum([(s.data, s.mean) for s in states]))


def direct_sum(parts) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal matrix and concatenated mean of (covariance matrix,
    mean) parts, unchecked: the arrays of their tensor product."""
    total = sum(len(mean) for _, mean in parts)
    data = np.zeros((total, total))
    mean = np.zeros(total)
    at = 0
    for block, part_mean in parts:
        w = len(part_mean)
        data[at : at + w, at : at + w] = block
        mean[at : at + w] = part_mean
        at += w
    return data, mean


def _fidelity(v1: np.ndarray, v2: np.ndarray, mixed: bool, delta: np.ndarray, split=None) -> np.ndarray:
    """Fidelities of canonically ordered pairs (V1, V2), over any leading shape.

    ``v1`` and ``v2`` are (..., 2n, 2n) covariance matrices and ``delta``
    the (..., 2n) mean differences.  When ``mixed`` is false every pair has
    a pure member and F0 = det(V1 + V2)^(-1/4); otherwise the general
    mixed-state formula
    F0^2 = prod_k (2 w_k + sqrt(4 w_k^2 - 1)) / sqrt(det(V1 + V2))
    applies, where w_k are the paired moduli of eig(V_aux Omega).  The mean
    difference contributes exp(-delta^T (V1+V2)^(-1) delta / 4).  LAPACK
    runs once per matrix in either case, so a pair's result does not
    depend on the stack it sits in.

    ``split`` holds the ``_split`` rows of V2 Omega and columns of V1 for a
    mixed stack whose caller split each state once; without it they are
    split here.
    """
    vsum = v1 + v2
    sign, logdet = np.linalg.slogdet(vsum)
    # array methods rather than np.any/np.all: a fraction of the call
    # overhead, which matters for the many single-pair calls
    if (sign <= 0).any():
        raise NumericError("det(V_a + V_b) not positive")
    if mixed:
        omega = symplectic_form(v1.shape[-1] // 2)
        # Near purity V2 Omega V1 cancels to far below its terms, and
        # 2w + sqrt(4w^2 - 1) amplifies an error in w ~ 1/2: a plain double
        # product cost up to 3e-10 of the fidelity at mu ~ 50
        rows, cols = split or (_split(_times_omega(v2), -1), _split(v1, -2))
        rhs = omega / 4.0 + _cancelling_product(rows, cols, v1)
        try:
            vaux = omega.T @ np.linalg.solve(vsum, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericError("singular V1 + V2 in fidelity") from exc
        vals = np.sort(np.abs(np.linalg.eigvals(vaux @ omega)), axis=-1)
        lo, hi = vals[..., ::2], vals[..., 1::2]
        scale = np.maximum(1.0, vals[..., -1:])
        if (np.abs(hi - lo) > 1e-7 * scale).any():
            raise NumericError("auxiliary spectrum does not pair up; inputs may not be bona fide")
        w = (lo + hi) / 2.0
        terms = np.zeros_like(w)
        branch = w > 0.5 + _scale_tol(BRANCH_TOL, scale)
        wm = w[branch]
        terms[branch] = np.log(2.0 * wm + np.sqrt(np.maximum(4.0 * wm * wm - 1.0, 0.0)))
        log_f = 0.5 * np.sum(terms, axis=-1) - 0.25 * logdet
    else:
        log_f = -0.25 * logdet
    if delta.any():
        shift = delta[..., None, :] @ np.linalg.solve(vsum, delta[..., None])
        log_f = log_f - 0.25 * shift[..., 0, 0]
    fid = np.exp(log_f)
    ok = (fid <= 1.0 + FIDELITY_RANGE_TOL) & (fid >= -FIDELITY_RANGE_TOL)  # NaN fails both
    if not ok.all():
        bad = float(np.extract(~ok, fid)[0])
        raise NumericError(f"fidelity {bad!r} outside [0, 1] beyond tolerance")
    return np.minimum(fid, 1.0)  # exp is never negative


def gaussian_fidelity(a: CovMatrix, b: CovMatrix) -> float:
    """Bures fidelity F(rho_a, rho_b) = ||sqrt(rho_a) sqrt(rho_b)||_1.

    Covers arbitrary displaced Gaussian states of equal mode count.  When
    either state is pure the exact overlap form
    F = det(V_a + V_b)^(-1/4) * exp(-delta^T (V_a+V_b)^(-1) delta / 4)
    is used; otherwise the general mixed-state formula.  The result is
    clamped to [0, 1]; an excursion beyond the 1e-9 tolerance raises.  The
    pair runs through ``_pair_fidelities``, whose canonical argument order
    makes the symmetry F(a,b) = F(b,a) exact and gives identical inputs
    exactly 1.
    """
    if a.n_modes != b.n_modes:
        raise DimensionError(f"mode counts differ: {a.n_modes} vs {b.n_modes}")
    data, means = np.stack((a.data, b.data)), np.stack((a.mean, b.mean))
    return float(_pair_fidelities(data, means, (a.is_pure, b.is_pure), [(0, 1)])[0])


def stacked_fidelities(data, means, pairs) -> np.ndarray:
    """Fidelities of the index pairs (i, j) of states given as a (k, 2n, 2n)
    stack of covariance matrices and a (k, 2n) stack of means.

    Each equals ``gaussian_fidelity(CovMatrix(data[i], means[i]),
    CovMatrix(data[j], means[j]))`` bit for bit: the stack is symmetrised
    and checked as CovMatrix does, with one stacked eigensolve, and raises
    NumericError where CovMatrix would.
    """
    data = np.asarray(data, dtype=float)
    means = np.asarray(means, dtype=float)
    if data.ndim != 3 or data.shape[1] != data.shape[2] or data.shape[1] % 2 or means.shape != data.shape[:2]:
        raise DimensionError(f"need a (k, 2n, 2n) and a (k, 2n) stack, got {data.shape} and {means.shape}")
    data = 0.5 * (data + data.swapaxes(1, 2))
    if not np.isfinite(means).all():
        raise NumericError("mean vector has non-finite entries")
    _, pure = _checked(data)
    return _pair_fidelities(data, means, pure, pairs)


def _pair_fidelities(data: np.ndarray, means: np.ndarray, pure, pairs) -> np.ndarray:
    """Fidelities of the index pairs (i, j) of a stack of checked states.

    Each pair is put in canonical order, that of the states' (data, mean)
    ``tobytes`` keys, and identical states give exactly 1.0: both follow
    from one rank per state of its key.  The other pairs run through
    ``_fidelity`` in stacks of at most STACK_MAX_PAIRS, in pair order, pairs
    with a pure member apart from mixed pairs.  Each state that is first in
    a mixed pair has its columns split once (``_split``), and each that is
    second the rows of its V Omega, for all the pairs it is in.
    """
    keys = [(d.tobytes(), m.tobytes()) for d, m in zip(data, means)]
    rank_of = {key: r for r, key in enumerate(sorted(set(keys)))}
    rank = np.array([rank_of[key] for key in keys], dtype=np.int64)
    pure = np.asarray(pure, dtype=bool)
    i, j = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    swap = rank[j] < rank[i]
    first, second = np.where(swap, j, i), np.where(swap, i, j)
    differ = rank[i] != rank[j]
    mixed = ~(pure[i] | pure[j])
    todo_pure, todo_mixed = np.flatnonzero(differ & ~mixed), np.flatnonzero(differ & mixed)
    if len(todo_mixed):
        ones, twos = np.zeros(len(data), dtype=bool), np.zeros(len(data), dtype=bool)
        ones[first[todo_mixed]] = True
        twos[second[todo_mixed]] = True
        cols, rows = _split(data[ones], -2), _split(_times_omega(data[twos]), -1)
        at_one, at_two = np.cumsum(ones) - 1, np.cumsum(twos) - 1  # position among the split states
    out = np.ones(len(i))
    for group, todo in ((False, todo_pure), (True, todo_mixed)):
        for start in range(0, len(todo), STACK_MAX_PAIRS):
            idx = todo[start:start + STACK_MAX_PAIRS]
            a, b = first[idx], second[idx]
            split = None
            if group:
                one, two = at_one[a], at_two[b]
                split = (rows[0][two], rows[1][two]), (cols[0][one], cols[1][one])
            out[idx] = _fidelity(data[a], data[b], group, means[a] - means[b], split)
    return out
