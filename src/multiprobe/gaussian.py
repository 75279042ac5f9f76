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

# Floats in one batch: the covariance-matrix entries of one stacked block
# batch over grid points (``blocks``), the bound sums' states x columns
# (``bounds``), and the temporaries of one key chunk or one stacked
# ``_fidelity`` call of ``_pair_fidelities``.  Larger batches run in chunks;
# the results do not depend on it.
BATCH_MAX_FLOATS = 1 << 16


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
    over any leading shape, in stacked eigensolves; NumericError unless
    every matrix is bona fide and positive definite.

    A state without x-p correlations, as is every probe of this package
    through phase-insensitive channels, takes the half-size route on its
    n x n X and P blocks (``_half_spectrum``).  Any other state takes the
    2n x 2n route: the general eigensolve of Omega V (``_spectrum_of``) and
    a Cholesky factorisation of V, so every error reads as it does there.
    A stack that holds both kinds is checked in one call per route, so each
    state gets the spectrum and purity flag of its own one-state check; a
    stack whose X or P blocks are not all positive definite takes the 2n x
    2n route as a whole.
    """
    if not np.isfinite(data).all():
        raise NumericError("covariance matrix has non-finite entries")
    spectrum, unchecked = _half_spectrum(data), None  # unchecked: still to factorise
    if spectrum is None:
        general = data[..., 0::2, 1::2].any(axis=(-2, -1))
        half = _half_spectrum(data[~general]) if general.any() and not general.all() else None
        if half is None:
            spectrum, unchecked = _spectrum_of(data), data
        else:
            spectrum = np.empty(general.shape + half.shape[-1:])
            spectrum[~general], spectrum[general] = half, _spectrum_of(data[general])
            unchecked = data[general]
    scale = np.maximum(1.0, np.abs(data).max(axis=(-2, -1)))
    low = spectrum[..., 0]
    bad = low < SHOT_NOISE - _scale_tol(BONA_FIDE_TOL, scale)
    if bad.any():
        raise NumericError(
            f"covariance matrix is not bona fide: min symplectic eigenvalue "
            f"{float(np.extract(bad, low)[0]):.12g} < 1/2"
        )
    # |eig(i Omega V)| >= 1/2 holds for -V as well as for V
    if unchecked is not None:
        try:
            np.linalg.cholesky(unchecked)
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


def ghz_numbers(m: int, mu: float) -> tuple[float, float, float, float]:
    """(a, b, c1, c2) of ``ghz_cm`` in ``symmetric_state``: (mu, mu, c, -c)."""
    if m < 2:
        raise PartitionError(f"GHZ state needs at least 2 modes, got m={m}")
    if mu is None or not SHOT_NOISE <= mu < np.inf:
        raise EnergyError(f"squeezing mu must be finite and >= 1/2, got {mu}")
    c = max_correlation(mu, m)
    return mu, mu, c, -c


def ghz_state(m: int, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrix and (zero) mean of ``ghz_cm``, unchecked."""
    return symmetric_state(m, *ghz_numbers(m, mu))


def symmetric_state(n: int, a: float, b: float, c1: float, c2: float, alpha: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrix and mean of the n-mode permutation-symmetric state,
    unchecked: X = (a - c1) I + c1 J, P = (b - c2) I + c2 J (J all ones), no
    x-p correlation and the x mean sqrt(2) alpha of ``coherent_state``."""
    data = np.zeros((2 * n, 2 * n))
    data[0::2, 0::2] = c1
    data[1::2, 1::2] = c2
    np.fill_diagonal(data, (a, b))  # a on each x, b on each p
    mean = np.zeros(2 * n)
    mean[0::2] = np.sqrt(2.0) * alpha
    return data, mean


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


def _fidelity(v1: np.ndarray, v2: np.ndarray, mixed: bool, delta: np.ndarray) -> np.ndarray:
    """Fidelities of canonically ordered pairs (V1, V2), over any leading shape.

    ``v1`` and ``v2`` are (..., 2n, 2n) covariance matrices and ``delta``
    the (..., 2n) mean differences.  When ``mixed`` is false every pair has
    a pure member and F0 = det(V1 + V2)^(-1/4); otherwise the general
    mixed-state formula
    F0^2 = prod_k (2 w_k + sqrt(4 w_k^2 - 1)) / sqrt(det(V1 + V2))
    applies, where w_k are the paired moduli of eig(V_aux Omega).  The mean
    difference contributes exp(-delta^T (V1+V2)^(-1) delta / 4).

    Mixed pairs without x-p correlations, as are all outputs of this
    package's probes, take the half-size route on their n x n X and P
    blocks (``_half_log_fidelity``); any other mixed stack, and one whose
    X or P sums are not positive definite, takes the 2n x 2n route, the
    general eigensolve of V_aux Omega.  The route follows from the stack
    alone, and LAPACK runs once per matrix in either case, so a pair's
    result does not depend on the other pairs of a stack of its route.
    """
    log_f = None
    if mixed and not (v1[..., 0::2, 1::2].any() or v2[..., 0::2, 1::2].any()):
        log_f = _half_log_fidelity(v1, v2, delta)
    if log_f is None:
        log_f = _full_log_fidelity(v1, v2, mixed, delta)
    fid = np.exp(log_f)
    ok = (fid <= 1.0 + FIDELITY_RANGE_TOL) & (fid >= -FIDELITY_RANGE_TOL)  # NaN fails both
    if not ok.all():
        bad = float(np.extract(~ok, fid)[0])
        raise NumericError(f"fidelity {bad!r} outside [0, 1] beyond tolerance")
    return np.minimum(fid, 1.0)  # exp is never negative


def _full_log_fidelity(v1: np.ndarray, v2: np.ndarray, mixed: bool, delta: np.ndarray) -> np.ndarray:
    """log F of ``_fidelity`` on the whole 2n x 2n matrices."""
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
        rhs = omega / 4.0 + _cancelling_product(_split(_times_omega(v2), -1), _split(v1, -2), v1)
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
    return log_f


def _half_log_fidelity(v1: np.ndarray, v2: np.ndarray, delta: np.ndarray) -> np.ndarray | None:
    """log F of mixed pairs without x-p correlations, from their n x n X
    and P blocks, over any leading shape; None unless Sx = X1 + X2 and
    Sp = P1 + P2 are positive definite.

    In the xxpp order V_aux Omega is [[0, A], [-B, 0]] with
    A = Sp^-1 (I/4 + P2 X1) and B = Sx^-1 (I/4 + X2 P1), so the squared
    auxiliary moduli are w^2 = eig(A B).  With the impurities
    D_i = X_i P_i - I/4, which vanish for pure states,
    A B - I/4 = Sp^-1 D2^T Sx^-1 D1 exactly, so y = 4 w^2 - 1, which
    2w + sqrt(4w^2 - 1) = sqrt(1 + y) + sqrt(y) amplifies near purity, is
    the spectrum of 4 G H with the balanced factors G = Lp^-1 D2^T Lx^-T and
    H = Lx^-1 D1 Lp^-T (Sx = Lx Lx^T, Sp = Lp Lp^T): no I/4 cancels inside
    the eigensolve.  Each X_i P_i cancels to about I/4, so it is the exact
    split product.  log det(V1 + V2) = log det Sx + log det Sp comes from the
    Cholesky diagonals, refined by tr(L^-1 R L^-T) for the residual
    R = S - L L^T, which the exact sum (two-sum) and the exact split product
    give to far below eps |S|: S is ill conditioned for strongly correlated
    blocks.  The mean term is |Lx^-1 dx|^2 + |Lp^-1 dp|^2.
    """
    blocks = np.stack((v1[..., 0::2, 0::2], v1[..., 1::2, 1::2], v2[..., 0::2, 0::2], v2[..., 1::2, 1::2]))
    first, second = blocks[:2], blocks[2:]  # (X1, P1), (X2, P2)
    x, p = blocks[0::2], blocks[1::2]  # (X1, X2), (P1, P2)
    sums = first + second  # Sx, Sp
    try:
        lower = np.linalg.cholesky(sums)
    except np.linalg.LinAlgError:
        return None
    inverse = np.linalg.solve(lower, np.broadcast_to(np.eye(lower.shape[-1]), lower.shape))
    ix, ip = inverse
    # one split for the rows of X, of P^T (the columns of P) and of L
    heads, tails = _split(np.stack((x, p.swapaxes(-2, -1), lower)), -1)
    cols = heads[1].swapaxes(-2, -1), tails[1].swapaxes(-2, -1)
    d1, d2 = _cancelling_product((heads[0], tails[0]), cols, p) - np.eye(x.shape[-1]) / 4.0
    y = np.linalg.eigvals(4.0 * (ip @ d2.swapaxes(-2, -1) @ ix.swapaxes(-2, -1)) @ (ix @ d1 @ ip.swapaxes(-2, -1)))
    if np.iscomplexobj(y) or (y < -1.0).any():
        # 4 |w^2| - 1, as the 2n x 2n form takes |lambda|; y itself wherever
        # it is real and at least -1
        y = np.where((y.imag == 0.0) & (y.real >= -1.0), y.real, np.abs(1.0 + y) - 1.0)
    w = np.sqrt(1.0 + y) / 2.0
    scale = np.maximum(1.0, w.max(axis=-1, keepdims=True))
    branch = w > 0.5 + _scale_tol(BRANCH_TOL, scale)
    terms = np.where(branch, np.log(2.0 * w + np.sqrt(np.maximum(y, 0.0))), 0.0)  # 2w + sqrt(4w^2 - 1)
    # the residual R = S - L L^T: the head product of L L^T is exact, so is
    # its difference from the rounded sum, and the two-sum error of
    # X1 + X2 puts back what rounding the sum lost
    upper = lower.swapaxes(-2, -1)
    ah, at = heads[2], tails[2]  # the column split of L^T is its transpose
    bh, bt = ah.swapaxes(-2, -1), at.swapaxes(-2, -1)
    rounding = (first - (sums - (sums - first))) + (second - (sums - first))
    residual = ((sums - ah @ bh) - (ah @ bt + at @ upper)) + rounding
    logdet = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=-2, axis2=-1)), axis=-1)
    logdet = logdet + np.sum((inverse @ residual) * inverse, axis=(-2, -1))
    log_f = 0.5 * np.sum(terms, axis=-1) - 0.25 * (logdet[0] + logdet[1])
    if delta.any():
        shift = np.sum((ix @ delta[..., 0::2, None]) ** 2 + (ip @ delta[..., 1::2, None]) ** 2, axis=(-2, -1))
        log_f = log_f - 0.25 * shift
    return log_f


def gaussian_fidelity(a: CovMatrix, b: CovMatrix) -> float:
    """Bures fidelity F(rho_a, rho_b) = ||sqrt(rho_a) sqrt(rho_b)||_1.

    Covers arbitrary displaced Gaussian states of equal mode count.  When
    either state is pure the exact overlap form
    F = det(V_a + V_b)^(-1/4) * exp(-delta^T (V_a+V_b)^(-1) delta / 4)
    is used; otherwise the general mixed-state formula, on the n x n X and
    P blocks when neither state has x-p correlations (every output of this
    package's probes) and on the whole 2n x 2n matrices otherwise (see
    ``_fidelity``).  The result is clamped to [0, 1]; an excursion beyond
    the 1e-9 tolerance raises.  The pair runs through ``_one_pair``, as a
    one-pair ``stacked_fidelities`` call does, so the two agree bit for
    bit.  Its canonical form makes the symmetry F(a,b) = F(b,a) exact,
    gives pairs that differ by a mode permutation alike in both states the
    same bits, and gives identical inputs exactly 1.
    """
    if a.n_modes != b.n_modes:
        raise DimensionError(f"mode counts differ: {a.n_modes} vs {b.n_modes}")
    data, means = np.stack((a.data, b.data)), np.stack((a.mean, b.mean))
    return _one_pair(data, means, (a.is_pure, b.is_pure), np.array([[0], [1]]))


def stacked_fidelities(data, means, pairs) -> np.ndarray:
    """Fidelities of the index pairs (i, j) of states given as a (k, 2n, 2n)
    stack of covariance matrices and a (k, 2n) stack of means.

    Each equals ``gaussian_fidelity(CovMatrix(data[i], means[i]),
    CovMatrix(data[j], means[j]))`` bit for bit: the stack is symmetrised
    and checked as CovMatrix does, with one stacked eigensolve, and raises
    NumericError where CovMatrix would.  Mixed pairs of two states without
    x-p correlations take the half-size n x n route, others the 2n x 2n
    one; the route of a pair depends on its two states alone.  Each
    distinct canonical pair of the call is evaluated once, however many
    index pairs, argument orders or mirror images share it (see
    ``_pair_fidelities``).
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

    Each (state, mode) gets one integer code, ordered as the modes'
    (x variance, p variance, x mean, p mean) rows (``_mode_codes``).  A
    pair is put in canonical form under mode permutation and argument
    order: of its two candidates, (a, b) and (b, a) with the modes of each
    sorted by the two states' codes, ties in mode order, it takes the one
    whose sorted codes come first, and where those tie the one whose
    arrays come first lexicographically (``_canonical``).  So F(a, b) and
    F(b, a) have one canonical pair, and so do pairs that differ only by a
    permutation of modes alike in both states, such as mirror-image
    patterns on a symmetric block.  Identical states give exactly 1.0:
    pairs whose states have the same codes are compared bit for bit.

    Pairs with a pure member and mixed pairs, each split into pairs of two
    states without x-p correlations and other pairs, form four groups.
    Within a group each distinct canonical pair, by the exact bytes of the
    entries ``_fidelity`` reads (``_pair_keys``), is gathered and evaluated
    once; its copies read the value back.  Keys are made in chunks of
    pairs, and the distinct pairs are gathered and run through
    ``_fidelity`` in stacks, each sized so that its temporaries keep
    within BATCH_MAX_FLOATS; the results do not depend on it.  A call of
    one pair takes the same canonical form and evaluation without groups
    or keys (``_one_pair``).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T  # (2, pairs): i, j
    if pairs.shape[1] == 1:
        return np.array([_one_pair(data, means, pure, pairs)])
    out = np.ones(pairs.shape[1])
    if not len(out):
        return out
    dim = data.shape[-1]
    code, count = _mode_codes(data, means)
    pure = np.asarray(pure, dtype=bool)[pairs]
    general = data[:, 0::2, 1::2].any(axis=(-2, -1))[pairs]
    # 0: a pure member, both states x-p-free; 1: a pure member, others;
    # 2: mixed, both x-p-free; 3: mixed, others
    group = 2 * ~(pure[0] | pure[1]) + (general[0] | general[1])
    # pairs per key chunk and per stacked _fidelity call: per pair, a key
    # chunk holds about 3 (2n)^2 floats (entries, their indices and the byte
    # keys), a _fidelity call about 12 (both gathered states and the
    # formula's temporaries)
    per_chunk, per_stack = (max(1, BATCH_MAX_FLOATS // (k * dim * dim)) for k in (3, 12))
    for g in np.flatnonzero(np.bincount(group, minlength=4)):
        todo = np.flatnonzero(group == g)
        template = _template(dim // 2, g % 2 == 0)
        slots: dict = {}  # canonical pair key -> its index in values
        slot = np.full(len(todo), -1)  # per pair of the group; values[-1] = 1.0 for identical states
        fresh = []  # per chunk: (states, order) of its keys not seen before
        for start in range(0, len(todo), per_chunk):
            at = np.arange(start, min(start + per_chunk, len(todo)))
            ab = pairs[:, todo[at]]
            alike = (code[ab[0]] == code[ab[1]]).all(axis=1)
            if alike.any():
                alike[alike] = _identical(data, means, ab[:, alike])
                at, ab = at[~alike], ab[:, ~alike]
            states, order = _canonical(data, code, count, ab, template)
            seen, new = len(slots), []
            for r, key in enumerate(_pair_keys(data, means, states, order, template)):
                slot[at[r]] = value = slots.setdefault(key, len(slots))
                if value == seen + len(new):
                    new.append(r)
            fresh.append((states[:, new], order[new]))
        states = np.concatenate([part for part, _ in fresh], axis=1)
        order = np.concatenate([part for _, part in fresh])
        values = np.ones(len(slots) + 1)
        for start in range(0, len(slots), per_stack):
            at = slice(start, min(start + per_stack, len(slots)))
            v, m = _permuted(data, means, states[:, at], order[at])
            values[at] = _fidelity(v[0], v[1], g > 1, m[0] - m[1])
        out[todo] = values[slot]
    return out


def _one_pair(data: np.ndarray, means: np.ndarray, pure, pair: np.ndarray) -> float:
    """Fidelity of one index pair, a (2, 1) array, of a stack of checked
    states: the canonical form and evaluation of ``_pair_fidelities``
    without its groups and keys."""
    if _identical(data, means, pair)[0]:
        return 1.0
    (i, j), n = pair[:, 0], data.shape[-1] // 2
    template = _template(n, not (data[i, 0::2, 1::2].any() or data[j, 0::2, 1::2].any()))
    states, order = _canonical(data, *_mode_codes(data, means), pair, template)
    v, m = _permuted(data, means, states, order)
    return float(_fidelity(v[0], v[1], not (pure[i] or pure[j]), m[0] - m[1])[0])


def _mode_codes(data: np.ndarray, means: np.ndarray) -> tuple[np.ndarray, int]:
    """One integer per (state, mode) of a stack, as a (k, n) array, and the
    number of distinct codes: modes with equal (x variance, p variance,
    x mean, p mean) share a code, and codes are ordered as those rows are
    lexicographically (one lexsort and a diff)."""
    n = data.shape[-1] // 2
    rows = np.concatenate([np.diagonal(data, axis1=-2, axis2=-1).reshape(-1, 2), means.reshape(-1, 2)], axis=1)
    order = np.lexsort(rows.T[::-1])  # column 0 primary
    ranked = rows[order]
    step = np.zeros(len(rows), dtype=np.int64)
    np.cumsum((ranked[1:] != ranked[:-1]).any(axis=1), out=step[1:])
    code = np.empty_like(step)
    code[order] = step
    return code.reshape(-1, n), int(step[-1]) + 1


def _identical(data: np.ndarray, means: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Per index pair, a column of ``pairs``, whether its two states are
    equal bit for bit."""
    (a, b), (ma, mb) = data[pairs].view(np.int64), means[pairs].view(np.int64)
    return (a == b).all(axis=(1, 2)) & (ma == mb).all(axis=1)


def _canonical(data: np.ndarray, code: np.ndarray, count: int, pairs: np.ndarray, template) -> tuple:
    """The states, as a (2, pairs) array of first and second states, and
    the mode orders of the canonical forms of index pairs ``pairs`` (i, j),
    one per column, of a stack (see ``_pair_fidelities``).

    The candidates are (i, j) and (j, i), each with its modes sorted by the
    combined code (first state's code) x count + (second state's code): one
    stable argsort each, which orders the modes as a lexicographic sort of
    the two states' per-mode rows would.  They are compared by their sorted
    combined codes first.  Where those tie, both states' per-mode rows
    match between the candidates, so their arrays can differ first only
    off the diagonal: the candidates are compared by their ``_template``
    entries, which of a symmetric matrix decide its row-major order."""
    ci, cj = code[pairs]
    # candidate c < len(ci) is pair c in its given order, c + len(ci) the pair
    # swapped; count is at most k n, so the combined codes fit in int64
    combined = np.concatenate([ci * count + cj, cj * count + ci])
    order = np.argsort(combined, axis=1, kind="stable")
    ranked = np.sort(combined, axis=1)
    c = len(ci)
    swap = _after(ranked[:c], ranked[c:])
    tie = np.flatnonzero((ranked[:c] == ranked[c:]).all(axis=1))
    if len(tie):
        both = pairs[:, tie]
        swap[tie] = _after(_entries(data, both, order[tie], template),
                           _entries(data, both[::-1], order[tie + c], template))
    return np.where(swap, pairs[::-1], pairs), order[np.arange(c) + c * swap]


@functools.cache
def _template(n: int, free: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of a 2n x 2n covariance matrix, in row-major order of its
    upper triangle, that decide a pair's canonical order and key: the whole
    upper triangle, or for states without x-p correlations, whose other
    entries are zero, each mode's X row and then P row from its diagonal
    on.  Given as the row mode, the column mode and the offset row
    quadrature x 2n + column quadrature, so that with modes in an order o
    the entry sits at 2n (2 o[row mode]) + 2 o[column mode] + offset."""
    rows, cols = np.triu_indices(2 * n)
    if free:
        keep = rows % 2 == cols % 2
        rows, cols = rows[keep], cols[keep]
    template = rows // 2, cols // 2, rows % 2 * (2 * n) + cols % 2
    for part in template:
        part.flags.writeable = False
    return template


def _entries(data: np.ndarray, states: np.ndarray, order: np.ndarray, template) -> np.ndarray:
    """The ``_template`` entries of the first, then the second states of
    ``states`` (a (2, pairs) array) of a stack, with their modes in the
    orders ``order``, one row per pair."""
    dim = data.shape[-1]
    row, col, offset = template
    at = 2 * dim * order[:, row] + 2 * order[:, col] + offset
    flat = (states.T * (dim * dim))[:, :, None] + at[:, None, :]
    return data.reshape(-1).take(flat).reshape(len(at), 2 * len(row))


def _pair_keys(data: np.ndarray, means: np.ndarray, states: np.ndarray, order: np.ndarray, template) -> list[bytes]:
    """One exact byte key per canonical pair (states, order) of a stack:
    the ``_template`` entries of V1 and V2, which are symmetric, and the
    mean difference, all that ``_fidelity`` reads of a pair of its group."""
    dim = data.shape[-1]
    q = (2 * order[:, :, None] + np.arange(2)).reshape(len(order), dim)  # quadrature order
    m1, m2 = means.reshape(-1).take((states * dim)[:, :, None] + q)
    keys = np.concatenate([_entries(data, states, order, template), m1 - m2], axis=1)
    return keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize))).ravel().tolist()


def _after(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, whether row a comes after row b lexicographically."""
    at = np.arange(len(a)), (a != b).argmax(axis=1)  # first differing entry
    return b[at] < a[at]


def _permuted(data: np.ndarray, means: np.ndarray, states: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States ``states`` (a (2, pairs) array) of a stack with their modes in
    the orders ``order`` (one row per pair), gathered from the flat arrays:
    (2, pairs, 2n, 2n) and (2, pairs, 2n)."""
    dim = data.shape[-1]
    q = (2 * order[:, :, None] + np.arange(2)).reshape(len(order), dim)  # quadrature order
    square = (states * dim)[:, :, None, None] + q[:, :, None]
    return data.reshape(-1).take(square * dim + q[:, None, :]), means.reshape(-1).take((states * dim)[:, :, None] + q)
