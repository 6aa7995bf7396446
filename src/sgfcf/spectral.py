"""Top-K and dense SVD of the normalized interaction matrix, plus
spectrum diagnostics.

``top_k_svd`` is what the pipeline calls. It picks one of two solvers by
an estimated cost in seconds, fitted to stage timings of both on the
benchmark's shapes:

* ``gram_svd`` (exact) forms the dense Gram matrix of the smaller side
  (N = min(|U|, |I|)), takes its top-K eigenvectors and uses them as the
  basis of the Rayleigh-Ritz step. Its cost grows as N^3 and its memory
  as N^2, so it is taken only when the N^2 doubles fit under
  GRAM_MAX_BYTES and its estimate is below the Krylov path's.
* ``truncated_svd`` (randomized) is a subspace iteration that accumulates
  every power-iteration block into one Krylov basis before the same
  Rayleigh-Ritz step. Plain subspace iteration (keeping only the last
  block) stalls around 1e-3 relative error on the slowly decaying
  spectra typical of sparse interaction data; the accumulated basis
  reaches machine precision at oracle sizes under the same iteration
  budget, but not at benchmark sizes with few power iterations. Its
  oversample, power iterations and seed matter only on this path.

Every block of the Krylov path, and its final basis, is orthonormalized
by a Householder QR through scipy's LAPACK (``geqrf``, then ``orgqr``),
in place on a Fortran-ordered buffer: the blocks are written straight
into the basis array, whose QR then overwrites it. scipy and numpy link
separate OpenBLAS builds; at the benchmark's block sizes scipy's build
forms the Q factor in about half the time numpy's takes, and numpy's QR
also copies its input and its output. GEMMs, ``eigh`` and the thin SVD
stay on numpy, so the scipy calls form one stretch: each build's worker
threads spin for about 0.1 s after a call and slow the other build's
calls in that window on a 2-core host, and scipy's ``eigh`` and thin SVD
measured no faster.

The Rayleigh-Ritz step goes through the small Gram matrix of the
projection rather than a dense SVD of the wide projection itself, with a
guard that falls back to the exact step when the Gram matrix cannot
resolve the K-th value; the Gram path applies the same guard to its own
eigenvectors.

All spectra are returned with a deterministic sign convention and with
singular values below 1e-12 * sigma_1 pruned, so rank-deficient inputs
do not produce noise-dominated vectors.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import (
    ConfigError,
    ConvergenceFailure,
    InvalidTotal,
    KTooLarge,
    LengthMismatch,
    SizeCapExceeded,
)
from .graph import DENSE_ORACLE_CAP, NormalizedMatrix

ZERO_PRUNE_REL = 1e-12
ORTHONORMALITY_TOL = 1e-8
SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))

log = logging.getLogger("sgfcf")


@dataclass(frozen=True)
class TruncatedSpectrum:
    """Top-K singular triplets (sigma descending, orthonormal P and Q)."""

    sigma: np.ndarray  # (K,)
    P: np.ndarray  # |U| x K, orthonormal columns
    Q: np.ndarray  # |I| x K, orthonormal columns
    sigma_normalized: np.ndarray  # sigma / sigma[0]

    def __len__(self) -> int:
        return len(self.sigma)

    def truncate(self, K: int) -> "TruncatedSpectrum":
        """First K triplets. Normalization is preserved (same sigma_1)."""
        if K > len(self):
            raise KTooLarge(f"requested K={K} from a spectrum of length {len(self)}")
        return TruncatedSpectrum(
            sigma=self.sigma[:K],
            P=self.P[:, :K],
            Q=self.Q[:, :K],
            sigma_normalized=self.sigma_normalized[:K],
        )


def _as_matrix(norm) -> sp.csr_matrix | np.ndarray:
    if isinstance(norm, NormalizedMatrix):
        return norm.values
    return norm


def _finalize(U: np.ndarray, sigma: np.ndarray, V: np.ndarray, K: int) -> TruncatedSpectrum:
    """Prune numerically-zero values, fix signs, and validate orthonormality."""
    if len(sigma) == 0 or sigma[0] <= 0.0:
        raise ConvergenceFailure("no positive singular values found")
    keep = sigma > ZERO_PRUNE_REL * sigma[0]
    K = min(K, int(keep.sum()))
    U, sigma, V = U[:, :K], sigma[:K], V[:, :K]
    # Sign convention: largest-magnitude entry of each left vector positive.
    anchor = np.abs(U).argmax(axis=0)
    flip = np.sign(U[anchor, np.arange(K)])
    flip[flip == 0] = 1.0
    U = U * flip
    V = V * flip
    for M, name in ((U, "P"), (V, "Q")):
        gram_err = np.abs(M.T @ M - np.eye(K)).max() if K else 0.0
        if gram_err > ORTHONORMALITY_TOL:
            raise ConvergenceFailure(
                f"{name} columns lost orthonormality (max deviation {gram_err:.3e})"
            )
    return TruncatedSpectrum(
        sigma=sigma.copy(),
        P=np.ascontiguousarray(U),
        Q=np.ascontiguousarray(V),
        sigma_normalized=sigma / sigma[0],
    )


def _check_K(shape: tuple[int, int], K: int) -> None:
    if not 1 <= K <= min(shape):
        raise KTooLarge(f"K must be in [1, {min(shape)}], got {K}")


def _check_svd_args(shape: tuple[int, int], K: int, oversample: int, power_iters: int) -> None:
    _check_K(shape, K)
    if oversample < 4:
        raise ConfigError(f"oversample must be >= 4, got {oversample}")
    if power_iters < 1:
        raise ConfigError(f"power_iters must be >= 1, got {power_iters}")


def _rayleigh_ritz(basis: np.ndarray, Bt: np.ndarray, K: int):
    """Top-K singular triplets of A restricted to an orthonormal basis of
    its row side, given Bt = A^T basis. Returns (left, sigma, right).

    B = Bt^T; B B^T = U diag(lam) U^T and B^T U_K = V diag(sigma) Z^T, so
    B's left singular vectors are U_K Z and A's are basis U_K Z. When
    lambda_K <= sqrt(eps) * lambda_1 the top-K eigenvectors are not
    resolved and all of U is kept: a thin SVD of B^T U with U orthogonal
    is the exact Rayleigh-Ritz step again.
    """
    lam, U = np.linalg.eigh(Bt.T @ Bt)
    lam, U = lam[::-1], U[:, ::-1]
    if lam[K - 1] > SQRT_EPS * lam[0]:
        U = U[:, :K]
    V, sigma, Zt = np.linalg.svd(Bt @ U, full_matrices=False)
    return basis @ (U @ Zt.T), sigma, V


def _householder_q(block: np.ndarray) -> np.ndarray:
    """Overwrite the Fortran-ordered ``block`` with the orthonormal factor
    of its economic Householder QR (LAPACK ``geqrf``, then ``orgqr``) and
    return that factor, a view of the block's first min(rows, cols)
    columns."""
    Q, _ = scipy.linalg.qr(block, mode="economic", overwrite_a=True, check_finite=False)
    return Q


def truncated_svd(
    norm,
    K: int,
    oversample: int = 8,
    power_iters: int = 8,
    seed: int = 0,
) -> TruncatedSpectrum:
    """Randomized top-K SVD, deterministic for a fixed seed.

    Each power iteration re-orthogonalizes its block and the blocks are
    stacked into a Krylov basis; the final singular triplets come from a
    Rayleigh-Ritz projection onto that basis. Accumulation stops early
    once the basis spans the smaller dimension, at which point the
    result is exact up to roundoff.

    The projection B = basis^T A is S x |I| with S the basis width. Only
    its S x S Gram matrix is decomposed (eigh), then a thin |I| x K SVD
    of B^T U_K gives sigma and Q; this equals a dense SVD of B to
    roundoff (see ``_rayleigh_ritz`` for the sqrt(eps) guard).
    """
    A = _as_matrix(norm)
    _check_svd_args(A.shape, K, oversample, power_iters)
    m, n = A.shape
    mindim = min(m, n)

    rng = np.random.default_rng(seed)
    s = min(K + oversample, mindim)
    blocks = min(power_iters + 1, -(-mindim // s))
    # Each block is orthonormalized in place in its own columns of the
    # basis array, and the basis QR then overwrites the whole array.
    basis = np.empty((m, blocks * s), order="F")
    basis[:, :s] = A @ rng.standard_normal((n, s))
    Q = _householder_q(basis[:, :s])
    for j in range(1, blocks):
        Z = _householder_q(np.asfortranarray(A.T @ Q))
        Q = basis[:, j * s : (j + 1) * s]
        Q[...] = A @ Z
        _householder_q(Q)
    basis = _householder_q(basis)
    return _finalize(*_rayleigh_ritz(basis, A.T @ basis, K), K)


def gram_svd(norm, K: int) -> TruncatedSpectrum:
    """Exact top-K SVD from the dense Gram matrix of the smaller side.

    With S the N x L orientation of A whose rows are the smaller side
    (A itself, or A^T when items are fewer than users), the top-K
    eigenvectors of G = S S^T (LAPACK ``evr`` on that index subset) are
    the basis of the Rayleigh-Ritz step, and users and items trade places
    on the way out when S is A^T. When lambda_K <= sqrt(eps) * lambda_1
    the subset's eigenvectors are not resolved; the full eigendecomposition
    is taken instead, so the basis spans the whole smaller side and the
    step is an exact SVD (it then holds two dense L x N arrays).
    """
    A = _as_matrix(norm)
    _check_K(A.shape, K)
    items_small = A.shape[1] < A.shape[0]
    S = A.T if items_small else A
    N = S.shape[0]
    G = S @ S.T
    G = G.toarray() if sp.issparse(G) else G
    lam, basis = scipy.linalg.eigh(G, subset_by_index=[N - K, N - 1], driver="evr")
    if lam[0] <= SQRT_EPS * lam[-1]:
        _, basis = scipy.linalg.eigh(G, driver="evd")
    left, sigma, right = _rayleigh_ritz(basis, S.T @ basis, K)
    if items_small:
        left, right = right, left
    return _finalize(left, sigma, right, K)


# Seconds per unit of work, fitted to stage timings of both solvers on
# the three perfbench shapes (2 cores, OpenBLAS); only their ratios decide
# the path.
SPARSE_S = 1.0e-9  # one stored entry of A times one dense column
QR_S = 3.0e-11  # Householder QR of an r x c block, per r * c^2 ...
QR_PANEL_S = 6.1e-8  # ... plus per r * c (its memory-bound panels)
GEMM_S = 1.3e-11  # one dense multiply-add
EIGH_S = 1.3e-10  # full symmetric eigendecomposition of order C, per C^3
SVD_S = 2.0e-10  # thin SVD of an r x K matrix, per r * K^2
GRAM_FORM_S = 2.7e-9  # one multiply-add of the sparse Gram product
# One entry of the order-N dense Gram matrix: writing it, and the share of
# ``evr`` that grows as N^2 (about half of it at N = 2000, a fifth at N = 5551).
DENSE_S = 7.1e-8
EVR_S = 1.0e-11  # tridiagonal reduction of an order-N Gram, per N^3 ...
EVR_VEC_S = 4.0e-10  # ... plus per N^2 * K for K eigenvectors
# The Gram path is never taken when the small side's dense Gram matrix
# (N^2 doubles) exceeds this; its peak is about 2.6 times that.
GRAM_MAX_BYTES = 2**29


def _rayleigh_ritz_cost(basis_rows: int, other_rows: int, C: int, K: int) -> float:
    """Estimated seconds of ``_rayleigh_ritz`` on a basis of C columns."""
    return (
        EIGH_S * C**3
        + GEMM_S * (other_rows * C * C + 2 * (other_rows + basis_rows) * C * K)
        + SVD_S * other_rows * K * K
    )


def _krylov_cost(m: int, n: int, nnz: int, K: int, oversample: int, power_iters: int) -> float:
    """Estimated seconds of ``truncated_svd`` on an m x n matrix with nnz
    stored entries, stopping early as it does once the basis spans min(m, n)."""
    s = min(K + oversample, min(m, n))
    blocks = min(power_iters + 1, -(-min(m, n) // s))
    total = blocks * s
    C = min(m, total)  # basis columns
    block_rows = m * blocks + n * (blocks - 1)  # QR'd blocks: A Z on m rows, A^T Q on n
    return (
        SPARSE_S * nnz * (s * (2 * blocks - 1) + C)
        + QR_S * (block_rows * s * s + m * total * C)
        + QR_PANEL_S * (block_rows * s + m * total)
        + _rayleigh_ritz_cost(m, n, C, K)
    )


def _gram_cost(N: int, L: int, degrees: np.ndarray, K: int) -> float:
    """Estimated seconds of ``gram_svd`` with N the smaller side, L the
    larger, and ``degrees`` the stored entries of each of the L nodes
    (the sparse Gram product costs their squares)."""
    return (
        GRAM_FORM_S * float(np.square(degrees, dtype=np.float64).sum())
        + DENSE_S * N * N
        + EVR_S * N**3
        + EVR_VEC_S * N * N * K
        + SPARSE_S * int(degrees.sum()) * K
        + _rayleigh_ritz_cost(N, L, K, K)
    )


def top_k_svd(
    norm,
    K: int,
    oversample: int = 8,
    power_iters: int = 8,
    seed: int = 0,
) -> TruncatedSpectrum:
    """Top-K singular triplets from whichever solver is estimated cheaper.

    ``gram_svd`` (exact) when the smaller side's dense Gram matrix takes at
    most GRAM_MAX_BYTES and its estimated cost is below the Krylov path's;
    otherwise ``truncated_svd`` with ``oversample``, ``power_iters`` and
    ``seed``, which only that path uses. The pick is logged at DEBUG on the
    ``sgfcf`` logger.
    """
    A = _as_matrix(norm)
    _check_svd_args(A.shape, K, oversample, power_iters)
    m, n = A.shape
    N, L = min(m, n), max(m, n)
    # stored entries of each node on the larger side
    degrees = np.asarray((A != 0).sum(axis=1 if n < m else 0)).ravel()
    krylov = _krylov_cost(m, n, int(degrees.sum()), K, oversample, power_iters)
    gram = _gram_cost(N, L, degrees, K)
    use_gram = N * N * 8 <= GRAM_MAX_BYTES and gram < krylov
    log.debug(
        "top-%d SVD of %d x %d: estimated krylov %.3g s, gram %.3g s -> %s",
        K, m, n, krylov, gram, "gram" if use_gram else "krylov",
    )
    if use_gram:
        return gram_svd(norm, K)
    return truncated_svd(norm, K, oversample=oversample, power_iters=power_iters, seed=seed)


def svd_residual_max(norm, spec: TruncatedSpectrum) -> float:
    """max_k ||A q_k - sigma_k p_k|| / sigma_k: how far the triplets are
    from singular triplets of A. The other side, ||A^T p_k - sigma_k q_k||,
    is zero by construction of a Rayleigh-Ritz output and tells nothing."""
    residual = _as_matrix(norm) @ spec.Q - spec.P * spec.sigma
    return float((np.linalg.norm(residual, axis=0) / spec.sigma).max())


def dense_svd(norm) -> TruncatedSpectrum:
    """Exact full decomposition via LAPACK; the verification oracle.

    Limited to min(|U|, |I|) <= DENSE_ORACLE_CAP.
    """
    A = _as_matrix(norm)
    A = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=np.float64)
    if min(A.shape) > DENSE_ORACLE_CAP:
        raise SizeCapExceeded(
            f"dense SVD limited to min dimension {DENSE_ORACLE_CAP}, got {min(A.shape)}"
        )
    U, sigma, Vt = np.linalg.svd(A, full_matrices=False)
    return _finalize(U, sigma, Vt.T, len(sigma))


def appro_measure(spec: TruncatedSpectrum, K: int, frobenius_sq_total: float) -> float:
    """Fraction of total Frobenius energy captured by the top-K values."""
    if K > len(spec):
        raise KTooLarge(f"K={K} exceeds spectrum length {len(spec)}")
    partial = float(np.square(spec.sigma[:K]).sum())
    if frobenius_sq_total + 1e-12 * max(1.0, partial) < partial:
        raise InvalidTotal(
            f"total {frobenius_sq_total} is smaller than the partial sum {partial}"
        )
    return min(partial / frobenius_sq_total, 1.0)


def appro_curve(spec: TruncatedSpectrum, frobenius_sq_total: float) -> np.ndarray:
    """Energy-capture curve for K = 1..len(spec). Non-decreasing in K."""
    partial = np.cumsum(np.square(spec.sigma))
    if frobenius_sq_total + 1e-12 * max(1.0, partial[-1]) < partial[-1]:
        raise InvalidTotal(
            f"total {frobenius_sq_total} is smaller than the partial sum {partial[-1]}"
        )
    return np.minimum(partial / frobenius_sq_total, 1.0)


def ratio_curve(spec_a: TruncatedSpectrum, spec_b: TruncatedSpectrum) -> np.ndarray:
    """Per-k ratio of the two normalized spectra; first entry exactly 1."""
    if len(spec_a) != len(spec_b):
        raise LengthMismatch(
            f"spectra have different lengths: {len(spec_a)} vs {len(spec_b)}"
        )
    ratio = spec_a.sigma_normalized / spec_b.sigma_normalized
    ratio[0] = 1.0
    return ratio


def write_spectrum_csv(spec: TruncatedSpectrum, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "sigma", "sigma_normalized"])
        for k in range(len(spec)):
            writer.writerow([k + 1, repr(float(spec.sigma[k])), repr(float(spec.sigma_normalized[k]))])


def write_stats_csv(curve: np.ndarray, path: str) -> None:
    """Write an ``appro_curve`` as ``k,appro`` rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "appro"])
        for k, value in enumerate(curve, start=1):
            writer.writerow([k, repr(float(value))])
