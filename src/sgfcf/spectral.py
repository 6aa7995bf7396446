"""Top-K and dense SVD of the normalized interaction matrix, plus
spectrum diagnostics.

``top_k_svd`` is what the pipeline calls. It picks one of two solvers by
an estimated cost in seconds: its work in four kernel classes (sparse
products, BLAS-3 multiply-adds, vector formation, passes over dense
entries), each at one seconds-per-unit constant measured on a 2-core host:

* ``gram_svd`` (exact) forms the dense Gram matrix of the smaller side
  (N = min(|U|, |I|)), takes its top-K eigenvectors and uses them as the
  basis of the Rayleigh-Ritz step. Its cost grows as N^3 and its memory
  as N^2, so it is taken only when the N^2 doubles fit under
  GRAM_MAX_BYTES and its estimate is below the Krylov path's or below
  GRAM_ALWAYS_S.
* ``truncated_svd`` (randomized) is a subspace iteration that accumulates
  every power-iteration block into one Krylov basis before the same
  Rayleigh-Ritz step. Plain subspace iteration (keeping only the last
  block) stalls around 1e-3 relative error on the slowly decaying
  spectra typical of sparse interaction data; the accumulated basis
  reaches machine precision at oracle sizes under the same iteration
  budget, but not at benchmark sizes with few power iterations. Its
  oversample, power iterations and seed matter only on this path.

Every block of the Krylov path, and its final basis, is orthonormalized
in place on a Fortran-ordered buffer: the blocks are written straight
into the basis array, which is then orthonormalized as a whole. Each
takes CholeskyQR2 through scipy's BLAS and LAPACK (``syrk``, ``potrf``,
``trsm``, twice), which runs at GEMM speed and is as accurate as
Householder QR on well-conditioned blocks: a 16981 x 508 block takes
about 0.35 s against 0.6 s, and a 5551 x 1524 basis 0.75 s against
1.1 s on 2 cores. A block wider than its rows, a failed Cholesky factor
or a factor whose diagonal spreads past CHOLQR_MAX_SPREAD falls back to
a Householder QR (``geqrf``, then ``orgqr``), the one path that handles
rank-deficient and graded blocks; how many fell back is logged at DEBUG.
scipy and numpy link separate OpenBLAS builds. The GEMMs and ``eigh``
calls of the Rayleigh-Ritz step stay on numpy, so the scipy calls form one
stretch: each build's worker threads spin for about 0.1 s after a call and
slow the other build's calls in that window on a 2-core host, and scipy's
``eigh`` measured no faster. When a ``NormalizedMatrix`` is passed, the
A^T products run over its row-major ``values_t``, with the same bits.

The Rayleigh-Ritz step never takes a dense SVD of the wide projection B:
the top-K eigenvectors U_K of its small Gram matrix B B^T give the
subspace, and a K x K eigendecomposition of (B^T U_K)^T (B^T U_K) the
triplets. A thin SVD of B^T U_K finishes instead when the top-K values
spread too widely for that square, and the exact step runs when the Gram
matrix cannot resolve the K-th value; the Gram path applies the same guard
to its own eigenvectors.

All spectra are returned with a deterministic sign convention and with
singular values below 1e-12 * sigma_1 pruned, so rank-deficient inputs
do not produce noise-dominated vectors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from .errors import (
    ConfigError,
    ConvergenceFailure,
    InvalidTotal,
    KTooLarge,
    LengthMismatch,
    SizeCapExceeded,
    check_integer,
)
from .graph import DENSE_ORACLE_CAP, NormalizedMatrix
from .parallel import BlockPool

ZERO_PRUNE_REL = 1e-12
ORTHONORMALITY_TOL = 1e-8
SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))
# Far below eps^-1/2 (6.7e7). At the benchmark's Krylov shapes the blocks
# read at most 2.8 and the bases 17 to 40.
CHOLQR_MAX_SPREAD = 1e5
# Largest lambda_1 / lambda_K the K x K finish takes: its sigma = sqrt(mu)
# loses relative accuracy as eps * lambda_1 / lambda_K. At this spread
# sigma_K was 3.5e-15 from a dense SVD's at K = 500 (graded 6000 x 508
# projection), as close as the thin SVD's, and 4e-14 to 6e-14 at 1e4. The
# benchmark's spectra spread 8 to 18.
RITZ_MAX_SPREAD = 100.0
# Row block of the K x K finish's in-place rotation; at least one row
RITZ_BLOCK_BYTES = 2**23
# At one piece per worker, wide-igf's two concurrent halves of its 3200 x
# 3200 sparse Gram product peaked at 235 to 282 MB RSS from run to run;
# at four, 183 to 186 MB.
GRAM_PIECES_PER_WORKER = 4

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
        check_integer("K", K, 1, len(self), KTooLarge)
        return TruncatedSpectrum(
            sigma=self.sigma[:K],
            P=self.P[:, :K],
            Q=self.Q[:, :K],
            sigma_normalized=self.sigma_normalized[:K],
        )


def _as_matrix(norm) -> sp.csr_matrix | np.ndarray:
    """The matrix behind ``norm``. A raw matrix holding NaN or inf raises
    ConfigError before it reaches LAPACK; a NormalizedMatrix is finite by
    construction and is not scanned."""
    if isinstance(norm, NormalizedMatrix):
        return norm.values
    if not np.isfinite(sp.csr_matrix(norm).data if sp.issparse(norm) else norm).all():
        raise ConfigError("matrix holds NaN or infinite values")
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


def validate_svd_settings(oversample: int, power_iters: int, seed: int) -> None:
    """Reject settings the Krylov path cannot run with."""
    check_integer("oversample", oversample, lo=4)
    check_integer("power_iters", power_iters, lo=1)
    check_integer("seed", seed, lo=0)


def _rayleigh_ritz(basis: np.ndarray, Bt: np.ndarray, K: int):
    """Top-K singular triplets of A restricted to an orthonormal basis of
    its row side, given Bt = A^T basis. Returns (left, sigma, right).

    B = Bt^T; B B^T = U diag(lam) U^T, so M = B^T U_K has orthogonal
    columns up to roundoff (M^T M = diag(lam_K)). The K x K eigenvectors Y
    of M^T M = Y diag(mu) Y^T finish the step (Halko, Martinsson & Tropp
    2011, section 5): sigma = sqrt(mu), B's right vectors are M Y / sigma
    and A's left vectors basis U_K Y. M is rotated into M Y in place, one
    row block of RITZ_BLOCK_BYTES at a time, so the step holds a single
    L x K array. Squaring spreads the values it resolves, so when
    lam_1 / lam_K is not below RITZ_MAX_SPREAD a thin SVD of M finishes
    instead; and when lam_K <= sqrt(eps) * lam_1 the top-K eigenvectors
    are not resolved and all of U is kept: a thin SVD of B^T U with U
    orthogonal is the exact Rayleigh-Ritz step again. The finish taken,
    and why, is logged at DEBUG.
    """
    lam, U = np.linalg.eigh(Bt.T @ Bt)
    lam, U = lam[::-1], U[:, ::-1]
    if lam[0] < RITZ_MAX_SPREAD * lam[K - 1]:
        log.debug(
            "Rayleigh-Ritz top-%d of %d: K x K eigh, lambda_1/lambda_K %.3g below %g",
            K, len(lam), lam[0] / lam[K - 1], RITZ_MAX_SPREAD,
        )
        U = U[:, :K]
        M = Bt @ U
        mu, Y = np.linalg.eigh(M.T @ M)
        mu, Y = mu[::-1], np.ascontiguousarray(Y[:, ::-1])
        rows = max(1, RITZ_BLOCK_BYTES // (8 * K))
        for lo in range(0, len(M), rows):
            M[lo : lo + rows] = M[lo : lo + rows] @ Y
        sigma = np.sqrt(mu)
        M /= sigma
        return basis @ (U @ Y), sigma, M
    if lam[K - 1] > SQRT_EPS * lam[0]:
        U = U[:, :K]
        log.debug(
            "Rayleigh-Ritz top-%d of %d: thin SVD, lambda_1/lambda_K %.3g not below %g",
            K, len(lam), lam[0] / lam[K - 1], RITZ_MAX_SPREAD,
        )
    else:
        log.debug(
            "Rayleigh-Ritz top-%d of %d: thin SVD of all %d, lambda_K <= sqrt(eps) lambda_1",
            K, len(lam), len(lam),
        )
    V, sigma, Zt = np.linalg.svd(Bt @ U, full_matrices=False)
    return basis @ (U @ Zt.T), sigma, V


def _householder_q(block: np.ndarray) -> np.ndarray:
    """Overwrite the Fortran-ordered ``block`` with the orthonormal factor
    of its economic Householder QR (LAPACK ``geqrf``, then ``orgqr``) and
    return that factor, a view of the block's first min(rows, cols)
    columns."""
    Q, _ = scipy.linalg.qr(block, mode="economic", overwrite_a=True, check_finite=False)
    return Q


def _orthonormalize(block: np.ndarray) -> tuple[np.ndarray, bool]:
    """Overwrite the Fortran-ordered ``block`` with an orthonormal basis of
    its columns' span; return that basis, a view of the block's memory,
    and whether it fell back to ``_householder_q``.

    CholeskyQR2 (scipy's ``syrk``, ``potrf``, ``trsm``, twice) is as
    accurate as Householder while cond(block) stays well below eps^-1/2
    (Yamamoto et al. 2015). A wider block than it has rows, a failed
    Cholesky factor, or a first factor whose diagonal spreads past
    CHOLQR_MAX_SPREAD (a lower bound on cond(block)) takes Householder,
    the only path for rank-deficient and graded blocks.
    """
    rows, cols = block.shape
    if rows >= cols:
        for first in (True, False):
            R, info = lapack.dpotrf(blas.dsyrk(1.0, block, trans=1), overwrite_a=1, clean=0)
            if info != 0:
                break
            diag = R.diagonal()
            if first and not diag.max() <= CHOLQR_MAX_SPREAD * diag.min():
                break
            blas.dtrsm(1.0, R, block, side=1, overwrite_b=1)
        else:
            return block, False
    return _householder_q(block), True


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
    its S x S Gram matrix is decomposed (eigh), then the K x K Gram matrix
    of B^T U_K (eigh again) gives sigma and Q; this equals a dense SVD of
    B to roundoff (see ``_rayleigh_ritz`` for its thin-SVD fallbacks).
    """
    A = _as_matrix(norm)
    check_integer("K", K, 1, min(A.shape), KTooLarge)
    validate_svd_settings(oversample, power_iters, seed)
    # W^T row-major: its products give the same bits as A.T's, faster
    At = norm.values_t if isinstance(norm, NormalizedMatrix) else A.T
    m, n = A.shape
    mindim = min(m, n)

    rng = np.random.default_rng(seed)
    s = min(K + oversample, mindim)
    blocks = min(power_iters + 1, -(-mindim // s))
    # Each block is orthonormalized in place in its own columns of the
    # basis array, and the basis then in the whole array.
    basis = np.empty((m, blocks * s), order="F")
    basis[:, :s] = A @ rng.standard_normal((n, s))
    Q, fallbacks = _orthonormalize(basis[:, :s])
    for j in range(1, blocks):
        Z, fell_back = _orthonormalize(np.asfortranarray(At @ Q))
        Q = basis[:, j * s : (j + 1) * s]
        Q[...] = A @ Z
        fallbacks += fell_back + _orthonormalize(Q)[1]
    basis, fell_back = _orthonormalize(basis)
    fallbacks += fell_back
    log.debug(
        "Krylov SVD of %d x %d: %d of %d orthonormalizations fell back to Householder",
        m, n, fallbacks, 2 * blocks,
    )
    return _finalize(*_rayleigh_ritz(basis, At @ basis, K), K)


def gram_svd(norm, K: int) -> TruncatedSpectrum:
    """Exact top-K SVD from the dense Gram matrix of the smaller side.

    With S the N x L orientation of A whose rows are the smaller side
    (A itself, or A^T when items are fewer than users), the top-K
    eigenvectors of G = S S^T (LAPACK ``evr`` on that index subset) are
    the basis of the Rayleigh-Ritz step, whose K x K eigendecomposition
    (or, for a widely spread spectrum, thin SVD) of S^T basis gives the
    triplets; users and items trade places on the way out when S is A^T.
    When lambda_K <= sqrt(eps) * lambda_1 the subset's eigenvectors are
    not resolved; the full eigendecomposition is taken instead, so the
    basis spans the whole smaller side and the step is an exact SVD (it
    then holds two dense L x N arrays).

    For a sparse A, G is filled in row pieces on every CPU the process
    may run on (see ``_sparse_gram``); its bits do not depend on how many.
    """
    A = _as_matrix(norm)
    check_integer("K", K, 1, min(A.shape), KTooLarge)
    items_small = A.shape[1] < A.shape[0]
    S = A.T if items_small else A
    N = S.shape[0]
    if sp.issparse(A):
        At = norm.values_t if isinstance(norm, NormalizedMatrix) else A.T
        G = _sparse_gram(*((At, A) if items_small else (A, At)))
    else:
        G = S @ S.T
    lam, basis = scipy.linalg.eigh(G, subset_by_index=[N - K, N - 1], driver="evr")
    if lam[0] <= SQRT_EPS * lam[-1]:
        _, basis = scipy.linalg.eigh(G, driver="evd")
    left, sigma, right = _rayleigh_ritz(basis, S.T @ basis, K)
    if items_small:
        left, right = right, left
    return _finalize(left, sigma, right, K)


def _sparse_gram(S, St) -> np.ndarray:
    """The dense Gram matrix S S^T of a sparse S, given St = S^T.

    The dense N x N array is allocated first and filled in
    GRAM_PIECES_PER_WORKER row pieces per worker of a ``BlockPool``, each
    drawn by whichever worker is free: a worker holds the sparse product
    of one piece at a time, never the whole sparse Gram matrix. The
    pieces hold equal shares of the product's terms (a stored entry
    S[i, k] meets row k of St), which balanced the workers better than
    equal shares of S's stored entries. A row of a sparse product sums over the
    row's own entries in stored order, so the pieces equal the rows of
    (S @ S^T).toarray() bit for bit.
    """
    S, St = sp.csr_matrix(S), sp.csr_matrix(St)
    N = S.shape[0]
    G = np.empty((N, N))
    # the product's terms up to each row's end
    ends = np.concatenate([[0], np.cumsum(np.diff(St.indptr)[S.indices])])[S.indptr]

    def fill(pieces):
        for lo, hi in pieces:
            (S[lo:hi] @ St).toarray(out=G[lo:hi])

    with BlockPool() as pool:
        pieces = GRAM_PIECES_PER_WORKER * pool.workers
        cuts = np.searchsorted(ends, np.linspace(0, ends[-1], pieces + 1)[1:-1])
        bounds = np.concatenate([[0], cuts, [N]])
        pool.run(fill, zip(bounds[:-1], bounds[1:]))
    return G


# Seconds per unit of work in each kernel class: a non-negative least-squares
# fit to both solvers' stage timings, taken inside each solver's own calls at
# eight shapes, the benchmark workloads' among them (2 cores, OpenBLAS). Only
# their ratios decide the path.
SPARSE_S = 1.5e-9  # one stored entry times one dense column, or one term of the sparse Gram product
BLAS3_S = 4.1e-11  # one multiply-add of CholeskyQR2, a GEMM, or an order-C eigendecomposition's C^3
VECTOR_S = 6.9e-10  # forming vectors: per N^2 * K of ``evr``'s eigenvectors
PASS_S = 1.7e-8  # one dense entry of a block, an eigh input or the Rayleigh-Ritz vectors, or the dense Gram matrix
# Policy, not fitted: the Gram path is never taken when the small side's
# dense Gram matrix (N^2 doubles) exceeds this; its peak is about 2.6 times that.
GRAM_MAX_BYTES = 2**29
# Policy, not fitted: below the cap, the Gram path is also taken whenever its
# estimate is under this. Either path then takes about a millisecond, mostly
# call overhead the estimates do not count, and only the Gram path is exact.
GRAM_ALWAYS_S = 1e-3


def _rayleigh_ritz_cost(basis_rows: int, other_rows: int, C: int, K: int) -> float:
    """Estimated seconds of ``_rayleigh_ritz`` on a basis of C columns,
    finished by its K x K eigendecomposition; the thin-SVD fallback of a
    widely spread spectrum is not counted."""
    return (
        BLAS3_S * (C**3 + K**3 + other_rows * (C * C + 2 * K * K) + (other_rows + basis_rows) * C * K)
        + PASS_S * (C * C + K * K + other_rows * K)
    )


def _krylov_cost(m: int, n: int, nnz: int, K: int, oversample: int, power_iters: int) -> float:
    """Estimated seconds of ``truncated_svd`` on an m x n matrix with nnz
    stored entries, stopping early as it does once the basis spans min(m, n)."""
    s = min(K + oversample, min(m, n))
    blocks = min(power_iters + 1, -(-min(m, n) // s))
    total = blocks * s
    C = min(m, total)  # basis columns
    block_rows = m * blocks + n * (blocks - 1)  # blocks A Z on m rows, A^T Q on n
    return (
        SPARSE_S * nnz * (s * (2 * blocks - 1) + C)
        # CholeskyQR2 of an r x c block: syrk and trsm, r * c^2 / 2 each, twice
        + BLAS3_S * 2 * (block_rows * s * s + m * total * C)
        + PASS_S * (block_rows * s + m * total)
        + _rayleigh_ritz_cost(m, n, C, K)
    )


def _gram_cost(N: int, L: int, degrees: np.ndarray, K: int) -> float:
    """Estimated seconds of ``gram_svd`` with N the smaller side, L the
    larger, and ``degrees`` the stored entries of each of the L nodes
    (the sparse Gram product costs their squares)."""
    return (
        SPARSE_S * (float(np.square(degrees, dtype=np.float64).sum()) + int(degrees.sum()) * K)
        + BLAS3_S * N**3
        + VECTOR_S * N * N * K
        + PASS_S * N * N
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
    most GRAM_MAX_BYTES and its estimated cost is below the Krylov path's
    or below GRAM_ALWAYS_S;
    otherwise ``truncated_svd`` with ``oversample``, ``power_iters`` and
    ``seed``, which only that path uses. The pick is logged at DEBUG on the
    ``sgfcf`` logger.
    """
    A = _as_matrix(norm)
    check_integer("K", K, 1, min(A.shape), KTooLarge)
    validate_svd_settings(oversample, power_iters, seed)
    m, n = A.shape
    N, L = min(m, n), max(m, n)
    # stored entries of each node on the larger side
    degrees = np.asarray((A != 0).sum(axis=1 if n < m else 0)).ravel()
    krylov = _krylov_cost(m, n, int(degrees.sum()), K, oversample, power_iters)
    gram = _gram_cost(N, L, degrees, K)
    use_gram = N * N * 8 <= GRAM_MAX_BYTES and (gram < krylov or gram < GRAM_ALWAYS_S)
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
    check_integer("K", K, 1, len(spec), KTooLarge)
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
