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
in place on a Fortran-ordered buffer: the blocks A Z are written straight
into the basis array, which is then orthonormalized as a whole, and every
block A^T Q into one n x s buffer that all blocks reuse. scipy's sparse
products read and return C-ordered arrays, so ``_product_into`` writes
each one SLAB columns at a time, with the whole product's bits: only a
slab, never a whole block, is ever copied between orders. The final basis
is copied to C order once, for the Rayleigh-Ritz step, which takes it as
a temporary and frees it once basis U_K is formed. Each orthonormalization
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
``eigh`` measured no faster. The A^T products run over a CSR A^T (see
``_operands``), with the same bits as products with A.T.

The Rayleigh-Ritz step never takes a dense SVD of the wide projection B,
nor holds it whole: its small Gram matrix B B^T is summed over row blocks
of B^T = A^T basis, its top-K eigenvectors U_K give the subspace, and a
K x K eigendecomposition of M^T M, with M = B^T U_K = A^T (basis U_K) one
sparse product of K columns, the triplets. A thin SVD of B^T U_K, formed
block by block, finishes instead when the top-K values spread too widely
for that square, and the exact step runs when the Gram matrix cannot
resolve the K-th value; the Gram path applies the same guard to its own
eigenvectors.

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
# Row block of the Rayleigh-Ritz step's streamed projection A^T basis and
# of its K x K finish's in-place rotation; at least one row
RITZ_BLOCK_BYTES = 2**23
# Columns per slab of a sparse product written into a given buffer (see
# ``_product_into``). scipy's csr @ dense copies an operand of another order
# to C order and returns a C-ordered product, so a whole product into a
# Fortran buffer holds two copies of the block. On citeulike-shared's seed-1
# train matrix (5551 x 16981, 508 columns, 2 cores), A^T Q into a Fortran
# buffer took 0.069 s at 16-column slabs against 0.131 s for the whole
# product and its copy, and A Z 0.057 s against 0.100 s; 32 columns and
# wider were slower, and every width gave the same bits.
SLAB = 16
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
        """First K triplets. Normalization is preserved (same sigma_1).
        The arrays are views, read-only when this spectrum's are."""
        check_integer("K", K, 1, len(self), KTooLarge)
        return TruncatedSpectrum(
            sigma=self.sigma[:K],
            P=self.P[:, :K],
            Q=self.Q[:, :K],
            sigma_normalized=self.sigma_normalized[:K],
        )


def gram_bound(A) -> float:
    """b^2 = ||A||_1 ||A||_inf >= sigma_1(A)^2, which bounds every entry of
    A A^T, A^T A and the Rayleigh-Ritz Gram matrices. It takes one pass
    over A's entries, and is inf when it overflows and NaN or inf when an
    entry is."""
    magnitude = abs(A)
    with np.errstate(over="ignore"):
        norm_1, norm_inf = (np.asarray(magnitude.sum(axis=axis)).max(initial=0.0) for axis in (0, 1))
        return float(norm_1 * norm_inf)


def _operands(norm) -> tuple:
    """(A, At): the float64 matrix behind ``norm`` and its transpose, both
    CSR when sparse. A NormalizedMatrix gives (values, values_t) unscanned,
    as it is finite by construction. A raw matrix of any sparse format or
    numeric dtype is converted first; one holding NaN or inf, or whose
    ``gram_bound`` is not finite, raises ConfigError before LAPACK."""
    if isinstance(norm, NormalizedMatrix):
        return norm.values, norm.values_t
    A = sp.csr_matrix(norm, dtype=np.float64) if sp.issparse(norm) else np.asarray(norm, dtype=np.float64)
    if not np.isfinite(gram_bound(A)):
        if not np.isfinite(A.data if sp.issparse(A) else A).all():
            raise ConfigError("matrix holds NaN or infinite values")
        raise ConfigError("matrix's Gram matrix may overflow: ||A||_1 ||A||_inf is not finite")
    return A, (A.T.tocsr() if sp.issparse(A) else A.T)


def _finalize(U: np.ndarray, sigma: np.ndarray, V: np.ndarray, K: int) -> TruncatedSpectrum:
    """Prune numerically-zero values, fix signs, and validate orthonormality.
    The spectrum's arrays are read-only."""
    if len(sigma) == 0 or sigma[0] <= 0.0:
        raise ConvergenceFailure("no positive singular values found")
    keep = sigma > ZERO_PRUNE_REL * sigma[0]
    K = min(K, int(keep.sum()))
    U, sigma, V = U[:, :K], sigma[:K], V[:, :K]
    # Sign convention: largest-magnitude entry of each left vector positive.
    anchor = np.abs(U).argmax(axis=0)
    flip = np.sign(U[anchor, np.arange(K)])
    flip[flip == 0] = 1.0
    U *= flip
    V *= flip
    for M, name in ((U, "P"), (V, "Q")):
        gram_err = np.abs(M.T @ M - np.eye(K)).max() if K else 0.0
        if gram_err > ORTHONORMALITY_TOL:
            raise ConvergenceFailure(
                f"{name} columns lost orthonormality (max deviation {gram_err:.3e})"
            )
    arrays = sigma.copy(), np.ascontiguousarray(U), np.ascontiguousarray(V), sigma / sigma[0]
    for array in arrays:
        # a fitted model's factors may be these arrays or views of them
        array.flags.writeable = False
    return TruncatedSpectrum(*arrays)


def validate_svd_settings(oversample: int, power_iters: int, seed: int) -> None:
    """Reject settings the Krylov path cannot run with."""
    check_integer("oversample", oversample, lo=4)
    check_integer("power_iters", power_iters, lo=1)
    check_integer("seed", seed, lo=0)


def _rayleigh_ritz(basis: np.ndarray, At, K: int):
    """Top-K singular triplets of A restricted to an orthonormal basis of
    its row side, given the far-side operator At = A^T (CSR or dense).
    Returns (left, sigma, right).

    With B = basis^T A, the C x C Gram matrix B B^T = U diag(lam) U^T is
    summed over row blocks of Bt = At basis, RITZ_BLOCK_BYTES each, so Bt
    is never held whole. M = B^T U_K = At (basis U_K) has orthogonal
    columns up to roundoff (M^T M = diag(lam_K)) and takes one sparse
    product of K columns. The K x K eigenvectors Y of M^T M = Y diag(mu)
    Y^T finish the step (Halko, Martinsson & Tropp 2011, section 5):
    sigma = sqrt(mu), B's right vectors are M Y / sigma and A's left
    vectors (basis U_K) Y. M is rotated into M Y in place, one row block
    at a time, so the step holds a single L x K array, and the basis is
    dropped once basis U_K is formed: a caller that hands it over as a
    temporary (``_rayleigh_ritz(_krylov_basis(...), At, K)``) has it freed
    there, before M is made. Squaring spreads
    the values it resolves, so when lam_1 / lam_K is not below
    RITZ_MAX_SPREAD a thin SVD of Bt U_K finishes instead; and when lam_K
    <= sqrt(eps) * lam_1 the top-K eigenvectors are not resolved and all
    of U is kept: a thin SVD of Bt U with U orthogonal is the exact
    Rayleigh-Ritz step again. Both fallbacks form Bt U one row block of Bt
    at a time; At (basis U) would round worse on graded spectra. The
    finish taken, and why, is logged at DEBUG.
    """
    # scipy's sparse products copy a dense operand of any other order
    basis = np.ascontiguousarray(basis)
    C = basis.shape[1]
    gram, part = np.zeros((C, C)), np.empty((C, C))
    for _, block in _projection_blocks(At, basis):
        gram += np.matmul(block.T, block, out=part)
    del block, part
    lam, U = np.linalg.eigh(gram)
    del gram
    lam, U = lam[::-1], U[:, ::-1]
    if lam[0] < RITZ_MAX_SPREAD * lam[K - 1]:
        log.debug(
            "Rayleigh-Ritz top-%d of %d: K x K eigh, lambda_1/lambda_K %.3g below %g",
            K, len(lam), lam[0] / lam[K - 1], RITZ_MAX_SPREAD,
        )
        V = basis @ U[:, :K]
        # a caller that passed the basis as a temporary frees it here
        del basis, U
        M = At @ V
        mu, Y = np.linalg.eigh(M.T @ M)
        mu, Y = mu[::-1], np.ascontiguousarray(Y[:, ::-1])
        rows = max(1, RITZ_BLOCK_BYTES // (8 * K))
        for lo in range(0, len(M), rows):
            M[lo : lo + rows] = M[lo : lo + rows] @ Y
        sigma = np.sqrt(mu)
        M /= sigma
        return V @ Y, sigma, M
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
    BtU = np.empty((At.shape[0], U.shape[1]))
    for lo, block in _projection_blocks(At, basis):
        BtU[lo : lo + len(block)] = block @ U
    del block
    V, sigma, Zt = np.linalg.svd(BtU, full_matrices=False)
    del BtU
    return basis @ (U @ Zt.T), sigma, V


def _projection_blocks(At, basis):
    """(row offset, block) over Bt = At basis, RITZ_BLOCK_BYTES of rows at
    a time (at least one row)."""
    rows = max(1, RITZ_BLOCK_BYTES // (8 * basis.shape[1]))
    for lo in range(0, At.shape[0], rows):
        yield lo, At[lo : lo + rows] @ basis


def _product_into(out: np.ndarray, X, D: np.ndarray) -> np.ndarray:
    """Write X @ D into ``out`` and return it, with the same bits. A sparse
    X multiplies D SLAB columns at a time: scipy's product copies its
    operand to C order and returns a C-ordered block, so only one slab of
    each is held beside ``out``. A dense X takes one numpy product, which
    reads either order without a copy."""
    if not sp.issparse(X):
        out[...] = X @ D
        return out
    for lo in range(0, D.shape[1], SLAB):
        out[:, lo : lo + SLAB] = X @ D[:, lo : lo + SLAB]
    return out


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
    the only path for rank-deficient and graded blocks. A block that is
    not Fortran-contiguous raises ValueError.
    """
    if not block.flags.f_contiguous:
        # f2py would overwrite a Fortran copy and leave the block as it was
        raise ValueError("_orthonormalize takes a Fortran-contiguous block")
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


def _krylov_basis(A, At, s: int, blocks: int, rng) -> np.ndarray:
    """The orthonormal Krylov basis of ``truncated_svd``, C-ordered, m x
    blocks * s: the blocks A G, A (A^T Q_1), ... with G a standard normal
    n x s draw from ``rng``, each orthonormalized in its own columns of one
    Fortran-ordered array, which is then orthonormalized as a whole.

    Every sparse product is written into its buffer by ``_product_into``:
    A^T Q into one n x s Fortran array reused by every block, A Z straight
    into the basis's columns. The returned C-ordered copy is the only array
    left; the Fortran one is freed on return."""
    m, n = A.shape
    basis = np.empty((m, blocks * s), order="F")
    fallbacks = _orthonormalize(_product_into(basis[:, :s], A, rng.standard_normal((n, s))))[1]
    # s <= min(m, n), so each orthonormal factor fills its whole block
    Z = np.empty((n, s), order="F") if blocks > 1 else None
    for j in range(1, blocks):
        fallbacks += _orthonormalize(_product_into(Z, At, basis[:, (j - 1) * s : j * s]))[1]
        fallbacks += _orthonormalize(_product_into(basis[:, j * s : (j + 1) * s], A, Z))[1]
    del Z  # before the whole basis's orthonormalization and its C copy
    basis, fell_back = _orthonormalize(basis)
    fallbacks += fell_back
    log.debug(
        "Krylov SVD of %d x %d: %d of %d orthonormalizations fell back to Householder",
        m, n, fallbacks, 2 * blocks,
    )
    # the Rayleigh-Ritz step wants the basis C-ordered
    return np.ascontiguousarray(basis)


def truncated_svd(
    norm,
    K: int,
    oversample: int = 8,
    power_iters: int = 8,
    seed: int = 0,
) -> TruncatedSpectrum:
    """Randomized top-K SVD, deterministic for a fixed seed.

    Each power iteration re-orthogonalizes its block and the blocks are
    stacked into a Krylov basis (``_krylov_basis``); the final singular
    triplets come from a Rayleigh-Ritz projection onto that basis.
    Accumulation stops early once the basis spans the smaller dimension,
    at which point the result is exact up to roundoff.

    The projection B = basis^T A is S x |I| with S the basis width, and
    is never held whole. Only its S x S Gram matrix, summed over row
    blocks of B^T, is decomposed (eigh), then the K x K Gram matrix of
    B^T U_K = A^T (basis U_K) (eigh again) gives sigma and Q; this equals
    a dense SVD of B to roundoff (see ``_rayleigh_ritz`` for its thin-SVD
    fallbacks). The basis is handed to that step as a temporary, so the
    step frees it once basis U_K is formed.
    """
    A, At = _operands(norm)
    check_integer("K", K, 1, min(A.shape), KTooLarge)
    validate_svd_settings(oversample, power_iters, seed)
    mindim = min(A.shape)
    s = min(K + oversample, mindim)
    blocks = min(power_iters + 1, -(-mindim // s))
    rng = np.random.default_rng(seed)
    return _finalize(*_rayleigh_ritz(_krylov_basis(A, At, s, blocks, rng), At, K), K)


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
    basis spans the whole smaller side and the step is an exact SVD. It
    then holds the L x N B^T U and numpy's thin SVD of it beside two
    N x N arrays (the C-ordered basis and U; LAPACK's Fortran-ordered
    eigenvectors are handed over as a temporary, so the step's C copy
    frees them): on rank-30 inputs the peak RSS rose by 6.0 L x N doubles
    at 6000 x 1800, K=40, and the traced peak, blind to LAPACK's
    workspace, read 3.4 (11.2 x 8 N^2) at 2000 x 600.

    Each eigendecomposition overwrites G in place, so no copy of G is
    held beside it; the full one comes after the subset's has overwritten
    G, and forms G a second time. Both read the triangle of G above the
    diagonal, equal bit for bit to the one below.

    For a sparse A, G is filled in row pieces on every CPU the process
    may run on (see ``_sparse_gram``); its bits do not depend on how many.
    """
    A, At = _operands(norm)
    check_integer("K", K, 1, min(A.shape), KTooLarge)
    items_small = A.shape[1] < A.shape[0]
    S, St = (At, A) if items_small else (A, At)
    N = S.shape[0]

    def gram_t():
        # G is symmetric, so G.T is the Fortran-ordered array LAPACK overwrites
        return (_sparse_gram(S, St) if sp.issparse(A) else S @ St).T

    def eigenvectors():
        # returned as a temporary, so _rayleigh_ritz's C-ordered copy frees
        # this Fortran-ordered array
        lam, vectors = scipy.linalg.eigh(gram_t(), subset_by_index=[N - K, N - 1], driver="evr", overwrite_a=True)
        if lam[0] <= SQRT_EPS * lam[-1]:
            _, vectors = scipy.linalg.eigh(gram_t(), driver="evd", overwrite_a=True)
        return vectors

    left, sigma, right = _rayleigh_ritz(eigenvectors(), St, K)
    if items_small:
        left, right = right, left
    return _finalize(left, sigma, right, K)


def _sparse_gram(S, St, workers: int = 0) -> np.ndarray:
    """The dense product S St of two sparse matrices: the Gram matrix when
    St = S^T, or the gamma term's W W_users^T (see ``model._gamma_dense``).

    The dense array is allocated first and filled in GRAM_PIECES_PER_WORKER
    row pieces per worker of a ``BlockPool(workers)``, each drawn by
    whichever worker is free: a worker holds the sparse product of one
    piece at a time, never the whole. The pieces hold equal shares of the
    product's terms (a stored entry S[i, k] meets row k of St), which
    balanced the workers better than equal shares of S's stored entries. A
    row of a sparse product sums over the row's own entries in stored
    order, so the pieces equal the rows of (S @ St).toarray() bit for bit.
    """
    S, St = sp.csr_matrix(S), sp.csr_matrix(St)
    N = S.shape[0]
    G = np.empty((N, St.shape[1]))
    # the product's terms up to each row's end
    ends = np.concatenate([[0], np.cumsum(np.diff(St.indptr)[S.indices])])[S.indptr]

    def fill(pieces):
        for lo, hi in pieces:
            (S[lo:hi] @ St).toarray(out=G[lo:hi])

    with BlockPool(workers) as pool:
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
# dense Gram matrix (N^2 doubles) exceeds this. When its top-K subset is
# resolved its peak is about 1.4 times that. When it is not (lambda_K <=
# sqrt(eps) lambda_1: rank-deficient or near-singular inputs), the peak RSS
# rose by 20 times that at 6000 x 1800, K=40, on a rank-30 input, and this
# cap does not bound that rise: no byte budget covers that path yet.
GRAM_MAX_BYTES = 2**29
# Policy, not fitted: below the cap, the Gram path is also taken whenever its
# estimate is under this. Either path then takes about a millisecond, mostly
# call overhead the estimates do not count, and only the Gram path is exact.
GRAM_ALWAYS_S = 1e-3


def _rayleigh_ritz_cost(basis_rows: int, other_rows: int, nnz: int, C: int, K: int) -> float:
    """Estimated seconds of ``_rayleigh_ritz`` on a basis of C columns of a
    matrix with nnz stored entries, finished by its K x K eigendecomposition:
    the streamed Gram matrix, basis U_K, the sparse product A^T (basis U_K),
    M^T M, the rotation and the left vectors. The sparse product A^T basis
    behind the Gram matrix is the caller's to count; the thin-SVD fallback
    of a widely spread spectrum is not counted."""
    return (
        SPARSE_S * nnz * K
        + BLAS3_S * (C**3 + K**3 + other_rows * (C * C + 2 * K * K) + basis_rows * (C * K + K * K))
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
        + _rayleigh_ritz_cost(m, n, nnz, C, K)
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
        + _rayleigh_ritz_cost(N, L, int(degrees.sum()), K, K)
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
    A, _ = _operands(norm)
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
    residual = _operands(norm)[0] @ spec.Q - spec.P * spec.sigma
    return float((np.linalg.norm(residual, axis=0) / spec.sigma).max())


def dense_svd(norm) -> TruncatedSpectrum:
    """Exact full decomposition via LAPACK; the verification oracle.

    Limited to min(|U|, |I|) <= DENSE_ORACLE_CAP.
    """
    A, _ = _operands(norm)
    A = A.toarray() if sp.issparse(A) else A
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
