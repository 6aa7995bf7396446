"""Truncated and dense SVD of the normalized interaction matrix,
plus spectrum diagnostics.

The truncated path is a randomized subspace iteration that accumulates
every power-iteration block into one Krylov basis before the final
Rayleigh-Ritz projection. Plain subspace iteration (keeping only the
last block) stalls around 1e-3 relative error on the slowly decaying
spectra typical of sparse interaction data; the accumulated basis
reaches machine precision at oracle sizes under the same iteration
budget. The Rayleigh-Ritz step goes through the small Gram matrix of
the projection rather than a dense SVD of the wide projection itself,
with a guard that falls back to the exact step when the Gram matrix
cannot resolve the K-th value.

All spectra are returned with a deterministic sign convention and with
singular values below 1e-12 * sigma_1 pruned, so rank-deficient inputs
do not produce noise-dominated vectors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
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


@dataclass(frozen=True)
class SpectrumStats:
    frobenius_sq_total: float
    appro_curve: np.ndarray
    ratio_curve: np.ndarray | None = None


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
    roundoff. When lambda_K <= sqrt(eps) * lambda_1 the top-K eigenvectors
    are not resolved and all S are kept: a thin SVD of B^T U with U
    orthogonal is the exact Rayleigh-Ritz step again.
    """
    A = _as_matrix(norm)
    m, n = A.shape
    mindim = min(m, n)
    if not 1 <= K <= mindim:
        raise KTooLarge(f"K must be in [1, {mindim}], got {K}")
    if oversample < 4:
        raise ConfigError(f"oversample must be >= 4, got {oversample}")
    if power_iters < 1:
        raise ConfigError(f"power_iters must be >= 1, got {power_iters}")

    rng = np.random.default_rng(seed)
    s = min(K + oversample, mindim)
    Y = A @ rng.standard_normal((n, s))
    Q, _ = np.linalg.qr(Y)
    blocks = [Q]
    total = s
    for _ in range(power_iters):
        if total >= mindim:
            break
        Z, _ = np.linalg.qr(A.T @ blocks[-1])
        Q, _ = np.linalg.qr(A @ Z)
        blocks.append(Q)
        total += s
    basis, _ = np.linalg.qr(np.hstack(blocks))
    # Bt = B^T; B B^T = U diag(lam) U^T and B^T U_K = V diag(sigma) Z^T, so
    # B's left singular vectors are U_K Z and A's are basis U_K Z.
    Bt = A.T @ basis
    lam, U = np.linalg.eigh(Bt.T @ Bt)
    lam, U = lam[::-1], U[:, ::-1]
    if lam[K - 1] > np.sqrt(np.finfo(np.float64).eps) * lam[0]:
        U = U[:, :K]
    V, sigma, Zt = np.linalg.svd(Bt @ U, full_matrices=False)
    return _finalize(basis @ (U @ Zt.T), sigma, V, K)


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


def spectrum_stats(
    spec: TruncatedSpectrum,
    frobenius_sq_total: float,
    reference: TruncatedSpectrum | None = None,
) -> SpectrumStats:
    return SpectrumStats(
        frobenius_sq_total=frobenius_sq_total,
        appro_curve=appro_curve(spec, frobenius_sq_total),
        ratio_curve=None if reference is None else ratio_curve(spec, reference),
    )


def write_spectrum_csv(spec: TruncatedSpectrum, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "sigma", "sigma_normalized"])
        for k in range(len(spec)):
            writer.writerow([k + 1, repr(float(spec.sigma[k])), repr(float(spec.sigma_normalized[k]))])


def write_stats_csv(stats: SpectrumStats, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "appro"])
        for k, value in enumerate(stats.appro_curve, start=1):
            writer.writerow([k, repr(float(value))])
