import logging
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.stats import spearmanr

from sgfcf import (
    G2NConfig,
    appro_curve,
    appro_measure,
    dense_svd,
    g2n_normalize,
    gram_svd,
    graph_from_matrix,
    ratio_curve,
    top_k_svd,
    truncated_svd,
)
from sgfcf import parallel, spectral
from sgfcf.errors import ConfigError, InvalidTotal, KTooLarge, LengthMismatch, SizeCapExceeded
from sgfcf.graph import NormalizedMatrix
from sgfcf.spectral import TruncatedSpectrum
from sgfcf.theory import random_bipartite_graph

from conftest import random_graph
from oracles import ritz_svd_reference


def normalized(graph):
    return g2n_normalize(graph, G2NConfig())


class TestTruncatedSvd:
    def test_rank_one(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(12)
        b = rng.standard_normal(9)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        M = sp.csr_matrix(3.5 * np.outer(a, b))
        spec = truncated_svd(M, K=1, seed=1)
        assert spec.sigma[0] == pytest.approx(3.5, rel=1e-12)
        # vectors defined up to a joint sign
        assert min(np.abs(spec.P[:, 0] - a).max(), np.abs(spec.P[:, 0] + a).max()) < 1e-10
        outer = spec.P[:, :1] @ np.diag(spec.sigma) @ spec.Q[:, :1].T
        assert np.abs(outer - M.toarray()).max() < 1e-10

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        R = random_bipartite_graph(rng, 100, 80, target_edges=600)
        norm = normalized(graph_from_matrix(R))
        spec = truncated_svd(norm, K=10, oversample=8, power_iters=8, seed=7)
        sigma_dense = np.linalg.svd(norm.values.toarray(), compute_uv=False)[:10]
        assert (np.abs(spec.sigma - sigma_dense) / sigma_dense).max() < 1e-6

    def test_full_rank_frobenius_identity(self):
        rng = np.random.default_rng(3)
        graph = random_graph(rng, 20, 15)
        norm = normalized(graph)
        spec = truncated_svd(norm, K=15, seed=0)
        total = float(np.square(norm.values.data).sum())
        assert np.square(spec.sigma).sum() == pytest.approx(total, rel=1e-10)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        norm = normalized(random_graph(rng, 30, 25))
        a = truncated_svd(norm, K=5, seed=11)
        b = truncated_svd(norm, K=5, seed=11)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.P, b.P)
        assert np.array_equal(a.Q, b.Q)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(5)
        norm = normalized(random_graph(rng, 40, 30))
        spec = truncated_svd(norm, K=8, seed=2)
        K = len(spec)
        assert np.abs(spec.P.T @ spec.P - np.eye(K)).max() <= 1e-8
        assert np.abs(spec.Q.T @ spec.Q - np.eye(K)).max() <= 1e-8

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        norm = normalized(random_graph(rng, 25, 20))
        spec = truncated_svd(norm, K=6, seed=3)
        anchors = np.abs(spec.P).argmax(axis=0)
        assert (spec.P[anchors, np.arange(len(spec))] > 0).all()

    def test_parameter_validation(self):
        rng = np.random.default_rng(7)
        norm = normalized(random_graph(rng, 10, 8))
        with pytest.raises(KTooLarge):
            truncated_svd(norm, K=9)
        with pytest.raises(ConfigError):
            truncated_svd(norm, K=2, oversample=2)
        with pytest.raises(ConfigError):
            truncated_svd(norm, K=2, power_iters=0)

    @pytest.mark.parametrize("solver", [truncated_svd, top_k_svd])
    def test_negative_seed_rejected_on_either_path(self, solver):
        # this 10 x 8 input takes the Gram path, which never draws from the seed
        norm = normalized(random_graph(np.random.default_rng(7), 10, 8))
        with pytest.raises(ConfigError, match="seed"):
            solver(norm, K=2, seed=-1)

    @pytest.mark.parametrize("solver", [truncated_svd, gram_svd, top_k_svd])
    @pytest.mark.parametrize("K", [2.5, 2.0, True])
    def test_non_integer_K_rejected(self, solver, K):
        # K=2.5 raised numpy's IndexError or a TypeError
        norm = normalized(random_graph(np.random.default_rng(7), 10, 8))
        with pytest.raises(ConfigError, match="K must be an integer"):
            solver(norm, K=K)


def _graded_matrix(n_rows, sigma, seed):
    """n_rows x len(sigma) matrix with exactly the singular values sigma."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n_rows, len(sigma))))
    V, _ = np.linalg.qr(rng.standard_normal((len(sigma), len(sigma))))
    return (U * sigma) @ V.T


def _ritz_cases():
    rng = np.random.default_rng(21)
    wide = random_bipartite_graph(rng, 60, 110, target_edges=700)
    tall = random_bipartite_graph(rng, 120, 70, target_edges=800)
    square = random_graph(rng, 30, 20).row_major
    a, b = rng.standard_normal(40), rng.standard_normal(25)
    rank_one = sp.csr_matrix(np.outer(a, b))
    base = random_graph(rng, 35, 9).row_major
    duplicated = sp.hstack([base, base, base[:, :4]]).tocsr()  # rank <= 9
    graded = _graded_matrix(90, np.logspace(0, -11, 60), seed=22)
    # large enough that LAPACK's QR and SVD run their blocked code
    bench_like = random_bipartite_graph(np.random.default_rng(3), 600, 1500, 15000, 2.5)
    return [
        pytest.param(wide, 12, 2, id="wide"),
        pytest.param(wide, 13, 2, id="wide-basis-wider-than-rows"),  # 3 blocks of 21 > 60 rows
        pytest.param(tall, 12, 2, id="tall"),
        pytest.param(square, 20, 8, id="K-is-min-dim"),
        pytest.param(rank_one, 1, 8, id="rank-one"),
        pytest.param(rank_one, 3, 8, id="rank-one-K-above-rank"),
        pytest.param(duplicated, 14, 8, id="duplicated-columns-K-above-rank"),
        *(pytest.param(graded, K, 8, id=f"logspace-K{K}") for K in (20, 35, 40)),
        pytest.param(bench_like, 250, 2, id="blocked-600x1500-K250"),  # basis 600 x 774
        pytest.param(bench_like, 250, 1, id="blocked-600x1500-K250-1iter"),  # basis 600 x 516
    ]


@pytest.mark.parametrize("matrix, K, power_iters", _ritz_cases())
def test_matches_dense_rayleigh_ritz_reference(matrix, K, power_iters):
    """Same basis, Rayleigh-Ritz through the Gram matrix against a dense
    SVD of the whole projection: equal to roundoff, tiny singular values
    included, so the sqrt(eps) guard must hold."""
    sigma, P, Q = ritz_svd_reference(matrix, K, power_iters=power_iters, seed=4)
    spec = truncated_svd(matrix, K, power_iters=power_iters, seed=4)
    resolved = int((sigma >= 1e-10 * sigma[0]).sum())
    assert len(spec) >= resolved
    rel = np.abs(spec.sigma[:resolved] - sigma[:resolved]) / sigma[:resolved]
    assert rel.max() <= 1e-12
    reconstruction = (spec.P * spec.sigma) @ spec.Q.T
    assert np.abs(reconstruction - (P * sigma) @ Q.T).max() <= 1e-12 * sigma[0]


def _svd_inputs():
    norm = normalized(random_graph(np.random.default_rng(16), 60, 45))
    return [
        # the QR overwrites Fortran-ordered buffers, so a Fortran input is
        # the dense one at risk
        pytest.param(np.asfortranarray(norm.values.toarray()), id="dense"),
        pytest.param(norm.values, id="csr"),
        pytest.param(norm, id="normalized"),
    ]


def _input_bytes(matrix):
    if isinstance(matrix, NormalizedMatrix):
        parts = [matrix.values, matrix.values_t]
    else:
        parts = [matrix]
    arrays = []
    for part in parts:
        arrays += [part.data, part.indices, part.indptr] if sp.issparse(part) else [part]
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("solver", [truncated_svd, top_k_svd])
@pytest.mark.parametrize("matrix", _svd_inputs())
def test_svd_leaves_its_input_intact_and_repeats_bit_for_bit(matrix, solver):
    before = _input_bytes(matrix)
    first = solver(matrix, 5, power_iters=3, seed=9)
    second = solver(matrix, 5, power_iters=3, seed=9)
    assert _input_bytes(matrix) == before
    for name in ("sigma", "P", "Q"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
    if isinstance(matrix, NormalizedMatrix):
        # products with the row-major W^T add in the same order as with W.T
        plain = solver(matrix.values, 5, power_iters=3, seed=9)
        for name in ("sigma", "P", "Q"):
            assert getattr(first, name).tobytes() == getattr(plain, name).tobytes()


@pytest.mark.parametrize(
    "solver",
    [lambda norm: truncated_svd(norm, 6, seed=2), lambda norm: gram_svd(norm, 6), dense_svd],
    ids=["krylov", "gram", "dense"],
)
def test_spectra_are_read_only(solver):
    # a fitted model scores with the spectrum's own P or Q, or a column
    # view of it, so a write into its factors must not reach the spectrum
    spec = solver(normalized(random_graph(np.random.default_rng(17), 30, 20)))
    for part in (spec, spec.truncate(3)):
        for name in ("sigma", "P", "Q", "sigma_normalized"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(part, name)[0] = 1.0


def test_truncated_svd_never_calls_numpys_qr(monkeypatch):
    """numpy's QR takes about twice as long as scipy's at the benchmark's
    block sizes."""
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: pytest.fail("np.linalg.qr called"))
    A = normalized(random_graph(np.random.default_rng(17), 50, 40)).values
    spec = truncated_svd(A, 6, power_iters=3, seed=2)
    assert len(spec) == 6


# The blocks of each Rayleigh-Ritz case that CholeskyQR2 leaves to
# Householder: rank-deficient and graded blocks, and bases wider than
# their rows. Every other block of every case takes Cholesky.
_HOUSEHOLDER_BLOCKS = {
    "wide": [],
    "wide-basis-wider-than-rows": [(60, 63)],
    "tall": [],
    "K-is-min-dim": [],
    "rank-one": [(40, 9), (25, 9), (40, 9), (25, 9), (40, 9), (40, 27)],
    "rank-one-K-above-rank": [(40, 11), (25, 11), (40, 11), (25, 11), (40, 11), (40, 33)],
    "duplicated-columns-K-above-rank": [(35, 22)],
    "logspace-K20": [(90, 84)],
    "logspace-K35": [(90, 43), (60, 43), (90, 43), (90, 86)],
    "logspace-K40": [(90, 48), (60, 48), (90, 48), (90, 96)],
    "blocked-600x1500-K250": [(600, 774)],
    "blocked-600x1500-K250-1iter": [],
}


def _fallback_cases():
    return [pytest.param(*case.values, _HOUSEHOLDER_BLOCKS[case.id], id=case.id) for case in _ritz_cases()]


@pytest.mark.parametrize("matrix, K, power_iters, expected", _fallback_cases())
def test_orthonormalization_falls_back_to_householder_where_cholesky_cannot_hold(
    monkeypatch, matrix, K, power_iters, expected
):
    householder = spectral._householder_q
    shapes = []
    monkeypatch.setattr(spectral, "_householder_q", lambda block: shapes.append(block.shape) or householder(block))
    truncated_svd(matrix, K, power_iters=power_iters, seed=4)
    assert shapes == expected


def _orthonormalize_cases():
    bound = spectral.CHOLQR_MAX_SPREAD
    # cond = bound / 10, so the first factor's diagonal spreads less; one
    # CholeskyQR pass alone would leave its columns about 1e-8 from orthonormal
    below = _graded_matrix(50, np.logspace(0, -np.log10(bound / 10), 8), seed=18)
    # orthogonal columns scaled from 1 to 10 * bound: the factor's diagonal
    # has that spread, still far below what Cholesky can take
    Q, _ = np.linalg.qr(np.random.default_rng(18).standard_normal((50, 8)))
    above = Q * np.logspace(0, np.log10(bound * 10), 8)
    duplicated = _graded_matrix(50, np.logspace(0, -1, 8), seed=19)
    duplicated[:, 7] = duplicated[:, 2]
    wide = np.random.default_rng(20).standard_normal((5, 8))
    return [
        pytest.param(np.asfortranarray(below), False, id="below-the-bound"),
        pytest.param(np.asfortranarray(above), True, id="above-the-bound"),
        pytest.param(np.asfortranarray(duplicated), True, id="rank-deficient"),
        pytest.param(np.asfortranarray(wide), True, id="rows-below-cols"),
    ]


@pytest.mark.parametrize("block, householder", _orthonormalize_cases())
def test_orthonormalize_spans_its_block_in_the_blocks_memory(block, householder):
    original = block.copy()
    Q, fell_back = spectral._orthonormalize(block)
    assert fell_back is householder
    width = min(block.shape)
    assert Q.shape == (block.shape[0], width)
    assert np.shares_memory(Q, block) and np.array_equal(Q, block[:, :width])
    assert np.abs(Q.T @ Q - np.eye(width)).max() <= 1e-14
    assert np.abs(Q @ (Q.T @ original) - original).max() <= 1e-14 * np.abs(original).max()


def test_orthonormalize_rejects_a_c_ordered_block():
    # f2py would overwrite a Fortran copy of it and return the block as it was
    block = np.random.default_rng(24).standard_normal((200, 20))
    original = block.copy()
    with pytest.raises(ValueError, match="Fortran-contiguous"):
        spectral._orthonormalize(block)
    assert np.array_equal(block, original)


def _product_cases():
    rng = np.random.default_rng(25)
    X = sp.random(70, 90, density=0.1, random_state=rng, data_rvs=rng.standard_normal, format="csr")
    width = 3 * spectral.SLAB + 5  # a last slab narrower than SLAB
    D = rng.standard_normal((90, width))
    return [
        pytest.param(X, D, "C", id="csr-C-into-C"),
        pytest.param(X, D, "F", id="csr-C-into-F"),
        pytest.param(X, np.asfortranarray(D), "F", id="csr-F-into-F"),
        pytest.param(X, np.asfortranarray(D), "C", id="csr-F-into-C"),
        pytest.param(X, D[:, : spectral.SLAB - 3], "F", id="csr-narrower-than-a-slab"),
        pytest.param(X.toarray(), np.asfortranarray(D), "F", id="dense-F-into-F"),
        pytest.param(X.toarray(), D, "C", id="dense-C-into-C"),
    ]


@pytest.mark.parametrize("X, D, order", _product_cases())
def test_product_into_writes_the_whole_products_bits(X, D, order):
    out = np.empty((X.shape[0], D.shape[1]), order=order)
    assert spectral._product_into(out, X, D) is out
    assert out.tobytes(order="C") == np.ascontiguousarray(X @ D).tobytes()


def _whole_product_truncated_svd(matrix, K, power_iters, seed, oversample=8):
    """truncated_svd as it was before its sparse products wrote into their
    buffers: whole products, the A^T Q block copied to Fortran order, and
    the Rayleigh-Ritz step handed a named C-ordered copy of the basis."""
    A = sp.csr_matrix(matrix) if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
    At = A.T.tocsr() if sp.issparse(A) else A.T
    (m, n), mindim = A.shape, min(A.shape)
    s = min(K + oversample, mindim)
    blocks = min(power_iters + 1, -(-mindim // s))
    rng = np.random.default_rng(seed)
    basis = np.empty((m, blocks * s), order="F")
    basis[:, :s] = A @ rng.standard_normal((n, s))
    Q, _ = spectral._orthonormalize(basis[:, :s])
    for j in range(1, blocks):
        Z, _ = spectral._orthonormalize(np.asfortranarray(At @ Q))
        Q = basis[:, j * s : (j + 1) * s]
        Q[...] = A @ Z
        spectral._orthonormalize(Q)
    basis = np.ascontiguousarray(spectral._orthonormalize(basis)[0])
    return spectral._finalize(*spectral._rayleigh_ritz(basis, At, K), K)


def _slab_cases():
    cases = {case.id: case.values for case in _ritz_cases()}
    wide, K, power_iters = cases["blocked-600x1500-K250"]
    return [
        pytest.param(wide, K, power_iters, id="wide-3-blocks"),
        pytest.param(wide.T.tocsr(), K, power_iters, id="tall-3-blocks"),
        pytest.param(*cases["rank-one-K-above-rank"], id="householder-blocks"),
        pytest.param(*cases["logspace-K35"], id="dense-householder-blocks"),
    ]


@pytest.mark.parametrize("matrix, K, power_iters", _slab_cases())
def test_truncated_svd_equals_the_whole_product_loop_bit_for_bit(matrix, K, power_iters):
    want = _whole_product_truncated_svd(matrix, K, power_iters, seed=4)
    got = truncated_svd(matrix, K, power_iters=power_iters, seed=4)
    for name in ("sigma", "P", "Q"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_krylov_loop_holds_the_basis_one_block_and_two_slabs(monkeypatch):
    """Above its input, truncated_svd's peak is the Fortran basis (m x C),
    one n x s block buffer and one slab product of each side, here in the
    power iterations; the Rayleigh-Ritz step, on row blocks of 64, stays
    below. Whole sparse products held a block and its copy in the other
    order at once, 907k doubles here against the 576k this bound allows."""
    norm = normalized(graph_from_matrix(random_bipartite_graph(np.random.default_rng(5), 600, 3000)))
    (m, n), K = norm.values.shape, 100
    s = K + 8
    C = min(m, 3 * s)
    monkeypatch.setattr(spectral, "RITZ_BLOCK_BYTES", 8 * C * 64)
    truncated_svd(norm, K, power_iters=2, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        truncated_svd(norm, K, power_iters=2, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bound = 8 * (m * C + n * s + spectral.SLAB * (m + n)) + 2**14
    assert peak <= bound, (peak, bound)
    assert bound < 8 * (m * C + 2 * n * s)


def test_truncated_svd_logs_its_householder_fallbacks(caplog):
    rng = np.random.default_rng(23)
    rank_one = sp.csr_matrix(np.outer(rng.standard_normal(40), rng.standard_normal(25)))
    A = random_graph(rng, 40, 30).row_major
    with caplog.at_level(logging.DEBUG, logger="sgfcf"):
        truncated_svd(rank_one, 1)
        truncated_svd(A, 5, power_iters=1)
    records = [r for r in caplog.records if r.name == "sgfcf"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 4
    # each followed by its Rayleigh-Ritz finish
    assert [r.getMessage() for r in records] == [
        "Krylov SVD of 40 x 25: 6 of 6 orthonormalizations fell back to Householder",
        "Rayleigh-Ritz top-1 of 27: K x K eigh, lambda_1/lambda_K 1 below 100",
        "Krylov SVD of 40 x 30: 0 of 4 orthonormalizations fell back to Householder",
        "Rayleigh-Ritz top-5 of 26: K x K eigh, lambda_1/lambda_K 5.46 below 100",
    ]
    assert logging.getLogger("sgfcf").handlers == []


def _ritz_inputs(grading, seed=0):
    """A random sparse 300 x 3000 matrix with standard normal entries, its
    rows scaled from 1 down to 10**-grading, an orthonormal basis of 80
    columns on its row side, and Bt = A^T basis."""
    rng = np.random.default_rng(seed)
    R = sp.random(300, 3000, density=0.05, random_state=rng, data_rvs=rng.standard_normal, format="csr")
    A = sp.diags(np.logspace(0, -grading, 300)) @ R
    basis = np.linalg.qr(A @ rng.standard_normal((3000, 80)))[0]
    return A, basis, A.T @ basis


@pytest.mark.parametrize("grading, K, spread", [(0.0, 30, 1.29), (2.0, 60, 10.3)], ids=["flat", "graded"])
def test_k_by_k_finish_matches_the_thin_svd_step(monkeypatch, grading, K, spread):
    """Both finishes rotate the same top-K eigenvectors U_K of B B^T, so
    the left subspace is basis U_K and the right one the range of B^T U_K
    in either; only roundoff separates them."""
    A, basis, Bt = _ritz_inputs(grading)
    left, sigma, right = spectral._rayleigh_ritz(basis, A.T, K)
    lam = np.linalg.svd(Bt, compute_uv=False) ** 2
    assert lam[0] / lam[K - 1] == pytest.approx(spread, rel=1e-2)
    monkeypatch.setattr(spectral, "RITZ_MAX_SPREAD", 0.0)  # always the thin SVD
    left_svd, sigma_svd, right_svd = spectral._rayleigh_ritz(basis, A.T, K)
    assert (np.abs(sigma - sigma_svd) / sigma_svd).max() <= 1e-13
    for got, want in ((left, left_svd), (right, right_svd)):
        assert np.abs(got.T @ got - np.eye(K)).max() <= 1e-13
        assert np.linalg.norm(got @ got.T - want @ want.T, 2) <= 1e-13
    assert np.abs(A.T @ left - right * sigma).max() <= 1e-13 * sigma[0]


def test_k_by_k_finish_holds_one_tall_array(monkeypatch):
    """Above its inputs the step holds the Gram matrix B B^T, summed over
    row blocks of Bt = A^T basis, then M = A^T (basis U_K) (L x K) rotated
    in place one block of rows at a time, basis U_K and the m x K left
    vectors, and arrays of C and K columns: the Gram matrix's block sum and
    eigenvectors, M^T M and its, U_K and Y. Bt (L x C) is never whole, and
    a finish that keeps a second L x K array (a GEMM's M Y, or a thin
    SVD's vectors) exceeds the bound."""
    A, basis, Bt = _ritz_inputs(2.0)
    At = A.T.tocsr()
    (m, C), L, K, rows = basis.shape, Bt.shape[0], 60, 64
    monkeypatch.setattr(spectral, "RITZ_BLOCK_BYTES", 8 * K * rows)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spectral._rayleigh_ritz(basis, At, K)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    allocated = 8 * (L * K + rows * K + m * K + 2 * C * C + 2 * K * K + 2 * C * K + 2 * C)
    assert peak <= allocated + 2**14, (peak, allocated)
    assert allocated + 2**14 < 8 * 2 * L * K


def test_k_by_k_finish_frees_a_basis_handed_over_as_a_temporary(monkeypatch):
    """The same step and bound as above, with the basis (m x C) handed over
    as a temporary and so allocated inside the traced call: the step frees
    it once basis U_K is formed, so it is never live beside M."""
    A, basis, Bt = _ritz_inputs(2.0)
    At = A.T.tocsr()
    (m, C), L, K, rows = basis.shape, Bt.shape[0], 60, 64
    monkeypatch.setattr(spectral, "RITZ_BLOCK_BYTES", 8 * K * rows)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spectral._rayleigh_ritz(basis.copy(), At, K)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    allocated = 8 * (L * K + rows * K + m * K + 2 * C * C + 2 * K * K + 2 * C * K + 2 * C)
    assert peak <= allocated + 2**14, (peak, allocated)
    assert 8 * m * C > 2**14


def test_truncated_svd_never_holds_the_whole_projection(monkeypatch):
    """Above its input, truncated_svd holds the Krylov basis buffer (m x
    blocks * s), one C x C array and at most three arrays of L rows and at
    most s columns: a block, its Fortran copy and the next, or in the
    Rayleigh-Ritz step Bt U_K and its singular vectors (this input's spread
    takes the thin-SVD finish). Bt = A^T basis (L x C) is formed one row
    block at a time; holding it whole on top exceeds the bound."""
    ((matrix, K, power_iters),) = [c.values for c in _ritz_cases() if c.id == "blocked-600x1500-K250"]
    (m, L), s = matrix.shape, K + 8
    blocks = 3
    C = min(m, blocks * s)
    monkeypatch.setattr(spectral, "RITZ_BLOCK_BYTES", 8 * C * 64)
    truncated_svd(matrix, K, power_iters=power_iters, seed=4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        truncated_svd(matrix, K, power_iters=power_iters, seed=4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bound = 8 * (m * blocks * s + C * C + 3 * L * s)
    assert peak <= bound, (peak, bound)
    assert bound < peak + 8 * L * C


def _ritz_routes():
    graded = _graded_matrix(90, np.logspace(0, -11, 60), seed=22)
    flat = _graded_matrix(90, np.logspace(0, -0.5, 60), seed=22)
    return [
        pytest.param(flat, 20, "K x K eigh, lambda_1/lambda_K {} below 100", 10 ** (19 / 59), id="eigh"),
        pytest.param(graded, 20, "thin SVD, lambda_1/lambda_K {} not below 100", 10 ** (22 * 19 / 59), id="spread"),
        pytest.param(graded, 40, "thin SVD of all 60, lambda_K <= sqrt(eps) lambda_1", None, id="unresolved"),
    ]


@pytest.mark.parametrize("A, K, route, spread", _ritz_routes())
def test_rayleigh_ritz_logs_its_finish(caplog, A, K, route, spread):
    basis = np.linalg.qr(A)[0]
    with caplog.at_level(logging.DEBUG, logger="sgfcf"):
        spectral._rayleigh_ritz(basis, A.T, K)
    (record,) = [r for r in caplog.records if r.name == "sgfcf"]
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    prefix = f"Rayleigh-Ritz top-{K} of 60: "
    if spread is None:
        assert message == prefix + route
    else:
        head, tail = (prefix + route).split("{}")
        assert message.startswith(head) and message.endswith(tail)
        assert float(message[len(head) : -len(tail)]) == pytest.approx(spread, rel=1e-2)
    assert logging.getLogger("sgfcf").handlers == []


def _gram_cases():
    """The Rayleigh-Ritz cases without their power iterations, plus the
    graded matrix transposed, so the full basis also sits on the user side."""
    graded = _graded_matrix(90, np.logspace(0, -11, 60), seed=22)
    return [pytest.param(*case.values[:2], id=case.id) for case in _ritz_cases()] + [
        pytest.param(graded.T.copy(), 35, id="logspace-transposed-K35")
    ]


@pytest.mark.parametrize("matrix, K", _gram_cases())
def test_gram_path_matches_dense_svd_within_its_backward_error(matrix, K):
    """Bounds from the method, not from a run. The Gram matrix and its
    eigendecomposition carry a normwise backward error of at most
    eta * sigma_1^2 with eta = max(m, n) * eps, so the top-K eigenvectors
    span an invariant subspace whose angle to the exact one is at most
    sin(theta) = eta * lambda_1 / (lambda_K - lambda_{K+1}); a Ritz value
    then lies within lambda_1 sin^2(theta) / sigma_k of sigma_k, plus the
    eta * sigma_1 of the final thin SVD. Where lambda_K <= sqrt(eps) *
    lambda_1 that angle is not small and the basis must span the whole
    smaller side: the step is then a backward-stable SVD, within
    eta * sigma_1 absolutely, and values below roundoff are pruned."""
    dense = matrix.toarray() if sp.issparse(matrix) else matrix
    sigma = np.linalg.svd(dense, compute_uv=False)
    eps = np.finfo(np.float64).eps
    eta = max(dense.shape) * eps
    lam = sigma**2
    spec = gram_svd(matrix, K)

    resolved = lam[K - 1] > np.sqrt(eps) * lam[0]
    if resolved:
        gap = lam[K - 1] - (lam[K] if K < len(lam) else 0.0)
        sin_theta = min(1.0, eta * lam[0] / gap)
        bound = eta * sigma[0] + lam[0] * sin_theta**2 / sigma[: len(spec)]
        assert len(spec) == K
    else:
        bound = np.full(len(spec), eta * sigma[0])
        assert len(spec) == min(K, int((sigma > 1e-12 * sigma[0]).sum()))
    assert (np.abs(spec.sigma - sigma[: len(spec)]) <= bound).all()
    residual = np.linalg.norm(dense @ spec.Q - spec.P * spec.sigma, axis=0)
    assert (residual <= bound * sigma[0] / spec.sigma + eta * sigma[0]).all()


@pytest.mark.parametrize("shape", [(300, 200), (200, 300)], ids=["items-fewer", "users-fewer"])
def test_gram_path_does_not_depend_on_the_worker_count(monkeypatch, shape):
    norm = normalized(graph_from_matrix(random_bipartite_graph(np.random.default_rng(9), *shape, exponent=2.1)))
    A = norm.values
    S = A.T if shape[1] < shape[0] else A
    whole = (S @ S.T).toarray()
    spectra = []
    for cpus in (1, 3):
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        assert np.array_equal(spectral._sparse_gram(sp.csr_matrix(S), sp.csr_matrix(S.T)), whole)
        spectra.append(gram_svd(norm, 20))
    one, three = spectra
    for name in ("sigma", "P", "Q"):
        assert np.array_equal(getattr(one, name), getattr(three, name)), name


def test_sparse_gram_holds_one_pieces_product_at_a_time(monkeypatch):
    # pieces of equal terms hold about equal shares of the product's entries
    A = normalized(graph_from_matrix(random_bipartite_graph(np.random.default_rng(9), 600, 300, exponent=2.1))).values
    S, St = sp.csr_matrix(A.T), sp.csr_matrix(A)
    whole = S @ St
    product_bytes = whole.data.nbytes + whole.indices.nbytes + whole.indptr.nbytes
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    tracemalloc.start()
    try:
        spectral._sparse_gram(S, St)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * S.shape[0] ** 2 <= 2 * product_bytes / spectral.GRAM_PIECES_PER_WORKER


@pytest.mark.parametrize("shape", [(2000, 600), (600, 2000)], ids=["items-fewer", "users-fewer"])
def test_gram_svd_holds_one_gram_matrix(shape):
    """Its eigendecomposition overwrites G (8 N^2 bytes) in place. A
    Fortran-ordered copy of G beside it took the peak to 2.13 times that."""
    R = random_bipartite_graph(np.random.default_rng(0), *shape)
    N = min(shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gram_svd(R, 40)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 8 * N * N, peak / (8 * N * N)


@pytest.mark.parametrize("shape", [(2000, 600), (600, 2000)], ids=["items-fewer", "users-fewer"])
def test_unresolved_gram_path_holds_one_basis(shape):
    """On a rank-30 input the top-40 subset is not resolved, so the full
    eigendecomposition (N x N) is the basis of the Rayleigh-Ritz step. The
    step's C-ordered copy frees the Fortran-ordered eigenvectors: the
    traced peak reads 11.2 x 8 N^2, and 12.2 with both orders held."""
    R = random_bipartite_graph(np.random.default_rng(0), *shape).tocsr()
    R = R[:, np.arange(shape[1]) % 30] if shape[0] > shape[1] else R[np.arange(shape[0]) % 30]
    N = min(shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spec = gram_svd(R, 40)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(spec) == 30
    assert peak <= 11.7 * 8 * N * N, peak / (8 * N * N)


@pytest.mark.parametrize("items_small", [True, False], ids=["items-fewer", "users-fewer"])
def test_gram_matrices_are_symmetric_bit_for_bit(items_small):
    # the in-place eigh reads the triangle of G that a copy would not
    shape = (300, 200) if items_small else (200, 300)
    A = normalized(graph_from_matrix(random_bipartite_graph(np.random.default_rng(9), *shape, exponent=2.1))).values
    for A in (A, A.toarray()):
        S, St = (A.T, A) if items_small else (A, A.T)  # as gram_svd orients a raw A
        G = spectral._sparse_gram(S, St) if sp.issparse(A) else S @ St
        assert np.array_equal(G, G.T)


def _gram_svd_reference(matrix, K):
    """gram_svd with each eigh on its own C-ordered copy of G, which scipy
    copies to Fortran order: G is read from below its diagonal and never
    overwritten."""
    items_small = matrix.shape[1] < matrix.shape[0]
    S, St = (matrix.T, matrix) if items_small else (matrix, matrix.T)
    N = S.shape[0]
    G = spectral._sparse_gram(S, St) if sp.issparse(matrix) else S @ St
    lam, basis = scipy.linalg.eigh(G.copy(), subset_by_index=[N - K, N - 1], driver="evr")
    if lam[0] <= spectral.SQRT_EPS * lam[-1]:
        _, basis = scipy.linalg.eigh(G.copy(), driver="evd")
    left, sigma, right = spectral._rayleigh_ritz(basis, St, K)
    if items_small:
        left, right = right, left
    return spectral._finalize(left, sigma, right, K)


@pytest.mark.parametrize("matrix, K", _gram_cases())
def test_gram_svd_overwrites_g_with_the_same_bits(monkeypatch, matrix, K):
    """The same spectrum bit for bit as eigh on an unshared copy. A sparse
    G is formed once, and once more for the full eigendecomposition when
    lambda_K <= sqrt(eps) * lambda_1."""
    reference = _gram_svd_reference(matrix, K)
    formed = []
    sparse_gram = spectral._sparse_gram
    monkeypatch.setattr(spectral, "_sparse_gram", lambda S, St: formed.append(S.shape) or sparse_gram(S, St))
    spec = gram_svd(matrix, K)
    for name in ("sigma", "P", "Q"):
        assert np.array_equal(getattr(spec, name), getattr(reference, name)), name
    if sp.issparse(matrix):
        lam = np.linalg.svd(matrix.toarray(), compute_uv=False) ** 2
        resolved = lam[K - 1] > np.sqrt(np.finfo(np.float64).eps) * lam[0]
        assert len(formed) == (1 if resolved else 2)


def _bench_shapes():
    # users, items, target edges and exponent of perfbench/workloads.py's
    # graphs at its GRAPH_SEED 0, with each fit's K and power iterations
    return [
        pytest.param(5551, 16981, 210537, 2.5, 500, 2, "krylov", id="citeulike-shared"),
        pytest.param(8000, 3200, 156000, 2.1, 256, 8, "gram", id="wide-igf"),
        pytest.param(2000, 4000, 60000, 3.0, 128, 2, "krylov", id="grid-tune-K128"),
        pytest.param(2000, 4000, 60000, 3.0, 64, 2, "krylov", id="grid-tune-K64"),
        pytest.param(2000, 4000, 60000, 3.0, 256, 2, "krylov", id="grid-tune-K256"),
        # large K at CiteULike shape: Gram estimated at 72 s against
        # Krylov's 94 s at K=2220, Krylov at 142 s against Gram's 237 s at
        # K=5551. K=3885 is left out: Krylov's 136 s against Gram's 143 s is
        # too close for the pick to hold through a refit of the cost
        # constants.
        pytest.param(5551, 16981, 210537, 2.5, 2220, 8, "gram", id="citeulike-K2220"),
        pytest.param(5551, 16981, 210537, 2.5, 5551, 8, "krylov", id="citeulike-K5551"),
    ]


@pytest.mark.parametrize("users, items, edges, exponent, K, power_iters, path", _bench_shapes())
def test_top_k_svd_picks_the_cheaper_path(monkeypatch, users, items, edges, exponent, K, power_iters, path):
    R = random_bipartite_graph(np.random.default_rng(0), users, items, edges, exponent)
    picked = []
    monkeypatch.setattr(spectral, "gram_svd", lambda norm, K: picked.append("gram"))
    monkeypatch.setattr(spectral, "truncated_svd", lambda norm, K, **kw: picked.append("krylov"))
    top_k_svd(R, K, power_iters=power_iters)
    assert picked == [path]


def test_top_k_svd_takes_the_exact_path_below_a_millisecond(monkeypatch):
    A = random_graph(np.random.default_rng(20), 200, 150, density=0.05).row_major
    degrees = np.diff(A.indptr)  # of the 200 users, the larger side
    krylov = spectral._krylov_cost(200, 150, A.nnz, 4, 8, 1)
    assert krylov < spectral._gram_cost(150, 200, degrees, 4) < spectral.GRAM_ALWAYS_S
    monkeypatch.setattr(spectral, "truncated_svd", lambda *a, **kw: pytest.fail("Krylov below the floor"))
    assert len(top_k_svd(A, 4, power_iters=1)) == 4


@pytest.mark.parametrize("m, n", [(300, 200), (200, 300)])
def test_krylov_estimate_stops_growing_with_the_solver(m, n):
    K, oversample = 20, 8
    s = min(K + oversample, min(m, n))
    spans = -(-min(m, n) // s)  # blocks at which truncated_svd's basis spans min(m, n)
    cost = {q: spectral._krylov_cost(m, n, 3000, K, oversample, q) for q in range(1, spans + 3)}
    for q in range(1, spans + 2):
        # q power iterations build min(q + 1, spans) blocks
        if q + 1 < spans:
            assert cost[q + 1] > cost[q]
        else:
            assert cost[q + 1] == cost[q]


def test_top_k_svd_never_forms_a_gram_above_the_byte_cap(monkeypatch):
    rng = np.random.default_rng(14)
    A = random_graph(rng, 40, 30).row_major
    monkeypatch.setattr(spectral, "GRAM_MAX_BYTES", 30 * 30 * 8 - 1)
    monkeypatch.setattr(spectral, "gram_svd", lambda norm, K: pytest.fail("Gram above the cap"))
    spec = top_k_svd(A, 5, seed=3)
    assert np.array_equal(spec.sigma, truncated_svd(A, 5, seed=3).sigma)


def test_top_k_svd_logs_its_pick(caplog):
    rng = np.random.default_rng(15)
    A = random_graph(rng, 40, 30).row_major
    with caplog.at_level(logging.DEBUG, logger="sgfcf"):
        top_k_svd(A, 5)
    # the pick, then the solver's own lines: the Krylov path's fallback
    # count, and either path's Rayleigh-Ritz finish
    records = [r for r in caplog.records if r.name == "sgfcf"]
    assert [r.levelno for r in records] == [logging.DEBUG] * len(records)
    message = records[0].getMessage()
    assert "top-5 SVD of 40 x 30" in message
    assert "krylov" in message and "gram" in message
    assert message.endswith(("-> gram", "-> krylov"))
    assert len(records) == (2 if message.endswith("-> gram") else 3)
    assert records[-1].getMessage().startswith("Rayleigh-Ritz top-5 of ")
    assert logging.getLogger("sgfcf").handlers == []


@pytest.mark.parametrize(
    "solver",
    [
        lambda A: truncated_svd(A, 4),
        lambda A: gram_svd(A, 4),
        lambda A: top_k_svd(A, 4),
        dense_svd,
    ],
    ids=["truncated_svd", "gram_svd", "top_k_svd", "dense_svd"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_a_raw_matrix_holding_nan_or_inf_raises_config_error(solver, bad, dense):
    # one stored NaN once reached LAPACK: LinAlgError from the Krylov path and
    # the dense oracle, scipy's ValueError from the Gram path
    A = random_graph(np.random.default_rng(16), 30, 20).row_major.copy()
    A.data[3] = bad
    with pytest.raises(ConfigError, match="NaN or infinite"):
        solver(A.toarray() if dense else A)


@pytest.mark.parametrize("solver", [truncated_svd, gram_svd, top_k_svd])
@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_a_raw_matrix_whose_gram_overflows_raises_config_error(solver, dense):
    # finite entries whose Gram matrix is not: scipy's ValueError from the
    # Gram path, an overflow warning and LinAlgError from the Krylov path
    A = sp.random(60, 40, density=0.2, random_state=1, format="csr") * 1e200
    with pytest.raises(ConfigError, match="Gram matrix may overflow"):
        solver(A.toarray() if dense else A, 4)
    # b^2 = ||A||_1 ||A||_inf is finite 1e50 lower, and so is every Gram entry
    A = A * 1e-50
    spec = solver(A.toarray() if dense else A, 4)
    sigma = np.linalg.svd(A.toarray(), compute_uv=False)[:4]
    assert np.allclose(spec.sigma, sigma, rtol=1e-6, atol=0)


@pytest.mark.parametrize("solver", [truncated_svd, gram_svd, top_k_svd])
@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
def test_an_integer_matrix_solves_as_its_float_copy(solver, fmt):
    # the Gram path once wrote int64 piece products into its float64 G and
    # raised scipy's ValueError
    A = (sp.random(60, 40, density=0.2, random_state=1, format="csr") * 10).astype(np.int64)
    assert A.nnz
    spec = solver(A.asformat(fmt), 5)
    reference = solver(A.astype(np.float64), 5)
    for name in ("sigma", "P", "Q"):
        assert np.array_equal(getattr(spec, name), getattr(reference, name)), name


def test_an_integer_matrixs_gram_bound_is_taken_in_float64(monkeypatch):
    # in int64, ||A||_1 ||A||_inf = 2^41 * 2^41 wraps to 0
    A = sp.csr_matrix(np.full((2, 2), 2**40, dtype=np.int64))
    bounds = []
    gram_bound = spectral.gram_bound
    monkeypatch.setattr(spectral, "gram_bound", lambda A: bounds.append(gram_bound(A)) or bounds[-1])
    spec = truncated_svd(A, 1)
    assert bounds == [2.0**82]
    assert spec.sigma[0] == pytest.approx(2.0**41, rel=1e-12)


def test_sparse_gram_fills_any_product_on_any_worker_count(monkeypatch):
    # the gamma term's W W_users^T on one worker, and on the default count
    W = normalized(random_graph(np.random.default_rng(23), 300, 200)).values
    users = np.arange(0, 300, 7)
    whole = (W @ W[users].T).toarray()
    assert np.array_equal(spectral._sparse_gram(W, W[users].T, workers=1), whole)
    for cpus in (1, 3):
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        assert np.array_equal(spectral._sparse_gram(W, W[users].T), whole)


class TestDenseSvd:
    def test_rank_deficient_pruning(self):
        # all-ones 2x2: classic normalization gives sigma = [1, 0]; the
        # zero is pruned
        norm = normalized(graph_from_matrix(sp.csr_matrix(np.ones((2, 2)))))
        spec = dense_svd(norm)
        assert len(spec) == 1
        assert spec.sigma[0] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_matrix(self):
        spec = dense_svd(sp.csr_matrix(np.array([[0.7]])))
        assert spec.sigma.tolist() == [0.7]

    def test_identity_interactions(self):
        norm = normalized(graph_from_matrix(sp.eye(5, format="csr")))
        spec = dense_svd(norm)
        assert np.allclose(spec.sigma, np.ones(5))

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            dense_svd(sp.eye(2001, format="csr"))

    def test_agrees_with_truncated(self):
        rng = np.random.default_rng(8)
        norm = normalized(random_graph(rng, 30, 22))
        full = dense_svd(norm)
        trunc = truncated_svd(norm, K=min(10, len(full)), seed=5)
        assert np.allclose(full.sigma[: len(trunc)], trunc.sigma, rtol=1e-9)

    def test_normalized_head_is_one(self):
        rng = np.random.default_rng(9)
        spec = dense_svd(normalized(random_graph(rng, 12, 12)))
        assert spec.sigma_normalized[0] == 1.0
        assert (np.diff(spec.sigma) <= 1e-12).all()


class TestApproMeasure:
    def test_rank_one_saturates(self):
        spec = _make_spectrum([2.0])
        assert appro_measure(spec, 1, 4.0) == 1.0

    def test_hand_computed(self):
        spec = _make_spectrum([2.0, 1.0, 1.0])
        assert appro_measure(spec, 1, 6.0) == pytest.approx(4.0 / 6.0)

    def test_full_rank_is_one(self):
        spec = _make_spectrum([2.0, 1.0, 1.0])
        assert appro_measure(spec, 3, 6.0) == pytest.approx(1.0)

    def test_invalid_total(self):
        spec = _make_spectrum([2.0, 1.0])
        with pytest.raises(InvalidTotal):
            appro_measure(spec, 2, 4.0)

    def test_curve_monotone(self):
        rng = np.random.default_rng(10)
        norm = normalized(random_graph(rng, 25, 18))
        spec = dense_svd(norm)
        curve = appro_curve(spec, float(np.square(norm.values.data).sum()))
        assert (np.diff(curve) >= -1e-15).all()
        assert 0.0 < curve[0] <= 1.0
        assert curve[-1] == pytest.approx(1.0, abs=1e-9)

    def test_k_beyond_spectrum(self):
        spec = _make_spectrum([1.0])
        with pytest.raises(KTooLarge):
            appro_measure(spec, 2, 1.0)
        # truncate and appro_measure take K in [1, len(spec)] only: 2.5
        # raised a TypeError, True truncated to 1 triplet, 0 to none, and
        # -1 cut the last triplet
        spec = _make_spectrum([2.0, 1.0, 1.0])
        for K, error in [(4, KTooLarge), (0, KTooLarge), (-1, KTooLarge), (2.5, ConfigError), (True, ConfigError)]:
            with pytest.raises(error):
                appro_measure(spec, K, 6.0)
            with pytest.raises(error):
                spec.truncate(K)
        assert len(spec.truncate(3)) == 3


def _make_spectrum(sigma):
    sigma = np.asarray(sigma, dtype=np.float64)
    m = len(sigma)
    return TruncatedSpectrum(
        sigma=sigma, P=np.eye(m), Q=np.eye(m), sigma_normalized=sigma / sigma[0]
    )


class TestRatioCurve:
    def test_identity_ratio(self):
        spec = _make_spectrum([3.0, 2.0, 1.0])
        assert np.array_equal(ratio_curve(spec, spec), np.ones(3))

    def test_first_entry_exactly_one(self):
        a = _make_spectrum([4.0, 2.0])
        b = _make_spectrum([8.0, 7.0])
        curve = ratio_curve(a, b)
        assert curve[0] == 1.0
        assert curve[1] == pytest.approx((2.0 / 4.0) / (7.0 / 8.0))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ratio_curve(_make_spectrum([1.0]), _make_spectrum([1.0, 0.5]))

    def test_g2n_ratio_trends_negative_with_k(self):
        # sharper normalization drops mid-spectrum values faster
        rng = np.random.default_rng(12)
        graph = graph_from_matrix(random_bipartite_graph(rng, 120, 90, target_edges=1200))
        spec_a = dense_svd(g2n_normalize(graph, G2NConfig(alpha=8.0, epsilon=-0.5)))
        spec_b = dense_svd(g2n_normalize(graph, G2NConfig(alpha=0.0, epsilon=-0.5)))
        L = min(len(spec_a), len(spec_b))
        curve = ratio_curve(spec_a.truncate(L), spec_b.truncate(L))
        rho = spearmanr(np.arange(L), curve).statistic
        assert rho < -0.2

    def test_epsilon_variant_spearman(self):
        rng = np.random.default_rng(13)
        graph = graph_from_matrix(random_bipartite_graph(rng, 100, 80, target_edges=900))
        spec_a = dense_svd(g2n_normalize(graph, G2NConfig(alpha=0.0, epsilon=-0.3)))
        spec_b = dense_svd(g2n_normalize(graph, G2NConfig(alpha=0.0, epsilon=-0.5)))
        L = min(len(spec_a), len(spec_b))
        curve = ratio_curve(spec_a.truncate(L), spec_b.truncate(L))
        rho = spearmanr(np.arange(L), curve).statistic
        assert rho < 0
