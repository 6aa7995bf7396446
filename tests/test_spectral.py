import logging

import numpy as np
import pytest
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
from sgfcf import spectral
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
        pytest.param(bench_like, 250, 2, id="blocked-600x1500-K250"),
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
        parts = [matrix.values, matrix.values_t, matrix.user_degrees, matrix.item_degrees]
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


def test_truncated_svd_never_calls_numpys_qr(monkeypatch):
    """numpy's QR takes about twice as long as scipy's at the benchmark's
    block sizes."""
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: pytest.fail("np.linalg.qr called"))
    A = normalized(random_graph(np.random.default_rng(17), 50, 40)).values
    spec = truncated_svd(A, 6, power_iters=3, seed=2)
    assert len(spec) == 6


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


def _bench_shapes():
    # users, items, target edges and exponent of perfbench/workloads.py's
    # graphs at its GRAPH_SEED 0, with each fit's K and power iterations
    return [
        pytest.param(5551, 16981, 210537, 2.5, 500, 2, "krylov", id="citeulike-shared"),
        pytest.param(8000, 3200, 156000, 2.1, 256, 8, "gram", id="wide-igf"),
        pytest.param(2000, 4000, 60000, 3.0, 128, 2, "krylov", id="grid-tune-K128"),
        pytest.param(2000, 4000, 60000, 3.0, 64, 2, "krylov", id="grid-tune-K64"),
        pytest.param(2000, 4000, 60000, 3.0, 256, 2, "krylov", id="grid-tune-K256"),
    ]


@pytest.mark.parametrize("users, items, edges, exponent, K, power_iters, path", _bench_shapes())
def test_top_k_svd_picks_the_cheaper_path(monkeypatch, users, items, edges, exponent, K, power_iters, path):
    R = random_bipartite_graph(np.random.default_rng(0), users, items, edges, exponent)
    picked = []
    monkeypatch.setattr(spectral, "gram_svd", lambda norm, K: picked.append("gram"))
    monkeypatch.setattr(spectral, "truncated_svd", lambda norm, K, **kw: picked.append("krylov"))
    top_k_svd(R, K, power_iters=power_iters)
    assert picked == [path]


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
    (record,) = [r for r in caplog.records if r.name == "sgfcf"]
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    assert "top-5 SVD of 40 x 30" in message
    assert "krylov" in message and "gram" in message
    assert message.endswith(("-> gram", "-> krylov"))
    assert logging.getLogger("sgfcf").handlers == []


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
