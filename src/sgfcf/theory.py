"""Executable oracles for the spectral-symmetry, expressiveness,
approximation, eigenvalue-bound, and filter-equivalence theorems.

Every check runs on small random bipartite graphs where dense linear
algebra is exact, reports a machine-readable summary, and is
deterministic under a fixed seed. A report passes exactly when its
worst observed error is within the check's tolerance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .graph import G2NConfig, graph_from_matrix, g2n_normalize, assemble_adjacency
from .spectral import appro_measure, dense_svd, ratio_curve

SYMMETRY_TOL = 1e-8
RATING_TOL = 1e-8
SGF_TOL = 1e-8
BOUNDS_REL_SLACK = 1e-10
LGCN_TOL = 1e-6
SHARED_RESIDUAL_FLOOR = 1e-3
SHARED_FAIL_RATE = 0.95


@dataclass(frozen=True)
class TheoryReport:
    check_name: str
    instances_run: int
    max_abs_error: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _report(name: str, instances: int, max_err: float, tol: float, **details) -> TheoryReport:
    return TheoryReport(
        check_name=name,
        instances_run=instances,
        max_abs_error=float(max_err),
        tolerance=tol,
        passed=bool(max_err <= tol),
        details=details,
    )


def random_bipartite_graph(
    rng: np.random.Generator,
    n_users: int,
    n_items: int,
    target_edges: int | None = None,
    exponent: float = 2.1,
) -> sp.csr_matrix:
    """Random bipartite 0/1 matrix with power-law degree skew.

    User degrees are drawn from a Pareto tail (the given exponent) and
    rescaled to the edge budget; items are attached proportionally to a
    power-law popularity. Isolated nodes are repaired by attaching them
    to one random counterpart, so every node ends with degree >= 1.
    """
    if target_edges is None:
        target_edges = max(n_users, n_items) * 3
    raw = rng.pareto(exponent - 1.0, n_users) + 1.0
    degrees = np.maximum(1, np.round(raw * target_edges / raw.sum()).astype(int))
    degrees = np.minimum(degrees, n_items)
    popularity = rng.pareto(exponent - 1.0, n_items) + 1.0
    popularity /= popularity.sum()
    rows, cols = [], []
    for u in range(n_users):
        picked = rng.choice(n_items, size=degrees[u], replace=False, p=popularity)
        rows.append(np.full(len(picked), u))
        cols.append(picked)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    R = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_users, n_items))
    R.sum_duplicates()
    R.data[:] = 1.0
    item_deg = np.asarray(R.sum(axis=0)).ravel()
    isolated = np.where(item_deg == 0)[0]
    if len(isolated):
        patch = sp.csr_matrix(
            (np.ones(len(isolated)), (rng.integers(0, n_users, len(isolated)), isolated)),
            shape=R.shape,
        )
        R = R + patch
        R.data[:] = 1.0
    return R.tocsr()


def _random_normalized(rng, n_users, n_items, alpha=0.0, epsilon=-0.5, target_edges=None):
    R = random_bipartite_graph(rng, n_users, n_items, target_edges)
    graph = graph_from_matrix(R)
    return graph, g2n_normalize(graph, G2NConfig(alpha=alpha, epsilon=epsilon))


def _split_sizes(rng, total: int) -> tuple[int, int]:
    n_users = int(rng.integers(2, total - 1))
    return n_users, total - n_users


def check_spectral_symmetry(
    trials: int = 50, size_range: tuple[int, int] = (10, 60), seed: int = 0
) -> TheoryReport:
    """Eigenvalues of the block adjacency pair up as +/- singular values,
    and flipping the item half of any eigenvector mirrors its eigenvalue."""
    rng = np.random.default_rng(seed)
    max_err = 0.0
    for trial in range(trials):
        total = int(rng.integers(size_range[0], size_range[1] + 1))
        n_users, n_items = _split_sizes(rng, total)
        if trial % 5 == 4:
            # disconnected union of two graphs: block-diagonal pattern
            half_u, half_i = max(2, n_users // 2), max(2, n_items // 2)
            R = sp.block_diag(
                [
                    random_bipartite_graph(rng, half_u, half_i),
                    random_bipartite_graph(rng, max(2, n_users - half_u), max(2, n_items - half_i)),
                ]
            ).tocsr()
            graph = graph_from_matrix(R)
            norm = g2n_normalize(graph, G2NConfig())
        else:
            graph, norm = _random_normalized(rng, n_users, n_items)
        A = assemble_adjacency(norm)
        n = A.shape[0]
        eigenvalues, eigenvectors = np.linalg.eigh(A)
        m = norm.shape[0]
        sv = np.linalg.svd(norm.values.toarray(), compute_uv=False)
        expected = np.concatenate([np.sort(sv)[::-1], np.zeros(n - 2 * len(sv)), -np.sort(sv)])
        max_err = max(max_err, np.abs(np.sort(eigenvalues)[::-1] - expected).max())
        # mirror of every computed eigenvector is an eigenvector of the
        # negated eigenvalue
        mirrored = eigenvectors.copy()
        mirrored[m:] *= -1.0
        max_err = max(max_err, np.abs(A @ mirrored + eigenvalues[None, :] * mirrored).max())
        # SVD triplets stacked as [p; q]/sqrt(2) are eigenvectors
        spec = dense_svd(norm)
        stacked = np.vstack([spec.P, spec.Q]) / np.sqrt(2.0)
        max_err = max(max_err, np.abs(A @ stacked - spec.sigma[None, :] * stacked).max())
    return _report("spectral_symmetry", trials, max_err, SYMMETRY_TOL, seed=seed)


def _rating_from_eigenvectors(V_slice: np.ndarray, n_users: int) -> np.ndarray:
    """User-item rating block of V V^T, rescaled by 2 so a complete
    positive-frequency band equals P Q^T of the underlying SVD (unit
    eigenvectors carry a 1/2 from the [p; q]/sqrt(2) stacking)."""
    projector = V_slice @ V_slice.T
    return 2.0 * projector[:n_users, n_users:]


def check_rating_symmetry(trials: int = 20, ks_per_trial: int = 3, seed: int = 0) -> TheoryReport:
    """Ratings from the top-K band equal ratings from the complementary
    top-(n-K) construction. K values are aligned to spectral gaps so the
    band boundary never cuts through a degenerate eigenspace, where the
    projector basis (and hence either side in isolation) is arbitrary."""
    rng = np.random.default_rng(seed)
    max_err = 0.0
    instances = 0
    for _ in range(trials):
        total = int(rng.integers(8, 40))
        n_users, n_items = _split_sizes(rng, total)
        graph, norm = _random_normalized(rng, n_users, n_items)
        A = assemble_adjacency(norm)
        n = A.shape[0]
        eigenvalues, V = np.linalg.eigh(A)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues, V = eigenvalues[order], V[:, order]
        positive = int((eigenvalues > 1e-10).sum())
        gaps = np.where(np.diff(eigenvalues[: positive + 1]) < -1e-6)[0] + 1
        candidates = [int(K) for K in gaps if 1 <= K <= positive]
        if not candidates:
            continue
        chosen = rng.choice(candidates, size=min(ks_per_trial, len(candidates)), replace=False)
        for K in chosen:
            r_low = _rating_from_eigenvectors(V[:, :K], n_users)
            r_high = _rating_from_eigenvectors(V[:, : n - K], n_users)
            max_err = max(max_err, np.abs(r_low - r_high).max())
            instances += 1
    return _report("rating_symmetry", instances, max_err, RATING_TOL, seed=seed)


def check_approx_sharpness(trials: int = 30, seed: int = 0) -> TheoryReport:
    """A spectrum whose normalized ratio to a reference is non-increasing
    with a strict drop after K captures strictly more energy at K."""
    rng = np.random.default_rng(seed)
    worst_margin = np.inf
    checked = 0
    hypothesis_holds_on_g2n = 0
    for _ in range(trials):
        length = int(rng.integers(4, 30))
        base = np.sort(rng.uniform(0.05, 1.0, size=length))[::-1]
        base[0] = 1.0
        K = int(rng.integers(1, length))
        # non-increasing ratios with a strict drop after position K
        head = np.sort(rng.uniform(0.8, 1.0, size=K))[::-1]
        head[0] = 1.0
        drop = rng.uniform(0.3, 0.9)
        tail = np.sort(rng.uniform(0.05, head[-1] * drop, size=length - K))[::-1]
        ratio = np.concatenate([head, tail])
        sharp = base * ratio
        appro_sharp = np.square(sharp[:K]).sum() / np.square(sharp).sum()
        appro_base = np.square(base[:K]).sum() / np.square(base).sum()
        worst_margin = min(worst_margin, appro_sharp - appro_base)
        checked += 1
    # empirical instance: renormalization of a real small graph; assert only
    # when the theorem's hypothesis actually holds there
    graph, norm0 = _random_normalized(rng, 20, 15)
    norm8 = g2n_normalize(graph, G2NConfig(alpha=8.0, epsilon=-0.5))
    spec0, spec8 = dense_svd(norm0), dense_svd(norm8)
    L = min(len(spec0), len(spec8))
    curve = ratio_curve(spec8.truncate(L), spec0.truncate(L))
    g2n_margin = None
    if np.all(np.diff(curve) <= 1e-12):
        strict_drops = np.where(np.diff(curve) < -1e-9)[0] + 1
        for K in strict_drops:
            a8 = appro_measure(spec8, int(K), float(np.square(spec8.sigma).sum()))
            a0 = appro_measure(spec0, int(K), float(np.square(spec0.sigma).sum()))
            g2n_margin = a8 - a0
            hypothesis_holds_on_g2n = 1
            worst_margin = min(worst_margin, g2n_margin)
    max_err = max(0.0, -worst_margin) if checked else np.inf
    return _report(
        "approx_sharpness",
        checked + hypothesis_holds_on_g2n,
        max_err,
        0.0,
        seed=seed,
        smallest_margin=float(worst_margin),
        g2n_instance_checked=bool(hypothesis_holds_on_g2n),
        g2n_margin=None if g2n_margin is None else float(g2n_margin),
    )


def check_eigenvalue_bounds(
    trials: int = 20,
    alpha_grid=(0.0, 1.0, 4.0, 16.0),
    epsilon_grid=(-0.5, -0.3, -0.1, 0.0),
    seed: int = 0,
) -> TheoryReport:
    """d_min (d_min+a)^(2e) s_k <= s~_k <= d_max (d_max+a)^(2e) s_k for
    every k, against the baseline (alpha=0, epsilon=-0.5) spectrum."""
    rng = np.random.default_rng(seed)
    max_violation = 0.0
    instances = 0
    for _ in range(trials):
        total = int(rng.integers(10, 50))
        n_users, n_items = _split_sizes(rng, total)
        graph, base_norm = _random_normalized(rng, n_users, n_items)
        sigma_base = np.linalg.svd(base_norm.values.toarray(), compute_uv=False)
        rank = int((sigma_base > 1e-12 * sigma_base[0]).sum())
        degrees = np.concatenate([graph.user_degrees, graph.item_degrees])
        d_min, d_max = float(degrees.min()), float(degrees.max())
        for alpha in alpha_grid:
            for epsilon in epsilon_grid:
                tilted = g2n_normalize(graph, G2NConfig(alpha=alpha, epsilon=epsilon))
                sigma = np.linalg.svd(tilted.values.toarray(), compute_uv=False)
                lo = d_min * (d_min + alpha) ** (2 * epsilon) * sigma_base[:rank]
                hi = d_max * (d_max + alpha) ** (2 * epsilon) * sigma_base[:rank]
                upper = (sigma[:rank] - hi * (1 + BOUNDS_REL_SLACK)) / hi
                lower = (lo * (1 - BOUNDS_REL_SLACK) - sigma[:rank]) / lo
                max_violation = max(max_violation, float(upper.max()), float(lower.max()))
                instances += 1
    return _report("eigenvalue_bounds", instances, max(0.0, max_violation), 0.0, seed=seed)


@dataclass(frozen=True)
class LgcnFitInstance:
    """One constructive-fit problem: random adjacency spectrum with
    distinct eigenvalues, random initial embeddings, random target."""

    n: int
    d: int
    eigenvalues: np.ndarray
    V: np.ndarray
    E: np.ndarray
    O_target: np.ndarray
    B: np.ndarray
    min_gap: float


def sample_lgcn_instance(rng: np.random.Generator, max_half: int = 8, d: int | None = None) -> LgcnFitInstance:
    """Rejection-sample an instance whose adjacency has distinct
    eigenvalues (at most one zero requires |U| and |I| within 1 of each
    other and full rank) and whose spectral gap is workable.

    Sizes stay at n <= 17: the monomial Vandermonde beyond that is
    numerically singular in double precision, which would test the
    floating point rather than the construction.
    """
    while True:
        m = int(rng.integers(4, max_half + 1))
        n_items = m + int(rng.integers(0, 2))
        R = (rng.random((m, n_items)) < 0.5).astype(np.float64)
        du, di = R.sum(axis=1), R.sum(axis=0)
        if (du == 0).any() or (di == 0).any():
            continue
        Rhat = R / np.sqrt(du)[:, None] / np.sqrt(di)[None, :]
        n = m + n_items
        A = np.zeros((n, n))
        A[:m, m:] = Rhat
        A[m:, :m] = Rhat.T
        eigenvalues, V = np.linalg.eigh(A)
        min_gap = float(np.diff(np.sort(eigenvalues)).min())
        if min_gap < 1e-3:
            continue
        dim = int(rng.integers(1, 5)) if d is None else d
        for _ in range(16):
            E = rng.standard_normal((n, dim))
            if np.abs(V.T @ E).min() >= 1e-2:
                break
        else:
            continue
        O_target = rng.standard_normal((n, dim))
        B = eigenvalues[:, None] ** np.arange(n)[None, :]
        return LgcnFitInstance(
            n=n, d=dim, eigenvalues=eigenvalues, V=V, E=E, O_target=O_target, B=B, min_gap=min_gap
        )


def _solve_refined(B: np.ndarray, target: np.ndarray, refinements: int = 3) -> np.ndarray:
    """Vandermonde solve in extended precision with iterative refinement.

    The solution is returned in extended precision so evaluating B @ Theta
    does not reintroduce the cancellation the refinement removed.
    """
    B_ld = B.astype(np.longdouble)
    t_ld = target.astype(np.longdouble)
    theta = np.linalg.solve(B, target).astype(np.longdouble)
    for _ in range(refinements):
        residual = t_ld - B_ld @ theta
        theta = theta + np.linalg.solve(B, residual.astype(np.float64)).astype(np.longdouble)
    return theta


def check_lgcn_expressiveness(instances: int = 20, seed: int = 0) -> TheoryReport:
    """Per-dimension filters reproduce arbitrary targets; one shared
    filter cannot (least-squares residual stays macroscopic)."""
    rng = np.random.default_rng(seed)
    max_recon = 0.0
    shared_failures = 0
    shared_total = 0
    min_gap = np.inf
    for _ in range(instances):
        inst = sample_lgcn_instance(rng, d=int(rng.integers(2, 5)))
        min_gap = min(min_gap, inst.min_gap)
        VE = inst.V.T @ inst.E
        VO = inst.V.T @ inst.O_target
        target = VO / VE
        theta = _solve_refined(inst.B, target)
        filter_values = (inst.B.astype(np.longdouble) @ theta).astype(np.float64)
        reconstructed = inst.V @ (filter_values * VE)
        max_recon = max(max_recon, float(np.abs(reconstructed - inst.O_target).max()))
        # shared filter: the optimal single response y_k per frequency is a
        # 1-d least squares across dimensions; residual stays large for d >= 2
        y = (VE * VO).sum(axis=1) / (VE * VE).sum(axis=1)
        shared = inst.V @ (y[:, None] * VE)
        residual = float(np.abs(shared - inst.O_target).max())
        shared_total += 1
        if residual > SHARED_RESIDUAL_FLOOR:
            shared_failures += 1
    shared_rate = shared_failures / shared_total if shared_total else 0.0
    # fold the negative claim into the error so passed tracks max_abs_error
    err = max_recon if shared_rate >= SHARED_FAIL_RATE else max(max_recon, 2 * LGCN_TOL)
    return _report(
        "lgcn_expressiveness",
        instances,
        err,
        LGCN_TOL,
        seed=seed,
        max_reconstruction_error=float(max_recon),
        shared_filter_failure_rate=float(shared_rate),
        min_spectral_gap=float(min_gap),
    )


def check_sgf_svd_equivalence(L: int = 6, trials: int = 20, seed: int = 0) -> TheoryReport:
    """Sum of adjacency powers vs. the SVD closed form.

    Two identities are verified per graph: the user-item block of
    sum_l A^l equals P diag(omega) Q^T (odd powers only), and the rating
    prediction O_U O_I^T equals 2 P diag(psi * omega) Q^T, where psi and
    omega collect the even and odd power sums of the singular values.
    """
    rng = np.random.default_rng(seed)
    max_err = 0.0
    for _ in range(trials):
        total = int(rng.integers(8, 40))
        n_users, n_items = _split_sizes(rng, total)
        graph, norm = _random_normalized(rng, n_users, n_items)
        A_sparse = sp.csr_matrix(assemble_adjacency(norm))
        n = A_sparse.shape[0]
        accumulated = np.eye(n)
        power = sp.identity(n, format="csr")
        for _ in range(L):
            power = (power @ A_sparse).tocsr()
            accumulated = accumulated + power.toarray()
        spec = dense_svd(norm)
        sigma = spec.sigma
        even = range(0, L + 1, 2)
        odd = range(1, L + 1, 2)
        psi = sum((sigma**l for l in even), start=np.zeros_like(sigma))
        omega = sum((sigma**l for l in odd), start=np.zeros_like(sigma))
        block = accumulated[:n_users, n_users:]
        block_svd = spec.P @ np.diag(omega) @ spec.Q.T
        max_err = max(max_err, float(np.abs(block - block_svd).max()))
        prediction = accumulated[:n_users] @ accumulated[n_users:].T
        prediction_svd = 2.0 * spec.P @ np.diag(psi * omega) @ spec.Q.T
        max_err = max(max_err, float(np.abs(prediction - prediction_svd).max()))
    return _report("sgf_svd_equivalence", trials, max_err, SGF_TOL, seed=seed, L=L)


def run_all_checks(seed: int = 0) -> list[TheoryReport]:
    return [
        check_spectral_symmetry(seed=seed),
        check_rating_symmetry(seed=seed),
        check_approx_sharpness(seed=seed),
        check_eigenvalue_bounds(seed=seed),
        check_lgcn_expressiveness(seed=seed),
        check_sgf_svd_equivalence(seed=seed),
    ]
