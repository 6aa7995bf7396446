import numpy as np
import pytest
import scipy.sparse as sp

from sgfcf import dataset_from_pairs, graph_from_matrix


@pytest.fixture
def tiny_log_file(tmp_path):
    """Whitespace-delimited interaction file with one duplicate line."""
    path = tmp_path / "tiny.tsv"
    path.write_text("u1 i1\nu1 i1\nu2 i1\nu1 i2\nu2 i2\nu3 i3\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(0)
    lines = set()
    for u in range(30):
        for _ in range(rng.integers(4, 14)):
            lines.add(f"user{u}\titem{rng.integers(0, 40)}")
    path = tmp_path / "interactions.tsv"
    path.write_text("\n".join(sorted(lines)) + "\n")
    return str(path)


@pytest.fixture
def toy_dataset():
    """3 users x 3 items with one held-out test interaction per user."""
    return dataset_from_pairs(
        train=[(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)],
        test=[(0, 2), (1, 1), (2, 0)],
    )


def random_graph(rng, n_users, n_items, density=0.25):
    """Uniform random 0/1 matrix with every row and column non-empty."""
    while True:
        R = sp.csr_matrix((rng.random((n_users, n_items)) < density).astype(np.float64))
        if R.nnz == 0:
            continue
        du = np.asarray(R.sum(axis=1)).ravel()
        di = np.asarray(R.sum(axis=0)).ravel()
        if (du > 0).all() and (di > 0).all():
            return graph_from_matrix(R)
