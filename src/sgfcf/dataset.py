"""Interaction log ingestion, ID assignment, and train/val/test splitting.

Input files are plain text with one interaction per line
(``<user_token> <item_token> [ignored...]``, whitespace- or
comma-delimited). Tokens are mapped to dense zero-based integer ids in
order of first appearance, and splits are reproducible given a seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateSplit, MalformedLine, MissingFile, check_integer, check_real

FORMATS = ("tsv_pairs", "csv_pairs")
STRATEGIES = ("per_user", "global")


@dataclass(frozen=True, eq=False)
class InteractionLog:
    """Deduplicated interactions in file order as an (n, 2) array of
    (user_id, item_id), the dense ids assigned to their tokens, and the
    number of later copies of a pair that were dropped."""

    id_maps: IdMaps
    pairs: np.ndarray = field(repr=False)
    duplicates_dropped: int = 0

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class IdMaps:
    """Dense zero-based bijections between tokens and integer ids."""

    user_index: dict[str, int]
    item_index: dict[str, int]

    @property
    def n_users(self) -> int:
        return len(self.user_index)

    @property
    def n_items(self) -> int:
        return len(self.item_index)


@dataclass(frozen=True)
class SplitConfig:
    """Ratio-based split parameters. Remaining fraction after train and
    validation goes to test."""

    train_ratio: float
    val_ratio: float = 0.0
    seed: int = 0
    strategy: str = "per_user"

    def __post_init__(self):
        check_real("train_ratio", self.train_ratio)
        check_real("val_ratio", self.val_ratio)
        if not 0.0 < self.train_ratio < 1.0:
            raise ConfigError(f"train_ratio must be in (0,1), got {self.train_ratio}")
        if not 0.0 <= self.val_ratio < 1.0:
            raise ConfigError(f"val_ratio must be in [0,1), got {self.val_ratio}")
        if self.train_ratio + self.val_ratio >= 1.0:
            raise ConfigError(
                f"train_ratio + val_ratio must be < 1, got "
                f"{self.train_ratio} + {self.val_ratio}"
            )
        check_integer("seed", self.seed, lo=0)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown split strategy {self.strategy!r}")


@dataclass(frozen=True)
class InteractionDataset:
    """Disjoint train/val/test pair arrays plus the id maps that produced
    them. Arrays have shape (n, 2) with columns (user_id, item_id)."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    id_maps: IdMaps
    split_config: SplitConfig | None = field(default=None, compare=False)

    @property
    def n_users(self) -> int:
        return self.id_maps.n_users

    @property
    def n_items(self) -> int:
        return self.id_maps.n_items


def ingest(path: str, format: str = "tsv_pairs") -> InteractionLog:
    """Read an interaction file, dropping duplicate pairs (first kept).

    User and item tokens get dense zero-based ids in order of first
    appearance as they are read. Raises MissingFile if the path does not
    exist and MalformedLine for any non-empty line with fewer than two
    fields or an empty token. Fields beyond the first two (e.g.
    timestamps) are ignored.
    """
    if format not in FORMATS:
        raise ConfigError(f"unknown format {format!r}, expected one of {FORMATS}")
    if not os.path.isfile(path):
        raise MissingFile(f"no such file: {path}")
    sep = "," if format == "csv_pairs" else None
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    user_ids: list[int] = []
    item_ids: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(sep)
            if len(fields) < 2:
                raise MalformedLine(line_no, f"expected at least 2 fields, got {len(fields)}")
            user, item = fields[0].strip(), fields[1].strip()
            if not user or not item:
                raise MalformedLine(line_no, "empty user or item token")
            user_ids.append(user_index.setdefault(user, len(user_index)))
            item_ids.append(item_index.setdefault(item, len(item_index)))
    users, items = np.array(user_ids, dtype=np.int64), np.array(item_ids, dtype=np.int64)
    # A repeated pair's tokens already had ids, so only its later copies go.
    _, first = np.unique(users * len(item_index) + items, return_index=True)
    first.sort()
    return InteractionLog(
        id_maps=IdMaps(user_index=user_index, item_index=item_index),
        pairs=np.column_stack([users[first], items[first]]),
        duplicates_dropped=len(users) - len(first),
    )


def split(log: InteractionLog, cfg: SplitConfig) -> InteractionDataset:
    """Split a log into disjoint train/val/test pair sets.

    Pairs fall into groups, one per user under the default ``per_user``
    strategy and one of all pairs under ``global``. Each group of n pairs
    is shuffled, its first floor(train_ratio * n + 0.5) go to train (at
    least one), the next floor(val_ratio * n + 0.5) to validation, and
    the remainder to test: ratios round half up. Deterministic given
    cfg.seed.
    """
    if len(log) == 0:
        raise DegenerateSplit("cannot split an empty interaction log")
    pairs = log.pairs
    rng = np.random.default_rng(cfg.seed)
    groups = pairs[:, 0] if cfg.strategy == "per_user" else np.zeros(len(pairs), dtype=np.int64)
    order = np.argsort(groups, kind="stable")
    counts = np.bincount(groups)
    # first[j]: where the group block holding sorted pair j starts
    first = np.repeat(np.cumsum(counts) - counts, counts)
    # One permutation per group, drawn in group order from the one
    # stream; pair order[first + perm_g[j]] takes place j of group g.
    local = np.concatenate([rng.permutation(n) for n in counts.tolist()])
    rank = np.empty(len(pairs), dtype=np.int64)
    rank[order[first + local]] = np.arange(len(pairs)) - first
    n_train = np.clip(np.floor(cfg.train_ratio * counts + 0.5).astype(np.int64), 1, counts)
    n_val = np.minimum(np.floor(cfg.val_ratio * counts + 0.5).astype(np.int64), counts - n_train)
    n_train, n_val = n_train[groups], n_val[groups]

    dataset = InteractionDataset(
        train=pairs[rank < n_train],
        val=pairs[(rank >= n_train) & (rank < n_train + n_val)],
        test=pairs[rank >= n_train + n_val],
        id_maps=log.id_maps,
        split_config=cfg,
    )
    if cfg.val_ratio > 0 and len(dataset.val) == 0:
        raise DegenerateSplit("validation ratio > 0 but validation split is empty")
    if cfg.train_ratio + cfg.val_ratio < 1.0 and len(dataset.test) == 0:
        raise DegenerateSplit("test fraction > 0 but test split is empty")
    return dataset


def dataset_from_pairs(
    train,
    val=(),
    test=(),
    n_users: int | None = None,
    n_items: int | None = None,
) -> InteractionDataset:
    """Build a dataset directly from (user_id, item_id) integer pairs
    (testing and synthetic-data convenience; ids must already be dense).
    A size left out is the largest id given plus one. Raises ConfigError
    for a size given that is not an integer or is negative, pairs that
    are not two integer columns, an id outside its size, or no pairs to
    infer a size from."""
    for name, size in (("n_users", n_users), ("n_items", n_items)):
        if size is not None:
            check_integer(name, size, lo=0)

    def as_array(name, p):
        try:
            arr = np.asarray(list(p))
            valid = arr.size == 0 or (arr.ndim == 2 and arr.shape[1] == 2 and arr.dtype.kind in "iu")
        except ValueError:  # rows of different lengths
            valid = False
        if not valid:
            raise ConfigError(f"{name} must be (user, item) pairs of integers")
        return arr.astype(np.int64).reshape(-1, 2)

    train_a, val_a, test_a = as_array("train", train), as_array("val", val), as_array("test", test)
    stacked = np.vstack([train_a, val_a, test_a])
    if not len(stacked) and None in (n_users, n_items):
        raise ConfigError("no pairs to infer n_users or n_items from")
    if n_users is None:
        n_users = int(stacked[:, 0].max()) + 1
    if n_items is None:
        n_items = int(stacked[:, 1].max()) + 1
    if len(stacked) and (stacked.min() < 0 or stacked[:, 0].max() >= n_users or stacked[:, 1].max() >= n_items):
        raise ConfigError(f"user ids must lie in [0, {n_users}) and item ids in [0, {n_items})")
    id_maps = IdMaps(
        user_index={str(u): u for u in range(n_users)},
        item_index={str(i): i for i in range(n_items)},
    )
    return InteractionDataset(train=train_a, val=val_a, test=test_a, id_maps=id_maps)
