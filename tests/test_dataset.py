import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sgfcf import SplitConfig, ingest, split
from sgfcf.cli import run_command
from sgfcf.dataset import dataset_from_pairs
from sgfcf.errors import ConfigError, DegenerateSplit, MalformedLine, MissingFile

from oracles import ingest_loop, split_loop


class TestIngest:
    def test_dedup_keeps_first(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("u1 i1\nu1 i1\nu2 i1\n")
        log = ingest(str(path))
        assert len(log) == 2
        assert log.duplicates_dropped == 1
        assert log.pairs.tolist() == [[0, 0], [1, 0]]
        assert log.id_maps.user_index == {"u1": 0, "u2": 1}
        assert log.id_maps.item_index == {"i1": 0}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        log = ingest(str(path))
        assert len(log) == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            ingest(str(tmp_path / "nope.tsv"))

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1 i1\nlonely\n")
        with pytest.raises(MalformedLine) as exc:
            ingest(str(path))
        assert exc.value.line_no == 2

    def test_extra_fields_ignored(self, tmp_path):
        path = tmp_path / "extra.tsv"
        path.write_text("u1 i1 1234567 x\nu2 i2 999\n")
        log = ingest(str(path))
        assert log.pairs.tolist() == [[0, 0], [1, 1]]
        assert log.id_maps.user_index == {"u1": 0, "u2": 1}
        assert log.id_maps.item_index == {"i1": 0, "i2": 1}

    def test_csv_format(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("u1,i1\nu2,i2\n")
        log = ingest(str(path), "csv_pairs")
        assert log.pairs.tolist() == [[0, 0], [1, 1]]
        assert log.id_maps.user_index == {"u1": 0, "u2": 1}
        assert log.id_maps.item_index == {"i1": 0, "i2": 1}

    def test_empty_token_rejected(self, tmp_path):
        path = tmp_path / "empty_tok.csv"
        path.write_text("u1,\n")
        with pytest.raises(MalformedLine):
            ingest(str(path), "csv_pairs")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.tsv"
        path.write_text("u1 i1\n\n\nu2 i2\n")
        assert len(ingest(str(path))) == 2


class TestIdMaps:
    def test_dense_first_appearance(self, tiny_log_file):
        maps = ingest(tiny_log_file).id_maps
        assert maps.user_index == {"u1": 0, "u2": 1, "u3": 2}
        assert maps.item_index == {"i1": 0, "i2": 1, "i3": 2}

    def test_pairs_are_records_in_ids(self, tmp_path):
        path = tmp_path / "ids.tsv"
        path.write_text("b x\na y\nb x\nc x\na z\nb y\n")
        log = ingest(str(path))
        maps = log.id_maps
        assert log.pairs.dtype == np.int64
        # the first copy of each pair, in file order: b x, a y, c x, a z, b y
        assert log.pairs.tolist() == [[0, 0], [1, 1], [2, 0], [1, 2], [0, 1]]
        assert maps.user_index == {"b": 0, "a": 1, "c": 2}
        assert maps.item_index == {"x": 0, "y": 1, "z": 2}


class TestSplit:
    def test_exact_ratio_single_user(self, tmp_path):
        path = tmp_path / "one_user.tsv"
        path.write_text("".join(f"u1 i{j}\n" for j in range(10)))
        dataset = split(ingest(str(path)), SplitConfig(train_ratio=0.8, val_ratio=0.0, seed=7))
        assert len(dataset.train) == 8
        assert len(dataset.val) == 0
        assert len(dataset.test) == 2

    def test_determinism(self, tiny_log_file):
        log = ingest(tiny_log_file)
        cfg = SplitConfig(train_ratio=0.5, val_ratio=0.0, seed=123)
        a, b = split(log, cfg), split(log, cfg)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test, b.test)

    def test_seed_changes_split(self, tmp_path):
        path = tmp_path / "many.tsv"
        rng = np.random.default_rng(0)
        lines = {f"u{u} i{rng.integers(0, 50)}" for u in range(20) for _ in range(12)}
        path.write_text("\n".join(sorted(lines)) + "\n")
        log = ingest(str(path))
        a = split(log, SplitConfig(train_ratio=0.6, seed=1))
        b = split(log, SplitConfig(train_ratio=0.6, seed=2))
        assert not np.array_equal(a.train, b.train)

    def test_partition_property(self, tmp_path):
        path = tmp_path / "part.tsv"
        tokens = [(f"u{u}", f"i{(u * 5 + j) % 11}") for u in range(6) for j in range(8)]
        path.write_text("".join(f"{u} {i}\n" for u, i in tokens))
        log = ingest(str(path))
        dataset = split(log, SplitConfig(train_ratio=0.5, val_ratio=0.25, seed=3))
        parts = [set(map(tuple, arr.tolist())) for arr in (dataset.train, dataset.val, dataset.test)]
        assert sum(len(p) for p in parts) == len(log)
        assert parts[0] | parts[1] | parts[2] == {
            (dataset.id_maps.user_index[u], dataset.id_maps.item_index[i]) for u, i in tokens
        }
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    def test_single_interaction_user_goes_to_train(self, tmp_path):
        path = tmp_path / "singleton.tsv"
        path.write_text("u1 i1\nu2 i1\nu2 i2\nu2 i3\nu2 i4\n")
        dataset = split(ingest(str(path)), SplitConfig(train_ratio=0.2, val_ratio=0.0, seed=0))
        train_users = set(dataset.train[:, 0].tolist())
        assert dataset.id_maps.user_index["u1"] in train_users
        u1 = dataset.id_maps.user_index["u1"]
        assert not any(dataset.test[:, 0] == u1)

    def test_ratio_tolerance_on_synthetic(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "synth.tsv"
        pairs = {(f"u{u}", f"i{rng.integers(0, 400)}") for u in range(150) for _ in range(rng.integers(2, 40))}
        path.write_text("".join(f"{u} {i}\n" for u, i in sorted(pairs)))
        log = ingest(str(path))
        dataset = split(log, SplitConfig(train_ratio=0.8, val_ratio=0.05, seed=42))
        # per-user rounding keeps the global train share within +-0.5%
        assert abs(len(dataset.train) / len(log) - 0.8) < 0.005

    def test_global_strategy(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("".join(f"u{j % 7} i{j}\n" for j in range(100)))
        log = ingest(str(path))
        dataset = split(log, SplitConfig(train_ratio=0.8, val_ratio=0.1, seed=5, strategy="global"))
        assert len(dataset.train) == 80
        assert len(dataset.val) == 10
        assert len(dataset.test) == 10

    def test_degenerate_split_raises(self, tmp_path):
        # one interaction per user: nothing can reach the test split
        path = tmp_path / "deg.tsv"
        path.write_text("u1 i1\nu2 i2\n")
        with pytest.raises(DegenerateSplit):
            split(ingest(str(path)), SplitConfig(train_ratio=0.8, val_ratio=0.0, seed=0))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            SplitConfig(train_ratio=0.0)
        with pytest.raises(ConfigError):
            SplitConfig(train_ratio=0.9, val_ratio=0.2)

    @pytest.mark.parametrize("seed", [2.5, True, "3"])
    def test_non_integer_seed_rejected(self, seed):
        # 2.5 built and failed in numpy at split time, True split as seed 1,
        # and "3" raised a TypeError
        with pytest.raises(ConfigError, match="seed must be an integer"):
            SplitConfig(train_ratio=0.8, seed=seed)

    def test_id_density(self, tiny_log_file):
        dataset = split(ingest(tiny_log_file), SplitConfig(train_ratio=0.5, seed=1))
        stacked = np.vstack([dataset.train, dataset.val, dataset.test])
        assert stacked[:, 0].max() == dataset.n_users - 1
        assert stacked[:, 1].max() == dataset.n_items - 1


@settings(max_examples=30, deadline=None)
@given(
    pairs=st.sets(
        st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=4, max_size=60
    ),
    ratio=st.floats(0.2, 0.8),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_partition_invariants(tmp_path_factory, pairs, ratio, seed):
    tokens = [(f"u{u}", f"i{i}") for u, i in sorted(pairs)]
    path = tmp_path_factory.mktemp("prop") / "log.tsv"
    path.write_text("".join(f"{u} {i}\n" for u, i in tokens))
    log = ingest(str(path))
    try:
        dataset = split(log, SplitConfig(train_ratio=ratio, val_ratio=0.1, seed=seed))
    except DegenerateSplit:
        return
    all_pairs = np.vstack([dataset.train, dataset.val, dataset.test])
    assert len(all_pairs) == len(log)
    assert len({tuple(p) for p in all_pairs.tolist()}) == len(log)
    # every user with >= 2 interactions keeps at least one train interaction
    train_users = set(dataset.train[:, 0].tolist())
    assert set(all_pairs[:, 0].tolist()) == train_users


@settings(max_examples=40, deadline=None)
@given(
    lines=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 15)), min_size=1, max_size=80),
    # ratios that make x.5 products, where half-up rounding differs from round()
    train_ratio=st.one_of(st.sampled_from([0.25, 0.5]), st.floats(0.1, 0.7)),
    val_ratio=st.sampled_from([0.0, 0.1, 0.25]),
    seed=st.integers(0, 2**32 - 1),
    strategy=st.sampled_from(["per_user", "global"]),
)
@example(  # users with 10 and 5 pairs: 0.5 * 5 and 0.25 * 10 land on .5
    lines=[(0, i) for i in range(10)] + [(1, i) for i in range(5)],
    train_ratio=0.5, val_ratio=0.25, seed=1, strategy="per_user",
)
def test_split_matches_loop_reference(tmp_path_factory, lines, train_ratio, val_ratio, seed, strategy):
    # duplicate lines included on purpose: they are dropped before ids matter
    path = tmp_path_factory.mktemp("ref") / "log.tsv"
    path.write_text("".join(f"u{u} i{i}\n" for u, i in lines))
    log = ingest(str(path))
    cfg = SplitConfig(train_ratio=train_ratio, val_ratio=val_ratio, seed=seed, strategy=strategy)
    try:
        dataset = split(log, cfg)
    except DegenerateSplit:
        return
    records = list(dict.fromkeys((f"u{u}", f"i{i}") for u, i in lines))  # first copy kept
    want = split_loop(records, train_ratio, val_ratio, seed, strategy)
    for got, expected in zip((dataset.train, dataset.val, dataset.test), want):
        assert got.dtype == expected.dtype
        assert got.reshape(-1, 2).tolist() == expected.reshape(-1, 2).tolist()


TOKENS = st.text("ab1", min_size=1, max_size=2)


@settings(max_examples=60, deadline=None)
@given(
    # a line is blank, or a user, an item and extra fields such as a timestamp
    lines=st.lists(
        st.one_of(
            st.sampled_from(["", "  ", "\t"]),
            st.tuples(TOKENS, TOKENS, st.lists(st.sampled_from(["7", "x", "1.5"]), max_size=2)),
        ),
        max_size=60,
    ),
    csv=st.booleans(),
    pad=st.sampled_from(["", " ", "\t"]),
)
def test_ingest_matches_per_line_reference(tmp_path_factory, lines, csv, pad):
    sep = pad + ("," if csv else " ") + pad
    text = "".join(
        (line if isinstance(line, str) else sep.join([line[0], line[1], *line[2]])) + "\n" for line in lines
    )
    path = tmp_path_factory.mktemp("ingest") / "log.txt"
    path.write_text(text)
    log = ingest(str(path), "csv_pairs" if csv else "tsv_pairs")
    pairs, user_index, item_index, dropped = ingest_loop(text, "," if csv else None)
    assert log.pairs.dtype == np.int64
    assert log.pairs.reshape(-1, 2).tolist() == pairs.tolist()
    assert log.id_maps.user_index == user_index
    assert log.id_maps.item_index == item_index
    assert log.duplicates_dropped == dropped
    assert len(log) == len(pairs)


class TestManifest:
    def test_manifest_schema(self, data_file, tmp_path):
        out = tmp_path / "runs"
        argv = ["split", "--data", data_file, "--x", "0.7", "--val", "0.1", "--seed", "3", "--out", str(out)]
        assert run_command(argv) == 0
        (run_dir,) = out.iterdir()
        payload = json.loads((run_dir / "split.json").read_text())
        assert set(payload) == {"users", "items", "train", "val", "test", "seed"}
        assert payload["seed"] == 3
        dataset = split(ingest(data_file), SplitConfig(train_ratio=0.7, val_ratio=0.1, seed=3))
        assert (payload["users"], payload["items"]) == (dataset.n_users, dataset.n_items)
        for part in ("train", "val", "test"):
            assert payload[part] == getattr(dataset, part).tolist()


def test_dataset_from_pairs_counts():
    dataset = dataset_from_pairs([(0, 0), (1, 1)], test=[(0, 1)])
    assert (dataset.n_users, dataset.n_items, len(dataset.train), len(dataset.test)) == (2, 2, 2, 1)


class TestDatasetFromPairs:
    @pytest.mark.parametrize(
        "train",
        [
            [(0, 1.5)],  # became item 1
            [(0, 1, 2)],  # a reshape ValueError
            [(0, 1), (0, 1, 2)],
            [("0", "1")],
        ],
    )
    def test_pairs_not_two_integer_columns_raise(self, train):
        with pytest.raises(ConfigError, match="pairs of integers"):
            dataset_from_pairs(train, n_users=3, n_items=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train": [(0, 2)], "n_items": 2},
            {"train": [(2, 0)], "n_users": 2},
            {"train": [(0, 0)], "test": [(0, 5)], "n_items": 3},
            {"train": [(-1, 0)]},
            {"train": [(0, 0)], "val": [(0, -1)]},
        ],
    )
    def test_ids_outside_the_size_raise(self, kwargs):
        # each passed until fit or evaluate raised scipy's ValueError
        with pytest.raises(ConfigError, match="ids must lie in"):
            dataset_from_pairs(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_users": 2.5}, "n_users must be an integer"),  # a TypeError from range
            ({"n_items": 3.0}, "n_items must be an integer"),
            ({"n_users": True}, "n_users must be an integer"),
            ({"n_users": -3, "train": []}, "n_users must be >= 0"),  # built 0 users
            ({"n_items": -1, "train": []}, "n_items must be >= 0"),
        ],
    )
    def test_sizes_not_non_negative_integers_raise(self, kwargs, message):
        kwargs = {"train": [(0, 0)], "n_users": 3, "n_items": 3} | kwargs
        with pytest.raises(ConfigError, match=message):
            dataset_from_pairs(**kwargs)

    @pytest.mark.parametrize("kwargs", [{}, {"n_users": 2}, {"n_items": 2}])
    def test_no_pairs_to_infer_a_size_raise(self, kwargs):
        with pytest.raises(ConfigError, match="no pairs to infer"):
            dataset_from_pairs([], **kwargs)

    def test_given_sizes_and_empty_splits_stay_valid(self):
        dataset = dataset_from_pairs(np.array([[0, 1]], dtype=np.int32), n_users=3, n_items=4)
        assert dataset.train.dtype == np.int64
        assert dataset.train.tolist() == [[0, 1]]
        assert dataset.val.shape == dataset.test.shape == (0, 2)
        assert (dataset.n_users, dataset.n_items) == (3, 4)
        assert len(dataset_from_pairs([], n_users=2, n_items=2).train) == 0
