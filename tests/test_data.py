import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slatesim.data import (
    ClickRecord,
    DataFormatError,
    ItemCatalog,
    Trajectory,
    load_trajectories,
    read_meta,
    save_trajectories,
    split_users,
    synth_catalog,
)

from pools import push_columns


def make_catalog(d=3, K=4):
    return ItemCatalog([(i + 1, np.arange(d) + i) for i in range(K)], d=d)


class TestItemCatalog:
    def test_pseudo_item_injected(self):
        cat = make_catalog()
        assert 0 in cat
        assert np.all(cat.features(0) == 0.0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ItemCatalog([(1, [0.0]), (1, [1.0])], d=1)

    def test_inconsistent_dim_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            ItemCatalog([(1, [0.0, 1.0]), (2, [1.0])], d=2)

    def test_nonzero_pseudo_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            ItemCatalog([(0, [1.0, 0.0]), (1, [0.0, 1.0])], d=2)

    def test_feature_matrix_order(self):
        cat = make_catalog(d=2)
        mat = cat.feature_matrix([2, 1])
        assert np.array_equal(mat[0], cat.features(2))
        assert np.array_equal(mat[1], cat.features(1))

    def test_features_are_read_only(self):
        cat = make_catalog(d=2)
        row = cat.features(3)
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 99.0
        assert not cat.matrix.flags.writeable

    def test_feature_matrix_is_a_fresh_array(self):
        cat = make_catalog(d=2)
        before = cat.feature_matrix(cat.item_ids).copy()
        for ids in ([1, 2, 2], cat.item_ids):
            mat = cat.feature_matrix(ids)
            mat[:] = -7.0
        assert np.array_equal(cat.feature_matrix(cat.item_ids), before)
        assert np.array_equal(cat.features(2), [1.0, 2.0])
        assert cat.feature_matrix(np.array([2, 1])).tolist() == [[1.0, 2.0], [0.0, 1.0]]
        assert cat.feature_matrix([]).shape == (0, 2)

    @pytest.mark.parametrize("lookup", [lambda cat: cat.features(42),
                                        lambda cat: cat.feature_matrix([1, 42, 2]),
                                        lambda cat: cat.feature_matrix(np.array([42]))])
    def test_unknown_id_names_the_id(self, lookup):
        with pytest.raises(KeyError, match="unknown item id 42"):
            lookup(make_catalog())

    @staticmethod
    def _gappy(seed):
        rng = np.random.default_rng(seed)
        return rng, ItemCatalog([(i, rng.standard_normal(3)) for i in (-4, 2, 5, 6, 11, 40, 300)], d=3)

    @pytest.mark.parametrize("shape", [(7,), (4, 6), (9, 5)], ids=["n", "B-P", "N-m"])
    def test_array_lookup_equals_the_sequence_lookup(self, shape):
        # ids with gaps, one below the pseudo-item: the searchsorted path is bit for bit
        # the dict path, in the id array's shape
        rng, cat = self._gappy(sum(shape))
        query = rng.choice(cat.ids, size=shape)
        got = cat.feature_matrix(query)
        want = cat.feature_matrix(query.ravel().tolist()).reshape(shape + (3,))
        assert got.shape == shape + (3,) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("unknown", [-5, 3, 301, 10**12])
    def test_array_lookup_raises_the_sequence_lookups_key_error(self, unknown):
        # below, between and above the ids; the first unknown id in order is named
        _, cat = self._gappy(0)
        query = np.array([[2, 5, 40], [unknown, 6, 7]])
        with pytest.raises(KeyError) as sequence:
            cat.feature_matrix(query.ravel().tolist())
        with pytest.raises(KeyError, match=f"unknown item id {unknown}") as array:
            cat.feature_matrix(query)
        assert str(array.value) == str(sequence.value)

    def test_item_ids_ascending_without_pseudo_item(self):
        cat = ItemCatalog([(9, [1.0]), (3, [2.0]), (0, [0.0]), (5, [3.0])], d=1)
        assert cat.item_ids == (3, 5, 9)
        assert cat.ids == (0, 3, 5, 9)
        assert cat.matrix[:, 0].tolist() == [0.0, 2.0, 3.0, 1.0]
        assert len(cat) == 4 and 0 in cat and 4 not in cat


class TestClickRecord:
    def test_nonclick_always_allowed(self):
        rec = ClickRecord(step=1, displayed=(3, 5), chosen=0)
        assert not rec.clicked


class TestPushColumns:
    def test_fresh_push_zero_pads_left(self):
        hist = np.zeros((2, 3))
        f = np.array([1.0, 2.0])
        push_columns(hist, f)
        assert np.array_equal(hist[:, 0], [0, 0])
        assert np.array_equal(hist[:, 1], [0, 0])
        assert np.array_equal(hist[:, 2], f)

    def test_fifo_eviction(self):
        hist = np.zeros((1, 3))
        for x in (1.0, 2.0, 3.0, 4.0):
            push_columns(hist, [x])
        assert np.array_equal(hist[0], [2.0, 3.0, 4.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            push_columns(np.zeros((2, 2)), np.array([1.0, 2.0, 3.0]))

    def test_failed_push_leaves_the_history_unchanged(self):
        hist = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(ValueError):
            push_columns(hist, np.array([7.0, 8.0, 9.0]))
        assert hist.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    @given(
        m=st.integers(1, 6),
        d=st.integers(1, 4),
        pushes=st.lists(st.integers(1, 100), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_property(self, m, d, pushes):
        # column count stays m; contents are the last min(m, pushes) vectors,
        # right-aligned with zero padding on the left; a second row pushed in
        # the same (2, d, m) call holds the negated window
        hists = np.zeros((2, d, m))
        vecs = [np.full(d, float(x)) for x in pushes]
        for v in vecs:
            push_columns(hists, np.stack([v, -v]))
        assert hists.shape == (2, d, m)
        tail = vecs[-m:]
        pad = m - len(tail)
        for i in range(pad):
            assert np.all(hists[:, :, i] == 0.0)
        for i, v in enumerate(tail):
            assert np.array_equal(hists[0, :, pad + i], v)
            assert np.array_equal(hists[1, :, pad + i], -v)


class TestSplitUsers:
    def test_paper_proportions_eight_users(self):
        split = split_users(range(8), seed=0)
        assert (len(split.train), len(split.valid), len(split.test)) == (4, 1, 3)

    def test_deterministic(self):
        a = split_users(range(20), seed=3)
        b = split_users(range(20), seed=3)
        assert a == b

    def test_split_is_a_tuple_of_three_frozensets(self):
        train, valid, test = split_users(range(8), seed=0)
        assert all(type(users) is frozenset for users in (train, valid, test))
        assert not (train & valid or train & test or valid & test)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split_users([], seed=0)

    @given(n=st.integers(1, 60), seed=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, seed):
        users = set(range(n))
        split = split_users(users, seed=seed)
        assert split.train | split.valid | split.test == users
        assert len(split.train) + len(split.valid) + len(split.test) == n


class TestSynthCatalog:
    def test_counts_and_pseudo(self):
        cat = synth_catalog(10, 4, seed=0)
        assert len(cat) == 11
        assert np.all(cat.features(0) == 0.0)

    def test_deterministic(self):
        a = synth_catalog(5, 3, seed=9)
        b = synth_catalog(5, 3, seed=9)
        for i in a.item_ids:
            assert np.array_equal(a.features(i), b.features(i))

    def test_unit_norms(self):
        cat = synth_catalog(25, 6, seed=2)
        for i in cat.item_ids:
            assert abs(np.linalg.norm(cat.features(i)) - 1.0) <= 1e-9


class TestSerialization:
    def _sample(self):
        cat = make_catalog(d=3, K=4)
        trajs = [
            Trajectory(0, (
                ClickRecord(1, (1, 2), 2),
                ClickRecord(2, (3, 4), 0, reward=0.25),
            )),
            Trajectory(1, (ClickRecord(1, (2, 3), 3),)),
        ]
        return cat, trajs

    def test_round_trip(self, tmp_path):
        cat, trajs = self._sample()
        path = tmp_path / "data.txt"
        save_trajectories(cat, trajs, path, m=5)
        cat2, trajs2 = load_trajectories(path)
        assert cat2.d == cat.d
        assert sorted(cat2.item_ids) == sorted(cat.item_ids)
        assert len(trajs2) == len(trajs)
        for a, b in zip(sorted(trajs, key=lambda t: t.user_id),
                        sorted(trajs2, key=lambda t: t.user_id)):
            assert a.user_id == b.user_id
            for ra, rb in zip(a.records, b.records):
                assert (ra.step, ra.displayed, ra.chosen) == (rb.step, rb.displayed, rb.chosen)
                assert (ra.reward is None) == (rb.reward is None)

    def test_save_is_byte_deterministic(self, tmp_path):
        cat, trajs = self._sample()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_trajectories(cat, trajs, p1, m=5)
        save_trajectories(cat, trajs, p2, m=5)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_fixpoint(self, tmp_path):
        cat = synth_catalog(6, 4, seed=1)
        trajs = [Trajectory(7, (ClickRecord(1, (1, 2, 3), 2),))]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_trajectories(cat, trajs, p1, m=2)
        cat2, trajs2 = load_trajectories(p1)
        save_trajectories(cat2, trajs2, p2, m=2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_matches_golden_bytes(self, tmp_path):
        # written by the per-item-dict catalog; the dense matrix must not change a byte
        cat = synth_catalog(4, 3, seed=5)
        trajs = [Trajectory(3, (ClickRecord(1, (4, 1), 1, reward=0.125), ClickRecord(2, (2, 3), 0))),
                 Trajectory(0, (ClickRecord(1, (1, 2), 2),))]
        path = tmp_path / "data.txt"
        save_trajectories(cat, trajs, path, m=2)
        assert path.read_bytes() == (
            b"meta d=3 m=2 k=2\n"
            b"item 0 0 0 0\n"
            b"item 1 -0.511427511 -0.844602922 -0.158391307\n"
            b"item 2 0.345672599 0.93401024 0.0901960416\n"
            b"item 3 -0.453978999 -0.644667561 0.615066504\n"
            b"item 4 0.791310636 0.132032709 -0.596988141\n"
            b"rec 3 1 1 | 4 1 ; r=0.125\n"
            b"rec 3 2 0 | 2 3\n"
            b"rec 0 1 2 | 1 2\n"
        )

    def test_meta_header(self, tmp_path):
        cat, trajs = self._sample()
        path = tmp_path / "data.txt"
        save_trajectories(cat, trajs, path, m=7)
        assert read_meta(path) == (3, 7, 2)
        first = path.read_text().splitlines()[0]
        assert first == "meta d=3 m=7 k=2"

    def test_empty_trajectories_valid_file(self, tmp_path):
        cat, _ = self._sample()
        path = tmp_path / "data.txt"
        save_trajectories(cat, [], path)
        cat2, trajs2 = load_trajectories(path)
        assert trajs2 == []
        assert len(cat2) == len(cat)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        cat, trajs = load_trajectories(path)
        assert trajs == []
        assert cat.ids == (0,)

    def test_chosen_not_displayed_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("meta d=1 m=0 k=2\nitem 3 0.5\nitem 5 0.25\nrec 0 1 7 | 3 5\n")
        with pytest.raises(DataFormatError, match=r"line 4.*chosen not displayed"):
            load_trajectories(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("meta d=1 m=0 k=1\nitem x 0.5\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_trajectories(path)

    def test_dimension_mismatch_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("meta d=2 m=0 k=1\nitem 1 0.5\n")
        with pytest.raises(DataFormatError, match="inconsistent feature dimension"):
            load_trajectories(path)

    @pytest.mark.parametrize("body, message", [
        ("meta d=1 m=0 k=1\nitem 1 0.5\nrec 0 2 1 | 1\nrec 0 1 0 | 1\n",
         "line 3: trajectory for user 0 must start at step 1"),
        ("meta d=1 m=0 k=1\nitem 1 0.5\nrec 4 1 1 | 1\nrec 4 1 0 | 1\n",
         "line 4: steps not strictly increasing for user 4"),
        ("meta d=1 m=0 k=1\nitem 1 0.5\nitem 1 0.25\n", "duplicate item id 1"),
        ("meta d=1 m=0 k=1\nitem 0 0.5\n", "reserved"),
        # the catalog's own errors carry their line, and come before a later line's
        ("meta d=1 m=0 k=1\nitem 1 0.5\nitem 1 0.25\nrec 0 2 0 | 1\nrec 0 1 0 | 1\n",
         "line 3: duplicate item id 1"),
        ("meta d=1 m=0 k=1\nitem 0 0\nitem 0 0\n", "line 3: duplicate item id 0"),
        ("meta d=1 m=0 k=1\nitem 0 0.5\n",
         "line 2: item id 0 is reserved for the zero-feature non-click pseudo-item"),
        ("meta d=1 m=0 k=1\nitem 1 0.5\nitem 0 0.5\nrec 0 1 7 | 1\n",
         "line 3: item id 0 is reserved for the zero-feature non-click pseudo-item"),
        ("meta d=1 m=0\n", "line 1"),
        ("meta d=1 m=0 k=1\nitem x 0.5\n", "line 2"),
        # the record checks: the loader is the one place a log enters the program
        ("meta d=1 m=0 k=2\nitem 1 0.5\nitem 2 0.25\nrec 0 1 0 | 1 2\nrec 0 2 1 | 1 1\n",
         "line 5: duplicate item in displayed set (1, 1)"),
        ("meta d=1 m=0 k=1\nitem 1 0.5\nrec 0 0 1 | 1\n", "line 3: step must be >= 1, got 0"),
        ("meta d=1 m=0 k=1\nitem 1 0.5\nrec 0 1 0 | ; r=1\n", "line 3: displayed set is empty"),
        ("meta d=1 m=0 k=1\nitem 1 0.5\nitem 2 0.25\nrec 2 1 2 | 1\n",
         "line 4: chosen not displayed: 2 not in (1,)"),
        ("meta d=1 m=0 k=1\nitem 1 0.5\nrec 0 1 1 | 1\nrec 3 2 1 | 1\n",
         "line 4: trajectory for user 3 must start at step 1"),
        ("meta d=1 m=0 k=1\nitem 1 0.5\nrec 5 1 0 | 1\nrec 5 3 1 | 1\nrec 5 2 0 | 1\n",
         "line 5: steps not strictly increasing for user 5"),
        # a non-finite feature or reward would reach training as a diverged fit
        ("meta d=2 m=0 k=1\nitem 1 0.5 0.5\nitem 3 nan 0.5\n", "line 3: non-finite feature of item 3"),
        ("meta d=1 m=0 k=1\nitem 1 -inf\n", "line 2: non-finite feature of item 1"),
        ("meta d=1 m=0 k=1\nitem 1 inf\n", "line 2: non-finite feature of item 1"),
        ("meta d=1 m=0 k=1\nitem 1 0.5\nrec 0 1 1 | 1 ; r=nan\n", "line 3: bad reward value 'nan'"),
        ("meta d=1 m=0 k=1\nitem 1 0.5\nrec 0 1 1 | 1 ; r=-inf\n", "line 3: bad reward value '-inf'"),
        # a display shows real items only: the non-click id 0 was once scored as a zero-feature slot
        ("meta d=1 m=0 k=2\nitem 1 0.5\nrec 0 1 0 | 0 1\n",
         "line 3: record for user 0 step 1 displays unknown item 0"),
        # items come before the records that show them, as save_trajectories writes them
        ("meta d=1 m=0 k=1\nitem 1 0.5\nrec 0 1 2 | 2\nitem 2 0.25\n",
         "line 3: record for user 0 step 1 displays unknown item 2"),
        # of two bad records, the one on the earlier line is reported, whoever's it is
        ("meta d=1 m=0 k=1\nitem 1 0.5\nrec 0 1 0 | 1\nrec 1 2 0 | 1\nrec 0 1 0 | 1\n",
         "line 4: trajectory for user 1 must start at step 1"),
    ])
    def test_every_load_error_names_the_file(self, tmp_path, body, message):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(DataFormatError, match=re.escape(message)) as info:
            load_trajectories(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_undecodable_file_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"meta d=1 m=0 k=1\nitem 1 \xff\n")
        with pytest.raises(DataFormatError, match="bad.txt: 'utf-8' codec"):
            load_trajectories(path)

    def test_read_meta_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("meta d=1\n")
        with pytest.raises(DataFormatError, match=r"bad.txt: line 1"):
            read_meta(path)

    def test_unknown_display_item_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("meta d=1 m=0 k=1\nitem 1 0.5\nrec 0 1 1 | 1 9\n")
        with pytest.raises(DataFormatError, match="line 3: record for user 0 step 1 displays unknown item 9"):
            load_trajectories(path)
