import re
import sys

import numpy as np
import pytest

from pseudotal.core import (
    MAX_CLASS_ID,
    MAX_GRID_CELLS,
    MAX_TIME_S,
    GroundTruthSet,
    Segment,
    Segments,
    SnippetPredictions,
    check_class_id,
    check_span,
    TimeGrid,
    class_ids,
    overlap_pairs,
    pairwise_tiou,
    runs,
    snippet_centers,
)


class TestTypes:
    def test_grid_validation(self):
        g = TimeGrid(10, 0.64, 3)
        assert g.duration_s == pytest.approx(6.4)
        with pytest.raises(ValueError):
            TimeGrid(0, 1.0, 3)
        with pytest.raises(ValueError):
            TimeGrid(10, 0.0, 3)
        with pytest.raises(ValueError):
            TimeGrid(10, 1.0, 0)

    def test_grid_cell_bound(self):
        # T * (C + 1) cells, at most MAX_GRID_CELLS: a huge T or a huge C alone
        TimeGrid(MAX_GRID_CELLS // 4, 1.0, 3)
        TimeGrid(1, 1.0, MAX_GRID_CELLS - 1)
        for t, c in [(MAX_GRID_CELLS // 4 + 1, 3), (1, MAX_GRID_CELLS), (10**9, 1)]:
            with pytest.raises(ValueError, match="num_snippets \\* \\(class_count \\+ 1\\)"):
                TimeGrid(t, 1.0, c)

    def test_time_bound(self):
        # a grid's extent and a segment's endpoints lie within MAX_TIME_S
        TimeGrid(4, MAX_TIME_S / 4, 1)
        check_span(-MAX_TIME_S, MAX_TIME_S)
        Segments([-MAX_TIME_S], [MAX_TIME_S], [1], [0.5])
        with pytest.raises(ValueError, match="must be at most 1e\\+15 s, got 1.6e\\+308"):
            TimeGrid(2, 8e307, 1)
        bound = re.escape("interval endpoints must lie in [-1e+15, 1e+15] s")
        for start, end in [(0.0, 2 * MAX_TIME_S), (-2 * MAX_TIME_S, 0.0), (2e15, 3e15)]:
            with pytest.raises(ValueError, match=bound):
                check_span(start, end)
            with pytest.raises(ValueError, match=bound):
                Segments([0.0, start], [1.0, end], [1, 1], [0.5, 0.5])

    # an integer of more digits than `sys.get_int_max_str_digits()` has no repr
    # and no float: each call reports its rule, showing such a value by `shown`
    HUGE = 10**5000
    LIMIT = f"<an integer of more than {sys.get_int_max_str_digits()} digits>"

    def test_a_huge_snippet_count_reports_the_cell_rule(self):
        message = f"must be at most {MAX_GRID_CELLS}, got {self.LIMIT} * (1 + 1)"
        with pytest.raises(ValueError, match=f"^num_snippets .*{re.escape(message)}$"):
            TimeGrid(self.HUGE, 1.0, 1)

    def test_a_huge_class_count_reports_the_cell_rule(self):
        message = f"must be at most {MAX_GRID_CELLS}, got 4 * ({self.LIMIT} + 1)"
        with pytest.raises(ValueError, match=f"^num_snippets .*{re.escape(message)}$"):
            TimeGrid(4, 1.0, self.HUGE)

    def test_a_huge_snippet_duration_reports_its_rule(self):
        with pytest.raises(ValueError, match="^snippet_duration_s must be a positive finite real$"):
            TimeGrid(4, self.HUGE, 1)
        # within the float range, but an extent past it
        with pytest.raises(ValueError, match=r"must be at most 1e\+15 s, got inf$"):
            TimeGrid(2, 10**308, 1)

    def test_a_huge_class_id_reports_the_int64_rule(self):
        with pytest.raises(ValueError, match=_int64_fault(self.LIMIT)):
            check_class_id(self.HUGE, 3)

    def test_a_huge_endpoint_reports_the_time_bound(self):
        bound = re.escape("interval endpoints must lie in [-1e+15, 1e+15] s")
        for start, end in [(0.0, self.HUGE), (-self.HUGE, 0.0)]:
            with pytest.raises(ValueError, match=f"^{bound}$"):
                check_span(start, end)

    def test_interval_rejects_degenerate(self):
        for start, end in [(5.0, 5.0), (5.0, 2.0), (0.0, float("inf"))]:
            with pytest.raises(ValueError, match="^interval "):
                check_span(start, end)
        assert check_span(2.0, 6.0) is None

    def test_segments_validation(self):
        good = {"start_s": [0.0, 2.0], "end_s": [1.0, 5.0], "class_id": [1, 3],
                "score": [0.5, -0.25]}
        segs = Segments(**good)
        assert len(segs) == 2
        assert [c.dtype for c in (segs.start_s, segs.end_s, segs.class_id, segs.score)] == [
            np.float64, np.float64, np.int64, np.float64]
        assert not any(c.flags.writeable for c in (segs.start_s, segs.end_s, segs.class_id,
                                                   segs.score))
        assert len(Segments([], [], [], [])) == 0
        # one case per rule, each with the message it raises
        cases = [
            ({"score": [0.5]}, "1-D and of one length"),
            ({"start_s": [[0.0, 2.0]]}, "1-D and of one length"),
            ({"start_s": [0.0, float("nan")]}, "interval endpoints must be finite"),
            ({"end_s": [1.0, float("inf")]}, "interval endpoints must be finite"),
            ({"end_s": [1.0, 2.0]}, "interval requires start_s < end_s"),
            ({"score": [0.5, float("nan")]}, "score must be finite"),
            ({"class_id": [1, 0]}, "class_id 0 is not an int64 integer >= 1"),
            ({"class_id": [1.0, 3.0]}, r"class_id 1\.0 is not an int64 integer >= 1"),
            ({"class_id": [1, 2**63]}, f"class_id {2**63} is not an int64 integer >= 1"),
        ]
        for change, message in cases:
            with pytest.raises(ValueError, match=message):
                Segments(**{**good, **change})

    @pytest.mark.parametrize("class_id, bad", [
        (np.array([1, 2**63], dtype=np.uint64), 2**63),  # must not wrap to a negative id
        ([1, True], True),  # True is no class 1
        (np.array([True, False]), True),
    ], ids=["uint64 2**63", "bool among ints", "bool array"])
    def test_segments_class_ids(self, class_id, bad):
        with pytest.raises(ValueError, match=f"^class_id {bad} is not an int64 integer >= 1$"):
            Segments([0.0, 2.0], [1.0, 3.0], class_id, [0.5, 0.5])

    def test_segments_rows_and_selection(self):
        segs = Segments([0.0, 2.0, 4.0], [1.0, 5.0, 6.0], [1, 3, 2], [0.5, -0.0, 0.25])
        rows = list(segs)
        assert rows == [(0.0, 1.0, 1, 0.5), (2.0, 5.0, 3, -0.0), (4.0, 6.0, 2, 0.25)]
        assert all(type(r) is Segment for r in rows)
        assert [type(v) for v in rows[1]] == [float, float, int, float]
        columns = (segs.start_s, segs.end_s, segs.class_id, segs.score)
        # read-only columns, indexed, build the rows they select
        assert list(Segments(*(c[np.array([2, 0])] for c in columns))) == [rows[2], rows[0]]
        assert list(Segments(*(c[segs.score > 0.3] for c in columns))) == [rows[0]]

    def test_snippet_predictions_validation(self):
        att = np.array([0.5, 1.0])
        cls = np.array([[0.4, 0.6], [0.2, 0.8]])
        preds = SnippetPredictions(att, cls)
        assert preds.class_scores.shape == (2, 2)
        assert not preds.attention.flags.writeable
        with pytest.raises(ValueError):
            SnippetPredictions(np.array([1.5, 0.0]), cls)
        with pytest.raises(ValueError):
            SnippetPredictions(att, np.array([[0.4, 0.5], [0.2, 0.8]]))

    @pytest.mark.parametrize("attention, class_scores, message", [
        ([[0.5, 1.0]], [[0.4, 0.6]], "attention must be one-dimensional"),
        ([0.5, 1.0], [[0.4, 0.6]], "class_scores must be (T, C+1) with T matching attention"),
        ([0.5], [0.4, 0.6], "class_scores must be (T, C+1) with T matching attention"),
        ([0.5, 1.0], [[1.0], [1.0]],
         "class_scores needs at least one foreground column plus background"),
    ])
    def test_snippet_predictions_shapes(self, attention, class_scores, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SnippetPredictions(np.array(attention), np.array(class_scores))

    def test_ground_truth_holds_segments(self):
        with pytest.raises(TypeError, match="^ground-truth videos must be Segments$"):
            GroundTruthSet({"v": ((0.0, 1.0, 1, 1.0),)})


class TestTiou:
    def test_examples(self):
        assert pairwise_tiou(0, 10, 5, 15) == pytest.approx(1 / 3)
        assert pairwise_tiou(0, 10, 0, 10) == 1.0
        assert pairwise_tiou(0, 5, 6, 9) == 0.0
        assert pairwise_tiou(0, 5, 5, 9) == 0.0  # touching ends do not intersect

    def test_symmetry_property(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a0, b0 = rng.uniform(0, 50, 2)
            a = (a0, a0 + rng.uniform(0.1, 20))
            b = (b0, b0 + rng.uniform(0.1, 20))
            assert pairwise_tiou(*a, *b) == pairwise_tiou(*b, *a)
            assert 0.0 <= pairwise_tiou(*a, *b) <= 1.0

    def test_nested_equals_length_ratio(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a_end = rng.uniform(5, 30)
            s = rng.uniform(0, a_end * 0.5)
            e = rng.uniform(s + 0.1, a_end)
            assert pairwise_tiou(0.0, a_end, s, e) == pytest.approx((e - s) / a_end)


def _brute_force_partners(key, start, end):
    """Every interval's intersecting same-key partners, ascending, with their
    tIoU, by testing all n * n pairs."""
    n = len(start)
    return [[(j, float(pairwise_tiou(start[i], end[i], start[j], end[j])))
             for j in range(n)
             if j != i and key[j] == key[i] and min(end[i], end[j]) > max(start[i], start[j])]
            for i in range(n)]


def _brute_force_join(key, start, end, key2, start2, end2):
    """Every interval's intersecting same-key partners in the second set,
    ascending, with their tIoU, by testing all n * m pairs."""
    return [[(j, float(pairwise_tiou(start[i], end[i], start2[j], end2[j])))
             for j in range(len(start2))
             if key2[j] == key[i] and min(end[i], end2[j]) > max(start[i], start2[j])]
            for i in range(len(start))]


def _listed(at, partner, tiou):
    """The offsets form of `overlap_pairs` as one (partner, tiou) list per interval."""
    assert at.dtype == partner.dtype == np.int64 and tiou.dtype == np.float64
    assert at[0] == 0 and at[-1] == partner.size == tiou.size and (np.diff(at) >= 0).all()
    return [list(zip(partner[a:b].tolist(), tiou[a:b].tolist()))
            for a, b in zip(at[:-1].tolist(), at[1:].tolist())]


# int64 keys that a float would merge (2**62 and 2**62 + 1 are one float) or
# that do not fit one (2**63 - 1), for the keys 1 to 4 of `_random_intervals`
BIG_KEYS = np.array([0, 2**62, 2**62 + 1, 2**63 - 1, 2**62 + 2], dtype=np.int64)


def _random_intervals(rng):
    """Keys and intervals with nesting, touching ends, equal starts and
    duplicates: integer endpoints on a small range, or floats."""
    n = int(rng.choice([0, 1, 2, int(rng.integers(3, 40))]))
    key = rng.integers(1, int(rng.integers(1, 5)) + 1, n)
    if rng.integers(0, 2):
        start = rng.integers(0, 12, n).astype(np.float64)
        end = start + rng.integers(1, 8, n)
    else:
        start = rng.uniform(-5.0, 20.0, n)
        end = start + rng.uniform(1e-3, 10.0, n)
    if n and rng.integers(0, 3) == 0:  # exact duplicates
        twin = rng.integers(0, n, int(rng.integers(1, n + 1)))
        key, start, end = (np.concatenate((a, a[twin])) for a in (key, start, end))
    return key, start, end


class TestOverlapPairs:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        seen = set()
        for _ in range(1500):
            key, start, end = _random_intervals(rng)
            got = _listed(*overlap_pairs(key, start, end))
            assert got == _brute_force_partners(key, start, end)
            seen.add("empty" if not len(start) else "nonempty")
            if len(set(key.tolist())) > 1:
                seen.add("several keys")
            for i in range(len(start)):
                same = (key == key[i]) & (np.arange(len(start)) != i)
                if (same & (start <= start[i]) & (end >= end[i])).any():
                    seen.add("nested or duplicate")
                if (same & (start == end[i])).any():
                    seen.add("touching ends")
                if (same & (start == start[i])).any():
                    seen.add("equal starts")
                if (same & (start == start[i]) & (end == end[i])).any():
                    seen.add("duplicate")
        assert seen == {"empty", "nonempty", "several keys", "nested or duplicate",
                        "touching ends", "equal starts", "duplicate"}

    def test_two_sets_match_brute_force(self):
        rng = np.random.default_rng(43)
        seen = set()
        for _ in range(1500):
            ours, theirs = _random_intervals(rng), _random_intervals(rng)
            if rng.integers(0, 3) == 0:
                ours, theirs = ((BIG_KEYS[key], start, end) for key, start, end in (ours, theirs))
                seen.add("int64 keys")
            got = _listed(*overlap_pairs(*ours, theirs))
            assert len(got) == len(ours[1])
            assert got == _brute_force_join(*ours, *theirs)
            # the one-set form is the join of a set with itself, less each
            # interval paired with itself
            assert _listed(*overlap_pairs(*ours)) == [
                [(j, t) for j, t in pairs if j != i]
                for i, pairs in enumerate(_listed(*overlap_pairs(*ours, ours)))]
            (key, start, end), (key2, start2, end2) = ours, theirs
            seen.add("first empty" if not len(start) else "first nonempty")
            seen.add("second empty" if not len(start2) else "second nonempty")
            if set(key.tolist()) ^ set(key2.tolist()):
                seen.add("a key on one side only")
            s, e, s2, e2 = start[:, None], end[:, None], start2[None, :], end2[None, :]
            for name, relation in (
                ("touching", (s2 == e) | (e2 == s)),
                ("nested", (s <= s2) & (e2 <= e)),
                ("equal starts", s == s2),
                ("duplicates", (s == s2) & (e == e2)),
            ):
                if ((key[:, None] == key2[None, :]) & relation).any():
                    seen.add(name)
        assert seen == {"int64 keys", "first empty", "first nonempty", "second empty",
                        "second nonempty", "a key on one side only", "touching", "nested",
                        "equal starts", "duplicates"}

    def test_int64_keys_that_one_float_holds_stay_apart(self):
        key = np.array([2**62, 2**62 + 1, 2**63 - 1], dtype=np.int64)
        assert float(key[0]) == float(key[1])
        start = np.zeros(3)
        at, partner, tiou = overlap_pairs(key, start, start + 1.0, (key[::-1], start, start + 2.0))
        assert at.tolist() == [0, 1, 2, 3] and partner.tolist() == [2, 1, 0]
        assert tiou.tolist() == [0.5, 0.5, 0.5]
        at, partner, tiou = overlap_pairs(key, start, start + 1.0)
        assert at.tolist() == [0, 0, 0, 0] and partner.size == tiou.size == 0

    def test_disjoint_intervals_have_no_partners(self):
        start = np.arange(1000) * 1.5
        at, partner, tiou = overlap_pairs(np.ones(1000, dtype=np.int64), start, start + 1.0)
        assert at.tolist() == [0] * 1001 and partner.size == tiou.size == 0

    def test_keys_separate_equal_intervals(self):
        at, partner, tiou = overlap_pairs(np.array([2, 1, 2]), np.zeros(3), np.ones(3))
        assert at.tolist() == [0, 1, 1, 2]
        assert partner.tolist() == [2, 0] and tiou.tolist() == [1.0, 1.0]


class TestSnippetMapping:
    def test_centers(self):
        g = TimeGrid(4, 0.5, 1)
        assert snippet_centers(g).tolist() == [0.25, 0.75, 1.25, 1.75]


def _naive_runs(values):
    out = []
    for i, v in enumerate(values.tolist()):
        if out and out[-1][2] == v:
            out[-1][1] = i
        else:
            out.append([i, i, v])
    return [tuple(r) for r in out]


class TestRuns:
    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_matches_naive_loop(self, dtype):
        rng = np.random.default_rng(41)
        high = {bool: 2, np.uint8: 3, np.int64: 4}[dtype]
        for n in (0, 1, 2, 3, 17, 200):
            for _ in range(30):
                values = rng.integers(-1 if dtype is np.int64 else 0, high, n).astype(dtype)
                assert runs(values) == _naive_runs(values)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_edges(self, dtype):
        assert runs(np.zeros(0, dtype=dtype)) == []
        assert runs(np.ones(1, dtype=dtype)) == [(0, 0, 1)]
        assert runs(np.ones(9, dtype=dtype)) == [(0, 8, 1)]
        assert runs(np.zeros(4, dtype=dtype)) == [(0, 3, 0)]

    def test_values_are_python_scalars(self):
        out = runs(np.array([True, True, False]))
        assert out == [(0, 1, True), (2, 2, False)]
        assert all(type(v) is bool for _, _, v in out)
        assert all(type(v) is int for _, _, v in runs(np.array([3, 3, -1], dtype=np.int64)))


def _int64_fault(value) -> str:
    return f"^{re.escape(f'class_id {value} is not an int64 integer >= 1')}$"


class TestClassIds:
    """`class_ids`, the one class-id rule: int64 integers >= 1, no bool, at
    most a grid's class count; `check_class_id` is the same rule on one
    value."""

    @pytest.mark.parametrize("values, bad", [
        ([1, 1.7], 1.7),
        ([2.0], 2.0),
        (np.array([3.0, 1.0]), 3.0),
        ([np.float64(2.0)], 2.0),
        (["1"], "1"),
        ([None], None),
        ([True], True),
        ([1, True], True),
        ([2, np.True_], True),
        (np.array([True]), True),
        ([0], 0),
        (np.array([3, -1]), -1),
        (np.array([4, 0], dtype=np.int32), 0),
        ([2**63], 2**63),
        ([1, 10**30], 10**30),
        (np.array([2**63], dtype=np.uint64), 2**63),
        ([np.uint64(2**64 - 1)], 2**64 - 1),
    ], ids=["float", "integral float", "float array", "numpy float", "string", "null",
            "bool", "bool among ints", "numpy bool among ints", "bool array", "zero",
            "negative", "int32 zero", "2**63", "10**30", "uint64 2**63", "numpy 2**64 - 1"])
    def test_refusals(self, values, bad):
        fault = _int64_fault(repr(bad) if isinstance(bad, str) else bad)  # a string by its repr
        with pytest.raises(ValueError, match=fault):
            class_ids(values)
        with pytest.raises(ValueError, match=fault):
            class_ids(values, 5)  # the int64 rule comes before the grid's
        with pytest.raises(ValueError, match=fault):
            check_class_id(bad, 5)

    @pytest.mark.parametrize("values", [[], (), np.array([]), np.zeros(0, dtype=np.int64)])
    def test_empty(self, values):
        for count in (None, 3):
            ids = class_ids(values, count)
            assert ids.dtype == np.int64 and ids.shape == (0,)

    def test_the_largest_class_id(self):
        assert MAX_CLASS_ID == 2**63 - 1
        for values in ([MAX_CLASS_ID], np.array([MAX_CLASS_ID], dtype=np.uint64),
                       [np.uint64(MAX_CLASS_ID)], np.array([MAX_CLASS_ID])):
            ids = class_ids(values)
            assert ids.dtype == np.int64 and ids.tolist() == [MAX_CLASS_ID]

    def test_exactly_the_class_count(self):
        for values in ([5], [1, 5, 3], np.array([5, 1]), np.array([5], dtype=np.uint8)):
            assert class_ids(values, 5).tolist() == list(values)
        for value in (5, np.int64(5), np.uint8(5)):
            assert type(check_class_id(value, 5)) is int and check_class_id(value, 5) == 5
        assert check_class_id(np.uint64(MAX_CLASS_ID)) == MAX_CLASS_ID

    @pytest.mark.parametrize("values, bad", [
        ([6], 6), ([1, 5, 6, 0], 6), (np.array([2, 7]), 7), ([2**63 - 1], 2**63 - 1),
        (np.array([9], dtype=np.uint64), 9),
    ])
    def test_beyond_the_class_count(self, values, bad):
        message = f"^class_id {bad} lies outside the 5 classes of its grid$"
        with pytest.raises(ValueError, match=message):
            class_ids(values, 5)
        with pytest.raises(ValueError, match=message):
            check_class_id(bad, 5)

    def test_the_first_bad_value_is_named(self):
        with pytest.raises(ValueError, match=_int64_fault(0)):
            class_ids([1, 0, 9], 5)
        with pytest.raises(ValueError, match="^class_id 9 lies outside"):
            class_ids(np.array([1, 9, 0]), 5)

    def test_integer_values(self):
        for values in ([3, 1], (3, 1), np.array([3, 1], dtype=np.int16), [np.int64(3), 1]):
            ids = class_ids(values)
            assert ids.dtype == np.int64 and ids.tolist() == [3, 1]
        column = np.array([2, 1])
        assert class_ids(column) is column  # an int64 array is not copied
