import re

import numpy as np
import pytest

from pseudotal.core import (
    MAX_CLASS_ID,
    MAX_GRID_CELLS,
    MAX_TIME_S,
    GroundTruthSet,
    Interval,
    Segment,
    Segments,
    SnippetPredictions,
    check_class_id,
    TimeGrid,
    class_ids,
    runs,
    snippet_centers,
    span_tiou,
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
        Interval(-MAX_TIME_S, MAX_TIME_S)
        Segments([-MAX_TIME_S], [MAX_TIME_S], [1], [0.5])
        with pytest.raises(ValueError, match="must be at most 1e\\+15 s, got 1.6e\\+308"):
            TimeGrid(2, 8e307, 1)
        bound = re.escape("interval endpoints must lie in [-1e+15, 1e+15] s")
        for start, end in [(0.0, 2 * MAX_TIME_S), (-2 * MAX_TIME_S, 0.0), (2e15, 3e15)]:
            with pytest.raises(ValueError, match=bound):
                Interval(start, end)
            with pytest.raises(ValueError, match=bound):
                Segments([0.0, start], [1.0, end], [1, 1], [0.5, 0.5])

    def test_interval_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Interval(5.0, 5.0)
        with pytest.raises(ValueError):
            Interval(5.0, 2.0)
        with pytest.raises(ValueError):
            Interval(0.0, float("inf"))
        assert Interval(2.0, 6.0).duration_s == 4.0

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
        assert list(segs.select(np.array([2, 0]))) == [rows[2], rows[0]]
        assert list(segs.select(segs.score > 0.3)) == [rows[0]]

    def test_snippet_predictions_validation(self):
        att = np.array([0.5, 1.0])
        cls = np.array([[0.4, 0.6], [0.2, 0.8]])
        preds = SnippetPredictions(att, cls)
        assert preds.num_snippets == 2
        assert preds.class_count == 1
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

    def test_ground_truth_holds_intervals(self):
        with pytest.raises(TypeError, match="^ground-truth segments must be Intervals$"):
            GroundTruthSet({"v": (((0.0, 1.0), 1),)})


class TestTiou:
    def test_examples(self):
        assert span_tiou(0, 10, 5, 15) == pytest.approx(1 / 3)
        assert span_tiou(0, 10, 0, 10) == 1.0
        assert span_tiou(0, 5, 6, 9) == 0.0

    def test_symmetry_property(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a0, b0 = rng.uniform(0, 50, 2)
            a = (a0, a0 + rng.uniform(0.1, 20))
            b = (b0, b0 + rng.uniform(0.1, 20))
            assert span_tiou(*a, *b) == span_tiou(*b, *a)
            assert 0.0 <= span_tiou(*a, *b) <= 1.0

    def test_nested_equals_length_ratio(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a_end = rng.uniform(5, 30)
            s = rng.uniform(0, a_end * 0.5)
            e = rng.uniform(s + 0.1, a_end)
            assert span_tiou(0.0, a_end, s, e) == pytest.approx((e - s) / a_end)


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
        with pytest.raises(ValueError, match=_int64_fault(bad)):
            class_ids(values)
        with pytest.raises(ValueError, match=_int64_fault(bad)):
            class_ids(values, 5)  # the int64 rule comes before the grid's
        with pytest.raises(ValueError, match=_int64_fault(bad)):
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
