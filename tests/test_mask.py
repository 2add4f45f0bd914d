import json

import numpy as np
import pytest

from pseudotal import cli
from pseudotal.config import PipelineConfig
from pseudotal.core import Segment, TimeGrid
from pseudotal.mask import (
    MaskParams,
    SnippetMask,
    mask_for_proposal,
    union_masks,
)
from segment_objects import segments


def _uncertain_indices(mask):
    return sorted(np.flatnonzero(mask.bits == 0).tolist())


class TestMaskParams:
    def test_valid(self):
        p = MaskParams(0.1, 0.0)
        assert (p.alpha, p.beta) == (0.1, 0.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            MaskParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            MaskParams(0.1, -0.1)
        with pytest.raises(ValueError):
            MaskParams(0.1, 0.5)

    def test_a_huge_ratio_breaks_the_band_rule(self):
        # an integer past the float range is not finite, and has no float
        with pytest.raises(ValueError, match="^alpha must be nonnegative$"):
            MaskParams(10**5000, 0.1)
        with pytest.raises(ValueError, match="^beta must be nonnegative$"):
            MaskParams(0.1, 10**5000)


class TestSnippetMask:
    def test_length_and_bit_validation(self):
        grid = TimeGrid(4, 1.0, 1)
        with pytest.raises(ValueError):
            SnippetMask(np.ones(3, dtype=np.uint8), grid)
        with pytest.raises(ValueError):
            SnippetMask(np.array([0, 1, 2, 1]), grid)

    def test_all_certain_and_count(self):
        grid = TimeGrid(4, 1.0, 1)
        m = union_masks(segments(), MaskParams(0.1, 0.0), grid)
        assert m.bits.tolist() == [1, 1, 1, 1]
        assert m.uncertain_count() == 0


class TestMaskForProposal:
    def test_boundary_bands(self):
        grid = TimeGrid(30, 1.0, 1)
        p = Segment(10, 20, 1, 1.0)
        m = mask_for_proposal(p, MaskParams(0.1, 0.0), grid)
        # d = 10: bands are (9, 10) and (20, 21), catching centers 9.5 and 20.5
        assert _uncertain_indices(m) == [9, 20]

    def test_degenerate_params_all_certain(self):
        grid = TimeGrid(30, 1.0, 1)
        p = Segment(10, 20, 1, 1.0)
        m = mask_for_proposal(p, MaskParams(0.0, 0.0), grid)
        assert m.uncertain_count() == 0

    def test_band_clipped_at_video_start(self):
        grid = TimeGrid(12, 1.0, 1)
        p = Segment(0, 10, 1, 1.0)
        m = mask_for_proposal(p, MaskParams(0.5, 0.0), grid)
        # start band (-5, 0) falls off the grid; end band (10, 15) clips to 10, 11
        assert _uncertain_indices(m) == [10, 11]

    def test_beta_shrinks_interior(self):
        grid = TimeGrid(30, 1.0, 1)
        p = Segment(10, 20, 1, 1.0)
        m = mask_for_proposal(p, MaskParams(0.0, 0.2), grid)
        # bands (10, 12) and (18, 20)
        assert _uncertain_indices(m) == [10, 11, 18, 19]

    def test_uncertain_extent_matches_band_widths(self):
        rng = np.random.default_rng(37)
        grid = TimeGrid(200, 1.0, 1)
        for _ in range(40):
            d = float(rng.uniform(8, 40))
            s = float(rng.uniform(d, 200 - 2 * d))  # keep bands off the edges
            alpha = float(rng.uniform(0, 0.4))
            beta = float(rng.uniform(0, 0.4))
            p = Segment(s, s + d, 1, 1.0)
            m = mask_for_proposal(p, MaskParams(alpha, beta), grid)
            centers = (np.arange(200) + 0.5) * 1.0
            inside = (centers > s) & (centers < s + d)
            n_inside = int(((m.bits == 0) & inside).sum())
            n_outside = int(((m.bits == 0) & ~inside).sum())
            assert abs(n_inside - 2 * beta * d) <= 2.0
            assert abs(n_outside - 2 * alpha * d) <= 2.0


def _per_label_bits(pseudos, params, grid):
    """The band rule written out label by label: a snippet is uncertain when
    its center lies strictly inside either band of any pseudo label."""
    centers = (np.arange(grid.num_snippets) + 0.5) * grid.snippet_duration_s
    uncertain = np.zeros(grid.num_snippets, dtype=bool)
    for start, end, _, _ in pseudos:
        d = end - start
        uncertain |= (centers > start - params.alpha * d) & (centers < start + params.beta * d)
        uncertain |= (centers > end - params.beta * d) & (centers < end + params.alpha * d)
    return np.where(uncertain, 0, 1).tolist()


def _random_video(rng):
    """A grid and 0-11 labels; endpoints often fall on snippet edges or
    centers, and bands may reach past both ends of the video. Dyadic snippet
    durations and band ratios put band edges exactly on centers, where only
    the open edges keep a snippet certain."""
    duration = rng.choice([float(rng.uniform(0.001, 3.0)), 0.25, 0.5, 1.0, 2.0])
    grid = TimeGrid(int(rng.integers(1, 120)), float(duration), 3)
    extent = grid.duration_s
    rows = []
    for _ in range(int(rng.integers(0, 12))):
        if rng.random() < 0.5:  # on the half-snippet lattice
            a, b = sorted(rng.choice(2 * grid.num_snippets + 5, 2, replace=False) - 2)
            start, end = a * grid.snippet_duration_s / 2, b * grid.snippet_duration_s / 2
        else:
            start, end = sorted(rng.uniform(-0.2 * extent, 1.2 * extent, 2).tolist())
        rows.append((float(start), float(end), int(rng.integers(1, 4)), float(rng.random())))
    alpha = rng.choice([float(rng.uniform(0.0, 2.0)), 0.0, 0.25, 0.5, 1.0])
    beta = rng.choice([float(rng.uniform(0.0, 0.499)), 0.0, 0.25])
    return grid, rows, MaskParams(float(alpha), float(beta))


class TestUnionMasks:
    def test_no_label_leaves_every_snippet_certain(self):
        grid = TimeGrid(10, 1.0, 1)
        m = union_masks(segments(), MaskParams(0.3, 0.2), grid)
        assert m.bits.tolist() == [1] * 10
        assert m.grid == grid

    def test_two_labels_mark_both_sets_of_bands(self):
        grid = TimeGrid(30, 1.0, 1)
        pseudos = segments((10.0, 20.0, 1, 1.0), (22.0, 28.0, 1, 0.5))
        # d = 10: bands (9, 10) and (20, 21); d = 6: (21.4, 22) and (28, 28.6)
        assert _uncertain_indices(union_masks(pseudos, MaskParams(0.1, 0.0), grid)) == [
            9, 20, 21, 28]

    def test_the_per_label_band_rule_on_random_videos(self):
        rng = np.random.default_rng(53)
        for _ in range(2000):
            grid, rows, params = _random_video(rng)
            expected = _per_label_bits(rows, params, grid)
            assert union_masks(segments(*rows), params, grid).bits.tolist() == expected
            assert union_masks(segments(*rows[::-1]), params, grid).bits.tolist() == expected

    def test_one_label_is_mask_for_proposal(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            grid, rows, params = _random_video(rng)
            for row in rows:
                one = mask_for_proposal(Segment(*row), params, grid)
                assert one.bits.tolist() == _per_label_bits([row], params, grid)


class TestMaskCommand:
    def test_one_mask_per_video(self, tmp_path, monkeypatch):
        """`mask` builds each video's mask once from all its pseudo labels,
        not one mask per label."""
        grid_rows = [{"video_id": vid, "num_snippets": 400, "snippet_duration_s": 0.5,
                      "class_count": 2} for vid in ("a", "b")]
        pseudo_rows = [{"video_id": vid, "start_s": float(k * 4), "end_s": float(k * 4 + 2),
                        "score": 1.0, "class_id": 1 + k % 2}
                       for vid, count in (("a", 40), ("b", 25)) for k in range(count)]
        for name, rows in (("grid", grid_rows), ("pseudos", pseudo_rows)):
            (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        built, calls = [], []
        post_init, union = SnippetMask.__post_init__, cli.union_masks

        def counted_post_init(mask):
            built.append(mask.grid)
            post_init(mask)

        def counted_union(*args):
            calls.append(args)
            return union(*args)

        monkeypatch.setattr(SnippetMask, "__post_init__", counted_post_init)
        monkeypatch.setattr(cli, "union_masks", counted_union)
        assert cli.main(["mask", "--input", str(tmp_path / "pseudos.jsonl"),
                         "--input", str(tmp_path / "grid.jsonl"),
                         "--output", str(tmp_path / "mask.jsonl")]) == 0
        assert len(calls) == len(built) == 2  # the parent built 40 + 25 + 2


class TestDecaySchedule:
    def setup_method(self):
        self.config = PipelineConfig(alpha=0.1, beta=0.0, warmup_epochs=20, total_epochs=38)

    def test_full_value_at_warmup_boundary(self):
        out = self.config.mask_params(20)
        assert out.alpha == pytest.approx(0.1)
        assert out.beta == 0.0

    def test_zero_at_final_epoch(self):
        out = self.config.mask_params(38)
        assert (out.alpha, out.beta) == (0.0, 0.0)

    def test_linear_midpoint(self):
        out = self.config.mask_params(29)
        assert out.alpha == pytest.approx(0.1 * 9 / 18)

    def test_before_warmup_holds_initial(self):
        out = self.config.mask_params(3)
        assert out.alpha == pytest.approx(0.1)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            self.config.mask_params(-1)
        with pytest.raises(ValueError):
            self.config.mask_params(39)
        with pytest.raises(ValueError):
            PipelineConfig(warmup_epochs=38, total_epochs=38)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_an_epoch_past_the_digit_limit_breaks_the_epoch_rule(self, sign):
        # an integer of more digits than `sys.get_int_max_str_digits()` has no
        # repr: the message states the rule, not the interpreter's limit
        with pytest.raises(ValueError, match=r"^epoch <.+> lies outside \[0, 38\]$"):
            self.config.mask_params(sign * 10**5000)

    def test_uncertain_set_shrinks_monotonically(self):
        grid = TimeGrid(60, 1.0, 1)
        p = Segment(20, 40, 1, 1.0)
        config = PipelineConfig(alpha=0.3, beta=0.2, warmup_epochs=20, total_epochs=38)
        previous = None
        for epoch in range(20, 39):
            params = config.mask_params(epoch)
            uncertain = set(_uncertain_indices(mask_for_proposal(p, params, grid)))
            if previous is not None:
                assert uncertain <= previous
            previous = uncertain
