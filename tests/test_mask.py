import numpy as np
import pytest

from pseudotal.core import Interval, PseudoProposal, TimeGrid
from pseudotal.mask import (
    MaskParams,
    SnippetMask,
    decay_schedule,
    mask_for_proposal,
    union_masks,
)


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


class TestSnippetMask:
    def test_length_and_bit_validation(self):
        grid = TimeGrid(4, 1.0, 1)
        with pytest.raises(ValueError):
            SnippetMask(np.ones(3, dtype=np.uint8), grid)
        with pytest.raises(ValueError):
            SnippetMask(np.array([0, 1, 2, 1]), grid)

    def test_all_certain_and_count(self):
        grid = TimeGrid(4, 1.0, 1)
        m = union_masks([], grid)
        assert m.bits.tolist() == [1, 1, 1, 1]
        assert m.uncertain_count() == 0


class TestMaskForProposal:
    def test_boundary_bands(self):
        grid = TimeGrid(30, 1.0, 1)
        p = PseudoProposal(Interval(10, 20), 1, 1.0)
        m = mask_for_proposal(p, MaskParams(0.1, 0.0), grid)
        # d = 10: bands are (9, 10) and (20, 21), catching centers 9.5 and 20.5
        assert _uncertain_indices(m) == [9, 20]

    def test_degenerate_params_all_certain(self):
        grid = TimeGrid(30, 1.0, 1)
        p = PseudoProposal(Interval(10, 20), 1, 1.0)
        m = mask_for_proposal(p, MaskParams(0.0, 0.0), grid)
        assert m.uncertain_count() == 0

    def test_band_clipped_at_video_start(self):
        grid = TimeGrid(12, 1.0, 1)
        p = PseudoProposal(Interval(0, 10), 1, 1.0)
        m = mask_for_proposal(p, MaskParams(0.5, 0.0), grid)
        # start band (-5, 0) falls off the grid; end band (10, 15) clips to 10, 11
        assert _uncertain_indices(m) == [10, 11]

    def test_beta_shrinks_interior(self):
        grid = TimeGrid(30, 1.0, 1)
        p = PseudoProposal(Interval(10, 20), 1, 1.0)
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
            p = PseudoProposal(Interval(s, s + d), 1, 1.0)
            m = mask_for_proposal(p, MaskParams(alpha, beta), grid)
            centers = (np.arange(200) + 0.5) * 1.0
            inside = (centers > s) & (centers < s + d)
            n_inside = int(((m.bits == 0) & inside).sum())
            n_outside = int(((m.bits == 0) & ~inside).sum())
            assert abs(n_inside - 2 * beta * d) <= 2.0
            assert abs(n_outside - 2 * alpha * d) <= 2.0


class TestUnionMasks:
    def setup_method(self):
        self.grid = TimeGrid(10, 1.0, 1)

    def _mask_with_uncertain(self, indices):
        bits = np.ones(10, dtype=np.uint8)
        bits[list(indices)] = 0
        return SnippetMask(bits, self.grid)

    def test_single_mask_identity(self):
        m = self._mask_with_uncertain([3])
        assert union_masks([m], self.grid).bits.tolist() == m.bits.tolist()

    def test_union_of_uncertain_regions(self):
        a = self._mask_with_uncertain([3])
        b = self._mask_with_uncertain([7])
        assert _uncertain_indices(union_masks([a, b], self.grid)) == [3, 7]

    def test_empty_list_all_certain(self):
        m = union_masks([], self.grid)
        assert m.uncertain_count() == 0

    def test_grid_mismatch_errors(self):
        other = union_masks([], TimeGrid(8, 1.0, 1))
        with pytest.raises(ValueError, match="grid mismatch"):
            union_masks([self._mask_with_uncertain([1]), other], self.grid)

    def test_idempotent_commutative_associative(self):
        rng = np.random.default_rng(41)
        masks = [
            SnippetMask(rng.integers(0, 2, 10).astype(np.uint8), self.grid)
            for _ in range(3)
        ]
        a, b, c = masks
        assert union_masks([a, a], self.grid).bits.tolist() == a.bits.tolist()
        ab = union_masks([a, b], self.grid).bits.tolist()
        ba = union_masks([b, a], self.grid).bits.tolist()
        assert ab == ba
        left = union_masks([union_masks([a, b], self.grid), c], self.grid).bits.tolist()
        right = union_masks([a, union_masks([b, c], self.grid)], self.grid).bits.tolist()
        assert left == right


class TestDecaySchedule:
    def setup_method(self):
        self.initial = MaskParams(0.1, 0.0)

    def test_full_value_at_warmup_boundary(self):
        out = decay_schedule(20, 20, 38, self.initial)
        assert out.alpha == pytest.approx(0.1)
        assert out.beta == 0.0

    def test_zero_at_final_epoch(self):
        out = decay_schedule(38, 20, 38, self.initial)
        assert (out.alpha, out.beta) == (0.0, 0.0)

    def test_linear_midpoint(self):
        out = decay_schedule(29, 20, 38, self.initial)
        assert out.alpha == pytest.approx(0.1 * 9 / 18)

    def test_before_warmup_holds_initial(self):
        out = decay_schedule(3, 20, 38, self.initial)
        assert out.alpha == pytest.approx(0.1)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            decay_schedule(-1, 20, 38, self.initial)
        with pytest.raises(ValueError):
            decay_schedule(39, 20, 38, self.initial)
        with pytest.raises(ValueError):
            decay_schedule(5, 38, 38, self.initial)

    def test_uncertain_set_shrinks_monotonically(self):
        grid = TimeGrid(60, 1.0, 1)
        p = PseudoProposal(Interval(20, 40), 1, 1.0)
        initial = MaskParams(0.3, 0.2)
        previous = None
        for epoch in range(20, 39):
            params = decay_schedule(epoch, 20, 38, initial)
            uncertain = set(_uncertain_indices(mask_for_proposal(p, params, grid)))
            if previous is not None:
                assert uncertain <= previous
            previous = uncertain
