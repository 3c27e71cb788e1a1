"""FusedMultiLoRA tile routing: equivalence with per-adapter FusedLoRA."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.multi as multi_mod
from repro.core import (
    LoRAConfig,
    LoRAWeights,
    MultiLoRABatch,
    PAD_ADAPTER_ID,
    Segment,
    build_tile_table,
    fused_lora_backward,
    fused_lora_forward,
    fused_multi_lora_backward,
    fused_multi_lora_forward,
    pack_segments,
)
from repro.core.lora import dropout_mask
from repro.errors import KernelConfigError

K, N = 12, 10
BLOCK = 4


def make_adapters(ranks=(3, 5), alphas=(0.5, 1.5), seed=0, dropouts=None):
    rng = np.random.default_rng(seed)
    dropouts = dropouts or (0.0,) * len(ranks)
    adapters = {}
    for i, (r, alpha, p) in enumerate(zip(ranks, alphas, dropouts)):
        adapters[i] = LoRAWeights(
            a=rng.standard_normal((K, r)),
            b=rng.standard_normal((r, N)),
            config=LoRAConfig(rank=r, alpha=alpha, dropout=p, adapter_id=i),
        )
    return adapters


@pytest.fixture
def base_weight():
    return np.random.default_rng(1).standard_normal((K, N)) / np.sqrt(K)


class TestTileTable:
    def test_table_maps_tiles_to_adapters(self):
        table = build_tile_table(
            [Segment(0, 8), Segment(1, 4)], block_m=4
        )
        np.testing.assert_array_equal(table, [0, 0, 1])

    def test_unaligned_segment_rejected(self):
        with pytest.raises(KernelConfigError, match="not aligned"):
            build_tile_table([Segment(0, 6)], block_m=4)

    def test_nonpositive_block_rejected(self):
        with pytest.raises(KernelConfigError):
            build_tile_table([Segment(0, 4)], block_m=0)

    def test_zero_length_segment_rejected(self):
        with pytest.raises(KernelConfigError):
            Segment(0, 0)

    def test_batch_properties(self):
        batch = MultiLoRABatch([Segment(2, 8), Segment(0, 4), Segment(2, 4)],
                               block_m=4)
        assert batch.total_tokens == 16
        assert batch.num_tiles == 4
        assert batch.adapter_ids == [2, 0]
        assert batch.tile_bounds(1) == (4, 8)

    def test_runs_merge_adjacent_tiles_and_skip_padding(self):
        batch = MultiLoRABatch(
            [Segment(1, 4), Segment(1, 8), Segment(PAD_ADAPTER_ID, 4),
             Segment(0, 4), Segment(1, 4)],
            block_m=4,
        )
        assert batch.runs == [(1, 0, 12), (0, 16, 20), (1, 20, 24)]
        assert batch.adapter_ids == [1, 0]

    def test_empty_batch_has_no_runs(self):
        batch = MultiLoRABatch([], block_m=4)
        assert batch.runs == [] and batch.adapter_ids == []
        assert batch.total_tokens == 0 and batch.num_tiles == 0


class TestPackSegments:
    def test_pads_to_block_multiple(self):
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal((5, K))
        x1 = rng.standard_normal((8, K))
        x, batch, views = pack_segments([(0, x0), (1, x1)], block_m=4)
        assert x.shape[0] == 8 + 8  # 5 -> 8, 8 stays
        np.testing.assert_array_equal(x[views[0]], x0)
        np.testing.assert_array_equal(x[views[1]], x1)
        # Padding rows are zero.
        assert np.all(x[5:8] == 0.0)

    def test_empty_input_rejected(self):
        with pytest.raises(KernelConfigError):
            pack_segments([], block_m=4)

    def test_mismatched_width_rejected(self):
        with pytest.raises(KernelConfigError):
            pack_segments([(0, np.zeros((4, 3))), (1, np.zeros((4, 5)))])


class TestForwardEquivalence:
    def test_two_adapters_match_per_adapter_fused(self, base_weight):
        adapters = make_adapters()
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((8, K))
        x1 = rng.standard_normal((12, K))
        x, batch, views = pack_segments([(0, x0), (1, x1)], block_m=BLOCK)

        y, _ = fused_multi_lora_forward(x, base_weight, adapters, batch)
        y0, _ = fused_lora_forward(x0, base_weight, adapters[0])
        y1, _ = fused_lora_forward(x1, base_weight, adapters[1])
        np.testing.assert_allclose(y[views[0]], y0, atol=1e-12)
        np.testing.assert_allclose(y[views[1]], y1, atol=1e-12)

    def test_interleaved_segments_of_same_adapter(self, base_weight):
        adapters = make_adapters()
        rng = np.random.default_rng(4)
        xs = [rng.standard_normal((4, K)) for _ in range(3)]
        x, batch, views = pack_segments(
            [(0, xs[0]), (1, xs[1]), (0, xs[2])], block_m=BLOCK
        )
        y, _ = fused_multi_lora_forward(x, base_weight, adapters, batch)
        for view, xi, aid in zip(views, xs, [0, 1, 0]):
            y_ref, _ = fused_lora_forward(xi, base_weight, adapters[aid])
            np.testing.assert_allclose(y[view], y_ref, atol=1e-12)

    def test_padding_tiles_get_base_output_only(self, base_weight):
        adapters = make_adapters()
        batch = MultiLoRABatch(
            [Segment(0, 4), Segment(PAD_ADAPTER_ID, 4)], block_m=4
        )
        x = np.random.default_rng(5).standard_normal((8, K))
        y, _ = fused_multi_lora_forward(x, base_weight, adapters, batch)
        np.testing.assert_allclose(y[4:], x[4:] @ base_weight, atol=1e-12)

    def test_unknown_adapter_rejected(self, base_weight):
        batch = MultiLoRABatch([Segment(7, 4)], block_m=4)
        x = np.zeros((4, K))
        with pytest.raises(KernelConfigError, match="unknown adapter"):
            fused_multi_lora_forward(x, base_weight, {}, batch)

    def test_row_count_mismatch_rejected(self, base_weight):
        adapters = make_adapters()
        batch = MultiLoRABatch([Segment(0, 8)], block_m=4)
        with pytest.raises(KernelConfigError, match="rows"):
            fused_multi_lora_forward(np.zeros((4, K)), base_weight, adapters, batch)


class TestBackwardEquivalence:
    def test_gradients_routed_per_adapter(self, base_weight):
        adapters = make_adapters()
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal((8, K))
        x1 = rng.standard_normal((8, K))
        x, batch, views = pack_segments([(0, x0), (1, x1)], block_m=BLOCK)

        y, ctx = fused_multi_lora_forward(x, base_weight, adapters, batch)
        dy = np.sin(y)
        grads = fused_multi_lora_backward(dy, base_weight, adapters, ctx)

        for aid, xi, view in [(0, x0, views[0]), (1, x1, views[1])]:
            y_ref, ctx_ref = fused_lora_forward(xi, base_weight, adapters[aid])
            g_ref = fused_lora_backward(np.sin(y_ref), base_weight,
                                        adapters[aid], ctx_ref)
            np.testing.assert_allclose(grads.dx[view], g_ref.dx, atol=1e-12)
            np.testing.assert_allclose(grads.da[aid], g_ref.da, atol=1e-12)
            np.testing.assert_allclose(grads.db[aid], g_ref.db, atol=1e-12)

    def test_split_segments_accumulate_adapter_grads(self, base_weight):
        # One adapter's tokens split across two segments must produce the
        # same dA/dB as a single contiguous segment.
        adapters = make_adapters(ranks=(3,), alphas=(0.9,))
        rng = np.random.default_rng(7)
        x_full = rng.standard_normal((16, K))
        x_a, x_b = x_full[:8], x_full[8:]

        x1, batch1, _ = pack_segments([(0, x_full)], block_m=BLOCK)
        y1, ctx1 = fused_multi_lora_forward(x1, base_weight, adapters, batch1)
        g1 = fused_multi_lora_backward(np.cos(y1), base_weight, adapters, ctx1)

        x2, batch2, _ = pack_segments([(0, x_a), (0, x_b)], block_m=BLOCK)
        y2, ctx2 = fused_multi_lora_forward(x2, base_weight, adapters, batch2)
        g2 = fused_multi_lora_backward(np.cos(y2), base_weight, adapters, ctx2)

        np.testing.assert_allclose(g1.da[0], g2.da[0], atol=1e-12)
        np.testing.assert_allclose(g1.db[0], g2.db[0], atol=1e-12)

    def test_dropout_masks_respected_in_backward(self, base_weight):
        adapters = make_adapters(ranks=(3, 4), alphas=(1.0, 1.0), seed=8)
        for aid, p in [(0, 0.25), (1, 0.5)]:
            cfg = adapters[aid].config
            adapters[aid] = LoRAWeights(
                a=adapters[aid].a,
                b=adapters[aid].b,
                config=LoRAConfig(rank=cfg.rank, alpha=cfg.alpha, dropout=p,
                                  adapter_id=aid),
            )
        rng = np.random.default_rng(9)
        x0 = rng.standard_normal((8, K))
        x1 = rng.standard_normal((8, K))
        x, batch, views = pack_segments([(0, x0), (1, x1)], block_m=BLOCK)
        mask = np.random.default_rng(10).random(x.shape) >= 0.25

        y, ctx = fused_multi_lora_forward(
            x, base_weight, adapters, batch, mask=mask
        )
        grads = fused_multi_lora_backward(np.sin(y), base_weight, adapters, ctx)

        for aid, xi, view in [(0, x0, views[0]), (1, x1, views[1])]:
            y_ref, ctx_ref = fused_lora_forward(
                xi, base_weight, adapters[aid], mask=mask[view]
            )
            g_ref = fused_lora_backward(np.sin(y_ref), base_weight,
                                        adapters[aid], ctx_ref)
            np.testing.assert_allclose(grads.da[aid], g_ref.da, atol=1e-12)
            np.testing.assert_allclose(grads.db[aid], g_ref.db, atol=1e-12)


# Segment layouts in tiles: adapter -1 is padding; the small id range makes
# adjacent same-adapter segments common.
LAYOUTS = st.lists(
    st.tuples(st.sampled_from([PAD_ADAPTER_ID, 0, 1, 2]), st.integers(1, 5)),
    min_size=1, max_size=6,
)
SPLIT_LAYOUT = [(0, 2), (0, 1), (PAD_ADAPTER_ID, 1), (1, 3), (PAD_ADAPTER_ID, 2),
                (1, 1)]


def _layout_batch(layout, block_m):
    segments = [Segment(aid, tiles * block_m) for aid, tiles in layout]
    views, offset = [], 0
    for seg in segments:
        views.append(slice(offset, offset + seg.length))
        offset += seg.length
    return MultiLoRABatch(segments, block_m=block_m), views


class TestPropertyBased:
    @given(
        lengths=st.lists(st.integers(1, 24), min_size=1, max_size=4),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_matches_per_adapter_for_random_layouts(self, lengths, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((K, N))
        adapters = make_adapters(ranks=(2, 4, 3, 5)[: len(lengths)],
                                 alphas=(1.0,) * len(lengths), seed=seed)
        inputs = [
            (i % len(adapters), rng.standard_normal((length, K)))
            for i, length in enumerate(lengths)
        ]
        x, batch, views = pack_segments(inputs, block_m=BLOCK)
        y, _ = fused_multi_lora_forward(x, w, adapters, batch)
        for (aid, xi), view in zip(inputs, views):
            y_ref, _ = fused_lora_forward(xi, w, adapters[aid])
            np.testing.assert_allclose(y[view], y_ref, atol=1e-9)

    @given(layout=LAYOUTS, block_m=st.sampled_from([1, 4]),
           seed=st.integers(0, 2**31 - 1))
    @example(layout=SPLIT_LAYOUT, block_m=1, seed=0)
    @example(layout=SPLIT_LAYOUT, block_m=4, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_forward_backward_match_per_adapter(self, layout, block_m, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((K, N))
        adapters = make_adapters(ranks=(2, 5, 3), alphas=(0.5, 1.0, 2.0),
                                 seed=seed)
        batch, views = _layout_batch(layout, block_m)
        x = rng.standard_normal((batch.total_tokens, K))
        dy = rng.standard_normal((batch.total_tokens, N))

        y, ctx = fused_multi_lora_forward(x, w, adapters, batch)
        grads = fused_multi_lora_backward(dy, w, adapters, ctx)

        assert sorted(grads.da) == sorted(batch.adapter_ids)
        da_ref = {aid: np.zeros_like(adapters[aid].a) for aid in grads.da}
        db_ref = {aid: np.zeros_like(adapters[aid].b) for aid in grads.db}
        for (aid, _), view in zip(layout, views):
            if aid == PAD_ADAPTER_ID:
                np.testing.assert_allclose(y[view], x[view] @ w, atol=1e-9)
                np.testing.assert_allclose(grads.dx[view], dy[view] @ w.T,
                                           atol=1e-9)
                continue
            y_ref, ctx_ref = fused_lora_forward(x[view], w, adapters[aid])
            g_ref = fused_lora_backward(dy[view], w, adapters[aid], ctx_ref)
            np.testing.assert_allclose(y[view], y_ref, atol=1e-9)
            np.testing.assert_allclose(grads.dx[view], g_ref.dx, atol=1e-9)
            da_ref[aid] += g_ref.da
            db_ref[aid] += g_ref.db
        for aid in grads.da:
            np.testing.assert_allclose(grads.da[aid], da_ref[aid], atol=1e-9)
            np.testing.assert_allclose(grads.db[aid], db_ref[aid], atol=1e-9)

    @given(layout=LAYOUTS, block_m=st.sampled_from([1, 4]),
           seed=st.integers(0, 2**31 - 1))
    @example(layout=SPLIT_LAYOUT, block_m=4, seed=2)
    @settings(max_examples=30, deadline=None)
    def test_rng_dropout_masks_equal_per_tile_draws(self, layout, block_m, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((K, N))
        # Adapter 1 has no dropout: its tiles draw nothing and keep all.
        adapters = make_adapters(ranks=(2, 5, 3), alphas=(0.5, 1.0, 2.0),
                                 seed=seed, dropouts=(0.25, 0.0, 0.5))
        batch, views = _layout_batch(layout, block_m)
        x = rng.standard_normal((batch.total_tokens, K))
        dy = rng.standard_normal((batch.total_tokens, N))

        y, ctx = fused_multi_lora_forward(
            x, w, adapters, batch, rng=np.random.default_rng(seed + 1)
        )

        replay = np.random.default_rng(seed + 1)
        expected = np.ones(x.shape, dtype=bool)
        for tile, aid in enumerate(batch.tile_table):
            if aid == PAD_ADAPTER_ID or adapters[aid].config.dropout == 0.0:
                continue
            lo, hi = batch.tile_bounds(tile)
            expected[lo:hi] = dropout_mask(
                (block_m, K), adapters[aid].config.dropout, replay
            )
        if any(adapters[aid].config.dropout for aid in batch.adapter_ids):
            np.testing.assert_array_equal(ctx.mask, expected)
        else:
            assert ctx.mask is None

        grads = fused_multi_lora_backward(dy, w, adapters, ctx)
        for (aid, _), view in zip(layout, views):
            if aid == PAD_ADAPTER_ID:
                continue
            mask = ctx.mask[view] if ctx.mask is not None else None
            y_ref, ctx_ref = fused_lora_forward(x[view], w, adapters[aid],
                                                mask=mask)
            g_ref = fused_lora_backward(dy[view], w, adapters[aid], ctx_ref)
            np.testing.assert_allclose(y[view], y_ref, atol=1e-9)
            np.testing.assert_allclose(grads.dx[view], g_ref.dx, atol=1e-9)


class TestRunLevelWork:
    """The kernels do one adapter pass per run, never one per tile."""

    def test_one_adapter_pass_per_run(self, base_weight, monkeypatch):
        calls = []
        real = multi_mod.apply_dropout
        monkeypatch.setattr(
            multi_mod, "apply_dropout",
            lambda *args: calls.append(args[0].shape) or real(*args),
        )
        adapters = make_adapters(ranks=(3,), alphas=(1.0,))
        batch = MultiLoRABatch([Segment(0, 64)], block_m=1)
        assert batch.num_tiles == 64 and len(batch.runs) == 1
        x = np.random.default_rng(11).standard_normal((64, K))

        y, ctx = fused_multi_lora_forward(x, base_weight, adapters, batch)
        fused_multi_lora_backward(np.ones_like(y), base_weight, adapters, ctx)

        assert calls == [(64, K), (64, K)]  # one forward + one backward pass
