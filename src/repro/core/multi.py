"""FusedMultiLoRA: tile-level routing of multiple adapters (Figure 11).

A microbatch produced by the multi-LoRA scheduler concatenates token
segments that belong to different fine-tuning jobs.  The FusedMultiLoRA
kernel processes all of them in a single launch: the token dimension is cut
into M-tiles of ``block_m`` rows, and a precomputed lookup table maps every
tile to the adapter that owns its tokens.  The frozen base GEMM is shared by
all tokens; the adapter-specific low-rank math (with per-adapter rank,
scaling, and dropout) is applied per tile.

The numpy implementation keeps that split.  The base products
``Y = X W`` and ``dX = dY W^T`` are one GEMM over all ``M`` rows, padding
rows included.  The adapter math is routed by the lookup table: its maximal
runs of consecutive same-adapter tiles (:attr:`MultiLoRABatch.runs`) each
get one slab of low-rank GEMMs with that adapter's ``A``, ``B``, ``alpha``
and dropout rate, and padding runs get none.  This is the per-tile kernel
with adjacent tiles stacked: every output row depends only on its own input
row and its owning adapter, and each adapter's ``dA``/``dB`` is a sum over
its rows, which a slab GEMM computes in one call (summed in a different
float order than tile by tile).  Dropout masks are drawn per run, which a
numpy ``Generator`` fills with the same values as the per-tile draws it
concatenates.  The kernels are validated against per-adapter
:mod:`repro.core.fused` calls.

Alignment rule: a tile must never straddle two adapters, so every segment
length must be a multiple of ``block_m``.  The scheduler guarantees this via
the padding multiple ``P`` (Section 5.2); :func:`pack_segments` provides the
same padding for direct kernel users.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.lora import LoRAWeights, apply_dropout, dropout_mask
from repro.errors import KernelConfigError

__all__ = [
    "PAD_ADAPTER_ID",
    "Segment",
    "MultiLoRABatch",
    "MultiLoRAContext",
    "MultiLoRAGrads",
    "build_tile_table",
    "pack_segments",
    "fused_multi_lora_forward",
    "fused_multi_lora_backward",
]

#: Adapter id used for padding tiles that carry no real tokens.
PAD_ADAPTER_ID = -1


@dataclass(frozen=True)
class Segment:
    """A contiguous run of tokens owned by one adapter."""

    adapter_id: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise KernelConfigError(f"segment length must be positive: {self}")


def build_tile_table(segments: list[Segment], block_m: int) -> np.ndarray:
    """Build the tile -> adapter lookup table for a microbatch.

    Args:
        segments: Token segments in layout order.
        block_m: Tile height in tokens.

    Returns:
        Integer array of length ``total_tokens / block_m`` whose ``i``-th
        entry is the adapter id owning tile ``i``.

    Raises:
        KernelConfigError: If any segment is not ``block_m``-aligned (a tile
            would straddle two adapters).
    """
    if block_m <= 0:
        raise KernelConfigError(f"block_m must be positive, got {block_m}")
    table: list[int] = []
    for seg in segments:
        if seg.length % block_m != 0:
            raise KernelConfigError(
                f"segment {seg} is not aligned to block_m={block_m}; "
                "pad with pack_segments() or the scheduler's padding multiple"
            )
        table.extend([seg.adapter_id] * (seg.length // block_m))
    return np.asarray(table, dtype=np.int64)


@dataclass
class MultiLoRABatch:
    """Descriptor of a mixed-adapter microbatch for the fused kernel.

    Attributes:
        segments: Token segments in layout order (block-aligned).
        block_m: Tile height used for routing.
        tile_table: Lookup table from :func:`build_tile_table`.
        runs: Row ranges ``(adapter_id, start, end)`` of the table's maximal
            runs of consecutive same-adapter tiles, padding runs excluded.
        adapter_ids: Distinct real adapter ids present, in first-appearance
            order.
    """

    segments: list[Segment]
    block_m: int = 64
    tile_table: np.ndarray = field(init=False)
    runs: list[tuple[int, int, int]] = field(init=False)
    adapter_ids: list[int] = field(init=False)

    def __post_init__(self) -> None:
        table = build_tile_table(self.segments, self.block_m)
        self.tile_table = table
        # A run starts at every tile whose owner differs from its
        # predecessor's; the first tile always starts one.
        starts = np.flatnonzero(np.diff(table, prepend=table[:1] - 1)).tolist()
        ends = [*starts[1:], len(table)]
        self.runs = [
            (adapter_id, start * self.block_m, end * self.block_m)
            for adapter_id, start, end in zip(table[starts].tolist(), starts, ends)
            if adapter_id != PAD_ADAPTER_ID
        ]
        self.adapter_ids = list(dict.fromkeys(run[0] for run in self.runs))

    @property
    def total_tokens(self) -> int:
        """Total (padded) token rows in the microbatch."""
        return self.num_tiles * self.block_m

    @property
    def num_tiles(self) -> int:
        """Number of M-tiles."""
        return len(self.tile_table)

    def tile_bounds(self, tile: int) -> tuple[int, int]:
        """Row range ``[start, end)`` of tile ``tile``."""
        start = tile * self.block_m
        return start, start + self.block_m


def pack_segments(
    inputs: list[tuple[int, np.ndarray]], block_m: int = 64
) -> tuple[np.ndarray, MultiLoRABatch, list[slice]]:
    """Concatenate per-adapter inputs into one block-aligned batch.

    Each input is padded with zero rows up to the next multiple of
    ``block_m``; padding rows are tagged :data:`PAD_ADAPTER_ID` so the
    kernel skips adapter math for them.

    Args:
        inputs: List of ``(adapter_id, x_i)`` pairs, each ``x_i`` of shape
            ``(m_i, k)``.
        block_m: Tile height.

    Returns:
        ``(x, batch, views)`` where ``x`` is the packed ``(M, k)`` input,
        ``batch`` the routing descriptor, and ``views[i]`` the row slice of
        input ``i`` inside ``x`` (use it to un-pad outputs).
    """
    if not inputs:
        raise KernelConfigError("pack_segments requires at least one input")
    k = inputs[0][1].shape[1]
    rows: list[np.ndarray] = []
    segments: list[Segment] = []
    views: list[slice] = []
    offset = 0
    for adapter_id, x_i in inputs:
        if x_i.ndim != 2 or x_i.shape[1] != k:
            raise KernelConfigError(
                f"all inputs must be (m_i, {k}); got {x_i.shape}"
            )
        m_i = x_i.shape[0]
        pad = (-m_i) % block_m
        rows.append(x_i)
        views.append(slice(offset, offset + m_i))
        if m_i + pad > 0:
            segments.append(Segment(adapter_id, m_i + pad))
        if pad:
            rows.append(np.zeros((pad, k), dtype=x_i.dtype))
        offset += m_i + pad
    x = np.concatenate(rows, axis=0)
    return x, MultiLoRABatch(segments=segments, block_m=block_m), views


@dataclass
class MultiLoRAContext:
    """Saved tensors from a FusedMultiLoRA forward pass."""

    x: np.ndarray
    x_hat: np.ndarray
    s: np.ndarray  # (m, max_rank); tile rows use the owning adapter's rank
    mask: np.ndarray | None
    batch: MultiLoRABatch


@dataclass
class MultiLoRAGrads:
    """Gradients from a FusedMultiLoRA backward pass, routed per adapter."""

    dx: np.ndarray
    da: dict[int, np.ndarray]
    db: dict[int, np.ndarray]


def _check_adapters(
    adapters: dict[int, LoRAWeights], batch: MultiLoRABatch, k: int
) -> int:
    """Validate adapter availability/shapes; return the maximum rank."""
    max_rank = 1
    for adapter_id in batch.adapter_ids:
        if adapter_id not in adapters:
            raise KernelConfigError(f"batch references unknown adapter {adapter_id}")
        weights = adapters[adapter_id]
        if weights.in_features != k:
            raise KernelConfigError(
                f"adapter {adapter_id} expects k={weights.in_features}, "
                f"input has k={k}"
            )
        max_rank = max(max_rank, weights.config.rank)
    return max_rank


def fused_multi_lora_forward(
    x: np.ndarray,
    w: np.ndarray,
    adapters: dict[int, LoRAWeights],
    batch: MultiLoRABatch,
    rng: np.random.Generator | None = None,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, MultiLoRAContext]:
    """FusedMultiLoRA forward pass with tile-level adapter routing.

    One base GEMM covers every row.  Per run of same-adapter tiles, the
    kernel applies that adapter's dropout, down-projects with its ``A``, and
    adds its scaled up-projection -- kernels 1-2 of Figure 10, with the
    weights selected through the lookup table.

    Args:
        x: Packed input of shape ``(M, k)`` with ``M = batch.total_tokens``.
        w: Shared frozen base weight ``(k, n)``.
        adapters: Mapping from adapter id to weights.
        batch: Tile routing descriptor.
        rng: Generator for dropout masks (per-run, per-adapter rate).
        mask: Optional pre-sampled full ``(M, k)`` keep mask.

    Returns:
        ``(y, ctx)``.
    """
    m, k = x.shape
    if m != batch.total_tokens:
        raise KernelConfigError(
            f"input rows {m} != batch tokens {batch.total_tokens}"
        )
    max_rank = _check_adapters(adapters, batch, k)

    # Shared base GEMM; padding rows keep exactly this output.
    y = (x @ w).astype(x.dtype, copy=False)
    x_hat = np.zeros_like(x)
    s = np.zeros((m, max_rank), dtype=x.dtype)
    full_mask: np.ndarray | None = mask
    needs_mask = full_mask is None and any(
        adapters[i].config.dropout > 0.0 for i in batch.adapter_ids
    )
    if needs_mask:
        if rng is None:
            raise KernelConfigError("dropout > 0 requires an rng or explicit mask")
        full_mask = np.ones((m, k), dtype=bool)

    for adapter_id, lo, hi in batch.runs:
        weights = adapters[adapter_id]
        cfg = weights.config
        x_run = x[lo:hi]
        if cfg.dropout == 0.0:
            run_mask = None
        elif mask is not None:
            run_mask = mask[lo:hi]
        else:
            run_mask = dropout_mask(x_run.shape, cfg.dropout, rng)
            full_mask[lo:hi] = run_mask
        xh_run = apply_dropout(x_run, run_mask, 1.0 - cfg.dropout)
        s_run = xh_run @ weights.a
        x_hat[lo:hi] = xh_run
        s[lo:hi, : cfg.rank] = s_run
        y[lo:hi] += cfg.alpha * (s_run @ weights.b)

    ctx = MultiLoRAContext(x=x, x_hat=x_hat, s=s, mask=full_mask, batch=batch)
    return y, ctx


def fused_multi_lora_backward(
    dy: np.ndarray,
    w: np.ndarray,
    adapters: dict[int, LoRAWeights],
    ctx: MultiLoRAContext,
) -> MultiLoRAGrads:
    """FusedMultiLoRA backward pass with per-run gradient routing.

    Run gradients are accumulated into per-adapter ``dA``/``dB`` buffers
    (the real kernel uses atomics / split accumulation, which is the slight
    backward overhead the paper reports for FusedMultiLoRA).
    """
    batch = ctx.batch
    m, k = ctx.x.shape
    if dy.shape[0] != m:
        raise KernelConfigError(f"dy rows {dy.shape[0]} != input rows {m}")

    # Shared base GEMM of kernel 5; the LoRA epilogue is added per run.
    dx = (dy @ w.T).astype(dy.dtype, copy=False)
    da = {
        adapter_id: np.zeros_like(adapters[adapter_id].a)
        for adapter_id in batch.adapter_ids
    }
    db = {
        adapter_id: np.zeros_like(adapters[adapter_id].b)
        for adapter_id in batch.adapter_ids
    }

    for adapter_id, lo, hi in batch.runs:
        weights = adapters[adapter_id]
        cfg = weights.config
        dy_run = dy[lo:hi]
        s_run = ctx.s[lo:hi, : cfg.rank]
        run_mask = ctx.mask[lo:hi] if (ctx.mask is not None and cfg.dropout) else None
        # Kernel 3 (fused_multi_lora_dys_dyb): dB and dS from one dY pass.
        db[adapter_id] += cfg.alpha * (s_run.T @ dy_run)
        ds_run = cfg.alpha * (dy_run @ weights.b.T)
        # Kernel 4: dA accumulation.
        da[adapter_id] += ctx.x_hat[lo:hi].T @ ds_run
        # Kernel 5 (fused_multi_lora_dyw_dsa): dX with LoRA epilogue.
        dx[lo:hi] += apply_dropout(ds_run @ weights.a.T, run_mask, 1.0 - cfg.dropout)

    return MultiLoRAGrads(dx=dx, da=da, db=db)
