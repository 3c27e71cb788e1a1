"""A numerically-exact numpy LoRA transformer for correctness experiments.

The paper claims its optimizations are *lossless*: fused kernels are
functionally identical to the baseline and the scheduler preserves each
adapter's gradient-update sequence.  The performance model cannot test that;
this module can.  It is a small decoder-only transformer (RMSNorm, rotary
causal attention, SwiGLU) with LoRA adapters on all seven projections,
implemented with explicit forward/backward passes in numpy, using the
FusedMultiLoRA kernels of :mod:`repro.core.multi` for every linear layer.

Samples from different adapters are packed into one sequence dimension with
block-diagonal causal attention (on-the-fly packing, Figure 2c), exactly as
the real system trains mixed-adapter microbatches.  Training it jointly on
multiple adapters must reproduce, bit-comparably, the updates of training
each adapter alone -- which the losslessness tests verify.

Base weights (embeddings, projections, norms, head) are frozen; only the
LoRA ``A``/``B`` matrices receive gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.lora import LoRAConfig, LoRAWeights
from repro.core.multi import (
    MultiLoRABatch,
    MultiLoRAContext,
    Segment,
    fused_multi_lora_backward,
    fused_multi_lora_forward,
)
from repro.errors import KernelConfigError
from repro.models.config import ModelConfig

__all__ = ["PackedBatch", "TinyLoRATransformer", "softmax_cross_entropy"]

PROJECTIONS = ("q_proj", "k_proj", "v_proj", "o_proj",
               "gate_proj", "up_proj", "down_proj")

_NORM_EPS = 1e-6


@dataclass
class PackedBatch:
    """A packed microbatch of samples from (possibly) multiple adapters.

    Attributes:
        token_ids: Concatenated token ids, shape ``(M,)``.
        lengths: Per-sample lengths (attention is block-diagonal over them).
        adapter_ids: Owning adapter of each sample.
        weights: Per-sample loss weights (e.g. ``1 / adapter_batch_tokens``).
    """

    token_ids: np.ndarray
    lengths: list[int]
    adapter_ids: list[int]
    weights: list[float]

    def __post_init__(self) -> None:
        if not (len(self.lengths) == len(self.adapter_ids) == len(self.weights)):
            raise KernelConfigError("per-sample metadata lengths disagree")
        if sum(self.lengths) != len(self.token_ids):
            raise KernelConfigError("lengths do not cover token_ids")

    @staticmethod
    def from_samples(
        samples: list[tuple[int, np.ndarray]],
        weights: list[float] | None = None,
    ) -> "PackedBatch":
        """Pack ``(adapter_id, token_ids)`` samples into one batch."""
        if not samples:
            raise KernelConfigError("cannot pack an empty sample list")
        if weights is None:
            weights = [1.0] * len(samples)
        token_ids = np.concatenate([tokens for _, tokens in samples])
        return PackedBatch(
            token_ids=token_ids,
            lengths=[len(tokens) for _, tokens in samples],
            adapter_ids=[adapter_id for adapter_id, _ in samples],
            weights=list(weights),
        )

    def segments(self) -> list[Segment]:
        """Adapter segments in layout order (``block_m=1`` alignment)."""
        return [
            Segment(adapter_id, length)
            for adapter_id, length in zip(self.adapter_ids, self.lengths)
        ]

    def sample_slices(self) -> list[slice]:
        """Row range of each sample in the packed dimension."""
        slices, offset = [], 0
        for length in self.lengths:
            slices.append(slice(offset, offset + length))
            offset += length
        return slices

    @property
    def total_tokens(self) -> int:
        """Packed sequence length ``M``."""
        return int(sum(self.lengths))


def softmax_cross_entropy(
    logits: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Weighted next-token cross entropy and its logits gradient.

    Args:
        logits: ``(T, vocab)`` prediction logits.
        targets: ``(T,)`` integer labels.
        weights: ``(T,)`` per-position loss weights.

    Returns:
        ``(loss, dlogits)`` where ``loss = sum_i w_i * nll_i``.
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    nll = -np.log(probs[np.arange(len(targets)), targets] + 1e-300)
    loss = float(np.sum(weights * nll))
    dlogits = probs * weights[:, None]
    dlogits[np.arange(len(targets)), targets] -= weights
    return loss, dlogits


def _silu(z: np.ndarray) -> np.ndarray:
    sig = 1.0 / (1.0 + np.exp(-z))
    return z * sig


def _silu_grad(z: np.ndarray) -> np.ndarray:
    sig = 1.0 / (1.0 + np.exp(-z))
    return sig * (1.0 + z * (1.0 - sig))


def _rms_forward(x: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    inv = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _NORM_EPS)
    return x * inv * gain, inv


def _rms_backward(
    dy: np.ndarray, x: np.ndarray, inv: np.ndarray, gain: np.ndarray
) -> np.ndarray:
    h = x.shape[-1]
    dyg = dy * gain
    dot = np.sum(dyg * x, axis=-1, keepdims=True)
    return dyg * inv - x * (inv**3) * dot / h


def _rope_angles(length: int, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    half = head_dim // 2
    freqs = 1.0 / (10000.0 ** (np.arange(half) / half))
    angles = np.outer(np.arange(length), freqs)
    return np.cos(angles), np.sin(angles)


def _rope_apply(x: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                inverse: bool = False) -> np.ndarray:
    """Rotate pairs of channels; ``inverse=True`` applies the transpose."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    if inverse:
        sin = -sin
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


@dataclass
class _LayerCache:
    """Saved intermediates of one decoder layer forward pass."""

    x_in: np.ndarray
    norm1_inv: np.ndarray
    a_in: np.ndarray
    lin_ctx: dict[str, MultiLoRAContext]
    q_rot: np.ndarray
    k_rot: np.ndarray
    v: np.ndarray
    attn_probs: list[np.ndarray]
    attn_out: np.ndarray
    h_mid: np.ndarray
    norm2_inv: np.ndarray
    m_in: np.ndarray
    gate: np.ndarray
    up: np.ndarray
    act: np.ndarray


class TinyLoRATransformer:
    """Decoder-only transformer with multi-LoRA adapters, numpy end-to-end.

    Args:
        config: Architecture (use :data:`repro.models.config.TINY`).
        rng: Generator used to initialise frozen weights and adapters.
        dtype: Numpy dtype for all tensors (float64 for exact tests).
    """

    def __init__(
        self,
        config: ModelConfig,
        rng: np.random.Generator | None = None,
        dtype: np.dtype = np.float64,
    ) -> None:
        if config.num_kv_heads != config.num_heads:
            raise KernelConfigError(
                "the numeric model implements MHA; use num_kv_heads == num_heads"
            )
        self.config = config
        self.dtype = dtype
        rng = rng if rng is not None else np.random.default_rng(0)
        h, v = config.hidden_size, config.vocab_size

        def init(shape, scale):
            return (rng.standard_normal(shape) * scale).astype(dtype)

        self.embed = init((v, h), 0.5)
        self.lm_head = init((h, v), 1.0 / np.sqrt(h))
        self.final_gain = np.ones(h, dtype=dtype)
        self.layers: list[dict[str, np.ndarray]] = []
        for _ in range(config.num_layers):
            weights = {"norm1": np.ones(h, dtype=dtype),
                       "norm2": np.ones(h, dtype=dtype)}
            for name, (k, n) in config.linear_shapes().items():
                weights[name] = init((k, n), 1.0 / np.sqrt(k))
            self.layers.append(weights)
        # adapters[adapter_id][(layer, projection)] -> LoRAWeights
        self.adapters: dict[int, dict[tuple[int, str], LoRAWeights]] = {}
        self._caches: list[_LayerCache] | None = None
        self._final: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._batch: tuple[PackedBatch, MultiLoRABatch] | None = None

    # -- adapters -----------------------------------------------------------

    def add_adapter(
        self, cfg: LoRAConfig, rng: np.random.Generator | None = None
    ) -> None:
        """Attach a fresh adapter (Kaiming ``A``, zero ``B``) to every linear."""
        if cfg.adapter_id in self.adapters:
            raise KernelConfigError(f"adapter {cfg.adapter_id} already exists")
        rng = rng if rng is not None else np.random.default_rng(cfg.adapter_id + 1)
        params: dict[tuple[int, str], LoRAWeights] = {}
        for layer in range(self.config.num_layers):
            for name, (k, n) in self.config.linear_shapes().items():
                a = (rng.standard_normal((k, cfg.rank)) / np.sqrt(k)).astype(self.dtype)
                b = np.zeros((cfg.rank, n), dtype=self.dtype)
                params[(layer, name)] = LoRAWeights(a=a, b=b, config=cfg)
        self.adapters[cfg.adapter_id] = params

    def adapter_state(self, adapter_id: int) -> dict[tuple[int, str], LoRAWeights]:
        """The adapter's parameter mapping (mutated in place by optimizers)."""
        return self.adapters[adapter_id]

    def _proj_adapters(
        self, layer: int, name: str, batch: MultiLoRABatch
    ) -> dict[int, LoRAWeights]:
        return {
            adapter_id: self.adapters[adapter_id][(layer, name)]
            for adapter_id in batch.adapter_ids
        }

    def _linear(
        self,
        layer: int,
        name: str,
        x: np.ndarray,
        batch: MultiLoRABatch,
        cache: dict[str, MultiLoRAContext],
    ) -> np.ndarray:
        y, ctx = fused_multi_lora_forward(
            x, self.layers[layer][name], self._proj_adapters(layer, name, batch),
            batch,
        )
        cache[name] = ctx
        return y

    def _linear_backward(
        self,
        layer: int,
        name: str,
        dy: np.ndarray,
        cache: dict[str, MultiLoRAContext],
        grads: dict[int, dict[tuple[int, str], dict[str, np.ndarray]]],
    ) -> np.ndarray:
        ctx = cache[name]
        out = fused_multi_lora_backward(
            dy, self.layers[layer][name],
            self._proj_adapters(layer, name, ctx.batch), ctx,
        )
        for adapter_id, da in out.da.items():
            grads[adapter_id][(layer, name)]["a"] += da
        for adapter_id, db in out.db.items():
            grads[adapter_id][(layer, name)]["b"] += db
        return out.dx

    # -- attention ----------------------------------------------------------

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        m = x.shape[0]
        heads, dim = self.config.num_heads, self.config.head_dim
        return x.reshape(m, heads, dim).transpose(1, 0, 2)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        heads, m, dim = x.shape
        return x.transpose(1, 0, 2).reshape(m, heads * dim)

    def _attention_forward(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, batch: PackedBatch
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Block-diagonal causal attention over packed samples."""
        scale = 1.0 / np.sqrt(self.config.head_dim)
        out = np.zeros_like(q)
        probs: list[np.ndarray] = []
        for sl in batch.sample_slices():
            qh = self._split_heads(q[sl])
            kh = self._split_heads(k[sl])
            vh = self._split_heads(v[sl])
            scores = qh @ kh.transpose(0, 2, 1) * scale
            length = qh.shape[1]
            causal = np.triu(np.ones((length, length), dtype=bool), k=1)
            scores = np.where(causal, -np.inf, scores)
            scores -= scores.max(axis=-1, keepdims=True)
            exp = np.exp(scores)
            p = exp / exp.sum(axis=-1, keepdims=True)
            out[sl] = self._merge_heads(p @ vh)
            probs.append(p)
        return out, probs

    def _attention_backward(
        self,
        dout: np.ndarray,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        probs: list[np.ndarray],
        batch: PackedBatch,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        scale = 1.0 / np.sqrt(self.config.head_dim)
        dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
        for p, sl in zip(probs, batch.sample_slices()):
            qh = self._split_heads(q[sl])
            kh = self._split_heads(k[sl])
            vh = self._split_heads(v[sl])
            do = self._split_heads(dout[sl])
            dv_h = p.transpose(0, 2, 1) @ do
            dp = do @ vh.transpose(0, 2, 1)
            dscores = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
            dq[sl] = self._merge_heads(dscores @ kh * scale)
            dk[sl] = self._merge_heads(dscores.transpose(0, 2, 1) @ qh * scale)
            dv[sl] = self._merge_heads(dv_h)
        return dq, dk, dv

    def _rope_tables(self, batch: PackedBatch) -> tuple[np.ndarray, np.ndarray]:
        """Per-token cos/sin with positions restarting at each sample."""
        cos_rows, sin_rows = [], []
        for length in batch.lengths:
            cos, sin = _rope_angles(length, self.config.head_dim)
            cos_rows.append(cos)
            sin_rows.append(sin)
        return np.concatenate(cos_rows), np.concatenate(sin_rows)

    def _rope(self, x: np.ndarray, cos: np.ndarray, sin: np.ndarray,
              inverse: bool = False) -> np.ndarray:
        heads = self.config.num_heads
        m = x.shape[0]
        per_head = x.reshape(m, heads, self.config.head_dim)
        rotated = _rope_apply(per_head, cos[:, None, :], sin[:, None, :],
                              inverse=inverse)
        return rotated.reshape(m, heads * self.config.head_dim)

    # -- full passes ----------------------------------------------------------

    def forward(self, batch: PackedBatch) -> np.ndarray:
        """Forward pass over a packed batch; returns ``(M, vocab)`` logits."""
        for adapter_id in set(batch.adapter_ids):
            if adapter_id not in self.adapters:
                raise KernelConfigError(f"unknown adapter {adapter_id}")
        multi_batch = MultiLoRABatch(batch.segments(), block_m=1)
        cos, sin = self._rope_tables(batch)
        x = self.embed[batch.token_ids]
        caches: list[_LayerCache] = []
        for layer in range(self.config.num_layers):
            weights = self.layers[layer]
            a_in, inv1 = _rms_forward(x, weights["norm1"])
            ctxs: dict[str, MultiLoRAContext] = {}
            q = self._linear(layer, "q_proj", a_in, multi_batch, ctxs)
            k = self._linear(layer, "k_proj", a_in, multi_batch, ctxs)
            v = self._linear(layer, "v_proj", a_in, multi_batch, ctxs)
            q_rot = self._rope(q, cos, sin)
            k_rot = self._rope(k, cos, sin)
            attn, probs = self._attention_forward(q_rot, k_rot, v, batch)
            o = self._linear(layer, "o_proj", attn, multi_batch, ctxs)
            h_mid = x + o
            m_in, inv2 = _rms_forward(h_mid, weights["norm2"])
            gate = self._linear(layer, "gate_proj", m_in, multi_batch, ctxs)
            up = self._linear(layer, "up_proj", m_in, multi_batch, ctxs)
            act = _silu(gate) * up
            down = self._linear(layer, "down_proj", act, multi_batch, ctxs)
            x_out = h_mid + down
            caches.append(
                _LayerCache(
                    x_in=x, norm1_inv=inv1, a_in=a_in, lin_ctx=ctxs,
                    q_rot=q_rot, k_rot=k_rot, v=v, attn_probs=probs,
                    attn_out=attn, h_mid=h_mid, norm2_inv=inv2, m_in=m_in,
                    gate=gate, up=up, act=act,
                )
            )
            x = x_out
        hf, inv_f = _rms_forward(x, self.final_gain)
        logits = hf @ self.lm_head
        self._caches = caches
        self._final = (x, inv_f, hf)
        self._batch = (batch, multi_batch)
        return logits

    def backward(
        self, dlogits: np.ndarray
    ) -> dict[int, dict[tuple[int, str], dict[str, np.ndarray]]]:
        """Backward pass; returns ``A``/``B`` gradients per adapter in the batch.

        Adapters absent from the batch receive no gradient and get no entry.
        """
        if self._caches is None or self._final is None or self._batch is None:
            raise KernelConfigError("backward called before forward")
        batch, multi_batch = self._batch
        cos, sin = self._rope_tables(batch)
        grads: dict[int, dict[tuple[int, str], dict[str, np.ndarray]]] = {
            adapter_id: {
                key: {"a": np.zeros_like(weights.a), "b": np.zeros_like(weights.b)}
                for key, weights in self.adapters[adapter_id].items()
            }
            for adapter_id in multi_batch.adapter_ids
        }
        x_last, inv_f, hf = self._final
        dhf = dlogits @ self.lm_head.T
        dx = _rms_backward(dhf, x_last, inv_f, self.final_gain)
        for layer in reversed(range(self.config.num_layers)):
            cache = self._caches[layer]
            weights = self.layers[layer]
            ctxs = cache.lin_ctx
            # MLP block.
            ddown_in = self._linear_backward(layer, "down_proj", dx, ctxs, grads)
            dgate = ddown_in * cache.up * _silu_grad(cache.gate)
            dup = ddown_in * _silu(cache.gate)
            dm_in = self._linear_backward(layer, "gate_proj", dgate, ctxs, grads)
            dm_in += self._linear_backward(layer, "up_proj", dup, ctxs, grads)
            dh_mid = dx + _rms_backward(dm_in, cache.h_mid, cache.norm2_inv,
                                        weights["norm2"])
            # Attention block.
            dattn = self._linear_backward(layer, "o_proj", dh_mid, ctxs, grads)
            dq_rot, dk_rot, dv = self._attention_backward(
                dattn, cache.q_rot, cache.k_rot, cache.v, cache.attn_probs, batch
            )
            dq = self._rope(dq_rot, cos, sin, inverse=True)
            dk = self._rope(dk_rot, cos, sin, inverse=True)
            da_in = self._linear_backward(layer, "q_proj", dq, ctxs, grads)
            da_in += self._linear_backward(layer, "k_proj", dk, ctxs, grads)
            da_in += self._linear_backward(layer, "v_proj", dv, ctxs, grads)
            dx = dh_mid + _rms_backward(da_in, cache.x_in, cache.norm1_inv,
                                        weights["norm1"])
        self._caches = None
        self._final = None
        self._batch = None
        return grads

    def loss_and_grads(
        self, batch: PackedBatch
    ) -> tuple[
        float,
        list[float],
        dict[int, dict[tuple[int, str], dict[str, np.ndarray]]],
    ]:
        """Next-token loss over the batch plus per-adapter gradients.

        Each sample predicts its own tokens only (targets never cross sample
        boundaries); position ``t`` predicts token ``t+1`` weighted by the
        sample's loss weight.

        Returns:
            ``(total_loss, per_sample_losses, grads)``.
        """
        logits = self.forward(batch)
        dlogits = np.zeros_like(logits)
        total_loss = 0.0
        per_sample: list[float] = []
        for sl, weight in zip(batch.sample_slices(), batch.weights):
            sample_logits = logits[sl][:-1]
            targets = batch.token_ids[sl][1:]
            if len(targets) == 0:
                per_sample.append(0.0)
                continue
            w = np.full(len(targets), weight)
            loss, dl = softmax_cross_entropy(sample_logits, targets, w)
            total_loss += loss
            per_sample.append(loss)
            dlogits[sl.start : sl.stop - 1] = dl
        grads = self.backward(dlogits)
        return total_loss, per_sample, grads
