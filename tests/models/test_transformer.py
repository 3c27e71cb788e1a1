"""Tests for the numeric transformer, including full gradient checks."""

import numpy as np
import pytest

from repro.core.lora import LoRAConfig
from repro.errors import KernelConfigError
from repro.models import TINY, PackedBatch, TinyLoRATransformer
from repro.models.transformer import softmax_cross_entropy


@pytest.fixture
def model():
    m = TinyLoRATransformer(TINY, np.random.default_rng(0))
    m.add_adapter(LoRAConfig(rank=2, alpha=1.0, dropout=0.0, adapter_id=0))
    m.add_adapter(LoRAConfig(rank=3, alpha=0.5, dropout=0.0, adapter_id=1))
    # Non-zero B so adapter gradients flow through both matrices.
    for aid in (0, 1):
        rng = np.random.default_rng(100 + aid)
        for w in m.adapters[aid].values():
            w.b[:] = rng.standard_normal(w.b.shape) * 0.05
    return m


def make_batch(rng, spec, weights=None):
    samples = [(aid, rng.integers(0, TINY.vocab_size, n)) for aid, n in spec]
    return PackedBatch.from_samples(samples, weights)


class TestPackedBatch:
    def test_from_samples(self):
        rng = np.random.default_rng(1)
        batch = make_batch(rng, [(0, 5), (1, 7)])
        assert batch.total_tokens == 12
        assert batch.lengths == [5, 7]
        assert batch.adapter_ids == [0, 1]
        assert [s.stop - s.start for s in batch.sample_slices()] == [5, 7]

    def test_empty_rejected(self):
        with pytest.raises(KernelConfigError):
            PackedBatch.from_samples([])

    def test_metadata_mismatch_rejected(self):
        with pytest.raises(KernelConfigError):
            PackedBatch(token_ids=np.zeros(4, dtype=int), lengths=[4],
                        adapter_ids=[0, 1], weights=[1.0])


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_log_vocab(self):
        logits = np.zeros((3, 10))
        targets = np.array([1, 2, 3])
        loss, _ = softmax_cross_entropy(logits, targets, np.ones(3) / 3)
        assert loss == pytest.approx(np.log(10))

    def test_gradient_sums_to_zero_per_row(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 7))
        _, dlogits = softmax_cross_entropy(
            logits, np.array([0, 1, 2, 3]), np.ones(4)
        )
        np.testing.assert_allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)


class TestForward:
    def test_logits_shape(self, model):
        rng = np.random.default_rng(3)
        batch = make_batch(rng, [(0, 6), (1, 4)])
        logits = model.forward(batch)
        assert logits.shape == (10, TINY.vocab_size)

    def test_unknown_adapter_rejected(self, model):
        rng = np.random.default_rng(4)
        batch = make_batch(rng, [(9, 4)])
        with pytest.raises(KernelConfigError, match="unknown adapter"):
            model.forward(batch)

    def test_samples_are_independent(self, model):
        # Block-diagonal attention: sample 0's logits must not change when
        # sample 1 changes.
        rng = np.random.default_rng(5)
        tokens_a = rng.integers(0, TINY.vocab_size, 6)
        tokens_b1 = rng.integers(0, TINY.vocab_size, 5)
        tokens_b2 = rng.integers(0, TINY.vocab_size, 8)
        l1 = model.forward(PackedBatch.from_samples([(0, tokens_a), (1, tokens_b1)]))
        l2 = model.forward(PackedBatch.from_samples([(0, tokens_a), (1, tokens_b2)]))
        np.testing.assert_allclose(l1[:6], l2[:6], atol=1e-12)

    def test_sample_order_does_not_change_per_sample_logits(self, model):
        rng = np.random.default_rng(6)
        ta = rng.integers(0, TINY.vocab_size, 6)
        tb = rng.integers(0, TINY.vocab_size, 4)
        l_ab = model.forward(PackedBatch.from_samples([(0, ta), (1, tb)]))
        l_ba = model.forward(PackedBatch.from_samples([(1, tb), (0, ta)]))
        np.testing.assert_allclose(l_ab[:6], l_ba[4:], atol=1e-12)
        np.testing.assert_allclose(l_ab[6:], l_ba[:4], atol=1e-12)

    def test_fresh_adapter_is_identity(self):
        # B = 0 at init: logits equal for any two fresh adapters.
        model = TinyLoRATransformer(TINY, np.random.default_rng(0))
        model.add_adapter(LoRAConfig(rank=2, adapter_id=0, dropout=0.0))
        model.add_adapter(LoRAConfig(rank=5, adapter_id=1, dropout=0.0))
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, TINY.vocab_size, 6)
        l0 = model.forward(PackedBatch.from_samples([(0, tokens)]))
        l1 = model.forward(PackedBatch.from_samples([(1, tokens)]))
        np.testing.assert_allclose(l0, l1, atol=1e-12)


class TestBackward:
    def test_backward_without_forward_rejected(self, model):
        with pytest.raises(KernelConfigError):
            model.backward(np.zeros((4, TINY.vocab_size)))

    def test_gradcheck_adapter_params(self, model):
        """Full-model numeric gradient check on sampled adapter entries."""
        rng = np.random.default_rng(8)
        batch = make_batch(rng, [(0, 7), (1, 5)], weights=[0.2, 0.3])
        _, _, grads = model.loss_and_grads(batch)

        eps = 1e-6
        checked = 0
        for aid, layer, proj, which in [
            (0, 0, "q_proj", "a"),
            (0, 1, "o_proj", "b"),
            (1, 0, "up_proj", "a"),
            (1, 1, "down_proj", "b"),
            (0, 0, "v_proj", "b"),
            (1, 1, "k_proj", "a"),
        ]:
            w = getattr(model.adapters[aid][(layer, proj)], which)
            i, j = w.shape[0] // 2, w.shape[1] // 2
            orig = w[i, j]
            w[i, j] = orig + eps
            lp, _, _ = model.loss_and_grads(batch)
            w[i, j] = orig - eps
            lm, _, _ = model.loss_and_grads(batch)
            w[i, j] = orig
            numeric = (lp - lm) / (2 * eps)
            analytic = grads[aid][(layer, proj)][which][i, j]
            assert numeric == pytest.approx(analytic, abs=1e-7), (
                aid, layer, proj, which
            )
            checked += 1
        assert checked == 6

    def test_only_present_adapters_get_nonzero_grads(self, model):
        rng = np.random.default_rng(9)
        batch = make_batch(rng, [(0, 6)])
        _, _, grads = model.loss_and_grads(batch)
        # Adapter 1 is absent: it gets no gradient buffers at all.
        assert set(grads) == {0}
        nonzero = max(np.abs(g["a"]).max() for g in grads[0].values())
        assert nonzero > 0.0

    def test_loss_weights_scale_gradients(self, model):
        rng = np.random.default_rng(10)
        tokens = rng.integers(0, TINY.vocab_size, 6)
        _, _, g1 = model.loss_and_grads(
            PackedBatch.from_samples([(0, tokens)], weights=[1.0])
        )
        _, _, g2 = model.loss_and_grads(
            PackedBatch.from_samples([(0, tokens)], weights=[2.0])
        )
        key = (0, "q_proj")
        np.testing.assert_allclose(g2[0][key]["a"], 2 * g1[0][key]["a"], atol=1e-12)


class TestValidation:
    def test_gqa_not_supported_numerically(self):
        from repro.models import LLAMA3_8B

        with pytest.raises(KernelConfigError, match="MHA"):
            TinyLoRATransformer(LLAMA3_8B)

    def test_duplicate_adapter_rejected(self, model):
        with pytest.raises(KernelConfigError):
            model.add_adapter(LoRAConfig(rank=2, adapter_id=0))
