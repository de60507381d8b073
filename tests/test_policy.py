"""Policy/Q heads over the shared encoder, plus checkpoint persistence."""

import itertools
import struct

import numpy as np
import pytest

from lpirec import policy
from lpirec.config import RunConfig
from lpirec.data import ExampleColumns, RaggedContexts, TrainingExample
from lpirec.encoder import EncoderConfig, encode_backward, pad_contexts
from lpirec.policy import (
    CheckpointError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    SequenceModel,
    Workspace,
    load_checkpoint,
    log_softmax,
    save_checkpoint,
    softmax,
)
from lpirec.training import evaluate_examples


def make_model(catalog=7, dim=4, seed=0, **kwargs):
    cfg = EncoderConfig(catalog_size=catalog, dim=dim, **kwargs)
    return SequenceModel.initialize(cfg, seed)


# -- softmax utilities ---------------------------------------------------------


def test_probabilities_match_direct_normalization_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        logits = rng.standard_normal(9) * rng.uniform(0.1, 30)
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(softmax(logits), expected, atol=1e-12)


def test_softmax_is_shift_invariant():
    logits = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_allclose(softmax(logits), softmax(logits + 123.456), atol=1e-12)


def test_softmax_survives_extreme_logits():
    probs = softmax(np.array([1e4, 0.0, -1e4]))
    assert np.isfinite(probs).all()
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)


def test_log_probs_exponentiate_to_unit_mass():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((50, 12)) * 5
    lp = log_softmax(logits)
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-9)


def test_softmax_and_log_softmax_leave_their_logits_unchanged():
    logits = np.random.default_rng(2).standard_normal((5, 9))
    held = logits.copy()
    probs, log_probs = softmax(logits), log_softmax(logits)
    assert np.array_equal(logits, held)
    assert not np.shares_memory(probs, logits) and not np.shares_memory(log_probs, logits)
    assert np.array_equal(probs, np.exp(log_probs))


def test_softmax_and_log_softmax_fill_the_arrays_they_are_handed_as_fresh_ones():
    logits = np.random.default_rng(3).standard_normal((6, 11)) * 4
    out, scratch = np.full_like(logits, np.nan), np.full_like(logits, np.nan)
    assert log_softmax(logits, out=out, scratch=scratch) is out
    assert np.array_equal(out, log_softmax(logits))
    in_place = logits.copy()
    assert softmax(in_place, out=in_place, scratch=scratch) is in_place
    assert np.array_equal(in_place, softmax(logits))


def test_heads_fill_the_arrays_they_are_handed_as_fresh_ones():
    model = make_model(seed=4)
    cache = model.encode([(1, 2), (3,), ()])
    for head in (model.policy_logits_from, model.q_values_from):
        out = np.full((3, 7), np.nan)
        assert head(cache, out=out) is out
        assert np.array_equal(out, head(cache))


def test_a_workspace_carves_disjoint_arrays_from_one_reused_block():
    workspace = Workspace(catalog=5)
    first = workspace.take(4, 3)
    assert [a.shape for a in first] == [(4, 5)] * 3
    assert all(a.flags.c_contiguous for a in first)
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(first, 2))
    # a smaller request reuses the block; a larger one grows it once
    assert np.shares_memory(workspace.take(2, 2)[1], first[0])
    grown = workspace.take(8, 3)
    assert not np.shares_memory(grown[0], first[0])
    assert np.shares_memory(workspace.take(4, 3)[0], grown[0])


# -- greedy action ---------------------------------------------------------------


def evaluated_greedy_action(logits):
    """The item the evaluation's AR@1 credits for a model whose every row has ``logits``."""
    model = make_model(catalog=len(logits))
    for values in model.params.values():
        values[...] = 0.0
    model.params["head_b"][...] = logits
    credited = []
    for item in range(len(logits)):
        examples = ExampleColumns.of(
            [TrainingExample((0,), item, 1.0, (0, item), False, True, "click", "s", 0)]
        )
        report = evaluate_examples(model, examples, RunConfig())
        credited += [item] * int(report.metrics["ar_at_1"].value)
    assert len(credited) == 1
    return credited[0]


def test_one_hot_distribution_selects_that_item():
    assert evaluated_greedy_action(np.array([0.0, 0.0, 1.0, 0.0])) == 2


def test_exact_tie_takes_smaller_index():
    assert evaluated_greedy_action(np.array([0.2, 0.5, 0.5])) == 1


def test_greedy_matches_raw_logit_argmax_and_ignores_temperature():
    # the evaluation's greedy action is the logits' argmax; softmax keeps it at any temperature
    rng = np.random.default_rng(2)
    for _ in range(30):
        logits = rng.standard_normal(8)
        a = int(np.argmax(logits))
        assert int(np.argmax(softmax(logits))) == a
        for temp in (0.1, 3.0, 42.0):
            assert int(np.argmax(softmax(logits * temp))) == a


# -- model heads ---------------------------------------------------------------


def test_zero_heads_give_uniform_distribution():
    model = make_model(catalog=5)
    model.params["item_embeddings"][:] = 0.0
    model.params["head_b"][:] = 0.0
    lp = model.log_probs([(0, 1)])
    np.testing.assert_allclose(lp[0], -np.log(5.0), atol=1e-12)


def test_zero_q_head_gives_zero_values():
    model = make_model()
    model.params["q_W"][:] = 0.0
    model.params["q_b"][:] = 0.0
    np.testing.assert_array_equal(model.q_values([(1, 2, 3)]), 0.0)


def test_heads_match_scalar_loop_oracle():
    model = make_model(catalog=6, dim=3, seed=4)
    p = model.params
    context = (2, 0, 5)
    cache = model.encode([context])
    state = cache.state[0]
    for a in range(6):
        logit = sum(p["item_embeddings"][a][j] * state[j] for j in range(3)) + p["head_b"][a]
        qval = sum(p["q_W"][a][j] * state[j] for j in range(3)) + p["q_b"][a]
        assert model.policy_logits([context])[0, a] == pytest.approx(logit, abs=1e-12)
        assert model.q_values([context])[0, a] == pytest.approx(qval, abs=1e-12)


def test_identical_contexts_produce_identical_outputs():
    model = make_model(seed=9)
    ctx = (3, 3, 1)
    np.testing.assert_array_equal(model.q_values([ctx]), model.q_values([ctx]))
    np.testing.assert_array_equal(model.log_probs([ctx]), model.log_probs([ctx]))


def test_tied_head_reuses_item_embeddings():
    tied = make_model(seed=1)
    assert tied.head_matrix() is tied.params["item_embeddings"]
    untied = make_model(seed=1, tie_weights=False)
    assert untied.head_matrix() is untied.params["head_W"]


def test_unit_mass_over_random_context_suite():
    rng = np.random.default_rng(5)
    model = make_model(catalog=11, dim=6, seed=6)
    contexts = [tuple(rng.integers(0, 11, size=rng.integers(1, 7))) for _ in range(100)]
    probs = model.probs(contexts)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert (probs > 0).all()


def test_a_batch_padded_at_another_recency_encodes_as_its_raw_contexts():
    rng = np.random.default_rng(8)
    model = make_model(catalog=9, dim=4, seed=3, recency=0.8)
    for n in (3, 40):  # fewer rows than lengths (weights per row), and more (per length)
        contexts = [tuple(rng.integers(0, 9, size=rng.integers(0, 12))) for _ in range(n)]
        fresh = model.encode(contexts)
        for given in (contexts, RaggedContexts.of(contexts)):
            padded = pad_contexts(given, 0.3)
            batch = model.as_batch(padded)
            assert batch.recency == 0.8 and batch.indices is padded.indices
            assert np.array_equal(batch.weights, pad_contexts(contexts, 0.8).weights)
            cache = model.encode(padded)
            assert np.array_equal(cache.pool, fresh.pool)
            assert np.array_equal(cache.state, fresh.state)
        assert model.as_batch(batch) is batch


def test_copy_is_deep():
    model = make_model()
    clone = model.copy()
    clone.params["W"][:] = 0.0
    assert np.abs(model.params["W"]).max() > 0


# -- head backward ---------------------------------------------------------------


def test_head_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    model = make_model(catalog=8, dim=5, seed=12)
    contexts = [tuple(rng.integers(0, 8, size=rng.integers(1, 5))) for _ in range(6)]
    dlogits = rng.standard_normal((6, 8))
    actions = np.array([2, 5, 2, 0, 5, 2])  # repeated actions share a Q row
    values = rng.standard_normal(6)

    cache = model.encode(contexts)
    grads = model.backward(cache, dlogits=dlogits, dq_at=(actions, values))

    batch = model.as_batch(contexts)

    def loss():
        c = model.encode(batch)
        return float(
            (model.policy_logits_from(c) * dlogits).sum()
            + (model.q_values_at(c, actions) * values).sum()
        )

    step = 1e-6
    for name, analytic in grads.items():
        target = model.params[name]
        numeric = np.zeros_like(target)
        flat, num_flat = target.ravel(), numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss()
            flat[i] = orig - step
            down = loss()
            flat[i] = orig
            num_flat[i] = (up - down) / (2 * step)
        rel = np.linalg.norm(np.asarray(analytic, dtype=float) - numeric) / max(
            np.linalg.norm(numeric), 1e-12
        )
        assert rel < 1e-4, f"{name}: relative error {rel}"


def test_gathered_q_equals_its_column_of_the_full_head():
    rng = np.random.default_rng(8)
    for catalog, dim in ((1, 3), (9, 4), (300, 32)):
        model = make_model(catalog=catalog, dim=dim, seed=catalog)
        model.params["q_b"] = rng.standard_normal(catalog)
        contexts = [tuple(rng.integers(0, catalog, size=rng.integers(0, 6))) for _ in range(40)]
        actions = rng.integers(0, catalog, size=40)
        cache = model.encode(contexts)
        full = model.q_values_from(cache)[np.arange(40), actions]
        np.testing.assert_allclose(model.q_values_at(cache, actions), full, rtol=0, atol=1e-15)


def test_gathered_td_backward_matches_the_dense_one_hot_reference(monkeypatch):
    dstates = []

    def recording(params, cache, dstate, grads):
        dstates.append(dstate.copy())
        encode_backward(params, cache, dstate, grads)

    monkeypatch.setattr(policy, "encode_backward", recording)
    rng = np.random.default_rng(4)
    for catalog, dim, n in ((5, 3, 12), (40, 8, 64), (300, 32, 256)):
        model = make_model(catalog=catalog, dim=dim, seed=n)
        contexts = [tuple(rng.integers(0, catalog, size=rng.integers(1, 8))) for _ in range(n)]
        # few distinct actions, so most rows repeat one
        actions = rng.integers(0, min(catalog, 6), size=n)
        values = rng.standard_normal(n)
        dlogits = rng.standard_normal((n, catalog))
        cache = model.encode(contexts)
        grads = model.backward(cache, dlogits=dlogits, dq_at=(actions, values))

        # the dense form: a one-hot (n, catalog) dq through two matmuls
        dq = np.zeros((n, catalog))
        dq[np.arange(n), actions] = values
        dense_dstate = dlogits @ model.head_matrix() + dq @ model.params["q_W"]
        assert np.array_equal(grads["q_b"], dq.sum(axis=0))
        np.testing.assert_allclose(grads["q_W"], dq.T @ cache.state, rtol=0, atol=1e-15)
        assert np.array_equal(dstates.pop(), dense_dstate)


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip_is_exact_after_one_float32_pass(tmp_path):
    model = make_model(catalog=9, dim=4, seed=7)
    # storage is float32; a first save/load quantizes, after which the
    # round trip is exactly lossless
    first = tmp_path / "a.ckpt"
    save_checkpoint(model, first)
    loaded = load_checkpoint(first)
    assert loaded.config == model.config
    for name, value in model.params.items():
        np.testing.assert_array_equal(
            loaded.params[name], value.astype(np.float32).astype(np.float64)
        )
    second = tmp_path / "b.ckpt"
    save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    reloaded = load_checkpoint(second)
    for name in loaded.params:
        np.testing.assert_array_equal(reloaded.params[name], loaded.params[name])


def test_checkpoint_preserves_untied_head(tmp_path):
    model = make_model(seed=2, tie_weights=False)
    path = tmp_path / "untied.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert not loaded.config.tie_weights
    assert "head_W" in loaded.params


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTAMODEL")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    model = make_model()
    path = tmp_path / "v.ckpt"
    save_checkpoint(model, path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<H", data, 6, 999)  # version field follows 6 magic bytes
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    model = make_model()
    path = tmp_path / "t.ckpt"
    save_checkpoint(model, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(path)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    model = make_model(catalog=7, dim=4)
    path = tmp_path / "s.ckpt"
    save_checkpoint(model, path)
    data = bytearray(path.read_bytes())
    # config block starts after magic (6) + version (2): dim u32, catalog u32
    struct.pack_into("<I", data, 12, 8)  # claim catalog_size=8; arrays still 7-row
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    model = make_model()
    path = tmp_path / "x.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, bad):
    model = make_model()
    model.params["W"][1, 2] = bad
    path = tmp_path / "nan.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match="'W'.*non-finite"):
        load_checkpoint(path)
