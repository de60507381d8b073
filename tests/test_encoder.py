"""Recency-pooled encoder: forward, hand-written backward, and Adam."""

import tracemalloc

import numpy as np
import pytest

from lpirec.data import RaggedContexts
from lpirec.encoder import (
    Adam,
    EncoderConfig,
    TrainingDivergedError,
    adam_step,
    encode,
    encode_backward,
    init_params,
    pad_contexts,
)
from lpirec.policy import SequenceModel


def small_params(catalog=6, dim=4, seed=0):
    cfg = EncoderConfig(catalog_size=catalog, dim=dim)
    return cfg, init_params(cfg, seed)


def pooled_oracle(params, context, recency):
    """Scalar-loop reimplementation of the recency-weighted pool."""
    if not context:
        return np.zeros(params["item_embeddings"].shape[1])
    T = len(context)
    weights = [recency ** (T - 1 - t) for t in range(T)]
    total = sum(weights)
    pool = np.zeros(params["item_embeddings"].shape[1])
    for w, item in zip(weights, context):
        pool += (w / total) * params["item_embeddings"][item]
    return pool


# -- config validation -----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"catalog_size": 0},
        {"catalog_size": 3, "dim": 0},
        {"catalog_size": 3, "recency": 0.0},
        {"catalog_size": 3, "recency": 1.5},
    ],
)
def test_config_rejects_bad_shapes_and_recency(kwargs):
    with pytest.raises(ValueError):
        EncoderConfig(**kwargs)


# -- padding ---------------------------------------------------------------


def test_pad_weights_are_normalized_recency_powers():
    batch = pad_contexts([(3, 1, 4)], recency=0.8)
    raw = np.array([0.8**2, 0.8, 1.0])
    np.testing.assert_allclose(batch.weights[0], raw / raw.sum(), rtol=0, atol=1e-15)
    assert batch.lengths.tolist() == [3]
    # bit for bit: a cell weighs recency ** (its distance from the end), normalized
    contexts = [tuple(range(n)) for n in range(61)]
    view = RaggedContexts.of(contexts)
    for recency in (0.3, 0.8, 1.0):
        want = np.zeros((61, 60))
        for n in range(1, 61):
            want[n, :n] = recency ** np.arange(n - 1, -1, -1)
            want[n] /= want[n].sum()
        for padded in (pad_contexts(contexts, recency), pad_contexts(view, recency)):
            np.testing.assert_array_equal(padded.weights, want)


def test_pad_handles_ragged_and_empty_rows():
    batch = pad_contexts([(), (2,), (2, 5)], recency=0.5)
    assert batch.indices.shape == (3, 2)
    assert batch.weights[0].sum() == 0.0  # empty context gets no mass
    assert batch.weights[1].tolist() == [1.0, 0.0]
    np.testing.assert_allclose(batch.weights[2], [1 / 3, 2 / 3])


def test_a_ragged_view_reads_as_tuples_and_pads_like_its_list():
    items = np.array([4, 0, 3, 3, 1, 2], dtype=np.int64)
    view = RaggedContexts(items, np.array([0, 2, 0, 5, 1]), np.array([3, 4, 0, 1, 5]))
    contexts = [(4, 0, 3), (3, 3, 1, 2), (), (2,), (0, 3, 3, 1, 2)]
    assert list(view) == contexts
    assert len(view) == 5 and view[1][-1] == 2 and view[-1] == contexts[-1]
    assert list(view[1:3]) == contexts[1:3]
    for recency in (0.5, 1.0):
        got, want = pad_contexts(view, recency), pad_contexts(contexts, recency)
        for name in ("indices", "weights", "lengths"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


# -- forward ----------------------------------------------------------------


def test_single_item_state_is_tanh_of_projected_embedding():
    cfg, params = small_params()
    cache = encode(params, pad_contexts([(2,)], recency=0.8))
    expected = np.tanh(params["W"] @ params["item_embeddings"][2] + params["b"])
    np.testing.assert_allclose(cache.state[0], expected, atol=1e-12)


def test_repeated_item_matches_single_item_at_recency_one():
    cfg, params = small_params()
    one = encode(params, pad_contexts([(4,)], recency=1.0)).state
    two = encode(params, pad_contexts([(4, 4)], recency=1.0)).state
    np.testing.assert_allclose(one, two, atol=1e-12)


def test_two_item_pool_matches_scalar_loop_oracle():
    cfg, params = small_params()
    cache = encode(params, pad_contexts([(1, 3)], recency=0.5))
    expected_pool = (0.5 * params["item_embeddings"][1] + 1.0 * params["item_embeddings"][3]) / 1.5
    np.testing.assert_allclose(cache.pool[0], expected_pool, atol=1e-12)
    np.testing.assert_allclose(
        cache.pool[0], pooled_oracle(params, (1, 3), 0.5), atol=1e-12
    )


def test_empty_context_pools_to_zero_vector():
    cfg, params = small_params()
    cache = encode(params, pad_contexts([()], recency=0.8))
    np.testing.assert_array_equal(cache.pool[0], np.zeros(cfg.dim))
    np.testing.assert_allclose(cache.state[0], np.tanh(params["b"]), atol=1e-12)


def test_out_of_range_item_rejected():
    cfg, params = small_params(catalog=6)
    with pytest.raises(ValueError, match="out of range"):
        encode(params, pad_contexts([(6,)], recency=0.8))
    with pytest.raises(ValueError, match="out of range"):
        encode(params, pad_contexts([(-1,)], recency=0.8))


def test_order_matters_below_recency_one_but_not_at_one():
    cfg, params = small_params(seed=3)
    fwd = encode(params, pad_contexts([(0, 1, 2)], recency=0.6)).state
    rev = encode(params, pad_contexts([(2, 1, 0)], recency=0.6)).state
    assert np.abs(fwd - rev).max() > 1e-6
    fwd1 = encode(params, pad_contexts([(0, 1, 2)], recency=1.0)).state
    rev1 = encode(params, pad_contexts([(2, 1, 0)], recency=1.0)).state
    np.testing.assert_allclose(fwd1, rev1, atol=1e-12)


def test_states_lie_strictly_inside_unit_cube():
    rng = np.random.default_rng(0)
    cfg, params = small_params(seed=1)
    contexts = [tuple(rng.integers(0, 6, size=rng.integers(0, 8))) for _ in range(64)]
    state = encode(params, pad_contexts(contexts, recency=0.8)).state
    assert np.all(state > -1.0) and np.all(state < 1.0)


# -- backward ----------------------------------------------------------------


def test_zero_upstream_gradient_gives_zero_parameter_gradients():
    cfg, params = small_params()
    cache = encode(params, pad_contexts([(1, 2)], recency=0.8))
    grads = {}
    encode_backward(params, cache, np.zeros_like(cache.state), grads)
    for g in grads.values():
        np.testing.assert_array_equal(np.asarray(g, dtype=float), 0.0)


def test_untouched_embedding_rows_have_exactly_zero_gradient():
    cfg, params = small_params(catalog=8)
    cache = encode(params, pad_contexts([(1, 2), (2, 5)], recency=0.7))
    grads = {}
    encode_backward(params, cache, np.ones_like(cache.state), grads)
    demb = grads["item_embeddings"]
    for untouched in (3, 4, 6, 7):
        np.testing.assert_array_equal(demb[untouched], 0.0)
    assert np.abs(demb[1]).max() > 0


def test_backward_matches_central_finite_differences():
    rng = np.random.default_rng(7)
    cfg, params = small_params(catalog=8, dim=5, seed=11)
    contexts = [tuple(rng.integers(0, 8, size=rng.integers(1, 6))) for _ in range(6)]
    batch = pad_contexts(contexts, recency=0.8)
    direction = rng.standard_normal((len(contexts), cfg.dim))

    def loss(p):
        return float((encode(p, batch).state * direction).sum())

    cache = encode(params, batch)
    grads = {}
    encode_backward(params, cache, direction, grads)

    step = 1e-5
    for name in ("item_embeddings", "W", "b"):
        analytic = np.asarray(grads[name], dtype=float)
        numeric = np.zeros_like(params[name])
        flat = params[name].ravel()
        num_flat = numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss(params)
            flat[i] = orig - step
            down = loss(params)
            flat[i] = orig
            num_flat[i] = (up - down) / (2 * step)
        denom = max(np.linalg.norm(numeric), 1e-12)
        rel = np.linalg.norm(analytic - numeric) / denom
        assert rel < 1e-4, f"{name}: finite-difference relative error {rel}"


def add_at_embedding_gradient(params, cache, dstate, seed=None):
    """The embedding gradient scattered with ``np.add.at`` over every padded cell."""
    dpool = (dstate * (1.0 - cache.state**2)) @ params["W"]
    demb = np.zeros_like(params["item_embeddings"]) if seed is None else seed.copy()
    contrib = cache.batch.weights[:, :, None] * dpool[:, None, :]
    np.add.at(demb, cache.batch.indices.ravel(), contrib.reshape(-1, dpool.shape[1]))
    return demb


def ragged_contexts(rng, n, catalog, max_len):
    # a small catalog repeats items within and across contexts; one is empty
    contexts = [tuple(rng.integers(0, catalog, size=rng.integers(1, max_len + 1))) for _ in range(n)]
    contexts[n // 2] = ()
    return contexts


@pytest.mark.parametrize("tie_weights", [True, False])
def test_embedding_gradient_is_bit_identical_to_add_at(tie_weights):
    rng = np.random.default_rng(5)
    cfg = EncoderConfig(catalog_size=7, dim=5, recency=0.9, tie_weights=tie_weights)
    model = SequenceModel.initialize(cfg, seed=3)
    cache = model.encode(ragged_contexts(rng, 40, cfg.catalog_size, 30))
    dlogits = rng.standard_normal((40, cfg.catalog_size))
    grads = model.backward(cache, dlogits=dlogits)
    # tied weights seed the embedding gradient with the head's; untied leave it empty
    head = dlogits.T @ cache.state if tie_weights else None
    dstate = dlogits @ model.head_matrix()
    expected = add_at_embedding_gradient(model.params, cache, dstate, seed=head)
    np.testing.assert_array_equal(grads["item_embeddings"], expected)


def test_accumulating_calls_stay_bit_identical_to_add_at():
    rng = np.random.default_rng(9)
    cfg, params = small_params(catalog=6, dim=4, seed=2)
    grads, expected = {}, None
    for _ in range(2):
        cache = encode(params, pad_contexts(ragged_contexts(rng, 25, 6, 20), recency=0.7))
        dstate = rng.standard_normal(cache.state.shape)
        encode_backward(params, cache, dstate, grads)
        expected = add_at_embedding_gradient(params, cache, dstate, seed=expected)
    np.testing.assert_array_equal(grads["item_embeddings"], expected)


def test_backward_memory_stays_below_a_dense_padded_block():
    # fill 0.3 or less: most cells are padding, which the backward must not
    # materialize as a (B, T, d) block
    rng = np.random.default_rng(0)
    B, T, catalog, dim = 256, 50, 400, 32
    contexts = [tuple(rng.integers(0, catalog, size=rng.integers(1, 29))) for _ in range(B - 1)]
    contexts.append(tuple(rng.integers(0, catalog, size=T)))
    cfg = EncoderConfig(catalog_size=catalog, dim=dim)
    params = init_params(cfg, seed=0)
    batch = pad_contexts(contexts, cfg.recency)
    assert batch.indices.shape == (B, T)
    assert batch.lengths.sum() / batch.indices.size <= 0.3
    cache = encode(params, batch)
    dstate = rng.standard_normal(cache.state.shape)
    grads = {"item_embeddings": rng.standard_normal((catalog, dim))}
    tracemalloc.start()
    try:
        encode_backward(params, cache, dstate, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < B * T * dim * 8, f"peak {peak} bytes"


# -- initialization -----------------------------------------------------------


def test_init_shapes_scales_and_tying():
    cfg = EncoderConfig(catalog_size=9, dim=4)
    params = init_params(cfg, seed=5)
    bound = 1.0 / np.sqrt(cfg.dim)
    assert params["item_embeddings"].shape == (9, 4)
    assert params["W"].shape == (4, 4)
    for name in ("item_embeddings", "W", "q_W"):
        assert np.abs(params[name]).max() <= bound
    for name in ("b", "head_b", "q_b"):
        np.testing.assert_array_equal(params[name], 0.0)
    assert "head_W" not in params
    untied = init_params(EncoderConfig(catalog_size=9, dim=4, tie_weights=False), seed=5)
    assert untied["head_W"].shape == (9, 4)


def test_init_is_seed_deterministic():
    cfg = EncoderConfig(catalog_size=5, dim=3)
    a, b = init_params(cfg, seed=2), init_params(cfg, seed=2)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
    c = init_params(cfg, seed=3)
    assert np.abs(a["W"] - c["W"]).max() > 0


# -- Adam ---------------------------------------------------------------------


def test_zero_gradient_leaves_parameters_unchanged():
    params = {"w": np.array([1.0, -2.0])}
    adam_step(params, {"w": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])


def test_first_step_moves_by_learning_rate():
    # bias correction makes m_hat = v_hat = 1 on the first step, so the
    # update is lr/(1 + eps) regardless of the gradient's magnitude sign
    params = {"w": np.array([1.0])}
    adam_step(params, {"w": np.array([1.0])}, lr=0.1)
    np.testing.assert_allclose(params["w"], [0.9], atol=1e-8)


def test_identical_calls_produce_identical_results():
    grads = {"w": np.array([0.3, -0.7])}
    a = {"w": np.array([1.0, 2.0])}
    b = {"w": np.array([1.0, 2.0])}
    opt_a, opt_b = Adam(lr=0.05), Adam(lr=0.05)
    for _ in range(3):
        opt_a.step(a, grads)
        opt_b.step(b, grads)
    np.testing.assert_array_equal(a["w"], b["w"])


def test_optimizer_state_carries_across_steps():
    params = {"w": np.array([0.0])}
    opt = Adam(lr=0.1)
    opt.step(params, {"w": np.array([1.0])})
    after_one = params["w"].copy()
    opt.step(params, {"w": np.array([-1.0])})
    # with momentum the second (opposite) gradient does not simply undo the first:
    # the parameter moves back toward zero but the carried moment keeps it short
    assert after_one[0] < params["w"][0] < 0.0


def test_non_finite_gradient_raises_training_diverged():
    params = {"w": np.array([1.0])}
    with pytest.raises(TrainingDivergedError):
        adam_step(params, {"w": np.array([np.nan])}, lr=0.1)
    with pytest.raises(TrainingDivergedError):
        adam_step(params, {"w": np.array([np.inf])}, lr=0.1)
