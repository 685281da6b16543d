import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from tweetxfer import net
from tweetxfer.errors import DataError
from tweetxfer.fixtures import stack_rows, toy_batch
from tweetxfer.net import (
    ALL_LAYERS,
    Batch,
    FreezeMask,
    OptimizerState,
    backward,
    forward,
    gradient_check,
    init_params,
    layer_checksum,
    layer_of,
    load_checkpoint,
    loss,
    make_batch,
    predict,
    save_checkpoint,
    step,
)

# A scaled-down architecture keeps the numerics identical while making
# finite-difference sweeps cheap.
_SMALL = dict(embed_dim=16, hidden=8, filters=6, dense=10, kernels=(2, 3))


def _small_params(n_classes=3, cluster_width=5, seed=0):
    return init_params(n_classes, cluster_width, seed=seed, **_SMALL)


def _small_batch(n_classes=3, cluster_width=5, batch=4, t=9, seed=0):
    return toy_batch(
        n_classes=n_classes, cluster_width=cluster_width, batch=batch, t=t,
        embed_dim=16, seed=seed,
    )


class TestLayerGroups:
    def test_layer_of(self):
        assert layer_of("lstm_fw_W") == 1
        assert layer_of("conv3_b") == 2
        assert layer_of("dense_W") == 3
        assert layer_of("out_b") == 4
        with pytest.raises(KeyError):
            layer_of("mystery")

    def test_freeze_mask_validation(self):
        FreezeMask.of(1, 4)
        with pytest.raises(ValueError):
            FreezeMask.of(5)

    def test_every_array_belongs_to_a_group(self):
        params = _small_params()
        grouped = [n for layer in (1, 2, 3, 4) for n in params.layer_names(layer)]
        assert sorted(grouped) == sorted(params.arrays)


class TestInitParams:
    def test_shapes(self):
        params = _small_params()
        expected = {
            "lstm_fw_W": (16, 32), "lstm_fw_U": (8, 32), "lstm_fw_b": (32,),
            "lstm_bw_W": (16, 32), "lstm_bw_U": (8, 32), "lstm_bw_b": (32,),
            "conv2_W": (32, 6), "conv2_b": (6,),
            "conv3_W": (48, 6), "conv3_b": (6,),
            "dense_W": (17, 10), "dense_b": (10,),
            "out_W": (10, 3), "out_b": (3,),
        }
        assert {n: a.shape for n, a in params.arrays.items()} == expected

    def test_forget_gate_bias_is_one(self):
        params = _small_params()
        for d in ("fw", "bw"):
            b = params.arrays[f"lstm_{d}_b"]
            np.testing.assert_array_equal(b[8:16], np.ones(8))
            np.testing.assert_array_equal(b[:8], np.zeros(8))
            np.testing.assert_array_equal(b[16:], np.zeros(16))

    def test_other_biases_zero(self):
        params = _small_params()
        for name in ("conv2_b", "conv3_b", "dense_b", "out_b"):
            np.testing.assert_array_equal(params.arrays[name], 0.0)

    def test_glorot_bounds(self):
        params = _small_params(seed=4)
        bounds = {
            "lstm_fw_W": (16, 32), "lstm_fw_U": (8, 32),
            "lstm_bw_W": (16, 32), "lstm_bw_U": (8, 32),
            "conv2_W": (2 * 16, 2 * 6), "conv3_W": (3 * 16, 3 * 6),
            "dense_W": (17, 10), "out_W": (10, 3),
        }
        for name, (fan_in, fan_out) in bounds.items():
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            arr = params.arrays[name]
            assert np.all(np.abs(arr) <= limit), name
            # a weight matrix that never gets near its bound was not
            # drawn from this range
            assert np.max(np.abs(arr)) > 0.5 * limit, name

    def test_deterministic(self):
        a = _small_params(seed=11)
        b = _small_params(seed=11)
        for name in a.arrays:
            np.testing.assert_array_equal(a.arrays[name], b.arrays[name])
        c = _small_params(seed=12)
        assert any(
            not np.array_equal(a.arrays[n], c.arrays[n]) for n in a.arrays
        )

    @pytest.mark.parametrize(
        "n_classes,cluster_width,seed,sizes,sha256",
        [
            (2, 51, 0, {}, "d49c1261c3c769589d16c4e22cdc9ba2da316dcf042bedee56c95a82c4ceb0ec"),
            (3, 5, 7, _SMALL, "7623007be40013f76d7f30349b71f51449caa56dd552a82e5aa08574296d6e30"),
        ],
        ids=["paper_sizes", "small_kernels_2_3"],
    )
    def test_values_pinned(self, n_classes, cluster_width, seed, sizes, sha256):
        """Names, order and start values of every array are fixed by the seed."""
        params = init_params(n_classes, cluster_width, seed=seed, **sizes)
        digest = hashlib.sha256()
        for name, arr in params.arrays.items():
            digest.update(name.encode())
            digest.update(arr.tobytes())
        assert digest.hexdigest() == sha256

    @pytest.mark.parametrize(
        "change",
        [
            dict(hidden=0), dict(embed_dim=-1), dict(filters=0), dict(dense=0),
            dict(kernels=()), dict(kernels=(0, 2)), dict(leaky_slope=-0.1),
            dict(leaky_slope=float("nan")),
        ],
    )
    def test_size_and_slope_validation(self, change):
        with pytest.raises(ValueError):
            init_params(2, 0, **{**_SMALL, **change})

    def test_validation(self):
        with pytest.raises(ValueError):
            init_params(1, 0, **_SMALL)
        with pytest.raises(ValueError):
            init_params(2, -1, **_SMALL)
        with pytest.raises(ValueError):
            init_params(2, 0, embed_dim=16, hidden=8, filters=6, dense=10, kernels=(3, 2))

    def test_copy_is_deep(self):
        params = _small_params()
        dup = params.copy()
        dup.arrays["out_W"][0, 0] += 1.0
        assert params.arrays["out_W"][0, 0] != dup.arrays["out_W"][0, 0]


def _rows_batch(seqs, cluster_features, labels=None, max_len=100):
    return make_batch(*stack_rows(seqs), cluster_features, labels, max_len=max_len)


class TestMakeBatch:
    def test_pads_and_masks(self):
        rng = np.random.default_rng(0)
        seqs = [rng.normal(size=(4, 5)), rng.normal(size=(2, 5))]
        batch = _rows_batch(seqs, np.zeros((2, 0)), [0, 1])
        assert batch.embeddings.shape == (2, 4, 5)
        np.testing.assert_array_equal(batch.lengths, [4, 2])
        np.testing.assert_array_equal(batch.embeddings[1, 2:], 0.0)
        np.testing.assert_array_equal(batch.embeddings[1, :2], seqs[1])

    def test_truncates_to_max_len(self):
        seqs = [np.ones((30, 3))]
        batch = _rows_batch(seqs, np.zeros((1, 0)), max_len=10)
        assert batch.embeddings.shape == (1, 10, 3)
        np.testing.assert_array_equal(batch.lengths, [10])

    def test_repeated_ids_share_a_row(self):
        matrix = np.arange(12.0).reshape(4, 3)
        matrix[0] = 0.0
        ids = [np.array([2, 2, 1]), np.zeros(0, dtype=np.intp)]
        batch = make_batch(ids, matrix, np.zeros((2, 0)))
        assert batch.embeddings.shape == (2, 3, 3)
        np.testing.assert_array_equal(batch.embeddings[0], matrix[[2, 2, 1]])
        np.testing.assert_array_equal(batch.embeddings[1], 0.0)
        np.testing.assert_array_equal(batch.lengths, [3, 0])

    def test_all_empty_is_one_masked_step(self):
        batch = make_batch([np.zeros(0, dtype=np.intp)], np.zeros((1, 4)), np.zeros((1, 0)))
        assert batch.embeddings.shape == (1, 1, 4)
        np.testing.assert_array_equal(batch.lengths, [0])

    def test_validation(self):
        with pytest.raises(ValueError):
            make_batch([], np.zeros((1, 3)), np.zeros((0, 0)))
        # Sequences of different embedding dims cannot arise: every id
        # indexes rows of the one matrix.
        with pytest.raises(ValueError):
            _rows_batch([np.ones((2, 3))], np.zeros((2, 0)))
        with pytest.raises(ValueError):
            _rows_batch([np.ones((2, 3))], np.zeros((1, 0)), labels=[0, 1])


class TestForward:
    def test_output_is_a_distribution(self):
        params = _small_params()
        batch = _small_batch()
        probs, _ = forward(params, batch, mode="eval")
        assert probs.shape == (4, 3)
        assert (probs > 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_eval_deterministic(self):
        params = _small_params()
        batch = _small_batch()
        a, _ = forward(params, batch, mode="eval")
        b, _ = forward(params, batch, mode="eval")
        np.testing.assert_array_equal(a, b)

    def test_train_reproducible_from_dropout_seed(self):
        params = _small_params()
        batch = _small_batch()
        a, _ = forward(params, batch, mode="train", dropout_seed=7)
        b, _ = forward(params, batch, mode="train", dropout_seed=7)
        np.testing.assert_array_equal(a, b)
        c, _ = forward(params, batch, mode="train", dropout_seed=8)
        assert not np.array_equal(a, c)

    def test_zero_dropout_train_equals_eval(self):
        params = _small_params()
        batch = _small_batch()
        train, _ = forward(params, batch, mode="train", dropout=0.0)
        ev, _ = forward(params, batch, mode="eval")
        assert train.tobytes() == ev.tobytes()

    def test_extra_padding_changes_nothing(self):
        """Padding frames appended on the right leave eval output intact,
        and frames past each row's length, floored at the widest kernel,
        count for nothing in eval, train or backward even when they hold
        noise: the lengths are the only validity signal."""
        params = _small_params()
        batch = _small_batch()
        B, T, E = batch.embeddings.shape
        extra = 3
        wide = Batch(
            embeddings=np.concatenate([batch.embeddings, np.zeros((B, extra, E))], axis=1),
            lengths=batch.lengths,
            cluster_features=batch.cluster_features,
            labels=batch.labels,
        )
        a, _ = forward(params, batch, mode="eval")
        b, _ = forward(params, wide, mode="eval")
        np.testing.assert_array_equal(a, b)

        rng = np.random.default_rng(5)
        noisy_emb = wide.embeddings.copy()
        for row, start in enumerate(np.maximum(batch.lengths, max(params.kernels))):
            noisy_emb[row, start:] = rng.normal(size=(T + extra - start, E))
        noisy = Batch(noisy_emb, wide.lengths, wide.cluster_features, wide.labels)
        assert not np.array_equal(noisy.embeddings, wide.embeddings)
        for mode in ("eval", "train"):
            zeros_probs, zeros_cache = forward(params, wide, mode=mode, dropout_seed=2)
            noise_probs, noise_cache = forward(params, noisy, mode=mode, dropout_seed=2)
            assert noise_probs.tobytes() == zeros_probs.tobytes(), mode
        zeros_grads = backward(params, wide, zeros_cache)
        noise_grads = backward(params, noisy, noise_cache)
        for name, grad in zeros_grads.items():
            np.testing.assert_array_equal(noise_grads[name], grad, err_msg=name)

    def test_short_sequence_padding_floor(self):
        """A sequence below the widest kernel behaves exactly like the
        same sequence zero-padded to that length with valid positions."""
        params = _small_params(cluster_width=0)
        rng = np.random.default_rng(3)
        seq = rng.normal(size=(2, 16))  # below the widest kernel, 3
        short = _rows_batch([seq], np.zeros((1, 0)), [0])
        assert short.embeddings.shape[1] == 2
        explicit = Batch(
            embeddings=np.concatenate([seq[None], np.zeros((1, 1, 16))], axis=1),
            lengths=np.array([3]),
            cluster_features=np.zeros((1, 0)),
            labels=np.array([0]),
        )
        a, _ = forward(params, short, mode="eval")
        b, _ = forward(params, explicit, mode="eval")
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        params = _small_params()
        batch = _small_batch()
        with pytest.raises(ValueError):
            forward(params, batch, mode="test")
        with pytest.raises(ValueError):
            forward(params, batch, dropout=1.0)
        bad_dim = _small_batch()
        bad_dim = Batch(
            embeddings=bad_dim.embeddings[:, :, :8],
            lengths=bad_dim.lengths,
            cluster_features=bad_dim.cluster_features,
            labels=bad_dim.labels,
        )
        with pytest.raises(ValueError):
            forward(params, bad_dim)
        bad_feats = Batch(
            embeddings=batch.embeddings,
            lengths=batch.lengths,
            cluster_features=np.zeros((4, 2)),
            labels=batch.labels,
        )
        with pytest.raises(ValueError):
            forward(params, bad_feats)


def _reference_lstm(x, eff, W, U, b, reverse):
    """Textbook LSTM recurrence with a plain logistic sigmoid."""
    B, T, _ = x.shape
    H = U.shape[0]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    out = np.zeros((B, T, H))
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    for t in range(T - 1, -1, -1) if reverse else range(T):
        z = x[:, t] @ W + h @ U + b
        i, f, o = sig(z[:, :H]), sig(z[:, H : 2 * H]), sig(z[:, 3 * H :])
        g = np.tanh(z[:, 2 * H : 3 * H])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        live = eff[:, t : t + 1] > 0
        c = np.where(live, c_new, c)
        h = np.where(live, h_new, h)
        out[:, t] = h
    return out


class TestLstmCell:
    def test_matches_plain_reference(self):
        rng = np.random.default_rng(4)
        B, T, E, H = 5, 7, 6, 4
        x = rng.normal(size=(B, T, E))
        lengths = np.array([7, 3, 5, 1, 6])
        eff = (np.arange(T)[None, :] < lengths[:, None]).astype(np.float64)
        W = rng.normal(size=(E, 4 * H))
        U = rng.normal(size=(H, 4 * H))
        b = rng.normal(size=4 * H)
        for reverse in (False, True):
            expected = _reference_lstm(x, eff, W, U, b, reverse)
            # The backward direction runs left to right on time-flipped views.
            flip = slice(None, None, -1) if reverse else slice(None)
            for keep_trace in (True, False):
                tr = net._lstm_direction(
                    x[:, flip], eff[:, flip], W, U, b, keep_trace, np.empty((B, T, H))
                )
                np.testing.assert_allclose(tr.h_out[:, flip], expected, rtol=0, atol=1e-12)

    def test_saturated_gates_stay_finite(self):
        """Huge inputs saturate every gate without overflow or underflow."""
        params = _small_params()
        batch = _small_batch()
        loud = Batch(
            embeddings=batch.embeddings * 1e3,
            lengths=batch.lengths,
            cluster_features=batch.cluster_features,
            labels=batch.labels,
        )
        for mode in ("eval", "train"):
            with np.errstate(all="raise"):
                probs, _ = forward(params, loud, mode=mode, dropout_seed=1)
                predict(params, loud)
            assert np.isfinite(probs).all()
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestLoss:
    def test_mean_cross_entropy(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([0, 1])
        expected = -(math.log(0.9) + math.log(0.8)) / 2
        assert loss(probs, labels) == pytest.approx(expected, rel=1e-12)

    def test_floor_keeps_loss_finite(self):
        probs = np.array([[1.0, 0.0]])
        assert loss(probs, np.array([1])) == pytest.approx(-math.log(1e-12))


class TestGradients:
    def test_analytic_matches_central_differences_eval(self):
        params = _small_params(seed=1)
        batch = _small_batch(seed=1)
        err = gradient_check(params, batch, samples_per_array=6, seed=0, dropout=0.0)
        assert err < 1e-4

    def test_analytic_matches_central_differences_train(self):
        """Same check through the dropout masks."""
        params = _small_params(seed=2)
        batch = _small_batch(seed=2)
        err = gradient_check(
            params, batch, samples_per_array=6, seed=0, dropout_seed=3
        )
        assert err < 1e-4

    def test_each_layer_group_alone(self):
        params = _small_params(seed=3)
        batch = _small_batch(seed=3)
        for layer in (1, 2, 3, 4):
            err = gradient_check(
                params, batch, freeze=FreezeMask.of(layer),
                samples_per_array=5, seed=layer, dropout_seed=1,
            )
            assert err < 1e-4, f"layer {layer}"

    def test_frozen_layers_get_zero_gradients(self):
        """Frozen arrays get no gradient at all: only the head's come back."""
        params = _small_params()
        batch = _small_batch()
        probs, cache = forward(params, batch, mode="train", dropout_seed=0)
        grads = backward(params, batch, cache, freeze=FreezeMask.of(4))
        assert set(grads) == set(params.layer_names(4))
        for name, g in grads.items():
            assert np.any(g != 0.0), name

    def test_stale_cache_rejected(self):
        params = _small_params()
        batch = _small_batch()
        _, cache = forward(params, batch)
        with pytest.raises(ValueError):
            backward(params.copy(), batch, cache)

    def test_eval_cache_rejected(self):
        params = _small_params()
        batch = _small_batch()
        _, cache = forward(params, batch, mode="eval")
        with pytest.raises(ValueError, match="train-mode"):
            backward(params, batch, cache)

    def test_labels_required(self):
        params = _small_params()
        batch = _small_batch()
        unlabeled = Batch(batch.embeddings, batch.lengths, batch.cluster_features, None)
        _, cache = forward(params, unlabeled)
        with pytest.raises(ValueError):
            backward(params, unlabeled, cache)
        with pytest.raises(ValueError):
            gradient_check(params, unlabeled)


def _pinned_case(case):
    """Params and a labelled batch of mixed lengths with one sequence below
    the widest kernel: the small test net, or the paper's sizes at B=4."""
    if case == "small":
        rng = np.random.default_rng(13)
        seqs = [rng.normal(0.0, 0.5, (n, 16)) for n in (9, 4, 1, 7, 2)]
        feats = (rng.random((5, 5)) < 0.4).astype(np.float64)
        return _small_params(seed=13), _rows_batch(seqs, feats, [0, 2, 1, 1, 0])
    return init_params(2, 51, seed=5), toy_batch(cluster_width=51, batch=4, t=12, seed=5)


def _sha(arrays):
    digest = hashlib.sha256()
    for name, arr in arrays.items():
        digest.update(name.encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


_MASKS = {
    "g1234": ALL_LAYERS, "g1": FreezeMask.of(1), "g2": FreezeMask.of(2),
    "g3": FreezeMask.of(3), "g4": FreezeMask.of(4),
}


def _pinned_digests():
    """Digest of each case's eval probabilities and of the gradients under
    every mask, with dropout 0.5 and 0.0."""
    out = {}
    for case in ("small", "paper_b4"):
        params, batch = _pinned_case(case)
        out[f"{case}/eval"] = _sha({"probs": forward(params, batch, mode="eval")[0]})
        for dropout in (0.5, 0.0):
            _, cache = forward(params, batch, mode="train", dropout_seed=2, dropout=dropout)
            for mask, freeze in _MASKS.items():
                out[f"{case}/{dropout}/{mask}"] = _sha(backward(params, batch, cache, freeze))
    return out


_PINNED = {
    "small/eval": "e062fb3a87c57ec7c5c86ebfa5a146e3688fd51d80ca5addbeeef014236073b0",
    "small/0.5/g1234": "c15b32162e7e4d501ca8a19265776e5622ae3de775a00d3316837da0d004847b",
    "small/0.5/g1": "3ebe6e6d3a35f0ede449a85b12d6f2cbc44c870d9e79b00e122d187f0e199a3a",
    "small/0.5/g2": "2a380c0e3e8253a63647ff6740cf5094a3c76b0833252babe39e68da0f3f5fc4",
    "small/0.5/g3": "6d3f87d8b7f0c97bb44a43eba9a7b5a4f4e3534b55908625626acbeb1d8f20e4",
    "small/0.5/g4": "7636bbbcba4ce22b031ea25ca12533fd1db32d1d4093c43c7945296b01d1d3ff",
    "small/0.0/g1234": "d18c553395be884814b12ee29ad29bad35fc2d851fe9f60fa4dc138aa82c833c",
    "small/0.0/g1": "48f7be87885b14ed8a0594d9c0e9b55bd77e84e62a51b192b4ce0ffc275f530e",
    "small/0.0/g2": "025b7ae7b740972f885614724c44c0ece102f9dc63c155857be5803de1f23bb0",
    "small/0.0/g3": "61f85177195ddf2db8c1624d95b944c8709038ae5665e97f8c0945459fa4c222",
    "small/0.0/g4": "6c96f007ab51404c3f00f86a8d88403e61321eaf16b96b790c5c538c8f05225a",
    "paper_b4/eval": "f94486456e79d79bbe0ac96140aaf0bc69024e40a547340468b0a431b4d9c069",
    "paper_b4/0.5/g1234": "e5ccbe3288ca691b9f6576c8e48b247ec8c323d598ac5928d5b316c702fc30a6",
    "paper_b4/0.5/g1": "52ac084d349da18f8ed8c569e1dd1e962af4367eb17c13698d272882a3dbafe6",
    "paper_b4/0.5/g2": "8c747b10fabca67833290ee65c84be63d37dfa413195a8c1d34bcbf787e92c5a",
    "paper_b4/0.5/g3": "c7073dfaf88ccda36cc532696de2696df9ea715a966831142265b6e2d892f4f8",
    "paper_b4/0.5/g4": "fc28ec02515178fad945b308a7531b06019328c59357d88253406d6a831b7ff7",
    "paper_b4/0.0/g1234": "6cf5b08e55b5a27200f142e74d1d737ea994c9087952f66b7e2dc02754e30b5b",
    "paper_b4/0.0/g1": "d47e61e40eef864572e6337c6e5a71b35cc988ca4e1988a49d74bd05851e7f2c",
    "paper_b4/0.0/g2": "6463b5d8418098587ccb62c073ba984e8ef3816ed7daac12f9a60c3febb6e5d0",
    "paper_b4/0.0/g3": "35173b33878c76d9a785cd470d35339fb85aac4acc1dce9cb7b9c181d06f3f03",
    "paper_b4/0.0/g4": "403088cef565fe7c8e264f24e643b409d714758c19c94e6ac580a522195e94f3",
}


def _in_one_thread(name, module="test_net"):
    """``<module>.<name>()``'s JSON result from a fresh interpreter with one
    BLAS thread: at paper sizes OpenBLAS rounds differently with more threads."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(net.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        f"import json, sys\nsys.path.insert(0, sys.argv[1])\nimport {module}\n"
        f"print(json.dumps({module}.{name}()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, tests], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def pinned_digests():
    return _in_one_thread("_pinned_digests")


class TestPinnedOutputs:
    """Eval probabilities and every gradient array, byte for byte, signed
    zeros included, on mixed lengths with one sequence below the widest
    kernel.  Recorded before the training trace was cut down to what
    ``backward`` reads, with OpenBLAS 0.3.31 on x86-64; other BLAS builds
    may round differently in the last bits."""

    @pytest.mark.parametrize("key", list(_PINNED))
    def test_matches_recorded_digest(self, pinned_digests, key):
        assert pinned_digests[key] == _PINNED[key]


def _rows_changed(a, b):
    return int((a != b).any(axis=1).sum())


def _shape_invariance():
    """Rows whose eval probabilities change with padding or batch size, at
    the paper's sizes with the coarse head and 51 cluster features.

    ``padding``: a B=64 batch of 5-10-token rows and a B=8 batch of 1-5-token
    rows (the narrowest conv products a batch of 8 can have), each at its
    own width, then padded to 20 and to 40 frames.  ``batch_size``: 256 rows
    of 3-20 tokens, all padded to 20 frames, run in batches of 16 and 64
    against one of 256.
    """
    params = init_params(2, 51, seed=3)
    rng = np.random.default_rng(11)

    def probs(seqs, feats, frames=0):
        batch = _rows_batch(seqs, feats)
        B, T, E = batch.embeddings.shape
        if frames > T:
            wide = np.concatenate([batch.embeddings, np.zeros((B, frames - T, E))], axis=1)
            batch = Batch(wide, batch.lengths, batch.cluster_features)
        return forward(params, batch, mode="eval")[0]

    def rows(n, lo, hi):
        seqs = [rng.normal(0.0, 0.3, (int(t), 300)) for t in rng.integers(lo, hi + 1, n)]
        return seqs, (rng.random((n, 51)) < 0.3).astype(np.float64)

    padding = {}
    for B, lo, hi in ((64, 5, 10), (8, 1, 5)):
        seqs, feats = rows(B, lo, hi)
        own = probs(seqs, feats)
        for f in (20, 40):
            padding[f"b{B}.t{f}"] = _rows_changed(probs(seqs, feats, f), own)
    seqs, feats = rows(256, 3, 20)
    whole = probs(seqs, feats, 20)
    batch_size = {
        str(B): _rows_changed(
            np.concatenate([probs(seqs[i : i + B], feats[i : i + B], 20) for i in range(0, 256, B)]),
            whole,
        )
        for B in (16, 64)
    }
    return {"padding": padding, "batch_size": batch_size}


class TestShapeInvariance:
    """The determinism promise of ``transfer.predict_dataset``, at one BLAS
    thread: in batches of 8 or more, padding never moves an eval
    probability, and batches of 16, 64 and 256 agree bit for bit at equal
    padding.  Smaller batches may not: OpenBLAS 0.3.31 rounds a product of
    at most 10^6 multiply-adds its own way, which the dense layer's
    (B x 651 x 100) is for B <= 15, and the widest kernel's
    (B*P x 1000 x 200) is for B*P <= 5.  So padding a batch of one row
    can move its probabilities, and so can padding 2-4 very short rows."""

    @pytest.fixture(scope="class")
    def changed(self):
        return _in_one_thread("_shape_invariance")

    def test_padding_moves_no_probability(self, changed):
        assert changed["padding"] == {f"b{B}.t{f}": 0 for B in (64, 8) for f in (20, 40)}

    def test_batch_sizes_agree_at_equal_padding(self, changed):
        assert changed["batch_size"] == {"16": 0, "64": 0}


def _nadam_scalar_reference(x0, grads, lr, beta1=0.99, beta2=0.999, eps=1e-8, psi=0.004):
    """Scalar restatement of the momentum-schedule update."""

    def mu(t):
        return beta1 * (1.0 - 0.5 * 0.96 ** (t * psi))

    x, m, v, m_prod = x0, 0.0, 0.0, 1.0
    for t, g in enumerate(grads, start=1):
        mu_t, mu_next = mu(t), mu(t + 1)
        m_prod *= mu_t
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        g_hat = g / (1 - m_prod)
        m_hat = m / (1 - m_prod * mu_next)
        m_bar = (1 - mu_t) * g_hat + mu_next * m_hat
        x -= lr * m_bar / (math.sqrt(v / (1 - beta2**t)) + eps)
    return x


def _scalar_params(x0):
    return net.NetworkParams(
        arrays={"dense_W": np.array([x0])}, n_classes=2, cluster_width=0
    )


class TestOptimizer:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            x0 = float(rng.normal())
            grads_seq = list(rng.normal(size=int(rng.integers(1, 8))))
            params = _scalar_params(x0)
            state = OptimizerState.for_params(params, lr=0.002)
            for g in grads_seq:
                params, state = step(
                    params, {"dense_W": np.array([g])}, state, FreezeMask.of(3)
                )
            expected = _nadam_scalar_reference(x0, grads_seq, lr=0.002)
            np.testing.assert_allclose(params.arrays["dense_W"][0], expected, rtol=1e-12)

    def test_converges_on_quadratic(self):
        """Minimize 0.5 (x - 3)^2 from zero."""
        params = _scalar_params(0.0)
        state = OptimizerState.for_params(params, lr=0.05)
        for i in range(800):
            x = params.arrays["dense_W"][0]
            if abs(x - 3.0) < 1e-3:
                break
            params, state = step(
                params, {"dense_W": np.array([x - 3.0])}, state, FreezeMask.of(3)
            )
        assert abs(params.arrays["dense_W"][0] - 3.0) < 1e-3

    def test_frozen_arrays_bit_identical(self):
        params = _small_params(seed=5)
        batch = _small_batch(seed=5)
        before = {layer: layer_checksum(params, layer) for layer in (1, 2, 3, 4)}
        state = OptimizerState.for_params(params)
        _, cache = forward(params, batch, mode="train", dropout_seed=0)
        grads = backward(params, batch, cache, freeze=FreezeMask.of(2))
        params, state = step(params, grads, state, FreezeMask.of(2))
        after = {layer: layer_checksum(params, layer) for layer in (1, 2, 3, 4)}
        assert after[2] != before[2]
        for layer in (1, 3, 4):
            assert after[layer] == before[layer]

    def test_moments_only_for_trainable_arrays(self):
        params = _small_params()
        head = OptimizerState.for_params(params, FreezeMask.of(4), lr=0.01)
        assert list(head.m) == list(head.v) == ["out_W", "out_b"]
        assert head.lr == 0.01
        full = OptimizerState.for_params(params)
        assert list(full.m) == list(full.v) == list(params.arrays)

    def test_layer_names_of_several_groups(self):
        params = _small_params()
        assert params.layer_names(4, 3) == ["dense_W", "dense_b", "out_W", "out_b"]
        assert params.layer_names(*ALL_LAYERS.trainable) == list(params.arrays)
        assert params.layer_names() == []

    def test_updates_happen_in_place(self):
        params = _small_params()
        handle = params.arrays["out_W"]
        state = OptimizerState.for_params(params)
        grads = {n: np.ones_like(a) for n, a in params.arrays.items()}
        out, _ = step(params, grads, state)
        assert out is params
        assert out.arrays["out_W"] is handle

    def test_non_finite_gradient_names_array(self):
        params = _small_params()
        state = OptimizerState.for_params(params)
        grads = {n: np.zeros_like(a) for n, a in params.arrays.items()}
        grads["conv2_W"][0, 0] = np.nan
        with pytest.raises(ValueError, match="conv2_W"):
            step(params, grads, state)

    def test_empty_mask_rejected(self):
        params = _small_params()
        state = OptimizerState.for_params(params)
        grads = {n: np.zeros_like(a) for n, a in params.arrays.items()}
        with pytest.raises(ValueError):
            step(params, grads, state, FreezeMask(frozenset()))


class TestPredict:
    def test_matches_argmax_of_eval_probs(self):
        params = _small_params(seed=6)
        batch = _small_batch(seed=6)
        probs, _ = forward(params, batch, mode="eval")
        np.testing.assert_array_equal(predict(params, batch), probs.argmax(axis=1))

    @pytest.mark.parametrize(
        "params,batch",
        [
            pytest.param(_small_params(), _small_batch(batch=6, t=9), id="mixed-lengths"),
            pytest.param(
                _small_params(),
                _rows_batch([np.random.default_rng(n).normal(size=(n, 16)) for n in (1, 2)],
                            np.ones((2, 5))),
                id="shorter-than-widest-kernel",
            ),
            pytest.param(
                _small_params(cluster_width=0), _small_batch(cluster_width=0), id="no-clusters"
            ),
            pytest.param(_small_params(), _small_batch(batch=1), id="batch-of-one"),
            pytest.param(
                init_params(3, 5, seed=2, leaky_slope=0.0, **_SMALL), _small_batch(seed=2),
                id="zero-slope",
            ),
        ],
    )
    def test_trace_free_forward_is_bit_identical(self, params, batch):
        """Eval keeps no trace and matches a traced forward without dropout."""
        traced, cache = forward(params, batch, mode="train", dropout=0.0)
        free, none = forward(params, batch, mode="eval")
        assert cache is not None and none is None
        assert free.tobytes() == traced.tobytes()
        np.testing.assert_array_equal(predict(params, batch), traced.argmax(axis=1))

    @pytest.mark.parametrize("batch,t", [(64, 20), (8, 7)])
    def test_holds_under_half_the_memory_of_a_traced_forward(self, batch, t):
        params = _small_params()
        data = _small_batch(batch=batch, t=t)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced = peak(lambda: forward(params, data, mode="train", dropout=0.0))
        assert peak(lambda: predict(params, data)) < 0.5 * traced


class TestChecksum:
    def test_detects_single_element_change(self):
        params = _small_params()
        before = layer_checksum(params, 1)
        assert layer_checksum(params, 1) == before
        params.arrays["lstm_bw_U"][0, 0] = np.nextafter(
            params.arrays["lstm_bw_U"][0, 0], np.inf
        )
        assert layer_checksum(params, 1) != before

    def test_ignores_other_layers(self):
        params = _small_params()
        before = layer_checksum(params, 2)
        params.arrays["dense_W"][0, 0] += 1.0
        assert layer_checksum(params, 2) == before


class TestCheckpoints:
    def test_round_trip_params_only(self, tmp_path):
        params = _small_params(seed=7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(str(path), params)
        back, state = load_checkpoint(str(path))
        assert state is None
        assert back.n_classes == 3 and back.cluster_width == 5
        assert back.kernels == (2, 3)
        assert sorted(back.arrays) == sorted(params.arrays)
        for name in params.arrays:
            np.testing.assert_array_equal(back.arrays[name], params.arrays[name])

    def test_save_is_deterministic(self, tmp_path):
        params = _small_params(seed=9)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(a), params)
        save_checkpoint(str(b), params.copy())
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_params_train_identically(self, tmp_path):
        params = _small_params(seed=10)
        batch = _small_batch(seed=10)
        path = tmp_path / "net.ckpt"
        save_checkpoint(str(path), params)
        back, _ = load_checkpoint(str(path))
        a, _ = forward(params, batch, mode="train", dropout_seed=4)
        b, _ = forward(back, batch, mode="train", dropout_seed=4)
        np.testing.assert_array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(DataError, match="not a network checkpoint"):
            load_checkpoint(str(path))

    def test_bad_version(self, tmp_path):
        params = _small_params()
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), params)
        data = bytearray(path.read_bytes())
        data[8] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(str(path))

    def test_truncated(self, tmp_path):
        params = _small_params()
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), params)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("arch"),
            lambda h: h.pop("arrays"),
            lambda h: h["arch"].pop("hidden"),
            lambda h: h["arch"].update(hidden="4"),
            lambda h: h["arch"].update(n_classes=True),
            lambda h: h["arch"].update(kernels=[2, "3"]),
            lambda h: h["arch"].update(leaky_slope=None),
            lambda h: h.update(arch=[]),
            lambda h: h.update(arrays={}),
            lambda h: h["arrays"].__setitem__(0, ["lstm_fw_W", [-1]]),
            lambda h: h["arrays"].__setitem__(0, [7, [1]]),
            lambda h: h["arrays"].__setitem__(0, ["lstm_fw_W"]),
            lambda h: h["arrays"].__setitem__(0, ["lstm_fw_W", [16, 32.0]]),
            lambda h: h.update(optimizer={"t": 3, "slots": []}),
            lambda h: h.update(optimizer=3),
            lambda h: h.update(optimizer=0),
        ],
    )
    def test_malformed_header_is_data_error(self, tmp_path, edit):
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), _small_params())
        header = _read_header(path)
        edit(header)
        _write_header(path, header)
        with pytest.raises(DataError, match="x.ckpt"):
            load_checkpoint(str(path))

    def test_non_dict_header_is_data_error(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), _small_params())
        _write_header(path, ["arch"])
        with pytest.raises(DataError, match="arch"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "key,value,needle",
        [
            ("n_classes", 1, "n_classes"),
            ("cluster_width", -1, "cluster_width"),
            ("embed_dim", 0, "embed_dim"),
            ("hidden", -3, "hidden"),
            ("filters", 0, "filters"),
            ("dense", 0, "dense"),
            ("kernels", [], "kernels"),
            ("kernels", [3, 2], "kernels"),
            ("kernels", [2, 2], "kernels"),
            ("kernels", [0, 2], "kernels"),
            ("leaky_slope", -5.0, "leaky_slope"),
        ],
    )
    def test_arch_out_of_range_is_data_error(self, tmp_path, key, value, needle):
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), _small_params())
        header = _read_header(path)
        header["arch"][key] = value
        _write_header(path, header)
        with pytest.raises(DataError, match=f"x.ckpt: arch {needle}"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "edit,name",
        [
            (lambda h: h["arch"].update(hidden=9), "conv2_W"),
            (lambda h: h["arch"].update(cluster_width=4), "dense_W"),
            (lambda h: h["arch"].update(kernels=[2, 4]), "conv3_W"),
            (lambda h: h["arch"].update(n_classes=2), "out_W"),
            (lambda h: h["arrays"][-1].__setitem__(0, "out_c"), "out_b"),
        ],
    )
    def test_arrays_disagreeing_with_arch_are_data_error(self, tmp_path, edit, name):
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), _small_params())
        header = _read_header(path)
        edit(header)
        _write_header(path, header)
        with pytest.raises(DataError, match=f"x.ckpt: array '{name}' has shape"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "name,index,value",
        [("out_W", (0, 1), np.nan), ("lstm_bw_U", (2, 5), -np.inf), ("conv3_b", (4,), np.inf)],
    )
    def test_non_finite_weight_is_data_error(self, tmp_path, name, index, value):
        params = _small_params()
        params.arrays[name][index] = value
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), params)
        with pytest.raises(DataError, match=f"x.ckpt: array '{name}' holds non-finite"):
            load_checkpoint(str(path))

    def test_array_listed_twice_is_data_error(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), _small_params())
        header = _read_header(path)
        header["arrays"][1][0] = header["arrays"][0][0]
        _write_header(path, header)
        with pytest.raises(DataError, match="x.ckpt: array 'lstm_fw_W' listed twice"):
            load_checkpoint(str(path))

    def test_array_shapes_match_init_params(self):
        for params in (_small_params(), init_params(2, 0, seed=0)):
            shapes = {name: a.shape for name, a in params.arrays.items()}
            assert shapes == net._array_shapes(params)
            assert list(shapes) == list(net._array_shapes(params))

    @pytest.mark.parametrize("shape", [[2**32, 2**32], [0, 2**63], [1] * 65])
    def test_shape_numpy_cannot_hold_is_data_error(self, tmp_path, shape):
        """A product past int64, a dimension or a rank past numpy's limit names the file."""
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), _small_params())
        header = _read_header(path)
        header["arrays"][0][1] = shape
        _write_header(path, header)
        with pytest.raises(DataError, match="x.ckpt: array 'lstm_fw_W' shape .* is too large"):
            load_checkpoint(str(path))

    def test_trailing_bytes(self, tmp_path):
        params = _small_params()
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), params)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(str(path))



def _read_header(path) -> dict:
    data = path.read_bytes()
    (head_len,) = struct.unpack_from("<Q", data, 12)
    return json.loads(data[20 : 20 + head_len])


def _write_header(path, header) -> None:
    """Swap a checkpoint's JSON header for ``header``, keeping the array bytes."""
    data = path.read_bytes()
    (head_len,) = struct.unpack_from("<Q", data, 12)
    head = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:12] + struct.pack("<Q", len(head)) + head + data[20 + head_len :])
