"""BiLSTM-CNN tweet classifier with explicit forward and backward passes.

Everything is float64 numpy; there is no autograd.  Parameters are
grouped into four freeze units: 1 = the two LSTM directions, 2 = the
convolution blocks, 3 = the hidden dense layer, 4 = the prediction
layer.  A freeze mask names the trainable groups; only their arrays get
gradients, optimizer moments and updates.

``forward`` keeps the trace that ``backward`` reads in train mode only.
Eval mode keeps none, so it holds only one kernel's activations at a
time; train mode with dropout 0 gives eval's probabilities bit for bit.
Both LSTM directions write into one (B, T, 2H) output.  Each convolution
kernel is one (B*P, k*2H) @ (k*2H, F) product over every window of the
batch, the unrolled convolution of Chellapilla, Puri & Simard (2006), so
how far a batch is padded moves no probability unless a product is small
enough for BLAS to round it its own way (see ``transfer.predict_dataset``).

A batch is each row's length and its token ids into one embedding
matrix, padded with id 0, the zero row.  No LSTM step multiplies a frame:
it reads each frame's input product from a ``GateTable`` row, computed
once per distinct id, and ``backward`` gathers each step's embedding rows
for the input weights' gradient.  Sequences shorter than the widest
convolution kernel are treated as if padded with id 0 up to that width,
so every kernel always sees at least one window.  Frames past a row's
length, floored at that width, are ignored whatever id they hold.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import NUMBER, DataError, require

LAYER_IDS = (1, 2, 3, 4)

_MAGIC = b"TWXNETCK"
_VERSION = 1


@dataclass(frozen=True)
class FreezeMask:
    """The set of layer groups a training step may modify."""

    trainable: frozenset[int]

    def __post_init__(self) -> None:
        bad = set(self.trainable) - set(LAYER_IDS)
        if bad:
            raise ValueError(f"unknown layer ids in freeze mask: {sorted(bad)}")

    @staticmethod
    def of(*layers: int) -> "FreezeMask":
        return FreezeMask(frozenset(layers))


ALL_LAYERS = FreezeMask.of(1, 2, 3, 4)


def layer_of(name: str) -> int:
    if name.startswith("lstm_"):
        return 1
    if name.startswith("conv"):
        return 2
    if name.startswith("dense_"):
        return 3
    if name.startswith("out_"):
        return 4
    raise KeyError(f"unknown parameter array {name!r}")


@dataclass
class NetworkParams:
    """All weight arrays plus the sizes needed to interpret them."""

    arrays: dict[str, np.ndarray]
    n_classes: int
    cluster_width: int
    embed_dim: int = 300
    hidden: int = 100
    filters: int = 200
    dense: int = 100
    kernels: tuple[int, ...] = (3, 4, 5)
    leaky_slope: float = 0.3

    def layer_names(self, *layers: int) -> list[str]:
        return [n for n in self.arrays if layer_of(n) in layers]

    def copy(self) -> "NetworkParams":
        return replace(self, arrays={n: a.copy() for n, a in self.arrays.items()})


def layer_checksum(params: NetworkParams, layer: int) -> str:
    """SHA-256 over the raw bytes of the layer's arrays, in name order."""
    digest = hashlib.sha256()
    for name in sorted(params.layer_names(layer)):
        digest.update(np.ascontiguousarray(params.arrays[name]).tobytes())
    return digest.hexdigest()


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def _check_arch(params: NetworkParams) -> None:
    """Raise ValueError unless the sizes describe a network ``forward`` can run."""
    if params.n_classes < 2:
        raise ValueError(f"n_classes must be at least 2, got {params.n_classes}")
    if params.cluster_width < 0:
        raise ValueError(f"cluster_width must be >= 0, got {params.cluster_width}")
    for name in ("embed_dim", "hidden", "filters", "dense"):
        if getattr(params, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(params, name)}")
    kernels = params.kernels
    if not kernels or list(kernels) != sorted(set(kernels)) or kernels[0] < 1:
        raise ValueError(f"kernels must be distinct, ascending and positive, got {kernels}")
    if not (np.isfinite(params.leaky_slope) and params.leaky_slope >= 0):
        raise ValueError(f"leaky_slope must be finite and >= 0, got {params.leaky_slope}")


def _array_shapes(params: NetworkParams) -> dict[str, tuple[int, ...]]:
    """Name and shape of every array ``draw_arrays`` makes for this arch."""
    h4, width, filters = 4 * params.hidden, 2 * params.hidden, params.filters
    shapes: dict[str, tuple[int, ...]] = {}
    for direction in ("fw", "bw"):
        shapes[f"lstm_{direction}_W"] = (params.embed_dim, h4)
        shapes[f"lstm_{direction}_U"] = (params.hidden, h4)
        shapes[f"lstm_{direction}_b"] = (h4,)
    for k in params.kernels:
        shapes[f"conv{k}_W"] = (k * width, filters)
        shapes[f"conv{k}_b"] = (filters,)
    feat = len(params.kernels) * filters + params.cluster_width
    shapes["dense_W"] = (feat, params.dense)
    shapes["dense_b"] = (params.dense,)
    shapes["out_W"] = (params.dense, params.n_classes)
    shapes["out_b"] = (params.n_classes,)
    return shapes


def draw_arrays(params: NetworkParams, layers: tuple[int, ...], seed: int) -> NetworkParams:
    """Check the arch, then draw the arrays of ``layers``' groups into
    ``params`` in ``_array_shapes`` order from ``default_rng(seed)``.

    Biases start at zero, except the LSTM forget-gate bias at 1.0.
    Matrices are Glorot-uniform with ``fan_in, fan_out = shape``, where a
    conv kernel's fan-out counts all k window steps: ``k * filters``.
    """
    _check_arch(params)
    rng = np.random.default_rng(seed)
    for name, shape in _array_shapes(params).items():
        layer = layer_of(name)
        if layer not in layers:
            continue
        if len(shape) == 1:
            value = np.zeros(shape)
            if layer == 1:
                value[params.hidden : 2 * params.hidden] = 1.0
        else:
            fan_in, fan_out = shape
            if layer == 2:
                fan_out *= fan_in // (2 * params.hidden)
            value = _glorot(rng, shape, fan_in, fan_out)
        params.arrays[name] = value
    return params


def init_params(n_classes: int, cluster_width: int, seed: int = 0, **sizes) -> NetworkParams:
    """A new network whose every array comes from ``draw_arrays``.

    ``sizes`` are ``NetworkParams`` fields (``embed_dim``, ``hidden``,
    ``filters``, ``dense``, ``kernels``, ``leaky_slope``); the ones left
    out keep the paper's sizes.  One seed pins every value.
    """
    params = NetworkParams(arrays={}, n_classes=n_classes, cluster_width=cluster_width, **sizes)
    return draw_arrays(params, LAYER_IDS, seed)


def _gate_scale(hidden: int) -> np.ndarray:
    """Factor for each of the 4H LSTM gate pre-activations: 0.5 for the
    i, f and o gates, 1 for g.

    sigmoid(a) = (1 + tanh(a / 2)) / 2, so one tanh serves all four gates
    once the i, f, o pre-activations are halved.  Halving is exact in
    floating point, so halving the weights once gives the same
    pre-activations as halving every step's sum.
    """
    scale = np.full(4 * hidden, 0.5)
    scale[2 * hidden : 3 * hidden] = 1.0
    return scale


@dataclass(frozen=True)
class GateTable:
    """Row r of ``fw`` is ``matrix[ids[r]] @ lstm_fw_W`` with the i, f, o
    columns halved (``_gate_scale``); likewise ``bw``.  Rows past
    ``len(ids)`` are padding.  The table holds 8H floats per row and is
    valid only while ``params``' LSTM weights stay as they were when
    ``gate_table`` built it.
    """

    params: NetworkParams
    ids: np.ndarray  # (n,) ascending, ids[0] == 0
    fw: np.ndarray  # (rows, 4H), rows the multiple of 4 at or above n
    bw: np.ndarray  # (rows, 4H)


def _gate_rows(params: NetworkParams, matrix: np.ndarray, ids: np.ndarray, d: str) -> np.ndarray:
    """Direction ``d``'s table rows for the ascending ``ids``, padded with
    id 0 to a multiple of 4; one GEMM per 256 rows bounds the gathered copy."""
    W = params.arrays[f"lstm_{d}_W"] * _gate_scale(params.hidden)
    ids = np.pad(ids, (0, -len(ids) % 4))
    rows = np.empty((len(ids), W.shape[1]))
    for start in range(0, len(ids), 256):
        np.matmul(matrix[ids[start : start + 256]], W, out=rows[start : start + 256])
    return rows


def gate_table(params: NetworkParams, matrix: np.ndarray, ids: np.ndarray) -> GateTable:
    """Multiply the embedding rows of the distinct ``ids``, and of the
    padding id 0, through both LSTM directions' input weights, one GEMM
    per direction and block of up to 256 rows.

    With OpenBLAS 0.3.31's SkylakeX kernels a GEMM row's bytes do not
    depend on how many rows the product has once it has two (numpy sends a
    one-row product to gemv), so each table row is the bytes of a step's
    own (B, E) @ (E, 4H) for B >= 2.  The rows are padded to a multiple
    of 4, since Haswell kernels round the rows past a product's last
    multiple of 4 their own way, and so are the blocks.
    """
    ids = np.unique(np.append(np.asarray(ids, dtype=np.intp), 0))
    return GateTable(params, ids, *(_gate_rows(params, matrix, ids, d) for d in ("fw", "bw")))


@dataclass(frozen=True)
class Batch:
    """Padded token ids into one embedding matrix, lengths and side features."""

    ids: np.ndarray  # (B, T) rows of ``matrix``, 0 at padding
    matrix: np.ndarray  # (rows, embed_dim), row 0 the zero padding vector
    lengths: np.ndarray  # (B,) int, real tokens per row; frames past them are padding
    cluster_features: np.ndarray  # (B, cluster_width)
    labels: np.ndarray | None = None  # (B,) int64


def make_batch(
    ids: list[np.ndarray],
    matrix: np.ndarray,
    cluster_features: np.ndarray | list,
    labels: np.ndarray | list | None = None,
    max_len: int = 100,
) -> Batch:
    """Pad per-tweet token ids to a common length with the padding id 0.

    ``ids`` index rows of ``matrix``, whose row 0 is the zero padding
    vector; id 0 never names a token.  Sequences longer than ``max_len``
    tokens are truncated; each row's length says where its padding
    starts.  The batch keeps a reference to ``matrix``, not a gathered
    copy of its rows.
    """
    if not ids:
        raise ValueError("batch needs at least one sequence")
    feats = np.asarray(cluster_features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != len(ids):
        raise ValueError("cluster features must align with sequences")
    clipped = [s[:max_len] for s in ids]
    lengths = np.array([len(s) for s in clipped])
    real = np.arange(max(1, lengths.max())) < lengths[:, None]
    padded = np.zeros(real.shape, dtype=np.intp)
    padded[real] = np.concatenate(clipped)
    lab = None
    if labels is not None:
        lab = np.asarray(labels, dtype=np.int64)
        if lab.shape != (len(clipped),):
            raise ValueError("labels must align with sequences")
    return Batch(padded, matrix, lengths, feats, lab)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0.0, x, slope * x)


def _leaky_grad(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0.0, 1.0, slope)


@dataclass
class _LstmTrace:
    # The i, f, g, o gate activations live side by side in one (B, T, 4H)
    # buffer because a single tanh over the (B, 4H) pre-activation yields
    # all four at once; backward slices the blocks it needs.  This takes
    # the same memory as four (B, T, H) arrays.  ``c_out`` and ``h_out``
    # hold the state after each step, so step t - 1's are step t's inputs.
    # Without a trace only ``h_out`` is kept; the other fields are None.
    gates: np.ndarray | None
    tanh_c: np.ndarray | None
    c_out: np.ndarray | None
    h_out: np.ndarray


def _lstm_direction(
    pos: np.ndarray,
    eff: np.ndarray,
    rows: np.ndarray,
    U: np.ndarray,
    b: np.ndarray,
    keep_trace: bool,
    h_out: np.ndarray,
) -> _LstmTrace:
    """One direction, left to right; the backward one runs on time-flipped views.

    Each step's state goes into ``h_out``, a (B, T, H) array or view.
    Step t's input products are ``rows[pos[:, t]]``, from one direction's
    table rows and the (B, T) row of each frame.
    """
    B, T = pos.shape
    H = U.shape[0]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    kept = [np.zeros((B, T, n)) for n in (4 * H, H, H)] if keep_trace else [None] * 3
    tr = _LstmTrace(*kept, h_out=h_out)
    # One tanh gives all four gates: map each t to scale * t + shift.
    scale = _gate_scale(H)
    shift = 1.0 - scale
    Us, bs = U * scale, b * scale
    for t in range(T):
        m = eff[:, t : t + 1]
        z = rows[pos[:, t]]
        z += h @ Us
        z += bs
        gates = tr.gates[:, t] if keep_trace else z
        np.tanh(z, out=gates)
        gates *= scale
        gates += shift
        i, f, g, o = (gates[:, k * H : (k + 1) * H] for k in range(4))
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new, out=tr.tanh_c[:, t] if keep_trace else None)
        h_new = o * tanh_c
        # Masked steps carry state through unchanged, so padding after a
        # sequence's end never alters it.
        c = m * c_new + (1.0 - m) * c
        h = m * h_new + (1.0 - m) * h
        if keep_trace:
            tr.c_out[:, t] = c
        tr.h_out[:, t] = h
    return tr


def _lstm_direction_backward(
    matrix: np.ndarray,
    ids: np.ndarray,
    eff: np.ndarray,
    U: np.ndarray,
    tr: _LstmTrace,
    d_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    B, T = ids.shape
    H = U.shape[0]
    dW = np.zeros((matrix.shape[1], 4 * H))
    dU = np.zeros_like(U)
    db = np.zeros(4 * H)
    dh_carry = np.zeros((B, H))
    dc_carry = np.zeros((B, H))
    start = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        h_prev = tr.h_out[:, t - 1] if t else start
        c_prev = tr.c_out[:, t - 1] if t else start
        m = eff[:, t : t + 1]
        dh_total = d_out[:, t] + dh_carry
        dh_new = m * dh_total
        dh_prev = (1.0 - m) * dh_total
        dc_new = m * dc_carry
        dc_prev = (1.0 - m) * dc_carry
        i, f, g, o = (tr.gates[:, t, k * H : (k + 1) * H] for k in range(4))
        tanh_c = tr.tanh_c[:, t]
        d_o = dh_new * tanh_c
        dc_new = dc_new + dh_new * o * (1.0 - tanh_c**2)
        d_f = dc_new * c_prev
        d_i = dc_new * g
        d_g = dc_new * i
        dc_prev = dc_prev + dc_new * f
        dz = np.concatenate(
            [
                d_i * i * (1.0 - i),
                d_f * f * (1.0 - f),
                d_g * (1.0 - g**2),
                d_o * o * (1.0 - o),
            ],
            axis=1,
        )
        dW += matrix[ids[:, t]].T @ dz
        dU += h_prev.T @ dz
        db += dz.sum(axis=0)
        dh_carry = dh_prev + dz @ U.T
        dc_carry = dc_prev
    return dW, dU, db


@dataclass
class _ConvTrace:
    arg: np.ndarray  # (B, filters) winning position per filter
    top: np.ndarray  # (B, filters) pre-activation at ``arg``
    pool_mask: np.ndarray | None


@dataclass
class ForwardCache:
    params: NetworkParams
    ids: np.ndarray  # (B, T) batch ids, padded with 0 to the widest kernel
    eff: np.ndarray
    fw: _LstmTrace
    bw: _LstmTrace
    lstm_mask: np.ndarray | None
    h_drop: np.ndarray
    conv: dict[int, _ConvTrace]
    z: np.ndarray
    a_pre: np.ndarray
    a: np.ndarray
    probs: np.ndarray


def _windows(h: np.ndarray, k: int) -> np.ndarray:
    """(B, P, k*width) view of all k-step windows, time-major inside."""
    p = h.shape[1] - k + 1
    return np.concatenate([h[:, j : j + p] for j in range(k)], axis=2)


def forward(
    params: NetworkParams,
    batch: Batch,
    mode: str = "train",
    dropout_seed: int = 0,
    dropout: float = 0.5,
    table: GateTable | None = None,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the network; returns class probabilities and ``backward``'s cache.

    Train mode applies inverted dropout to the BiLSTM output sequence
    and to each pooled convolution vector, with masks drawn from
    ``dropout_seed`` in a fixed order, and returns the cache.  Eval mode
    is deterministic and keeps no trace: its cache is None, and it pools
    each kernel with a max alone, without the winning positions that
    ``backward`` needs.  Train mode with ``dropout=0.0`` gives eval's
    probabilities bit for bit.

    LSTM steps read ``table``, which must come from these params and
    cover the batch's ids, or else rows built here over the batch's ids,
    one direction at a time.  With OpenBLAS 0.3.31's SkylakeX kernels
    these are the bytes of the per-frame (B, E) @ (E, 4H) product for
    B >= 2; a one-row batch's differ in the last bits, since numpy sends
    a one-row product to gemv.

    Every kernel's pre-activations come from one GEMM over all windows of
    the batch, so padding frames appended to a batch change no output
    byte, except in the few-row batches where BLAS takes its small-matrix
    path.  For the same reason, batch size moves only the last bits, and
    at paper sizes only of batches under 16 rows or of a size that 4 does
    not divide (see ``transfer.predict_dataset``).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {dropout}")
    if table is not None and table.params is not params:
        raise ValueError("gate table was built from different params")
    ids = batch.ids
    B, T = ids.shape
    if batch.cluster_features.shape != (B, params.cluster_width):
        raise ValueError(
            f"cluster features shaped {batch.cluster_features.shape}, "
            f"expected {(B, params.cluster_width)}"
        )
    # Short sequences count as padded with id 0 up to the widest kernel:
    # those extra steps are real (zero-vector) inputs, not masked out.
    min_len = max(params.kernels)
    if T < min_len:
        ids = np.pad(ids, ((0, 0), (0, min_len - T)))
        T = min_len
    lengths = np.maximum(batch.lengths, min_len)
    eff = (np.arange(T)[None, :] < lengths[:, None]).astype(np.float64)
    cover = np.unique(np.append(ids, 0)) if table is None else table.ids
    pos = np.searchsorted(cover, ids)
    if (cover[np.minimum(pos, len(cover) - 1)] != ids).any():
        raise ValueError("gate table does not cover every id of the batch")

    keep = 1.0 - dropout
    lstm_mask = None
    pool_masks: dict[int, np.ndarray] = {}
    if mode == "train" and dropout > 0.0:
        rng = np.random.default_rng(dropout_seed)
        width = 2 * params.hidden
        lstm_mask = (rng.random((B, T, width)) < keep) / keep
        for k in params.kernels:
            pool_masks[k] = (rng.random((B, params.filters)) < keep) / keep

    traced = mode == "train"
    H = params.hidden
    h_cat = np.empty((B, T, 2 * H))
    fw, bw = (
        _lstm_direction(
            p, e,
            _gate_rows(params, batch.matrix, cover, d) if table is None else getattr(table, d),
            params.arrays[f"lstm_{d}_U"], params.arrays[f"lstm_{d}_b"], traced, out,
        )
        for d, p, e, out in (
            ("fw", pos, eff, h_cat[:, :, :H]),
            ("bw", pos[:, ::-1], eff[:, ::-1], h_cat[:, ::-1, H:]),
        )
    )
    if not traced:
        fw = bw = None  # only the cache reads them again
    h_drop = h_cat * lstm_mask if lstm_mask is not None else h_cat

    conv: dict[int, _ConvTrace] = {}
    pooled_parts: list[np.ndarray] = []
    positions = np.arange(T)
    for k in params.kernels:
        cols = _windows(h_drop, k)
        p = T - k + 1
        # One product over every window of the batch, so a window's
        # rounding does not depend on how far its batch is padded.
        pre = (cols.reshape(B * p, -1) @ params.arrays[f"conv{k}_W"]).reshape(B, p, -1)
        pre += params.arrays[f"conv{k}_b"]
        del cols
        valid = (positions[:p][None, :] + k) <= lengths[:, None]
        # Leaky ReLU is monotone, so pooling before it picks the same value
        # bit for bit.  Masking in place keeps signed zeros (adding 0/-inf
        # would not).
        pre[~valid] = -np.inf
        top = pre.max(axis=1)
        pool_mask = pool_masks.get(k)
        if traced:
            conv[k] = _ConvTrace(arg=pre.argmax(axis=1), top=top, pool_mask=pool_mask)
        del pre
        pooled = _leaky(top, params.leaky_slope)
        pooled_parts.append(pooled * pool_mask if pool_mask is not None else pooled)

    z = np.concatenate(pooled_parts + [batch.cluster_features], axis=1)
    a_pre = z @ params.arrays["dense_W"] + params.arrays["dense_b"]
    a = _leaky(a_pre, params.leaky_slope)
    logits = a @ params.arrays["out_W"] + params.arrays["out_b"]
    probs = _softmax(logits)
    cache = ForwardCache(
        params=params, ids=ids, eff=eff, fw=fw, bw=bw, lstm_mask=lstm_mask,
        h_drop=h_drop, conv=conv, z=z, a_pre=a_pre, a=a, probs=probs,
    ) if traced else None
    return probs, cache


def loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy; probabilities are floored at 1e-12 inside log."""
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(np.maximum(picked, 1e-12))))


def backward(
    params: NetworkParams,
    batch: Batch,
    cache: ForwardCache | None,
    freeze: FreezeMask = ALL_LAYERS,
) -> dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy for the trainable arrays only.

    Frozen arrays are absent.  The cache must come from a train-mode
    forward pass over these same params.
    """
    if cache is None:
        raise ValueError("backward needs a train-mode forward's cache; eval keeps none")
    if cache.params is not params:
        raise ValueError("cache was built from different params")
    if batch.labels is None:
        raise ValueError("backward needs labels in the batch")
    B = cache.probs.shape[0]
    slope = params.leaky_slope
    grads: dict[str, np.ndarray] = {}

    dlogits = cache.probs.copy()
    dlogits[np.arange(B), batch.labels] -= 1.0
    dlogits /= B

    grads["out_W"] = cache.a.T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    da = dlogits @ params.arrays["out_W"].T
    da_pre = da * _leaky_grad(cache.a_pre, slope)
    grads["dense_W"] = cache.z.T @ da_pre
    grads["dense_b"] = da_pre.sum(axis=0)
    dz = da_pre @ params.arrays["dense_W"].T

    width = 2 * params.hidden
    d_h_drop = np.zeros_like(cache.h_drop)
    offset = 0
    for k in params.kernels:
        tr = cache.conv[k]
        d_pooled_drop = dz[:, offset : offset + params.filters]
        offset += params.filters
        d_pooled = (
            d_pooled_drop * tr.pool_mask if tr.pool_mask is not None else d_pooled_drop
        )
        p = cache.h_drop.shape[1] - k + 1
        dpre = np.zeros((B, p, params.filters))
        d_top = d_pooled * _leaky_grad(tr.top, slope)
        np.put_along_axis(dpre, tr.arg[:, None, :], d_top[:, None, :], axis=1)
        cols = _windows(cache.h_drop, k)
        grads[f"conv{k}_W"] = np.einsum("bpi,bpf->if", cols, dpre)
        grads[f"conv{k}_b"] = dpre.sum(axis=(0, 1))
        dcols = dpre @ params.arrays[f"conv{k}_W"].T
        for j in range(k):
            d_h_drop[:, j : j + p] += dcols[:, :, j * width : (j + 1) * width]

    d_h_cat = d_h_drop * cache.lstm_mask if cache.lstm_mask is not None else d_h_drop
    H = params.hidden
    for direction, tr, ids, eff, d_out in (
        ("fw", cache.fw, cache.ids, cache.eff, d_h_cat[:, :, :H]),
        ("bw", cache.bw, cache.ids[:, ::-1], cache.eff[:, ::-1], d_h_cat[:, ::-1, H:]),
    ):
        dW, dU, db = _lstm_direction_backward(
            batch.matrix, ids, eff, params.arrays[f"lstm_{direction}_U"], tr, d_out
        )
        grads[f"lstm_{direction}_W"] = dW
        grads[f"lstm_{direction}_U"] = dU
        grads[f"lstm_{direction}_b"] = db

    return {n: grads[n] for n in params.layer_names(*freeze.trainable)}


# Nadam's fixed hyper-parameters (Dozat 2016); the learning rate is the only knob.
BETA1 = 0.99
BETA2 = 0.999
EPSILON = 1e-8
SCHEDULE_DECAY = 0.004


@dataclass
class OptimizerState:
    """Nadam state: first and second moments of the trainable arrays plus schedule."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    m_prod: float = 1.0
    lr: float = 0.002

    @classmethod
    def for_params(
        cls, params: NetworkParams, freeze: FreezeMask = ALL_LAYERS, lr: float = 0.002
    ) -> "OptimizerState":
        """Zero moments for the arrays of ``freeze``'s groups only."""
        m = {n: np.zeros_like(params.arrays[n]) for n in params.layer_names(*freeze.trainable)}
        return cls(m=m, v={n: np.zeros_like(a) for n, a in m.items()}, lr=lr)


def _momentum(t: int) -> float:
    return BETA1 * (1.0 - 0.5 * 0.96 ** (t * SCHEDULE_DECAY))


def step(
    params: NetworkParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    freeze: FreezeMask = ALL_LAYERS,
) -> tuple[NetworkParams, OptimizerState]:
    """One Nadam update in place over the trainable layer groups.

    Uses the momentum-schedule variant: each step blends the bias
    corrected current gradient with the next step's look-ahead momentum.
    ``grads`` and ``state`` need only the trainable arrays, as ``backward``
    and ``OptimizerState.for_params`` give them; frozen ones stay bit-identical.
    """
    if not freeze.trainable:
        raise ValueError("freeze mask selects no trainable layers")
    names = params.layer_names(*freeze.trainable)
    for n in names:
        if not np.isfinite(grads[n]).all():
            raise ValueError(f"non-finite gradient in {n!r} (layer {layer_of(n)})")
    state.t += 1
    t = state.t
    mu_t = _momentum(t)
    mu_next = _momentum(t + 1)
    m_prod = state.m_prod * mu_t
    m_prod_next = m_prod * mu_next
    state.m_prod = m_prod
    v_corr = 1.0 - BETA2**t
    for n in names:
        g = grads[n]
        m = state.m[n]
        v = state.v[n]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        g_hat = g / (1.0 - m_prod)
        m_hat = m / (1.0 - m_prod_next)
        m_bar = (1.0 - mu_t) * g_hat + mu_next * m_hat
        params.arrays[n] -= state.lr * m_bar / (np.sqrt(v / v_corr) + EPSILON)
    return params, state


def gradient_check(
    params: NetworkParams,
    batch: Batch,
    freeze: FreezeMask = ALL_LAYERS,
    eps: float = 1e-5,
    samples_per_array: int = 8,
    seed: int = 0,
    dropout: float = 0.5,
    dropout_seed: int = 0,
) -> float:
    """Largest relative error between analytic and central-difference grads.

    Every forward is a train-mode one with the same dropout masks;
    ``dropout=0.0`` checks the eval network, whose probabilities it gives
    bit for bit.  Checks a random sample of indices in every trainable
    array.  The relative error denominator is floored at 1e-6 so
    finite-difference cancellation noise on near-zero gradients does not
    register.
    """
    if batch.labels is None:
        raise ValueError("gradient check needs labels")
    drop = dict(dropout_seed=dropout_seed, dropout=dropout)
    probs, cache = forward(params, batch, **drop)
    grads = backward(params, batch, cache, freeze)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, grad in grads.items():
        arr = params.arrays[name]
        count = min(samples_per_array, arr.size)
        flat_idx = rng.choice(arr.size, size=count, replace=False)
        for i in flat_idx:
            ij = np.unravel_index(i, arr.shape)
            orig = arr[ij]
            arr[ij] = orig + eps
            up = loss(forward(params, batch, **drop)[0], batch.labels)
            arr[ij] = orig - eps
            down = loss(forward(params, batch, **drop)[0], batch.labels)
            arr[ij] = orig
            numeric = (up - down) / (2.0 * eps)
            analytic = grad[ij]
            denom = max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


# Checkpoint header scalars, shared by the writer and the checked reader.
_ARCH_INTS = ("n_classes", "cluster_width", "embed_dim", "hidden", "filters", "dense")


def save_checkpoint(path: str, params: NetworkParams) -> None:
    """Write the network's arch and weights as raw float64.

    Layout: magic, format version, JSON header length, JSON header
    (arch and array shapes), then every array's little-endian float64
    bytes in header order.  Round-trips are bit-exact.  The header's
    ``optimizer`` field is always null: optimizer state is not saved.
    """
    header = {
        "arch": {
            **{key: getattr(params, key) for key in _ARCH_INTS},
            "kernels": list(params.kernels),
            "leaky_slope": params.leaky_slope,
        },
        "arrays": [[n, list(a.shape)] for n, a in params.arrays.items()],
        "optimizer": None,
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        for a in params.arrays.values():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> tuple[NetworkParams, None]:
    """Read a ``save_checkpoint`` file; the second item is always None."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + 12 or data[: len(_MAGIC)] != _MAGIC:
        raise DataError(f"{path}: not a network checkpoint")
    off = len(_MAGIC)
    (version,) = struct.unpack_from("<I", data, off)
    off += 4
    if version != _VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (head_len,) = struct.unpack_from("<Q", data, off)
    off += 8
    if off + head_len > len(data):
        raise DataError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(data[off : off + head_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise DataError(f"{path}: corrupt checkpoint header") from None
    off += head_len

    arch = require(header, "arch", (dict,), path)
    if header.get("optimizer") is not None:
        raise DataError(f"{path}: checkpoints with optimizer state are not supported")
    arrays: dict[str, np.ndarray] = {}
    for spec in require(header, "arrays", (list,), path):
        if not (
            isinstance(spec, list) and len(spec) == 2 and type(spec[0]) is str
            and isinstance(spec[1], list) and all(type(d) is int and d >= 0 for d in spec[1])
        ):
            raise DataError(f"{path}: malformed array entry {spec!r} in checkpoint header")
        name, shape = spec
        if name in arrays:
            raise DataError(f"{path}: array {name!r} listed twice in checkpoint header")
        # numpy refuses an array whose nonzero dims multiply past its byte range.
        if math.prod(d or 1 for d in shape) > np.iinfo(np.intp).max // 8:
            raise DataError(f"{path}: array {name!r} shape {shape} is too large")
        n_bytes = 8 * math.prod(shape)
        if off + n_bytes > len(data):
            raise DataError(f"{path}: truncated checkpoint data at array {name!r}")
        raw = np.frombuffer(data[off : off + n_bytes], dtype="<f8")
        try:
            arrays[name] = raw.astype(np.float64).reshape(shape)
        except ValueError:  # more dimensions than numpy allows
            raise DataError(f"{path}: array {name!r} shape {shape} is too large") from None
        if not np.isfinite(arrays[name]).all():
            raise DataError(f"{path}: array {name!r} holds non-finite values")
        off += n_bytes
    params = NetworkParams(
        arrays=arrays,
        kernels=tuple(require(arch, "kernels", (list,), path, items=(int,))),
        leaky_slope=float(require(arch, "leaky_slope", NUMBER, path)),
        **{key: require(arch, key, (int,), path) for key in _ARCH_INTS},
    )
    try:
        _check_arch(params)
    except ValueError as exc:
        raise DataError(f"{path}: arch {exc}") from None
    got = {name: a.shape for name, a in arrays.items()}
    expected = _array_shapes(params)
    for name in sorted(expected.keys() | got.keys()):
        if got.get(name) != expected.get(name):
            raise DataError(
                f"{path}: array {name!r} has shape {got.get(name, 'absent')}, "
                f"arch implies {expected.get(name, 'absent')}"
            )
    if off != len(data):
        raise DataError(f"{path}: {len(data) - off} trailing bytes after checkpoint data")
    return params, None
