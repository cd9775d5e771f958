"""The hash head: a 3-layer MLP trained to pull codes onto their centers.

forward maps an (n, d) batch of feature rows through two ReLU layers and a
sigmoid output to a relaxed code in (0,1)^K. Training minimizes

    L = [use_lc] * L_central + lambda1 * L_quant

where L_central is the per-bit binary cross-entropy between the relaxed
code and its assigned binary center, and L_quant is a log-cosh penalty
that pushes every output toward {0, 1}; lambda1 = 0 drops it. A training
step is one call of backward: one forward pass, then loss_and_dh turns its
output into both loss terms and dL/dh, and backprop carries dL/dh through
the same cached activations. All math is float64 and every random draw is
seeded, so training is bit-reproducible.
encode runs the same forward pass on blocks of rows in reused buffers.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import binfmt, hamming
from .errors import DimensionError, FormatError, NumericError, TrainingError
from .seeds import substream

MAGIC_MODEL = b"CSQM"

BCE_EPS = 1e-7  # clamp for log arguments

# bytes of one encode block's float64 working set: its input rows and their
# activations, d + w1 + w2 + 2k values a row (the sigmoid's scratch is the
# second k). Rows per block follow from the head's widths, so the working set
# stays about this size for any n and any head.
ENCODE_BLOCK_BYTES = 4 << 20


@dataclass
class TrainConfig:
    lambda1: float = 1e-4
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 16
    epochs: int = 100
    seed: int = 0
    use_lc: bool = True

    def __post_init__(self):
        # nan passes every comparison below, so test finiteness first
        for name in ("lambda1", "learning_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.lambda1 < 0:
            raise ValueError("lambda1 must be non-negative")
        if not self.use_lc and self.lambda1 == 0:
            raise ValueError("at least one loss term must be enabled")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class HashModel:
    """Weights (fan_out, fan_in) and biases of the three fc layers."""

    weights: list
    biases: list

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def k(self) -> int:
        return self.weights[-1].shape[0]


@dataclass
class Gradients:
    weights: list
    biases: list


@dataclass
class EpochLog:
    epoch: int
    total: float
    central: float
    quant: float


def default_hidden(d: int, k: int) -> tuple[int, int]:
    """Hidden widths (1024, 512), shrunk proportionally for small inputs."""
    if d >= 1024:
        return (max(1024, k), max(512, k))
    return (max(d, k), max(d // 2, k))


def init_model(d: int, k: int, hidden: tuple[int, int] | None = None, seed: int = 0) -> HashModel:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    if d < 1 or k < 1:
        raise ValueError("d and k must be positive")
    w1, w2 = hidden if hidden is not None else default_hidden(d, k)
    rng = substream(seed, "init")
    weights, biases = [], []
    for fan_in, fan_out in ((d, w1), (w1, w2), (w2, k)):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return HashModel(weights=weights, biases=biases)


def _sigmoid(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)), computed over z in place; e is float64 scratch shaped like z.

    With e = exp(-|z|), which cannot overflow, the result is 1 / (e + 1)
    where z >= 0 and e / (e + 1) where z < 0: the float operations of the
    two-branch form, with no mask or gather. A NaN passes through exactly
    as there, since np.minimum and np.maximum return the NaN operand.
    """
    e = np.negative(z, out=e)
    np.minimum(z, e, out=e)  # -|z|
    np.exp(e, out=e)
    np.greater_equal(z, 0.0, out=z)
    np.maximum(z, e, out=z)  # the numerator: 1 where z >= 0, else e (which is <= 1)
    e += 1.0
    return np.divide(z, e, out=z)


def _quant(u: np.ndarray) -> np.ndarray:
    """Per-sample sum of logcosh(u) over the bits, u being |2h - 1| - 1."""
    au = np.abs(u)
    return (au + np.log1p(np.exp(-2.0 * au)) - math.log(2.0)).sum(axis=1)


def _buffers(model: HashModel, rows: int) -> tuple:
    """Room for _forward_into on up to `rows` rows: a1, a2, h and the sigmoid's scratch."""
    widths = model.layer_sizes[1:]
    return tuple(np.empty((rows, w)) for w in widths + widths[-1:])


def _forward_into(model: HashModel, x: np.ndarray, buffers: tuple) -> tuple:
    """The activations (a1, a2, h) of the rows of x, computed in the leading rows of buffers."""
    w1, w2, w3 = model.weights
    b1, b2, b3 = model.biases
    a1, a2, h, e = (b[: len(x)] for b in buffers)
    np.matmul(x, w1.T, out=a1)
    a1 += b1
    np.maximum(a1, 0.0, out=a1)
    np.matmul(a1, w2.T, out=a2)
    a2 += b2
    np.maximum(a2, 0.0, out=a2)
    np.matmul(a2, w3.T, out=h)
    h += b3
    return a1, a2, _sigmoid(h, e)


def _forward_cached(model: HashModel, x: np.ndarray) -> tuple:
    return _forward_into(model, x, _buffers(model, len(x)))


def _check_features(model: HashModel, shape: tuple) -> None:
    """An (n, d) batch, d being the model's input width."""
    if len(shape) != 2 or shape[1] != model.layer_sizes[0]:
        raise DimensionError(
            f"features have shape {shape}, model expects dim {model.layer_sizes[0]}"
        )


def forward(model: HashModel, x) -> np.ndarray:
    """Relaxed codes in (0,1)^K for an (n, d) batch of feature rows."""
    x = np.asarray(x, dtype=np.float64)
    _check_features(model, x.shape)
    return _forward_cached(model, x)[-1]


def _codes(h) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise DimensionError(f"codes must be an (n, k) batch, got shape {h.shape}")
    return h


def _bce(hc: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-sample mean bit cross-entropy of clipped codes hc against centers c."""
    return -(c * np.log(hc) + (1.0 - c) * np.log1p(-hc)).sum(axis=1) / hc.shape[1]


def central_loss(h, c) -> float:
    """Mean per-bit binary cross-entropy between relaxed codes and centers."""
    h, c = _codes(h), np.asarray(c, dtype=np.float64)
    if c.shape != h.shape:
        raise DimensionError(f"codes {h.shape} and centers {c.shape} differ")
    return float(_bce(np.clip(h, BCE_EPS, 1.0 - BCE_EPS), c).mean())


def quantization_loss(h) -> float:
    """Mean over samples of sum_k logcosh(|2 h_k - 1| - 1); zero iff binary."""
    h = _codes(h)
    if np.isnan(h).any():
        raise NumericError("relaxed code contains NaN")
    return float(_quant(np.abs(2.0 * h - 1.0) - 1.0).mean())


def loss_and_dh(h: np.ndarray, c: np.ndarray, cfg: TrainConfig) -> tuple[float, float, np.ndarray]:
    """Both loss terms of an (n, k) batch of relaxed codes, and dL/dh.

    A disabled term reads 0.0 and adds nothing to dh. The |.| subderivative
    at 0 is taken as 0, and coordinates clamped by the cross-entropy epsilon
    get a zero gradient, matching what a finite difference of the loss sees.
    """
    n, k = h.shape
    central = quant = 0.0
    dh = np.zeros_like(h)
    if cfg.use_lc:
        hc = np.clip(h, BCE_EPS, 1.0 - BCE_EPS)
        central = float(_bce(hc, c).mean())
        inside = (h > BCE_EPS) & (h < 1.0 - BCE_EPS)
        dh += np.where(inside, -(c / hc - (1.0 - c) / (1.0 - hc)) / (n * k), 0.0)
    if cfg.lambda1 != 0.0:
        s = 2.0 * h - 1.0
        u = np.abs(s) - 1.0
        quant = float(_quant(u).mean())
        dh += (cfg.lambda1 * 2.0 / n) * np.sign(s) * np.tanh(u)
    return central, quant, dh


def backprop(model: HashModel, x: np.ndarray, cache: tuple, dh: np.ndarray) -> Gradients:
    """Parameter gradients from dL/dh through cache = _forward_cached(model, x).

    Raises NumericError on any non-finite gradient: an activation that
    overflowed to inf leaves h exactly 0 or 1 and the loss finite, but its
    weight gradient 0 * inf is NaN.
    """
    _, w2, w3 = model.weights
    a1, a2, h = cache
    dz3 = dh * h * (1.0 - h)
    dw3 = dz3.T @ a2
    db3 = dz3.sum(axis=0)
    dz2 = (dz3 @ w3) * (a2 > 0)
    dw2 = dz2.T @ a1
    db2 = dz2.sum(axis=0)
    dz1 = (dz2 @ w2) * (a1 > 0)
    dw1 = dz1.T @ x
    db1 = dz1.sum(axis=0)

    grads = Gradients(weights=[dw1, dw2, dw3], biases=[db1, db2, db3])
    for g in grads.weights + grads.biases:
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient")
    return grads


def backward(model: HashModel, x, c, cfg: TrainConfig) -> tuple[float, float, Gradients]:
    """One training step's math on a batch: (L_central, L_quant, gradients).

    The gradients are exact, of the batch objective w.r.t. every parameter,
    from one forward pass. Raises NumericError if the model output, the loss
    or a gradient is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_features(model, x.shape)
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (x.shape[0], model.k):
        raise DimensionError(f"centers {c.shape} do not match batch ({x.shape[0]}, {model.k})")
    cache = _forward_cached(model, x)
    if not np.isfinite(cache[-1]).all():
        raise NumericError("model output is not finite")
    central, quant, dh = loss_and_dh(cache[-1], c, cfg)
    if not math.isfinite(central + cfg.lambda1 * quant):
        raise NumericError("loss is not finite")
    return central, quant, backprop(model, x, cache, dh)


def train(features, center_vectors, cfg: TrainConfig) -> tuple[HashModel, list]:
    """Mini-batch SGD with momentum toward the per-sample centers: one
    backward call per batch, then the momentum update.

    features and center_vectors keep the dtype they come in (float32
    features and uint8 centers as loaded): each step gathers its batch
    rows and widens only those to float64, the same values a float64 copy
    of the whole input would hold.
    Shuffling, init, and tie streams all hang off cfg.seed, so identical
    inputs and config reproduce the trained parameters byte for byte.
    Returns the model and one loss record per epoch.
    """
    x = np.asarray(features)
    c = np.asarray(center_vectors)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"need a nonempty (n, d) feature matrix, got {x.shape}")
    if c.ndim != 2 or c.shape[0] != x.shape[0]:
        raise DimensionError(
            f"center map covers {c.shape[0] if c.ndim == 2 else '?'} samples, features have {x.shape[0]}"
        )
    n, d = x.shape
    k = c.shape[1]

    model = init_model(d, k, seed=cfg.seed)
    params = model.weights + model.biases
    velocity = [np.zeros_like(p) for p in params]
    shuffle_rng = substream(cfg.seed, "shuffle")

    log: list[EpochLog] = []
    # overflow turns into inf/NaN, which backward's checks raise, here as TrainingError
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = shuffle_rng.permutation(n)
            sum_total = sum_central = sum_quant = 0.0
            for batch_idx, start in enumerate(range(0, n, cfg.batch_size)):
                sel = order[start : start + cfg.batch_size]
                xb = x[sel].astype(np.float64, copy=False)
                cb = c[sel].astype(np.float64, copy=False)
                try:
                    lc, lq, grads = backward(model, xb, cb, cfg)
                except NumericError as exc:
                    raise TrainingError(str(exc), epoch=epoch, batch=batch_idx) from exc
                sum_total += (lc + cfg.lambda1 * lq) * len(sel)
                sum_central += lc * len(sel)
                sum_quant += lq * len(sel)
                for p, g, v in zip(params, grads.weights + grads.biases, velocity):
                    v *= cfg.momentum
                    v += g
                    p -= cfg.learning_rate * v
            log.append(EpochLog(epoch, sum_total / n, sum_central / n, sum_quant / n))
    return model, log


def encode(model: HashModel, features) -> np.ndarray:
    """Binary codes for feature rows, packed into (n, W) uint64 words.

    `features` is an (n, d) array or a data_io.FeatureFile: rows pass
    through the head in blocks of as many rows as fit in ENCODE_BLOCK_BYTES
    of float64 input and activations (at least one), each block sliced (so
    a file's block is read and checked) and cast to float64 only when its
    turn comes. Every block's forward pass computes into one set of
    buffers allocated here, so memory beyond the (n, W) output does not
    grow with n.

    It runs in the calling thread: worker threads over the blocks were
    faster on an idle 2-CPU machine, but on a shared one their timings
    spread several times wider than one thread's.
    """
    shape = np.shape(features)
    _check_features(model, shape)
    n = shape[0]
    rows = max(1, ENCODE_BLOCK_BYTES // (8 * (sum(model.layer_sizes) + model.k)))
    buffers = _buffers(model, min(rows, n))
    words = np.empty((n, hamming.words_per_code(model.k)), dtype=np.uint64)
    # overflow turns into inf/NaN, which binarize_matrix raises as NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            block = np.ascontiguousarray(features[start : start + rows], dtype=np.float64)
            h = _forward_into(model, block, buffers)[-1]
            del block  # freed now, so two blocks are never held at once
            words[start : start + len(h)] = hamming.binarize_matrix(h)
    return words


def save_model(path, model: HashModel) -> None:
    """Write a checkpoint (magic CSQM): layer sizes, then f64 params. A parameter
    that is not finite raises ValueError before any file is created."""
    params = [np.ascontiguousarray(p, dtype="<f8")
              for layer in zip(model.weights, model.biases) for p in layer]
    if not all(np.isfinite(p).all() for p in params):
        raise ValueError("model parameters must be finite")
    sizes = model.layer_sizes
    with binfmt.atomic_write(path) as f:
        f.write(binfmt.header(MAGIC_MODEL))
        f.write(binfmt.u32(len(sizes)))
        for s in sizes:
            f.write(binfmt.u32(s))
        for p in params:
            f.write(p.tobytes())


def load_model(path) -> HashModel:
    """Read a checkpoint; a parameter that is not finite raises FormatError at its offset."""
    r = binfmt.read_file(path)
    r.expect_magic(MAGIC_MODEL)
    count = r.u32()
    if count != 4:
        raise FormatError(f"expected 4 layer sizes, got {count}", offset=8)
    sizes = [r.u32() for _ in range(count)]
    if any(s < 1 for s in sizes):
        raise FormatError(f"bad layer sizes {sizes}", offset=12)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(_finite_params(r, fan_out * fan_in).reshape(fan_out, fan_in))
        biases.append(_finite_params(r, fan_out))
    r.expect_end()
    return HashModel(weights=weights, biases=biases)


def _finite_params(r: binfmt.Reader, count: int) -> np.ndarray:
    """The next `count` f64 values of r; a value that is not finite raises FormatError."""
    at = r.offset
    values = np.frombuffer(r.take(8 * count), dtype="<f8")
    if (bad := np.flatnonzero(~np.isfinite(values))).size:
        raise FormatError("model parameter is not finite", offset=at + 8 * int(bad[0]))
    return values.astype(np.float64)
