"""The hash head: a 3-layer MLP trained to pull codes onto their centers.

forward maps an (n, d) batch of feature rows through two ReLU layers and a
sigmoid output to a relaxed code in (0,1)^K. Training minimizes

    L = [use_lc] * L_central + lambda1 * L_quant

where L_central is the per-bit binary cross-entropy between the relaxed
code and its assigned binary center, and L_quant is a log-cosh penalty
that pushes every output toward {0, 1}; lambda1 = 0 drops it. A training
step is one call of backward: one forward pass, then loss_and_dh turns its
output into both loss terms and dL/dh, and backprop carries dL/dh through
the same cached activations. Each loss term has one implementation,
central_loss and quantization_loss: training calls them through loss_and_dh,
and the finite-difference checks differentiate the same functions. All math
is float64 and every random draw is seeded, so training is bit-reproducible.
encode runs the same forward pass on blocks of rows in reused buffers.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import binfmt, data_io, hamming
from .errors import DimensionError, FormatError, NumericError, TrainingError
from .seeds import substream

MAGIC_MODEL = b"CSQM"

BCE_EPS = 1e-7  # clamp for log arguments

# bytes of one encode block's float64 working set: its input rows and their
# activations, d + w1 + w2 + 2k values a row (the sigmoid's scratch is the
# second k). Rows per block follow from the head's widths, so the working set
# stays about this size for any n and any head. 1 MiB (170 rows at d 256, 315
# at d 128) is the smallest size at which one-thread dgemm keeps its full rate;
# at half of it the rate fell about 10%.
ENCODE_BLOCK_BYTES = 1 << 20


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


def _buffers(layer_sizes, rows: int) -> tuple:
    """Room for _forward_cached on up to `rows` rows: a1, a2, h and the sigmoid's scratch."""
    widths = list(layer_sizes[1:])
    return tuple(np.empty((rows, w)) for w in widths + widths[-1:])


class _Workspace:
    """A training step's arrays for up to `rows` rows of a head of layer sizes (d, w1, w2, k),
    or of the loss terms alone (0, 0, 0, k); b rows use the leading b rows of each. train
    allocates one a call; the step functions take it as `ws`, or allocate their own."""

    def __init__(self, sizes, rows: int):
        d, w1, w2, k = sizes
        self.forward = _buffers(sizes, rows)
        self.k_rows = [np.empty((rows, k)) for _ in range(4)] + [self.forward[-1]]
        self.sums = np.empty(rows)
        self.masks = [np.empty((rows, w), dtype=bool) for w in (w1, w2, k, k)]
        self.grads = [np.empty(shape) for shape in ((w1, d), (w2, w1), (k, w2), w1, w2, k)]


def _forward_cached(model: HashModel, x: np.ndarray, buffers: tuple | None = None) -> tuple:
    """The activations (a1, a2, h) of the rows of x, computed in the leading rows of
    buffers (as _buffers makes them), or in new arrays."""
    w1, w2, w3 = model.weights
    b1, b2, b3 = model.biases
    a1, a2, h, e = (b[: len(x)] for b in buffers or _buffers(model.layer_sizes, len(x)))
    np.matmul(x, w1.T, out=a1)
    a1 += b1
    np.maximum(a1, 0.0, out=a1)
    np.matmul(a1, w2.T, out=a2)
    a2 += b2
    np.maximum(a2, 0.0, out=a2)
    np.matmul(a2, w3.T, out=h)
    h += b3
    return a1, a2, _sigmoid(h, e)


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


def central_loss(h, c, ws=None) -> float:
    """Mean per-bit binary cross-entropy between relaxed codes and centers,
    the codes clipped to [BCE_EPS, 1 - BCE_EPS]."""
    h, c = _codes(h), np.asarray(c, dtype=np.float64)
    if c.shape != h.shape:
        raise DimensionError(f"codes {h.shape} and centers {c.shape} differ")
    ws = ws or _Workspace((0, 0, 0, h.shape[1]), len(h))
    _, hc, terms, rest, _ = (a[: len(h)] for a in ws.k_rows)
    np.multiply(c, np.log(np.clip(h, BCE_EPS, 1.0 - BCE_EPS, out=hc), out=terms), out=terms)
    np.multiply(np.subtract(1.0, c, out=rest), np.log1p(np.negative(hc, out=hc), out=hc), out=rest)
    np.negative(np.add(terms, rest, out=terms), out=terms)  # -(c log hc + (1 - c) log1p(-hc))
    sums = terms.sum(axis=1, out=ws.sums[: len(h)])
    return float(np.divide(sums, h.shape[1], out=sums).mean())


def quantization_loss(h, t=None, ws=None) -> float:
    """Mean over samples of sum_k logcosh(t_k), t = |2h - 1| - 1; zero iff binary. t,
    when given, is that argument as the caller already computed it. A NaN code raises
    NumericError: every term is at least 0, so a batch's mean is NaN exactly when one of
    its codes is, and the check reads the mean, not the codes."""
    h = _codes(h)
    ws = ws or _Workspace((0, 0, 0, h.shape[1]), len(h))
    _, _, own_t, au, terms = (a[: len(h)] for a in ws.k_rows)
    if t is None:
        t = np.abs(np.subtract(np.multiply(2.0, h, out=own_t), 1.0, out=own_t), out=own_t)
        t -= 1.0
    np.log1p(np.exp(np.multiply(-2.0, np.abs(t, out=au), out=terms), out=terms), out=terms)
    np.subtract(np.add(au, terms, out=terms), math.log(2.0), out=terms)  # logcosh(t), stably
    loss = float(terms.sum(axis=1, out=ws.sums[: len(h)]).mean())
    if math.isnan(loss):
        raise NumericError("relaxed code contains NaN")
    return loss


def loss_and_dh(h, c, cfg: TrainConfig, ws=None) -> tuple[float, float, np.ndarray]:
    """Both loss terms of an (n, k) batch of relaxed codes, as central_loss and
    quantization_loss compute them, and dL/dh.

    A disabled term reads 0.0, is not computed and adds nothing to dh. The |.|
    subderivative at 0 is taken as 0, and coordinates clamped by the
    cross-entropy epsilon get a zero gradient, matching what a finite
    difference of the loss sees.
    """
    n, k = h.shape
    ws = ws or _Workspace((0, 0, 0, k), n)
    dh, s, t, rest, _ = (a[:n] for a in ws.k_rows)
    inside, below = (m[:n] for m in ws.masks[2:])
    central = quant = 0.0
    dh.fill(0.0)
    if cfg.use_lc:
        central = central_loss(h, c, ws)  # the one clip of the codes
        # inside the clamp a code is its own clip; outside it the gradient is 0, and
        # the quotients computed there are dropped
        np.logical_and(np.greater(h, BCE_EPS, out=inside), np.less(h, 1.0 - BCE_EPS, out=below),
                       out=inside)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(c, h, out=s)
            np.divide(np.subtract(1.0, c, out=rest), np.subtract(1.0, h, out=t), out=t)
            np.divide(np.negative(np.subtract(s, t, out=s), out=s), n * k, out=s)
        np.add(dh, s, out=dh, where=inside)
    if cfg.lambda1 != 0.0:
        np.subtract(np.multiply(2.0, h, out=s), 1.0, out=s)  # 2h - 1
        np.subtract(np.abs(s, out=t), 1.0, out=t)
        quant = quantization_loss(h, t, ws)
        np.multiply(cfg.lambda1 * 2.0 / n, np.sign(s, out=s), out=s)
        dh += np.multiply(s, np.tanh(t, out=t), out=s)
    return central, quant, dh


def backprop(model: HashModel, x: np.ndarray, cache: tuple, dh: np.ndarray, ws=None) -> list:
    """Parameter gradients from dL/dh through cache = _forward_cached(model, x),
    in model.weights + model.biases order: [dw1, dw2, dw3, db1, db2, db3]. The deltas
    dz2 and dz1 are computed into a2 and a1, whose activations they consume.

    Raises NumericError on any non-finite gradient: an activation that
    overflowed to inf leaves h exactly 0 or 1 and the loss finite, but its
    weight gradient 0 * inf is NaN.
    """
    _, w2, w3 = model.weights
    a1, a2, h = cache
    ws = ws or _Workspace(model.layer_sizes, len(x))
    dw1, dw2, dw3, db1, db2, db3 = ws.grads
    _, dz3, one_minus_h, _, _ = (a[: len(x)] for a in ws.k_rows)
    np.multiply(np.multiply(dh, h, out=dz3), np.subtract(1.0, h, out=one_minus_h), out=dz3)
    np.matmul(dz3.T, a2, out=dw3)
    dz3.sum(axis=0, out=db3)
    active = np.greater(a2, 0, out=ws.masks[1][: len(x)])
    dz2 = np.multiply(np.matmul(dz3, w3, out=a2), active, out=a2)  # (dz3 @ w3) * (a2 > 0)
    np.matmul(dz2.T, a1, out=dw2)
    dz2.sum(axis=0, out=db2)
    active = np.greater(a1, 0, out=ws.masks[0][: len(x)])
    dz1 = np.multiply(np.matmul(dz2, w2, out=a1), active, out=a1)
    np.matmul(dz1.T, x, out=dw1)
    dz1.sum(axis=0, out=db1)
    if not all(math.isfinite(g.max()) and math.isfinite(g.min()) for g in ws.grads):
        raise NumericError("non-finite gradient")
    return ws.grads


def backward(model: HashModel, x, c, cfg: TrainConfig, ws=None) -> tuple[float, float, list]:
    """One training step's math on a batch: (L_central, L_quant, backprop's gradients).

    The gradients are exact, of the batch objective w.r.t. every parameter,
    from one forward pass. Raises NumericError if the model output, the loss
    or a gradient is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_features(model, x.shape)
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (x.shape[0], model.k):
        raise DimensionError(f"centers {c.shape} do not match batch ({x.shape[0]}, {model.k})")
    ws = ws or _Workspace(model.layer_sizes, len(x))
    cache = _forward_cached(model, x, ws.forward)
    if not (math.isfinite(cache[-1].max()) and math.isfinite(cache[-1].min())):
        raise NumericError("model output is not finite")
    central, quant, dh = loss_and_dh(cache[-1], c, cfg, ws)
    if not math.isfinite(central + cfg.lambda1 * quant):
        raise NumericError("loss is not finite")
    return central, quant, backprop(model, x, cache, dh, ws)


def _step(model: HashModel, params: list, velocity: list, x: np.ndarray, c: np.ndarray,
          cfg: TrainConfig, ws: _Workspace) -> tuple[float, float]:
    """One backward call on a batch in ws, then the momentum update; returns both loss terms."""
    central, quant, grads = backward(model, x, c, cfg, ws)
    for p, g, v in zip(params, grads, velocity):
        v *= cfg.momentum
        v += g
        p -= np.multiply(cfg.learning_rate, v, out=g)  # the consumed gradient holds lr * v
    return central, quant


def train(features, center_vectors, cfg: TrainConfig) -> tuple[HashModel, list]:
    """Mini-batch SGD with momentum toward the per-sample centers: one
    backward call per batch, then the momentum update.

    features and center_vectors keep the form they come in (features as an
    (n, d) array, or as a data_io.FeatureFile whose rows each batch reads
    from the file; centers as an (n, k) 0/1 array, or as the packed words of
    a code file in a hamming.PackedRows): each step gathers its batch rows,
    unpacks packed centers, and widens only those rows to float64, the same
    values a float64 copy of the whole input would hold. Every step computes in
    arrays allocated here for one batch, so from a file and packed centers, only
    the packed words and the shuffle order grow with n. A file is read and
    checked in full first, in encode's blocks, so its first bad row in file
    order raises FormatError before any step (and with no epochs); then each
    batch reads its own rows again.
    Shuffling, init, and tie streams all hang off cfg.seed, so identical
    inputs and config reproduce the trained parameters byte for byte.
    Returns the model and one loss record per epoch.
    """
    x, c = features, center_vectors
    if not isinstance(x, data_io.FeatureFile):
        x = np.asarray(x)
    if not isinstance(c, hamming.PackedRows):
        c = np.asarray(c)
    if len(x.shape) != 2 or x.shape[0] < 1:
        raise ValueError(f"need a nonempty (n, d) feature matrix, got {x.shape}")
    if len(c.shape) != 2 or c.shape[0] != x.shape[0]:
        raise DimensionError(
            f"center map covers {c.shape[0] if len(c.shape) == 2 else '?'} samples, "
            f"features have {x.shape[0]}"
        )
    n, d = x.shape
    k = c.shape[1]

    model = init_model(d, k, seed=cfg.seed)
    if isinstance(x, data_io.FeatureFile):
        rows = block_rows(model.layer_sizes)
        for start in range(0, n, rows):
            x[start : start + rows]  # raises FormatError at the first bad row
    params = model.weights + model.biases
    velocity = [np.zeros_like(p) for p in params]
    shuffle_rng = substream(cfg.seed, "shuffle")
    # a batch as stored (raw), as float64 (xb), its centers (cb) and its step's arrays
    rows = min(cfg.batch_size, n)
    raw = np.empty((rows, d), dtype="<f4" if isinstance(x, data_io.FeatureFile) else x.dtype)
    xb, cb, ws = np.empty((rows, d)), np.empty((rows, k)), _Workspace(model.layer_sizes, rows)

    log: list[EpochLog] = []
    # overflow turns into inf/NaN, which backward's checks raise, here as TrainingError
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = shuffle_rng.permutation(n)
            sum_total = sum_central = sum_quant = 0.0
            for batch_idx, start in enumerate(range(0, n, cfg.batch_size)):
                sel = order[start : start + cfg.batch_size]
                b = len(sel)
                if isinstance(x, data_io.FeatureFile):
                    x._read_into(sel, raw[:b])
                else:  # every index is in range: "clip" takes what "raise" would, unbuffered
                    np.take(x, sel, axis=0, out=raw[:b], mode="clip")
                xb[:b], cb[:b] = raw[:b], c[sel]
                try:
                    lc, lq = _step(model, params, velocity, xb[:b], cb[:b], cfg, ws)
                except NumericError as exc:
                    raise TrainingError(str(exc), epoch=epoch, batch=batch_idx) from exc
                sum_total += (lc + cfg.lambda1 * lq) * b
                sum_central += lc * b
                sum_quant += lq * b
            log.append(EpochLog(epoch, sum_total / n, sum_central / n, sum_quant / n))
    return model, log


def block_rows(layer_sizes) -> int:
    """Rows per encode block of a head with these layer sizes (d, w1, w2, k): as many
    as fit in ENCODE_BLOCK_BYTES of float64 input and activations, at least one."""
    return max(1, ENCODE_BLOCK_BYTES // (8 * (sum(layer_sizes) + layer_sizes[-1])))


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
    rows = block_rows(model.layer_sizes)
    buffers = _buffers(model.layer_sizes, min(rows, n))
    words = np.empty((n, hamming.words_per_code(model.k)), dtype=np.uint64)
    # overflow turns into inf/NaN, which binarize_matrix raises as NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            block = np.ascontiguousarray(features[start : start + rows], dtype=np.float64)
            h = _forward_cached(model, block, buffers)[-1]
            del block  # freed now, so two blocks are never held at once
            words[start : start + len(h)] = hamming.binarize_matrix(h)
    return words


def save_model(path, model: HashModel) -> None:
    """Write a checkpoint (magic CSQM): layer sizes, then f64 params. A parameter
    that is not finite raises ValueError before any file is created."""
    params = [np.ascontiguousarray(p, dtype="<f8")
              for layer in zip(model.weights, model.biases) for p in layer]
    if not all(math.isfinite(p.max()) and math.isfinite(p.min()) for p in params):
        raise ValueError("model parameters must be finite")
    sizes = model.layer_sizes
    with binfmt.atomic_write(path) as f:
        f.write(binfmt.header(MAGIC_MODEL))
        f.write(binfmt.u32(len(sizes)))
        for s in sizes:
            f.write(binfmt.u32(s))
        for p in params:
            f.write(p)


def load_model(path) -> HashModel:
    """Read a checkpoint, each parameter straight into its float64 array; a cut file
    or a parameter that is not finite raises FormatError at its offset."""
    with open(path, "rb") as f:
        # magic, version, the count and four layer sizes; each length is checked
        # against the file's before anything it sizes is allocated
        r = binfmt.Reader(f.read(28), size=os.fstat(f.fileno()).st_size)
        r.expect_magic(MAGIC_MODEL)
        count = r.u32()
        if count != 4:
            raise FormatError(f"expected 4 layer sizes, got {count}", offset=8)
        sizes = [r.u32() for _ in range(count)]
        if any(s < 1 for s in sizes):
            raise FormatError(f"bad layer sizes {sizes}", offset=12)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            weights.append(_finite_params(f, r, fan_out * fan_in).reshape(fan_out, fan_in))
            biases.append(_finite_params(f, r, fan_out))
        r.expect_end()
    return HashModel(weights=weights, biases=biases)


def _finite_params(f, r: binfmt.Reader, count: int) -> np.ndarray:
    """The next `count` f64 values of file f, at r's offset, read into the result; a cut
    file or a value that is not finite raises FormatError. A NaN or an infinity reaches
    the max or the min, so the finiteness test needs no temporary array."""
    at = r.offset
    r.skip(8 * count)
    values = np.empty(count, dtype="<f8")
    if (got := f.readinto(values)) != values.nbytes:
        raise FormatError(f"truncated file: wanted {values.nbytes} bytes, {got} left", offset=at)
    if not (math.isfinite(values.max()) and math.isfinite(values.min())):
        bad = np.flatnonzero(~np.isfinite(values))[0]
        raise FormatError("model parameter is not finite", offset=at + 8 * int(bad))
    return values.astype(np.float64, copy=False)
