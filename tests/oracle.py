"""Naive brute-force reference implementations for the retrieval metrics,
and a reference training loop.

The metrics work on plain Python lists of bits and sets of category
indices: no packing, no vectorization, no shared code with the package.
Kept deliberately slow and literal so they can serve as an independent
check of the fast paths.

total_loss is the training objective as the sum of the two public loss
terms, the function the finite-difference gradient checks differentiate.
train_reference is the two-pass training step written out from the
package's public pieces (forward, the two losses, backward), so the fused
model.train can be held to it byte for byte. sigmoid_reference and
forward_reference are the hash head's output written with masks and
fresh arrays, to hold the in-place forward pass to them bit for bit.
assign_reference is center assignment as a loop over the rows, to hold
the grouped assign_multi_label to it byte for byte.
"""

import numpy as np

from centerhash import model as M
from centerhash.centers import SemanticCenterMap
from centerhash.errors import InvalidLabelError
from centerhash.seeds import substream


def dist(a, b):
    return sum(x != y for x, y in zip(a, b))


def rank(db_bits, query_bits):
    n = len(db_bits)
    return sorted(range(n), key=lambda i: (dist(db_bits[i], query_bits), i))


def is_relevant(a_cats, b_cats):
    return len(a_cats & b_cats) > 0


def ranked_flags(db_bits, db_cats, query_bits, query_cats):
    order = rank(db_bits, query_bits)
    return [1 if is_relevant(db_cats[i], query_cats) else 0 for i in order]


def average_precision(flags, n):
    precisions = []
    hits = 0
    for r, flag in enumerate(flags[:n], start=1):
        if flag:
            hits += 1
            precisions.append(hits / r)
    if not precisions:
        return 0.0
    return sum(precisions) / len(precisions)


def mean_average_precision(db_bits, db_cats, q_bits, q_cats, n):
    total = 0.0
    for qb, qc in zip(q_bits, q_cats):
        total += average_precision(ranked_flags(db_bits, db_cats, qb, qc), n)
    return total / len(q_bits)


def precision_at_n_curve(db_bits, db_cats, q_bits, q_cats, max_n):
    max_n = min(max_n, len(db_bits))
    all_flags = [ranked_flags(db_bits, db_cats, qb, qc) for qb, qc in zip(q_bits, q_cats)]
    found = [0] * len(all_flags)
    curve = []
    for r in range(1, max_n + 1):
        acc = 0.0
        for qi, flags in enumerate(all_flags):
            found[qi] += flags[r - 1]
            acc += found[qi] / r
        curve.append((r, acc / len(q_bits)))
    return curve


def precision_within_radius(db_bits, db_cats, q_bits, q_cats, radius):
    total = 0.0
    for qb, qc in zip(q_bits, q_cats):
        inside = [i for i in range(len(db_bits)) if dist(db_bits[i], qb) <= radius]
        if inside:
            rel = sum(1 for i in inside if is_relevant(db_cats[i], qc))
            total += rel / len(inside)
        else:
            total += 0.0
    return total / len(q_bits)


def pr_curve(db_bits, db_cats, q_bits, q_cats):
    n = len(db_bits)
    all_flags = [ranked_flags(db_bits, db_cats, qb, qc) for qb, qc in zip(q_bits, q_cats)]
    totals = [sum(flags) for flags in all_flags]
    found = [0] * len(all_flags)
    curve = []
    for r in range(1, n + 1):
        rec = 0.0
        prec = 0.0
        for qi, (flags, total) in enumerate(zip(all_flags, totals)):
            found[qi] += flags[r - 1]
            rec += found[qi] / total if total else 1.0
            prec += found[qi] / r
        curve.append((rec / len(q_bits), prec / len(q_bits)))
    return curve


def center_distance_matrix(code_bits, group_ids, center_bits):
    m = len(center_bits)
    out = [[float("nan")] * m for _ in range(m)]
    for i in range(m):
        members = [code_bits[s] for s in range(len(code_bits)) if group_ids[s] == i]
        if not members:
            continue
        for j in range(m):
            out[i][j] = sum(dist(code, center_bits[j]) for code in members) / len(members)
    return out


def total_loss(h, c, cfg):
    """L_central + lambda1 * L_quant, each term only when cfg enables it."""
    loss = 0.0
    if cfg.use_lc:
        loss += M.central_loss(h, c)
    if cfg.use_lq and cfg.lambda1 != 0.0:
        loss += cfg.lambda1 * M.quantization_loss(h)
    return loss


def train_reference(features, center_vectors, cfg):
    """Mini-batch SGD with momentum: forward, then the losses, then backward
    (which runs its own forward pass), then the momentum update."""
    x = np.asarray(features, dtype=np.float64)
    c = np.asarray(center_vectors, dtype=np.float64)
    n = x.shape[0]
    net = M.init_model(x.shape[1], c.shape[1], seed=cfg.seed)
    vel_w = [np.zeros_like(w) for w in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    shuffle_rng = substream(cfg.seed, "shuffle")
    log = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        sum_total = sum_central = sum_quant = 0.0
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            xb, cb = x[sel], c[sel]
            h = M.forward(net, xb)
            lc = M.central_loss(h, cb) if cfg.use_lc else 0.0
            lq = M.quantization_loss(h) if cfg.use_lq and cfg.lambda1 != 0.0 else 0.0
            batch_loss = lc + cfg.lambda1 * lq
            sum_total += batch_loss * len(sel)
            sum_central += lc * len(sel)
            sum_quant += lq * len(sel)
            grads = M.backward(net, xb, cb, cfg)
            for w, b, gw, gb, vw, vb in zip(
                net.weights, net.biases, grads.weights, grads.biases, vel_w, vel_b
            ):
                vw *= cfg.momentum
                vw += gw
                vb *= cfg.momentum
                vb += gb
                w -= cfg.learning_rate * vw
                b -= cfg.learning_rate * vb
        log.append(M.EpochLog(epoch, sum_total / n, sum_central / n, sum_quant / n))
    return net, log


def sigmoid_reference(z):
    """The two-branch logistic: exp only ever sees a non-positive argument."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward_reference(net, x):
    """(a1, a2, h) of a batch: each layer is x @ w.T + b, then ReLU or the sigmoid."""
    w1, w2, w3 = net.weights
    b1, b2, b3 = net.biases
    a1 = np.maximum(x @ w1.T + b1, 0.0)
    a2 = np.maximum(a1 @ w2.T + b2, 0.0)
    return a1, a2, sigmoid_reference(a2 @ w3.T + b3)


def assign_reference(cs, labels, seed=0):
    """The per-row loop: each row's label set is looked up in a cache, and a
    set seen for the first time takes its majority vote then, drawing its
    tied bits from the "ties" stream."""
    labels = np.asarray(labels, dtype=np.uint8)
    rng = substream(seed, "ties")
    cache = {}
    vectors = np.empty((labels.shape[0], cs.k), dtype=np.uint8)
    for i, row in enumerate(labels):
        key = tuple(int(j) for j in np.flatnonzero(row))
        if not key:
            raise InvalidLabelError(f"sample {i} has an empty label set")
        if key not in cache:
            members = cs.bits[list(key)]
            votes = 2 * members.sum(axis=0, dtype=np.int64) - len(key)
            out = (votes > 0).astype(np.uint8)
            ties = votes == 0
            if ties.any():
                out[ties] = rng.integers(0, 2, size=int(ties.sum()), dtype=np.uint8)
            cache[key] = out
        vectors[i] = cache[key]
    return SemanticCenterMap(vectors=vectors, by_label=cache)
