"""Naive brute-force reference implementations for the retrieval metrics,
and a reference training loop.

The metrics work on plain Python lists of bits and sets of category
indices: no packing, no vectorization, no shared code with the package.
Kept deliberately slow and literal so they can serve as an independent
check of the fast paths.

total_loss is the training objective as the sum of the two public loss
terms, the function the finite-difference gradient checks differentiate.
central_loss_reference and quant_loss_reference are the two loss terms
written as loops over the samples and bits, with math's scalar functions,
to hold the package's loss values to them.
train_reference is the two-pass training step written out from the
package's public pieces (forward, the two losses, backward), so the fused
model.train can be held to it byte for byte. sigmoid_reference and
forward_reference are the hash head's output written with masks and
fresh arrays, to hold the in-place forward pass to them bit for bit.
backward_reference is the chain rule one sample and one parameter at a
time, on forward_reference's activations: an independent check of the
gradients model.backward returns.
assign_reference is center assignment as a loop over the rows, to hold
the grouped assign_multi_label to it byte for byte.
report_text_reference is the eval report's layout written out line by
line, one Python repr per float, to hold write_report to it byte for byte.
"""

import math

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
    """[(r, mean recall, mean precision)] over the items within Hamming radius r,
    r = 0..k: an empty ball has precision 0, a query with no relevant item recall 1."""
    k = len(q_bits[0])
    curve = []
    for r in range(k + 1):
        rec = 0.0
        prec = 0.0
        for qb, qc in zip(q_bits, q_cats):
            total = sum(1 for cats in db_cats if is_relevant(cats, qc))
            inside = [i for i in range(len(db_bits)) if dist(db_bits[i], qb) <= r]
            found = sum(1 for i in inside if is_relevant(db_cats[i], qc))
            rec += found / total if total else 1.0
            prec += found / len(inside) if inside else 0.0
        curve.append((r, rec / len(q_bits), prec / len(q_bits)))
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


def report_text_reference(report):
    """The text of write_report's CSV sections, each float written by repr."""
    lines = ["metric,value", f"map_at_n,{report.map_at_n!r}", f"p_at_h2,{report.p_at_h2!r}",
             "", "rank,precision"]
    lines += [f"{rank},{p!r}" for rank, p in enumerate(report.precision.tolist(), start=1)]
    lines += ["", "radius,recall,precision"]
    lines += [f"{r},{rec!r},{p!r}" for r, (rec, p) in
              enumerate(zip(report.radius_recall.tolist(), report.radius_precision.tolist()))]
    if report.center_distances is not None:
        lines += ["", "center_i,center_j,mean_distance"]
        lines += [f"{i},{j},{d!r}" for i, row in enumerate(report.center_distances.tolist())
                  for j, d in enumerate(row)]
    return "".join(line + "\n" for line in lines)


def total_loss(h, c, cfg):
    """L_central + lambda1 * L_quant, each term only when cfg enables it."""
    loss = 0.0
    if cfg.use_lc:
        loss += M.central_loss(h, c)
    if cfg.lambda1 != 0.0:
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
            lq = M.quantization_loss(h) if cfg.lambda1 != 0.0 else 0.0
            batch_loss = lc + cfg.lambda1 * lq
            sum_total += batch_loss * len(sel)
            sum_central += lc * len(sel)
            sum_quant += lq * len(sel)
            _, _, grads = M.backward(net, xb, cb, cfg)
            for w, b, gw, gb, vw, vb in zip(
                net.weights, net.biases, grads[:3], grads[3:], vel_w, vel_b
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


BCE_EPS = 1e-7  # the central loss clamps its log arguments to [BCE_EPS, 1 - BCE_EPS]


def central_loss_reference(h, c):
    """L_central: each sample's mean over its bits of the cross-entropy between the
    clamped code value and the center bit, averaged over the samples."""
    total = 0.0
    for h_row, c_row in zip(h, c):
        sample = 0.0
        for hj, cj in zip(h_row, c_row):
            hj = min(max(hj, BCE_EPS), 1.0 - BCE_EPS)
            sample -= cj * math.log(hj) + (1.0 - cj) * math.log1p(-hj)
        total += sample / len(h_row)
    return total / len(h)


def quant_loss_reference(h):
    """L_quant: each sample's sum over its bits of log cosh(|2h - 1| - 1), averaged
    over the samples."""
    total = 0.0
    for h_row in h:
        total += sum(math.log(math.cosh(abs(2.0 * hj - 1.0) - 1.0)) for hj in h_row)
    return total / len(h)


def backward_reference(net, x, c, cfg, absolute=False):
    """(weight gradients, bias gradients) of the batch objective, per layer, by the
    chain rule one sample at a time. The rules are those loss_and_dh documents: a
    bit clamped by the cross-entropy epsilon has no central gradient, and the
    subderivative of |.| at 0 is 0.

    absolute=True runs the same chain rule on the absolute values of the loss
    terms, the weights and the inputs, and on each activation's sum of
    absolute forward terms: each entry is then the sum of the absolute values
    of the terms its gradient sums, the scale of the rounding error of any
    order of summing them."""
    mag = abs if absolute else (lambda value: value)
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n, k = c.shape
    w2, w3 = (mag(w) for w in net.weights[1:])
    gw = [np.zeros_like(w) for w in net.weights]
    gb = [np.zeros_like(b) for b in net.biases]
    for i in range(n):
        a1, a2, h = (row[0].tolist() for row in forward_reference(net, x[i : i + 1]))
        if absolute:  # each activation's scale: its sum of absolute terms
            a1 = [sum(abs(v) * abs(w) for v, w in zip(x[i], row)) + abs(b) if a > 0 else 0.0
                  for a, row, b in zip(a1, net.weights[0], net.biases[0])]
            a2 = [sum(v * abs(w) for v, w in zip(a1, row)) + abs(b) if a > 0 else 0.0
                  for a, row, b in zip(a2, net.weights[1], net.biases[1])]
        dz3 = []
        for j in range(k):
            dh = 0.0
            if cfg.use_lc and BCE_EPS < h[j] < 1.0 - BCE_EPS:
                dh += mag(-(c[i, j] / h[j] - (1.0 - c[i, j]) / (1.0 - h[j])) / (n * k))
            if cfg.lambda1 != 0.0:
                s = 2.0 * h[j] - 1.0
                sign = (s > 0) - (s < 0)
                dh += mag(cfg.lambda1 * 2.0 * sign * math.tanh(abs(s) - 1.0) / n)
            dz3.append(dh * h[j] * (1.0 - h[j]))
        dz2 = [sum(dz3[j] * w3[j, u] for j in range(k)) if a2[u] > 0 else 0.0
               for u in range(len(a2))]
        dz1 = [sum(dz2[u] * w2[u, v] for u in range(len(a2))) if a1[v] > 0 else 0.0
               for v in range(len(a1))]
        for layer, (dz, inputs) in enumerate(((dz1, mag(x[i])), (dz2, a1), (dz3, a2))):
            for j, g in enumerate(dz):
                gb[layer][j] += g
                for u, value in enumerate(inputs):
                    gw[layer][j, u] += g * value
    return gw, gb


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
