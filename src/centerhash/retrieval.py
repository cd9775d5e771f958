"""Hamming-space retrieval over a packed code database, plus metrics.

Rankings sort by ascending distance with ties broken by ascending
database index, so every reported number is reproducible bit for bit.
Two items are relevant to each other iff their label sets intersect.

Every metric comes from one pass that ranks each query once (a single
stable argsort over the distances) and takes one cumulative count of its
ranked relevance; mAP@N, P@N, the PR curve and the precision within a
Hamming radius are all read off that count. Per-query quantities are
exact integer ratios, and two rules keep the results bit-exact against
a plain loop: per-query values accumulate into the float64 means in
query order, and each AP sums its precisions sequentially in rank order
(never with np.sum, whose pairwise order changes the last bit).
"""

from dataclasses import dataclass

import numpy as np

from . import binfmt, hamming
from .centers import CenterSet
from .errors import DimensionError

RADIUS = 2  # the Hamming ball of p_at_h2
WRITE_BLOCK = 1 << 11  # curve points that write_report formats at a time


@dataclass(frozen=True)
class CodeIndex:
    """A searchable database: n packed codes and, per category, the bitset of the
    items that have it (the form data_io.load_label_bitsets reads); from_labels
    builds one from (n, q) multi-hot labels."""

    codes: np.ndarray  # (n, W) uint64
    categories: np.ndarray  # (q, ceil(n/8)) uint8, bit i of row c (LSB-first): item i has c
    n: int  # label rows, which the codes must match

    def __post_init__(self):
        if self.codes.ndim != 2 or self.categories.ndim != 2:
            raise DimensionError(f"codes {self.codes.shape} and category bitsets "
                                 f"{self.categories.shape} must be (n, W) and (q, B) matrices")
        if self.codes.shape[0] != self.n:
            raise DimensionError(f"{self.codes.shape[0]} codes but {self.n} label rows")
        if self.categories.shape[1] != (self.n + 7) // 8:
            raise DimensionError(f"category bitsets of {self.categories.shape[1]} bytes "
                                 f"for {self.n} label rows")

    @classmethod
    def from_labels(cls, codes, labels) -> "CodeIndex":
        """An index over codes aligned with (n, q) multi-hot labels."""
        codes, labels = np.asarray(codes), np.asarray(labels)
        if codes.ndim != 2 or labels.ndim != 2:
            raise DimensionError(f"codes {codes.shape} and labels {labels.shape} "
                                 "must be (n, W) and (n, q) matrices")
        return cls(codes, np.packbits(labels.T, axis=1, bitorder="little"), labels.shape[0])


def _rank(index: CodeIndex, query_words) -> tuple[np.ndarray, np.ndarray]:
    """(distances, database indices by ascending distance, ties by index).

    distances_to sums in the smallest unsigned dtype that holds the
    distances, so they are the sort key as they are: the stable argsort
    keeps ties by index and numpy radix-sorts them.
    """
    dists = hamming.distances_to(query_words, index.codes)
    return dists, np.argsort(dists, kind="stable")


# each metric is one field of the single pass; map_n=1 stands in for an unused cutoff


def mean_average_precision(index: CodeIndex, query_words, query_labels, n: int) -> float:
    """Mean over queries of AP at rank cutoff n."""
    return evaluate(index, query_words, query_labels, n).map_at_n


def precision_at_n_curve(index: CodeIndex, query_words, query_labels, max_n: int) -> list:
    """[(r, mean precision in the top r)] for r = 1..max_n."""
    precision = evaluate(index, query_words, query_labels, 1).precision
    return list(zip(range(1, max_n + 1), precision[:max_n].tolist()))


def precision_within_radius(index: CodeIndex, query_words, query_labels) -> float:
    """Mean precision among database items within Hamming distance RADIUS.

    A query whose ball is empty contributes 0.
    """
    return evaluate(index, query_words, query_labels, 1).p_at_h2


def pr_curve(index: CodeIndex, query_words, query_labels) -> list:
    """[(recall, precision)] at every rank cutoff 1..n, in rank order.

    A query with no relevant database item counts as fully recalled at
    every cutoff (its precision contribution is zero anyway).
    """
    report = evaluate(index, query_words, query_labels, 1)
    return list(zip(report.recall.tolist(), report.precision.tolist()))


def center_distance_matrix(code_words, group_ids, cs: CenterSet) -> np.ndarray:
    """Mean distance from each code group to each center.

    Entry (i, j) is the mean Hamming distance between center j and the
    codes assigned to center i; rows for empty groups are NaN.
    """
    code_words = np.asarray(code_words, dtype=np.uint64)
    group_ids = np.asarray(group_ids, dtype=np.int64)
    if group_ids.shape != (code_words.shape[0],):
        raise DimensionError("one group id per code required")
    if group_ids.size and (group_ids.min() < 0 or group_ids.max() >= cs.m):
        raise ValueError(f"group ids must lie in [0, {cs.m})")
    dists = hamming.pairwise_distances(code_words, cs.packed())  # (n, m) ints
    out = np.full((cs.m, cs.m), np.nan)
    for i in range(cs.m):
        members = group_ids == i
        count = int(members.sum())
        if count:
            out[i] = dists[members].sum(axis=0, dtype=np.int64) / count
    return out


@dataclass
class EvalReport:
    """All retrieval metrics for one query set against one database."""

    map_at_n: float
    p_at_h2: float
    map_n: int  # the P@N section is precision[:map_n]
    precision: np.ndarray  # (n,) mean precision in the top r, r = 1..n
    recall: np.ndarray  # (n,) mean recall in the top r
    center_distances: np.ndarray | None = None  # (m, m), NaN for empty groups


def evaluate(index: CodeIndex, query_words, query_labels, map_n: int) -> EvalReport:
    """Run the full metric battery for a query set in one ranking pass.

    Each query is ranked once and its ranked relevance counted once
    (``cum``); AP@map_n, the precision within the Hamming ball (whose
    members are the first ranks) and the per-rank mean precision and
    recall (the PR and P@N curves) are all read off that count.
    """
    query_words = np.asarray(query_words, dtype=np.uint64)
    query_labels = np.asarray(query_labels, dtype=np.uint8)
    if query_labels.ndim != 2 or query_words.ndim != 2 or len(query_words) != len(query_labels):
        raise DimensionError("query codes and labels must be aligned (n, .) matrices")
    if query_words.shape[0] == 0:
        raise ValueError("query set is empty")
    if index.n == 0:
        raise ValueError("database is empty")
    if query_labels.shape[1] != index.categories.shape[0]:
        raise DimensionError(f"queries have {query_labels.shape[1]} categories, "
                             f"index has {index.categories.shape[0]}")
    if map_n < 1:
        raise ValueError("n must be at least 1")
    n = index.n
    ranks = np.arange(1, n + 1, dtype=np.float64)
    map_total = 0.0
    radius_total = 0.0
    recall = np.zeros(n)
    precision = np.zeros(n)
    # each query's PR division, ranked relevance and count in turn: allocated once
    ratio, rel, cum = np.empty(n), np.empty(n, bool), np.empty(n, np.int64)
    for qw, ql in zip(query_words, query_labels):
        dists, order = _rank(index, qw)
        inside = int(np.count_nonzero(dists <= RADIUS))
        # a query's relevance is the OR of its categories' bitsets (none without a
        # category); argsort's indices are in range, and "clip" takes them unbuffered
        packed = np.bitwise_or.reduce(index.categories[ql != 0], axis=0)
        np.take(np.unpackbits(packed, count=n, bitorder="little").view(bool), order,
                out=rel, mode="clip")
        del dists, order  # not held while the next query is ranked
        np.cumsum(rel, dtype=np.int64, out=cum)
        top = rel[:map_n]
        hits = int(cum[top.size - 1])
        if hits:
            # precisions at the relevant ranks, summed in rank order as a
            # plain loop does: np.sum's pairwise order changes the last bit
            at_hits = cum[: top.size][top] / ranks[: top.size][top]
            map_total += float(np.cumsum(at_hits)[-1]) / hits
        if inside:
            radius_total += int(cum[inside - 1]) / inside
        # a query with no relevant item counts as fully recalled at every cutoff
        recall += np.divide(cum, cum[-1], out=ratio) if cum[-1] else 1.0
        precision += np.divide(cum, ranks, out=ratio)
    nq = query_words.shape[0]
    recall /= nq
    precision /= nq
    return EvalReport(
        map_at_n=map_total / nq,
        p_at_h2=radius_total / nq,
        map_n=map_n,
        precision=precision,
        recall=recall,
    )


def center_distance_lines(matrix: np.ndarray) -> list:
    """The CSV lines of an (m, m) center-distance matrix, header first."""
    return ["center_i,center_j,mean_distance"] + [
        f"{i},{j},{d!r}" for i, row in enumerate(matrix.tolist()) for j, d in enumerate(row)
    ]


def _quads() -> np.ndarray:
    """The four ASCII digits of each number below 10,000 ("0000" to "9999") as
    one uint32 word, so that one take() writes four characters."""
    numbers = np.arange(10_000, dtype=np.uint16)[:, None]
    digits = (numbers // np.array([1000, 100, 10, 1], np.uint16) % 10).astype(np.uint8)
    return (digits + ord("0")).view(np.uint32)[:, 0]


def _decimals(values: np.ndarray, width: int, quads: np.ndarray) -> np.ndarray:
    """The (len, width) ASCII digits of uint64 values below 10**width, zero-padded."""
    groups = -(-width // 4)
    words = np.empty((len(values), groups), np.uint32)
    for i in reversed(range(groups)):
        rest = values // 10_000
        words[:, i] = quads.take(values - rest * 10_000)
        values = rest
    return words.view(np.uint8)[:, 4 * groups - width :]


def _rounded(q, r, scale, unit, gap):
    """x rounded to `scale` units, where x * 10**t is q + r / unit: (d, near),
    d * scale the nearest multiple (of two as near, the one with d even, as
    repr picks) and near whether that decimal lies less than gap / 2 from x,
    gap being the distance to x's neighbouring doubles, in 1 / unit."""
    d = q // scale
    span = scale * unit
    below = ((q - d * scale) * unit + r) * 2  # twice x's distance above d * scale
    up = below + (d & 1) > span  # past the middle, or on it with d odd
    return d + up, np.where(up, 2 * span - below, below) < gap


def _divmod_product(a, b, s):
    """divmod(a * b, 2**s) for uint64 a < 2**53, b < 2**47 and 36 <= s <= 46,
    the product taken exactly in 32-bit limbs."""
    ah, al = a >> 32, a & 0xFFFFFFFF
    bh, bl = b >> 32, b & 0xFFFFFFFF
    low = al * bl
    mid = ah * bl + al * bh
    bottom = low + (mid << 32)  # the product modulo 2**64, and its bits from 64 up:
    top = ah * bh + (mid >> 32) + (bottom < low)
    return top << (64 - s) | bottom >> s, bottom & ((1 << s) - 1)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of each float64 x in [1e-4, 1): (zeros, digits, length)
    such that repr(x) is "0.", `zeros` zeros, then the first `length` of the 17
    digits of `digits`.

    That is the shortest decimal that rounds to x, the nearest one of that
    length (Steele & White 1990; Adams, "Ryu", 2018), found here with exact
    integer arithmetic. x is m / 2**e with m < 2**53, so with t = 17 + zeros,
    x * 10**t = m * 5**t / 2**s for s = e - t: one product in 32-bit limbs
    gives its 17-digit quotient q and its remainder. In units of
    1 / (10**t * 2**s) the doubles beside x lie 5**t from it, so a decimal
    rounds to x when it lies less than 5**t / 2 from it. (5**t is odd, so no
    decimal lies on a rounding boundary; the nearer lower neighbour of a power
    of two does not matter here, since every power of two in [1e-4, 1) is a
    decimal of at most 10 digits.) A 17-digit decimal always rounds to x, and
    a 15-digit one that does is the only one, so the nearest decimals of 15,
    16 and 17 digits decide: the shortest that rounds to x is repr's.
    """
    # 1e-3, 1e-2 and 1e-1 are doubles just above those powers of ten, so
    # 10**-(zeros + 1) < x < 10**-zeros: x * 10**t has 17 digits, and no
    # decimal that rounds to x is a power of ten
    zeros = 3 - np.searchsorted(np.array([1e-3, 1e-2, 1e-1]), x, side="right")
    bits = x.view(np.uint64)
    m = bits & (2**52 - 1) | 2**52
    s = (1075 - 17 - zeros - (bits >> 52).astype(np.int64)).astype(np.uint64)
    gap = (5 ** np.arange(17, 21, dtype=np.uint64)).take(zeros)
    q, r = _divmod_product(m, gap, s)
    unit = 1 << s
    (d15, near15), (d16, near16), (d17, _) = (_rounded(q, r, scale, unit, gap)
                                              for scale in (100, 10, 1))
    digits = np.where(near15, d15 * 100, np.where(near16, d16 * 10, d17))
    # a 16- or 17-digit pick ends in a digit that is not 0, or a shorter one would round to x
    length = np.where(near16, 16, 17)
    short = np.flatnonzero(near15)
    d15, zeros15 = d15[short], np.zeros(len(short), np.int64)  # and its trailing zeros
    for p in (8, 4, 2, 1):
        head = d15 // 10**p
        whole = head * 10**p == d15
        d15 = np.where(whole, head, d15)
        zeros15 += p * whole
    length[short] = 15 - zeros15
    return zeros, digits, length


def _repr_chars(x: np.ndarray, ends: bytes, quads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """repr() of each float64 of a block followed by an end character, taken
    from `ends` in turn (len(x) is a multiple of len(ends)): the characters of
    a (len, 25) uint8 matrix that the bool matrix beside it keeps (24
    characters hold the longest repr).

    Values in [1e-4, 1) come from _shortest, 0.0 and 1.0 are "0.0" and "1.0",
    and the rest, which repr writes in exponent form, from repr itself.
    """
    x = np.asarray(x, dtype=np.float64)
    fast = (x >= 1e-4) & (x < 1.0)
    zeros, digits, length = _shortest(np.where(fast, x, 0.5))  # 0.5: any value it takes
    zeros[~fast], digits[~fast], length[~fast] = 0, 0, 1
    rows = b"".join(b"0.000" + bytes(19) + bytes([end]) for end in ends)
    chars = np.tile(np.frombuffer(rows, np.uint8).reshape(-1, 25), (len(x) // len(ends), 1))
    chars[x == 1.0, 0] = ord("1")
    chars[:, 5:22] = _decimals(digits, 17, quads)
    # the columns kept for each (zeros, length): "0.", the zeros, the digits, the end
    col = np.arange(25)
    kept = ((col < np.arange(2, 6)[:, None, None])
            | ((col >= 5) & (col < np.arange(5, 23)[:, None])) | (col == 24))
    keep = kept.reshape(-1, 25).take(zeros * 18 + length, axis=0)
    for i in np.flatnonzero(~fast & (x != 1.0) & (np.signbit(x) | (x != 0.0))):  # not 0.0
        text = repr(float(x[i])).encode()
        chars[i, : len(text)] = np.frombuffer(text, np.uint8)
        keep[i, :24] = col[:24] < len(text)
    return chars, keep


def _int_chars(values: np.ndarray, width: int, quads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimals of positive integers below 10**width, each followed by ",",
    as _repr_chars gives floats."""
    chars = np.empty((len(values), width + 1), np.uint8)
    chars[:, :width] = _decimals(values.astype(np.uint64), width, quads)
    chars[:, width] = ord(",")
    keep = np.arange(width + 1) >= (chars != ord("0")).argmax(axis=1)[:, None]
    return chars, keep


def _text(*blocks) -> np.ndarray:
    """The kept characters of (chars, keep) blocks laid side by side, row by row."""
    chars, keep = (np.hstack(parts) for parts in zip(*blocks))
    return chars[keep]


def write_report(path, report: EvalReport) -> None:
    """Serialize a report as CSV sections (scalars, P@N, PR, distances).

    Every float is written as repr() writes it. The curves are built
    WRITE_BLOCK lines at a time as character matrices (_repr_chars), so
    neither their text nor their Python floats are ever held whole.
    """
    quads = _quads()
    precision, recall = report.precision, report.recall
    ranks = min(report.map_n, len(precision))
    head = ["metric,value", f"map_at_n,{report.map_at_n!r}", f"p_at_h2,{report.p_at_h2!r}",
            "", "rank,precision"]
    matrix = report.center_distances
    tail = [] if matrix is None else ["", *center_distance_lines(matrix)]
    with binfmt.atomic_write(path) as f:
        f.write("".join(line + "\n" for line in head).encode())
        for at in range(0, ranks, WRITE_BLOCK):
            stop = min(at + WRITE_BLOCK, ranks)
            f.write(_text(_int_chars(np.arange(at + 1, stop + 1), len(str(ranks)), quads),
                          _repr_chars(precision[at:stop], b"\n", quads)))
        f.write(b"\nrecall,precision\n")
        for at in range(0, len(recall), WRITE_BLOCK):
            pairs = np.stack((recall[at : at + WRITE_BLOCK], precision[at : at + WRITE_BLOCK]), 1)
            f.write(_text(_repr_chars(pairs.ravel(), b",\n", quads)))
        f.write("".join(line + "\n" for line in tail).encode())
