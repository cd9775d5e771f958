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

import itertools
from dataclasses import dataclass

import numpy as np

from . import binfmt, hamming
from .centers import CenterSet
from .errors import DimensionError

RADIUS = 2  # the Hamming ball of p_at_h2
WRITE_BLOCK = 1 << 13  # curve points that write_report converts to Python floats at a time


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
    ratio = np.empty(n)  # each PR division in turn
    for qw, ql in zip(query_words, query_labels):
        dists, order = _rank(index, qw)
        # a query's relevance is the OR of its categories' bitsets (none without a category)
        packed = np.bitwise_or.reduce(index.categories[ql != 0], axis=0)
        rel = np.unpackbits(packed, count=n, bitorder="little").view(bool)[order]
        cum = np.cumsum(rel, dtype=np.int64)
        top = rel[:map_n]
        hits = int(cum[top.size - 1])
        if hits:
            # precisions at the relevant ranks, summed in rank order as a
            # plain loop does: np.sum's pairwise order changes the last bit
            at_hits = cum[: top.size][top] / ranks[: top.size][top]
            map_total += float(np.cumsum(at_hits)[-1]) / hits
        inside = int(np.count_nonzero(dists <= RADIUS))
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


def _floats(values: np.ndarray):
    """The items of a 1-D array as Python floats, converted WRITE_BLOCK at a time."""
    return itertools.chain.from_iterable(
        values[at : at + WRITE_BLOCK].tolist() for at in range(0, len(values), WRITE_BLOCK))


def write_report(path, report: EvalReport) -> None:
    """Serialize a report as CSV sections (scalars, P@N, PR, distances), streaming
    its lines through the file's buffer: neither the text nor a curve's Python
    floats are ever held whole, only WRITE_BLOCK points of each curve at a time."""
    matrix = report.center_distances
    lines = itertools.chain(
        ["metric,value", f"map_at_n,{report.map_at_n!r}", f"p_at_h2,{report.p_at_h2!r}"],
        ["", "rank,precision"],
        (f"{rank},{p!r}" for rank, p in
         enumerate(_floats(report.precision[: report.map_n]), start=1)),
        ["", "recall,precision"],
        (f"{r!r},{p!r}" for r, p in zip(_floats(report.recall), _floats(report.precision))),
        [] if matrix is None else ["", *center_distance_lines(matrix)],
    )
    with binfmt.atomic_write(path, text=True) as f:
        f.writelines(line + "\n" for line in lines)
