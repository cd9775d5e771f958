"""Hamming-space retrieval over a packed code database, plus metrics.

Rankings sort by ascending distance with ties broken by ascending
database index, so every reported number is reproducible bit for bit.
Two items are relevant to each other iff their label sets intersect.

Every metric comes from one pass that computes each query's distances
once. Two bincounts of them, over all items and over the relevant ones,
give the PR curve by Hamming radius 0..k and the precision within radius
2, whatever the database order; mAP@N and P@N sort only the items within
the smallest radius that holds N of them.
Per-query quantities are exact integer ratios, and two rules keep the
results bit-exact against a plain loop: per-query values accumulate into
the float64 means in query order, and each AP sums its precisions
sequentially in rank order (never with np.sum, whose pairwise order
changes the last bit).
"""

from dataclasses import dataclass

import numpy as np

from . import binfmt, hamming
from .centers import CenterSet
from .errors import DimensionError

RADIUS = 2  # the Hamming ball of p_at_h2


@dataclass(frozen=True)
class CodeIndex:
    """A searchable database: n packed k-bit codes and, per category, the bitset
    of the items that have it (the form data_io.load_label_bitsets reads);
    from_labels builds one from (n, q) multi-hot labels."""

    codes: np.ndarray  # (n, W) uint64
    categories: np.ndarray  # (q, ceil(n/8)) uint8, bit i of row c (LSB-first): item i has c
    n: int  # label rows, which the codes must match
    k: int  # code bits: the PR curve has a row per radius 0..k

    def __post_init__(self):
        if self.codes.ndim != 2 or self.categories.ndim != 2:
            raise DimensionError(f"codes {self.codes.shape} and category bitsets "
                                 f"{self.categories.shape} must be (n, W) and (q, B) matrices")
        if self.codes.shape[0] != self.n:
            raise DimensionError(f"{self.codes.shape[0]} codes but {self.n} label rows")
        if self.codes.shape[1] != hamming.words_per_code(self.k):
            raise DimensionError(f"{self.codes.shape[1]}-word codes for k={self.k}")
        if self.categories.shape[1] != (self.n + 7) // 8:
            raise DimensionError(f"category bitsets of {self.categories.shape[1]} bytes "
                                 f"for {self.n} label rows")

    @classmethod
    def from_labels(cls, codes, labels, k: int) -> "CodeIndex":
        """An index over k-bit codes aligned with (n, q) multi-hot labels."""
        codes, labels = np.asarray(codes), np.asarray(labels)
        if codes.ndim != 2 or labels.ndim != 2:
            raise DimensionError(f"codes {codes.shape} and labels {labels.shape} "
                                 "must be (n, W) and (n, q) matrices")
        return cls(codes, np.packbits(labels.T, axis=1, bitorder="little"), labels.shape[0], k)


def _nearest(dists, within, count: int) -> np.ndarray:
    """The first count database indices by ascending distance, ties by index.

    ``within[r]`` counts the items within radius r. Only the items within
    r*, the smallest radius that holds count of them, are sorted: they come
    in index order, so a stable argsort keeps ties by index (and numpy
    radix-sorts the small unsigned distances).
    """
    candidates = np.flatnonzero(dists <= int(np.searchsorted(within, count)))
    return candidates[np.argsort(dists[candidates], kind="stable")[:count]]


# each metric is one field of the single pass; map_n=1 stands in for an unused cutoff


def mean_average_precision(index: CodeIndex, query_words, query_labels, n: int) -> float:
    """Mean over queries of AP at rank cutoff n."""
    return evaluate(index, query_words, query_labels, n).map_at_n


def precision_at_n_curve(index: CodeIndex, query_words, query_labels, max_n: int) -> list:
    """[(r, mean precision in the top r)] for r = 1..min(max_n, n)."""
    precision = evaluate(index, query_words, query_labels, max_n).precision
    return list(zip(range(1, len(precision) + 1), precision.tolist()))


def precision_within_radius(index: CodeIndex, query_words, query_labels) -> float:
    """Mean precision among database items within Hamming distance RADIUS.

    A query whose ball is empty contributes 0.
    """
    return evaluate(index, query_words, query_labels, 1).p_at_h2


def pr_curve(index: CodeIndex, query_words, query_labels) -> list:
    """[(r, mean recall, mean precision) within Hamming radius r] for r = 0..k.

    An empty ball has precision 0, and a query with no relevant database
    item counts as fully recalled at every radius.
    """
    report = evaluate(index, query_words, query_labels, 1)
    return list(zip(range(index.k + 1), report.radius_recall.tolist(),
                    report.radius_precision.tolist()))


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
    # column j: each group's summed distance to center j, integers and so exact in float64
    sums = np.stack([np.bincount(group_ids, weights=hamming.distances_to(center, code_words),
                                 minlength=cs.m) for center in cs.packed()], axis=1)
    counts = np.bincount(group_ids, minlength=cs.m)
    out = np.full((cs.m, cs.m), np.nan)
    out[counts > 0] = sums[counts > 0] / counts[counts > 0, None]
    return out


@dataclass
class EvalReport:
    """All retrieval metrics for one query set against one database."""

    map_at_n: float
    precision: np.ndarray  # (min(map_n, n),) mean precision in the top r, r = 1..
    radius_recall: np.ndarray  # (k + 1,) mean recall within Hamming radius r, r = 0..k
    radius_precision: np.ndarray  # (k + 1,) mean precision within radius r
    center_distances: np.ndarray | None = None  # (m, m), NaN for empty groups

    @property
    def p_at_h2(self) -> float:
        """Mean precision within Hamming radius RADIUS (the whole code, if k is smaller)."""
        return float(self.radius_precision[min(RADIUS, len(self.radius_precision) - 1)])


def evaluate(index: CodeIndex, query_words, query_labels, map_n: int) -> EvalReport:
    """Run the full metric battery for a query set in one pass.

    Each query's distances are computed once. Per radius r, ``within[r]``
    counts the items within r and ``found[r]`` the relevant ones: the PR
    curve by radius, whose row at RADIUS is p_at_h2. An empty ball has
    precision 0, and a query with no relevant item recall 1. AP@map_n and
    P@N count the relevance of the first map_n ranks (``_nearest``).
    """
    query_words = np.asarray(query_words, dtype=np.uint64)
    query_labels = np.asarray(query_labels)  # a category is any nonzero value: no cast
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
    n, k = index.n, index.k
    ranks = np.arange(1, min(map_n, n) + 1, dtype=np.float64)
    map_total = 0.0
    precision = np.zeros(ranks.size)
    radius_recall, radius_precision = np.zeros(k + 1), np.zeros(k + 1)
    for qw, ql in zip(query_words, query_labels):
        dists = hamming.distances_to(qw, index.codes)
        # a query's relevance is the OR of its categories' bitsets (none without a category)
        packed = np.bitwise_or.reduce(index.categories[ql != 0], axis=0)
        rel = np.unpackbits(packed, count=n, bitorder="little").view(bool)
        within = np.bincount(dists, minlength=k + 1).cumsum()
        # np.compress is 2-3x faster than dists[rel] with a fifth of the items relevant
        found = np.bincount(np.compress(rel, dists), minlength=k + 1).cumsum()
        top = rel[_nearest(dists, within, ranks.size)]
        top_cum = np.cumsum(top, dtype=np.int64)
        hits = int(top_cum[-1])
        if hits:
            # precisions at the relevant ranks, summed in rank order as a
            # plain loop does: np.sum's pairwise order changes the last bit
            at_hits = top_cum[top] / ranks[top]
            map_total += float(np.cumsum(at_hits)[-1]) / hits
        precision += top_cum / ranks
        radius_precision += found / np.maximum(within, 1)  # an empty ball has precision 0
        radius_recall += found / found[-1] if found[-1] else 1.0
    nq = query_words.shape[0]
    precision /= nq
    radius_recall /= nq
    radius_precision /= nq
    return EvalReport(
        map_at_n=map_total / nq,
        precision=precision,
        radius_recall=radius_recall,
        radius_precision=radius_precision,
    )


def center_distance_lines(matrix: np.ndarray) -> list:
    """The CSV lines of an (m, m) center-distance matrix, header first."""
    return ["center_i,center_j,mean_distance"] + [
        f"{i},{j},{d!r}" for i, row in enumerate(matrix.tolist()) for j, d in enumerate(row)
    ]


def write_report(path, report: EvalReport) -> None:
    """Serialize a report as CSV sections (scalars, P@N, PR by radius,
    distances), every float as repr() writes it."""
    lines = ["metric,value", f"map_at_n,{report.map_at_n!r}", f"p_at_h2,{report.p_at_h2!r}",
             "", "rank,precision"]
    lines += [f"{r},{p!r}" for r, p in enumerate(report.precision.tolist(), start=1)]
    lines += ["", "radius,recall,precision"]
    lines += [f"{r},{rec!r},{p!r}" for r, (rec, p) in enumerate(
        zip(report.radius_recall.tolist(), report.radius_precision.tolist()))]
    if report.center_distances is not None:
        lines += ["", *center_distance_lines(report.center_distances)]
    with binfmt.atomic_write(path) as f:
        f.write("".join(line + "\n" for line in lines).encode())
