"""Hash-center generation, validation, and per-sample assignment.

A center set is m binary vectors of length k whose average pairwise
Hamming distance is at least k/2. Rows of a Sylvester Hadamard matrix
(mapped -1 -> 0) give centers at exactly k/2 from each other whenever k
is a power of two; random generation covers the remaining shapes.
"""

from dataclasses import dataclass

import numpy as np

from . import binfmt, hamming
from .errors import DimensionError, GenerationError, InsufficientCentersError, InvalidLabelError
from .seeds import substream

MAGIC_CENTERS = b"CSQH"

MAX_DUPLICATE_RETRIES = 100

METHODS = ("hadamard", "balanced", "bernoulli")  # the names generate accepts


@dataclass(frozen=True)
class CenterSet:
    """An ordered set of m binary centers of k bits each.

    ``method`` is the METHODS name that rebuilds the set: generate(method,
    m, k, seed) gives the same bits. It is None for sets loaded from disk,
    since the file format does not store it.
    """

    bits: np.ndarray  # (m, k) uint8
    method: str | None

    def __post_init__(self):
        if self.bits.ndim != 2:
            raise DimensionError(f"center matrix must be (m, k), got shape {self.bits.shape}")
        if self.bits.shape[0] < 1:
            raise ValueError("a center set needs at least one center")
        if self.bits.shape[1] < 1:
            raise DimensionError("centers must have at least one bit")
        self.bits.flags.writeable = False

    @property
    def m(self) -> int:
        return self.bits.shape[0]

    @property
    def k(self) -> int:
        return self.bits.shape[1]

    def packed(self) -> np.ndarray:
        return hamming.pack_matrix(self.bits)


@dataclass(frozen=True)
class ValidityReport:
    mean_distance: float
    min_distance: int
    valid: bool


def is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


def hadamard_matrix(k: int) -> np.ndarray:
    """Sylvester-construction Hadamard matrix of order k (a power of two).

    Rows are mutually orthogonal +-1 vectors; H_1 = [[1]] and each
    doubling stacks [[H, H], [H, -H]].
    """
    if not is_power_of_two(k):
        raise DimensionError(f"Hadamard order must be a power of two, got {k}")
    h = np.array([[1]], dtype=np.int8)
    while h.shape[0] < k:
        h = np.block([[h, h], [h, -h]])
    return h


def _check_generation_args(m: int, k: int) -> None:
    if m < 1:
        raise ValueError(f"need at least one center, got m={m}")
    if k < 2:
        raise ValueError(f"code length must be at least 2, got k={k}")


def generate(method: str, m: int, k: int, seed: int = 0) -> CenterSet:
    """m centers of k bits by a METHODS name; "hadamard" is generate_centers' automatic rule."""
    # call through the module names, not a table, so rebinding them is seen
    if method == "hadamard":
        return generate_centers(m, k, seed)
    if method == "balanced":
        return generate_centers_balanced(m, k, seed)
    if method == "bernoulli":
        return generate_centers_bernoulli(m, k, seed)
    raise ValueError(f"unknown center method {method!r}")


def generate_centers(m: int, k: int, seed: int = 0) -> CenterSet:
    """Generate m centers of k bits.

    Dispatch: when k is a power of two and m <= 2k, the first m rows of the
    stacked [H; -H] (for m <= k, rows of H itself), method "hadamard";
    otherwise generate_centers_balanced's set, method "balanced".
    """
    _check_generation_args(m, k)
    if not (is_power_of_two(k) and m <= 2 * k):
        return generate_centers_balanced(m, k, seed)
    h = hadamard_matrix(k)
    bits = (np.vstack([h, -h])[:m] > 0).astype(np.uint8)
    return CenterSet(bits=bits, method="hadamard")


def generate_centers_balanced(m: int, k: int, seed: int = 0) -> CenterSet:
    """m random centers, each with exactly floor(k/2) bits set."""
    _check_generation_args(m, k)

    def draw(rng):
        row = np.zeros(k, dtype=np.uint8)
        row[rng.permutation(k)[: k // 2]] = 1
        return row

    return _generate_random(m, k, draw, seed, "balanced")


def generate_centers_bernoulli(m: int, k: int, seed: int = 0) -> CenterSet:
    """m random centers with i.i.d. Bern(0.5) bits."""
    _check_generation_args(m, k)

    def draw(rng):
        return rng.integers(0, 2, size=k, dtype=np.uint8)

    return _generate_random(m, k, draw, seed, "bernoulli")


def _generate_random(m, k, draw, seed, method) -> CenterSet:
    # random sets meet the k/2 mean-distance bound only in expectation, so
    # redraw the whole set when an unlucky draw falls short (rare beyond tiny m)
    rng = substream(seed, "centers")
    for _ in range(1 + MAX_DUPLICATE_RETRIES):
        cs = CenterSet(bits=_draw_distinct(m, draw, rng), method=method)
        if validate_centers(cs).valid:
            return cs
    raise GenerationError(
        f"no center set of m={m}, k={k} met the separation bound "
        f"after {MAX_DUPLICATE_RETRIES} redraws"
    )


def _draw_distinct(m, draw, rng) -> np.ndarray:
    # redraw duplicated centers a bounded number of times so the set stays distinct
    rows, seen = [], set()
    for i in range(m):
        for _ in range(1 + MAX_DUPLICATE_RETRIES):
            row = draw(rng)
            key = row.tobytes()
            if key not in seen:
                break
        else:
            raise GenerationError(
                f"could not draw a distinct center {i} after {MAX_DUPLICATE_RETRIES} retries"
            )
        seen.add(key)
        rows.append(row)
    return np.stack(rows)


def validate_centers(cs: CenterSet) -> ValidityReport:
    """Check the mean pairwise distance against the k/2 separation bound.

    A single center is vacuously valid and reported at distance k.
    """
    if cs.m == 1:
        return ValidityReport(mean_distance=float(cs.k), min_distance=cs.k, valid=True)
    packed = cs.packed()
    dists = hamming.pairwise_distances(packed, packed)
    pair = dists[np.triu_indices(cs.m, 1)]
    mean = float(pair.sum()) / pair.size  # integer sum, so the mean is exact
    return ValidityReport(
        mean_distance=mean, min_distance=int(pair.min()), valid=mean >= cs.k / 2
    )


@dataclass(frozen=True)
class SemanticCenterMap:
    """Each sample's center, kept once per distinct label set, plus the distinct-label cache."""

    sets: np.ndarray  # (s, k) uint8, one center vector per distinct label set
    index: np.ndarray  # (n,) each sample's row of sets
    by_label: dict  # tuple of sorted category indices -> (k,) uint8 vector

    def __post_init__(self):
        self.sets.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def vectors(self) -> np.ndarray:  # (n, k) uint8, built on each read
        return self.sets[self.index]

    def packed(self) -> np.ndarray:
        return hamming.pack_matrix(self.sets)[self.index]


def assign_multi_label(cs: CenterSet, labels, seed: int = 0) -> SemanticCenterMap:
    """Per-sample centers for multi-hot labels over q categories: an (n, q) matrix, whose
    nonzero entries name a sample's categories, or its packed rows, a hamming.PackedRows.

    Singleton label sets take their category's center directly. Larger
    sets take the bitwise majority vote over the member centers; bits
    where the vote is an exact draw are sampled from Bern(0.5). The vote
    is taken once per distinct label set, so repeated label sets share one
    center vector, and the tie stream is consumed in first-appearance
    order. Only the rows of the distinct sets are unpacked.
    """
    if not isinstance(labels, hamming.PackedRows):
        labels = np.asarray(labels)
        if labels.ndim != 2:
            raise DimensionError(f"expected an (n, q) multi-hot matrix, got {labels.shape}")
        rows = np.packbits(labels != 0, axis=1, bitorder="little")
        labels = hamming.PackedRows(hamming.bytes_to_words(rows, labels.shape[1]), labels.shape[1])
    packed = np.ascontiguousarray(labels.words).view(np.uint8)
    q = labels.shape[1]
    if q > cs.m:
        raise InsufficientCentersError(f"{q} categories but only {cs.m} centers")
    empty = np.flatnonzero(~packed.any(axis=1))  # a row's bytes are its label set
    if empty.size:
        raise InvalidLabelError(f"sample {int(empty[0])} has an empty label set")
    # one void scalar per row, so np.unique groups the rows by label set
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(len(packed))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # distinct sets in first-appearance order
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    members = labels[first[order]].astype(np.int64)  # (sets, q)
    votes = 2 * (members @ cs.bits[:q].astype(np.int64)) - members.sum(axis=1, keepdims=True)
    set_vectors = (votes > 0).astype(np.uint8)
    ties = votes == 0  # never on a singleton, whose vote is +-1 on every bit
    rng = substream(seed, "ties")
    for s in np.flatnonzero(ties.any(axis=1)):
        set_vectors[s, ties[s]] = rng.integers(0, 2, size=int(ties[s].sum()), dtype=np.uint8)
    by_label = {tuple(np.flatnonzero(row).tolist()): vec for row, vec in zip(members, set_vectors)}
    return SemanticCenterMap(sets=set_vectors, index=rank[inverse], by_label=by_label)


def save_centers(path, cs: CenterSet) -> None:
    """Write a center set to a center file (magic CSQH)."""
    rows = np.packbits(cs.bits, axis=1, bitorder="little")
    binfmt.save_bit_rows(path, MAGIC_CENTERS, rows, cs.k)


def load_centers(path) -> CenterSet:
    """Read a center file. The generation method is not stored on disk."""
    rows, k = binfmt.load_bit_rows(path, MAGIC_CENTERS, "empty center file (m={n}, k={k})")
    return CenterSet(bits=np.unpackbits(rows, axis=1, count=k, bitorder="little"), method=None)
