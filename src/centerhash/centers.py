"""Hash-center generation, validation, and per-sample assignment.

A center set is m binary vectors of length k whose average pairwise
Hamming distance is at least k/2. Rows of a Sylvester Hadamard matrix
(mapped -1 -> 0) give centers at exactly k/2 from each other whenever k
is a power of two; random generation covers the remaining shapes.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import binfmt, hamming
from .errors import (
    DimensionError,
    FormatError,
    GenerationError,
    InsufficientCentersError,
    InvalidLabelError,
)
from .seeds import substream

MAGIC_CENTERS = b"CSQH"

MAX_DUPLICATE_RETRIES = 100

METHODS = ("hadamard", "balanced", "bernoulli")  # the names generate accepts


class CenterMethod(str, Enum):
    HADAMARD = "hadamard"
    HADAMARD_2K = "hadamard2k"
    BALANCED_RANDOM = "balanced_random"
    BERNOULLI = "bernoulli"


@dataclass(frozen=True)
class CenterSet:
    """An ordered set of m binary centers of k bits each.

    ``method`` records how the set was generated; it is None for sets
    loaded from disk, since the file format does not store it.
    """

    k: int
    bits: np.ndarray  # (m, k) uint8
    method: CenterMethod | None

    def __post_init__(self):
        if self.bits.ndim != 2 or self.bits.shape[1] != self.k:
            raise DimensionError(
                f"center matrix shape {self.bits.shape} does not match k={self.k}"
            )
        if self.bits.shape[0] < 1:
            raise ValueError("a center set needs at least one center")
        self.bits.flags.writeable = False

    @property
    def m(self) -> int:
        return self.bits.shape[0]

    @classmethod
    def from_rows(cls, rows, method: CenterMethod | None = None) -> "CenterSet":
        rows = list(rows)
        if not rows:
            raise ValueError("a center set needs at least one center")
        lengths = {len(r) for r in rows}
        if len(lengths) != 1:
            raise DimensionError(f"centers have inconsistent bit lengths: {sorted(lengths)}")
        bits = np.asarray(rows, dtype=np.uint8)
        if not np.isin(bits, (0, 1)).all():
            raise ValueError("center bits must be 0 or 1")
        return cls(k=bits.shape[1], bits=bits, method=method)

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

    Dispatch: Hadamard rows when m <= k and k is a power of two; rows of
    the stacked [H; -H] when k < m <= 2k; otherwise each center gets
    exactly floor(k/2) one-bits at random positions.
    """
    _check_generation_args(m, k)
    if is_power_of_two(k) and m <= k:
        rows = hadamard_matrix(k)[:m]
        method = CenterMethod.HADAMARD
    elif is_power_of_two(k) and m <= 2 * k:
        h = hadamard_matrix(k)
        rows = np.vstack([h, -h])[:m]
        method = CenterMethod.HADAMARD_2K
    else:
        return generate_centers_balanced(m, k, seed)
    return CenterSet(k=k, bits=(rows > 0).astype(np.uint8), method=method)


def generate_centers_balanced(m: int, k: int, seed: int = 0) -> CenterSet:
    """m random centers, each with exactly floor(k/2) bits set."""
    _check_generation_args(m, k)

    def draw(rng):
        row = np.zeros(k, dtype=np.uint8)
        row[rng.permutation(k)[: k // 2]] = 1
        return row

    return _generate_random(m, k, draw, seed, CenterMethod.BALANCED_RANDOM)


def generate_centers_bernoulli(m: int, k: int, seed: int = 0) -> CenterSet:
    """m random centers with i.i.d. Bern(0.5) bits."""
    _check_generation_args(m, k)

    def draw(rng):
        return rng.integers(0, 2, size=k, dtype=np.uint8)

    return _generate_random(m, k, draw, seed, CenterMethod.BERNOULLI)


def _generate_random(m, k, draw, seed, method) -> CenterSet:
    # random sets meet the k/2 mean-distance bound only in expectation, so
    # redraw the whole set when an unlucky draw falls short (rare beyond tiny m)
    rng = substream(seed, "centers")
    for _ in range(1 + MAX_DUPLICATE_RETRIES):
        cs = CenterSet(k=k, bits=_draw_distinct(m, draw, rng), method=method)
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
    """The per-sample center vectors plus the distinct-label cache."""

    k: int
    vectors: np.ndarray  # (n, k) uint8
    by_label: dict  # tuple of sorted category indices -> (k,) uint8 vector

    def __post_init__(self):
        self.vectors.flags.writeable = False

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def packed(self) -> np.ndarray:
        return hamming.pack_matrix(self.vectors)


def assign_single_label(cs: CenterSet, categories) -> SemanticCenterMap:
    """Map each sample with category j to center j."""
    categories = np.asarray(categories, dtype=np.int64)
    if categories.ndim != 1:
        raise DimensionError("expected one category index per sample")
    if categories.size and categories.min() < 0:
        raise InvalidLabelError("negative category index")
    if categories.size and categories.max() >= cs.m:
        raise InsufficientCentersError(
            f"category {int(categories.max())} but only {cs.m} centers"
        )
    vectors = cs.bits[categories].copy()
    cache = {(int(j),): cs.bits[j].copy() for j in np.unique(categories)}
    return SemanticCenterMap(k=cs.k, vectors=vectors, by_label=cache)


def assign_multi_label(cs: CenterSet, labels, seed: int = 0) -> SemanticCenterMap:
    """Per-sample centers for multi-hot labels over q categories.

    Singleton label sets take their category's center directly. Larger
    sets take the bitwise majority vote over the member centers; bits
    where the vote is an exact draw are sampled from Bern(0.5). The
    result is cached per distinct label set, so repeated label sets share
    one center vector, and the tie stream is consumed in first-appearance
    order.
    """
    labels = np.asarray(labels, dtype=np.uint8)
    if labels.ndim != 2:
        raise DimensionError(f"expected an (n, q) multi-hot matrix, got {labels.shape}")
    q = labels.shape[1]
    if q > cs.m:
        raise InsufficientCentersError(f"{q} categories but only {cs.m} centers")
    rng = substream(seed, "ties")
    cache: dict[tuple, np.ndarray] = {}
    vectors = np.empty((labels.shape[0], cs.k), dtype=np.uint8)
    for i, row in enumerate(labels):
        key = tuple(int(j) for j in np.flatnonzero(row))
        if not key:
            raise InvalidLabelError(f"sample {i} has an empty label set")
        if key not in cache:
            cache[key] = _centroid(cs, key, rng)
        vectors[i] = cache[key]
    return SemanticCenterMap(k=cs.k, vectors=vectors, by_label=cache)


def _centroid(cs: CenterSet, key: tuple, rng) -> np.ndarray:
    if len(key) == 1:
        return cs.bits[key[0]].copy()
    members = cs.bits[list(key)]
    ones = members.sum(axis=0, dtype=np.int64)
    votes = 2 * ones - len(key)
    out = (votes > 0).astype(np.uint8)
    ties = votes == 0
    if ties.any():
        out[ties] = rng.integers(0, 2, size=int(ties.sum()), dtype=np.uint8)
    return out


def save_centers(path, cs: CenterSet) -> None:
    """Write a center set to a center file (magic CSQH)."""
    payload = np.packbits(cs.bits, axis=1, bitorder="little").tobytes()
    with binfmt.atomic_write(path) as f:
        f.write(binfmt.header(MAGIC_CENTERS))
        f.write(binfmt.u64(cs.m))
        f.write(binfmt.u32(cs.k))
        f.write(payload)


def load_centers(path) -> CenterSet:
    """Read a center file. The generation method is not stored on disk."""
    r = binfmt.read_file(path)
    r.expect_magic(MAGIC_CENTERS)
    m = r.u64()
    k = r.u32()
    if m == 0 or k == 0:
        raise FormatError(f"empty center file (m={m}, k={k})", offset=8)
    row_bytes = hamming.bytes_per_code(k)
    rows_at = r.offset
    raw = r.take(m * row_bytes)
    r.expect_end()
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(m, row_bytes)
    if k % 8 and (rows[:, -1] >> (k % 8)).any():
        raise FormatError("nonzero padding bits", offset=rows_at)
    bits = np.unpackbits(rows, axis=1, count=k, bitorder="little")
    return CenterSet(k=k, bits=bits, method=None)
