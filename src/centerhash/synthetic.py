"""Deterministic synthetic blob datasets for desk-scale experiments."""

import numpy as np

from .data_io import Dataset
from .seeds import substream


def make_synthetic_blobs(
    classes: int,
    per_class: int,
    d: int,
    spread: float,
    seed: int = 0,
    split: str = "train",
) -> Dataset:
    """Gaussian blobs around class means drawn on the unit sphere.

    Means depend only on (classes, d, seed), so different splits of the
    same seed sample fresh noise around identical class centers. Samples
    are ordered class by class; labels are one-hot.
    """
    if classes < 1 or per_class < 1 or d < 1:
        raise ValueError("classes, per_class, and d must all be positive")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    means_rng = substream(seed, "synth-means")
    raw = means_rng.standard_normal((classes, d))
    means = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    n = classes * per_class
    noise_rng = substream(seed, f"synth-noise-{split}")
    noise = noise_rng.standard_normal((n, d))
    features = np.repeat(means, per_class, axis=0) + spread * noise

    labels = np.zeros((n, classes), dtype=np.uint8)
    labels[np.arange(n), np.repeat(np.arange(classes), per_class)] = 1
    return Dataset(features=features, labels=labels)
