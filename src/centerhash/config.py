"""Experiment configuration: flat key=value files plus CLI overrides.

Precedence is flag > file > default. Unknown keys are rejected so typos
fail loudly instead of silently using a default. RunConfig is the one
schema: the CLI flags and the TrainConfig handed to training are derived
from its fields.
"""

from dataclasses import dataclass, field, fields
from pathlib import Path

from .centers import METHODS
from .model import TrainConfig


def _train(name: str):
    """A field passed to TrainConfig as `name`, with TrainConfig's default."""
    return field(default=getattr(TrainConfig, name), metadata={"train": name})


@dataclass
class RunConfig:
    # inputs; db_* are set together, or both default to the train files
    train_features: str = ""
    train_labels: str = ""
    db_features: str = ""
    db_labels: str = ""
    query_features: str = ""
    query_labels: str = ""
    # the directory that receives pipeline.ARTIFACTS
    out_dir: str = "."
    # centers: one per category found in the training labels
    k: int = 16
    # one of centers.METHODS; hadamard is automatic: Hadamard rows when k is a
    # power of two and there are at most 2k categories, otherwise balanced
    method: str = "hadamard"
    # training
    lambda1: float = _train("lambda1")
    lr: float = _train("learning_rate")
    momentum: float = _train("momentum")
    batch: int = _train("batch_size")
    epochs: int = _train("epochs")
    use_lc: bool = _train("use_lc")
    # evaluation
    map_n: int = 100
    seed: int = _train("seed")

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.map_n < 1:
            raise ValueError(f"map_n must be at least 1, got {self.map_n}")
        if self.method not in METHODS:
            raise ValueError(f"unknown center method {self.method!r}")
        if bool(self.db_features) != bool(self.db_labels):
            raise ValueError("db_features and db_labels must be set together")
        if not self.db_features:
            self.db_features, self.db_labels = self.train_features, self.train_labels

    def train_config(self) -> TrainConfig:
        """The training fields under their TrainConfig names."""
        return TrainConfig(**{f.metadata["train"]: getattr(self, f.name) for f in TRAIN_FIELDS})


# the RunConfig fields that make up a TrainConfig, in declaration order
TRAIN_FIELDS = tuple(f for f in fields(RunConfig) if "train" in f.metadata)

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _coerce(name: str, kind, raw):
    if isinstance(raw, kind):
        return raw
    text = str(raw).strip()
    if kind is bool:
        if text.lower() not in _BOOL_WORDS:
            raise ValueError(f"config key {name!r}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[text.lower()]
    try:
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"config key {name!r}: {exc}") from exc


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; `#` starts a comment, blanks are skipped, repeats raise."""
    values, set_on = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in set_on:
            raise ValueError(f"config line {lineno}: key {key!r} already set on line {set_on[key]}")
        values[key], set_on[key] = value, lineno
    return values


def build_run_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, file values, and CLI overrides into a RunConfig."""
    known = {f.name: f.type for f in fields(RunConfig)}
    merged = {}
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, known[key], value)
    return RunConfig(**merged)


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional file and flag overrides.

    Relative paths, whether from the file or from flags, are taken
    relative to the working directory.
    """
    file_values = parse_config_text(Path(path).read_text()) if path else None
    return build_run_config(file_values, overrides)
