"""Named RNG substreams derived from one master seed.

Every random choice in the package (center generation, vote tie breaking,
parameter init, epoch shuffling, synthetic data) draws from its own named
stream, so consuming one stream never shifts the draws of another.
"""

import contextlib
import sys
import types

import numpy as np


# numpy.random (about 2 MB resident) is imported on the first call, and OpenSSL's
# libcrypto (about 3.6 MB) never: the name is hashed by the interpreter's own sha256,
# and numpy.random, which imports secrets (and so hmac and libcrypto) for randbits
# alone, is imported with a stand-in secrets
def substream(seed: int, name: str) -> "np.random.Generator":
    """Return the generator for the named stream of a master seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    # sha256 rather than hash(): stable across processes and platforms
    tag = int.from_bytes(_sha256(name.encode())[:8], "little")
    if "numpy.random" not in sys.modules and "secrets" not in sys.modules:
        import random
        # a stand-in for that one import: secrets defines randbits this way
        sys.modules["secrets"] = stand_in = types.ModuleType("secrets")
        stand_in.randbits = random.SystemRandom().getrandbits
        try:
            import numpy.random  # noqa: F401  (mtrand draws its seed from randbits here)
        finally:
            del sys.modules["secrets"]
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _sha256(data: bytes) -> bytes:
    """The digest by hashlib's own fallback module (Python 3.12+, then 3.10-3.11)."""
    for module in ("_sha2", "_sha256", "hashlib"):
        with contextlib.suppress(ImportError):
            return __import__(module).sha256(data).digest()
