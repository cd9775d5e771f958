"""Named RNG substreams derived from one master seed.

Every random choice in the package (center generation, vote tie breaking,
parameter init, epoch shuffling, synthetic data) draws from its own named
stream, so consuming one stream never shifts the draws of another.
"""

import numpy as np


# quoted, and hashlib imported on the first call, so importing this module
# loads neither numpy.random (about 2 MB resident) nor OpenSSL's libcrypto
# (about 3.6 MB): only commands that draw random numbers pay for them
def substream(seed: int, name: str) -> "np.random.Generator":
    """Return the generator for the named stream of a master seed."""
    import hashlib

    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    # sha256 rather than hash(): stable across processes and platforms
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))
