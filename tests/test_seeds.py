"""seeds.substream: its stream tags, its draws, and what its first call imports.

The draws and the imports are checked in a fresh interpreter each, since the test
process has long imported numpy.random, hashlib and secrets itself.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from centerhash import seeds

# every stream name the package draws from
NAMES = ["init", "shuffle", "centers", "ties", "synth-means",
         "synth-noise-train", "synth-noise-query", "synth-noise-database"]
HEAVY = ["_hashlib", "hmac"]  # OpenSSL's module, and the hmac module secrets imports


def fresh(code):
    """The value of the last line `code` prints, run in a fresh interpreter with the
    package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(seeds.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def hashlib_tag(name):
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")


@pytest.mark.parametrize("name", NAMES)
def test_tag_is_hashlibs_sha256(name):
    assert seeds._sha256(name.encode()) == hashlib.sha256(name.encode()).digest()


# an expression for a probe: which HEAVY modules are loaded, and whether any secrets
# module in sys.modules is the real one, not a stand-in
STATE = (f"([m for m in {HEAVY!r} if m in sys.modules], 'secrets' not in sys.modules "
         "or hasattr(sys.modules['secrets'], 'token_hex'))")


@pytest.mark.parametrize("first", ["", "import numpy.random", "import secrets"],
                         ids=["fresh", "numpy_random_first", "secrets_first"])
def test_draws_equal_a_hashlib_tagged_generator(first):
    draws, (after, no_stand_in) = fresh(f"""import sys
{first}
from centerhash.seeds import substream
draws = [substream(seed, name).integers(0, 2**63, size=4).tolist()
         for seed in (0, 7) for name in {NAMES!r}]
print(repr((draws, {STATE})))
""")
    expected = [np.random.default_rng(np.random.SeedSequence([seed, hashlib_tag(name)]))
                .integers(0, 2**63, size=4).tolist() for seed in (0, 7) for name in NAMES]
    assert draws == expected
    before, _ = fresh(f"import sys, numpy\n{first}\nprint(repr({STATE}))")
    assert set(after) <= set(before)  # drawing loads no OpenSSL of its own
    assert no_stand_in  # it is removed as soon as numpy.random is imported


def test_the_real_secrets_is_imported_after_a_draw():
    has_token_hex, entropies = fresh("""
from centerhash.seeds import substream
substream(0, "init")
import numpy as np
import secrets
print(repr((len(secrets.token_hex(8)) == 16,
            [np.random.SeedSequence().entropy for _ in range(2)])))
""")
    assert has_token_hex
    assert entropies[0] != entropies[1]  # unseeded sequences still draw fresh entropy
