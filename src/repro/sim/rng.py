"""Deterministic named random streams.

Every stochastic choice in the simulator (workload shuffles, hash-tie
breaking, client think times) draws from a named stream derived from a
single experiment seed.  This keeps experiments reproducible bit-for-bit
while letting independent subsystems consume randomness without
interleaving effects: adding a draw in one stream never perturbs another.
"""

import hashlib
import random


class RandomStreams:
    """A factory of independent, deterministically seeded RNGs."""

    def __init__(self, seed=0):
        self.seed = seed
        self._streams = {}

    def stream(self, name):
        """Return the :class:`random.Random` for ``name``, creating it once.

        The stream's seed is derived by hashing ``(seed, name)``, so streams
        are stable across runs and uncorrelated with each other.
        """
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(
                "{}//{}".format(self.seed, name).encode("utf-8")
            ).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng
