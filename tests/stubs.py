"""Stand-ins for a random generator and an adversary, shared by the tests."""

import numpy as np


class LastDraw:
    """Generator stub whose uniform draws are all the largest double below 1.

    They lie past any Born total that rounded below 1, so |+> read in X
    takes the zero-weight flip.
    """

    def random(self, size=None):
        u = 1.0 - 2.0**-53
        return u if size is None else np.full(size, u)


class PassThrough:
    """Adversary that leaves every segment alone; its presence forces a tapped stack."""

    def intercept(self, segments, rng):
        pass


class RecordingRng:
    """A seeded generator that logs each draw as ``(method, size)``."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def random(self, size=None):
        self.calls.append(("random", size))
        return self._rng.random(size)

    def integers(self, low, high, size=None):
        self.calls.append(("integers", size))
        return self._rng.integers(low, high, size=size)

    def choice(self, a, size=None, replace=True):
        self.calls.append(("choice", size))
        return self._rng.choice(a, size=size, replace=replace)


class ReadsApart:
    """A seeded generator that serves its uniform draws, the reads, from a second stream.

    Its other draws follow the stream of the same seed, so a tapped run
    draws them as an untapped run, which reads nothing, does.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._reads = np.random.default_rng([seed, 1])

    def random(self, size=None):
        return self._reads.random(size)

    def integers(self, low, high, size=None):
        return self._rng.integers(low, high, size=size)

    def choice(self, a, size=None, replace=True):
        return self._rng.choice(a, size=size, replace=replace)
