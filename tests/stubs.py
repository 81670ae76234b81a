"""Stand-ins for a random generator and an adversary, shared by the tests."""

import numpy as np

from sqpbs import channels, keys
from sqpbs.channels import read_prepared


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
        return [stack for stack, _ in segments]


class RecordingRng:
    """A seeded generator that logs each draw as ``(method, size)``.

    It offers only ``random``, the one method the package may call: any
    other draw fails.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def random(self, size=None):
        self.calls.append(("random", size))
        return self._rng.random(size)


class ReadsApart:
    """A seeded generator whose reads of tapped prepared qubits come from a second stream.

    ``install`` wraps ``read_prepared`` where the package calls it, so a
    read handed this generator draws from ``reads``.  Every other draw
    follows the stream of the same seed, so a tapped run draws them as an
    untapped run, which reads nothing, does.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.reads = np.random.default_rng([seed, 1])

    def random(self, size=None):
        return self._rng.random(size)

    @staticmethod
    def install(monkeypatch):
        def read_apart(tapped, x_basis, rng):
            return read_prepared(tapped, x_basis, rng.reads if isinstance(rng, ReadsApart) else rng)

        for module in (channels, keys):
            monkeypatch.setattr(module, "read_prepared", read_apart)
