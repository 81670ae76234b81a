"""Per-layer tracing of the sqpbs package from outside it.

A :class:`Tracer` wraps the public functions listed in ``LAYERS`` at
every place they are bound inside the ``sqpbs`` package (a function
imported by name into another module is a second binding and is wrapped
there too) and records one span per call: name, start, end, parent span
and trial id.  Spans are kept in compact arrays while tracing and
written out once at the end.  A function's self time is its span's
duration minus the durations of its direct child spans.

Wrapping draws no random numbers and changes no arguments, so a traced
run produces the same outputs as an untraced one; the benchmark checks
this by comparing output digests.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

PACKAGE = "sqpbs"

# (metric name, module, attribute path inside the module)
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("statevec.measure", "statevec", "measure"),
    ("statevec.measure_bell", "statevec", "measure_bell"),
    ("statevec.apply_unitary", "statevec", "apply_unitary"),
    ("statevec.tensor", "statevec", "tensor"),
    ("statevec.postselect", "statevec", "postselect"),
    ("statevec.postselect_bell", "statevec", "postselect_bell"),
    ("registers.measure_qubit", "registers", "measure_qubit"),
    ("registers.measure_qubits_bell", "registers", "measure_qubits_bell"),
    ("registers.merge", "registers", "merge"),
    ("registers.new_qubit", "registers", "new_qubit"),
    ("channels.send_with_decoys", "channels", "send_with_decoys"),
    ("channels.check_decoys", "channels", "check_decoys"),
    ("channels.semiquantum_return_check", "channels", "semiquantum_return_check"),
    ("adversary.EntangleMeasure.intercept", "adversary", "EntangleMeasure.intercept"),
    ("keys.establish_key_bb84", "keys", "establish_key_bb84"),
    ("keys.establish_key_sqkd", "keys", "establish_key_sqkd"),
    ("keys.keyed_hash", "keys", "keyed_hash"),
    ("teleport.verify_correction_table", "teleport", "verify_correction_table"),
    ("teleport.prepare_chi", "teleport", "prepare_chi"),
    ("teleport.correction_for", "teleport", "correction_for"),
    ("protocol.phase_initialize", "protocol", "ProtocolRun.phase_initialize"),
    ("protocol.phase_blind", "protocol", "ProtocolRun.phase_blind"),
    ("protocol.phase_sign", "protocol", "ProtocolRun.phase_sign"),
    ("protocol.phase_verify", "protocol", "ProtocolRun.phase_verify"),
    ("transcript.Transcript.add", "transcript", "Transcript.add"),
    ("transcript.Transcript.canonical_json", "transcript", "Transcript.canonical_json"),
    ("bits.Bits.__init__", "bits", "Bits.__init__"),
)

# Key agreement results feed the keys layer's useful-to-attempted ratio.
_KEY_AGREEMENT = ("keys.establish_key_bb84", "keys.establish_key_sqkd")


class Tracer:
    """Context manager that wraps ``LAYERS`` while active.

    Set ``trial`` before each trial so its spans carry the trial id.
    """

    def __init__(self):
        self.names = [name for name, _, _ in LAYERS]
        self.trial = -1
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trial_id = array("q")
        self.raw_count = 0
        self.sifted_count = 0
        self._current = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for index, (name, module_name, attr) in enumerate(LAYERS):
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._bind(cls, method, original, self._wrap(index, name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(index, name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._bind(m, key, original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _bind(self, owner, key: str, original, wrapper) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, index: int, name: str, fn):
        count_keys = name in _KEY_AGREEMENT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current
            span = len(self.start)
            self.name_id.append(index)
            self.parent.append(parent)
            self.trial_id.append(self.trial)
            self.start.append(0)
            self.end.append(0)
            self._current = span
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._current = parent
                self.start[span] = t0
                self.end[span] = t1
            if count_keys:
                self.raw_count += result.raw_count
                self.sifted_count += result.sifted_count
            return result

        return wrapper

    # -- reading ------------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, int]]:
        """Per layer name: (calls, self time in ns), computed from the spans."""
        child_ns = [0] * len(self.start)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                child_ns[parent] += self.end[span] - self.start[span]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for span, index in enumerate(self.name_id):
            calls[index] += 1
            self_ns[index] += self.end[span] - self.start[span] - child_ns[span]
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        origin = self.start[0] if self.start else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in range(len(self.start)):
                out.write(json.dumps({
                    "span": span,
                    "name": self.names[self.name_id[span]],
                    "start_ns": self.start[span] - origin,
                    "end_ns": self.end[span] - origin,
                    "parent": self.parent[span],
                    "trial": self.trial_id[span],
                }, separators=(",", ":")))
                out.write("\n")
