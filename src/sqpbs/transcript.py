"""Run configuration and the replayable protocol transcript.

A :class:`Transcript` is the ordered public record of one protocol run:
every classical message, measurement record, check outcome, and the
final verdict, each fact stated once.  Its schema is closed:
``EVENTS`` lists each event type and the field sets it may carry, and
``Transcript.add`` refuses any other type, field set or value that is
not already plain JSON (callers publish a ``Bits`` as its string).  Its
canonical JSON form is byte-stable: two runs of the same configuration
and seed serialize identically, which is what the replay and blindness
checks compare.

The owner's private inputs (the message ``g_a`` and blinding key
``k_a``) are deliberately *not* part of the transcript; they live only
in the :class:`RunConfig`.  Transcript files written by the CLI embed
the config next to the transcript so any file can be replayed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from typing import Any

from .adversary import INTERCEPT_BASES, EntangleMeasure, EveParams, InterceptResend
from .bits import Bits
from .errors import ConfigError
from .keys import HashConfig

TOOL_VERSION = "0.9.0"
TRANSCRIPT_FORMAT = "sqpbs-transcript"

# The AttackSpec fields each attack kind reads besides ``kind``; the
# others keep their defaults and stay out of the JSON form.
ATTACK_FIELDS = {
    "none": (),
    "intercept-resend": ("channel", "basis"),
    "entangle-measure": ("channel", "eve"),
    "forge-md": (),
    "tamper-md": ("bit_index",),
    "withhold": ("record",),
}
ATTACK_KINDS = tuple(ATTACK_FIELDS)

# Every quantum transmission: sender, receiver, and the guard its receiver
# runs.  David is quantum and checks decoys in announced bases ("decoy");
# Bob and Charlie are semiquantum and run the SIFT/CTRL return check
# ("return"); the key channels are guarded by their own agreement.
CHANNELS = {
    "xi_m": ("alice", "david", "decoy"),
    "w1": ("trent", "bob", "return"),
    "w2": ("trent", "david", "decoy"),
    "w4": ("trent", "charlie", "return"),
    "g_prime": ("trent", "charlie", "return"),
    "bb84_dt": ("trent", "david", "bb84"),
    "sqkd_bt": ("trent", "bob", "sqkd"),
    "sqkd_ct": ("trent", "charlie", "sqkd"),
}
QUANTUM_CHANNELS = tuple(CHANNELS)
KEY_GUARDS = ("bb84", "sqkd")
QUANTUM_ATTACKS = tuple(kind for kind, names in ATTACK_FIELDS.items() if "channel" in names)
WITHHOLDABLE = ("M_B", "M_D", "M_C")
KEY_MODES = ("simulated", "stubbed")

# The public record's schema: each event type, in protocol order, and the
# field sets it may carry besides ``type``.  The publisher is named by the
# event's own ``party``, ``by`` or ``sender`` field.
EVENTS = {event_type: tuple(frozenset(shape.split()) for shape in shapes) for event_type, shapes in {
    "key_established": ("kind simulates parties bits error_rate", "kind parties bits error_rate raw_qubits"),
    "chi_prepared": ("party instances qubits",),
    "quantum_send": ("channel sender receiver payload_qubits decoy_qubits",),
    "classical_send": ("sender receiver label bits",),
    "xi_prepared": ("party qubits",),
    "decoy_check": ("channel by decoys errors error_rate",),
    "return_check": ("channel by reflected_count reflected_error_rate z_sift_count z_sift_error_rate",),
    "notice": ("sender receiver label",),
    "measurement_record": ("party label basis bits",),
    "message_tampered": ("label kind bits",),
    "withheld": ("party label",),
    "recovery_record": ("party g_prime",),
    "verdict_check": ("by hash_g hash_g_prime match",),
    "abort": ("phase reason channel check error_rate threshold", "phase reason kind error_rate threshold", "phase reason"),
}.items()}
JSON_SCALARS = frozenset({str, int, float, bool, type(None)})  # an event value is one of these or a list of them


@dataclass(frozen=True)
class AttackSpec:
    """What the adversary does, and where."""

    kind: str = "none"
    channel: str = "xi_m"          # quantum attacks: which transmission is tapped
    basis: str = "random"          # intercept-resend measurement basis
    eve: EveParams | None = None   # entangle-measure parameters
    bit_index: int = 1             # tamper-md: ciphertext bit to flip
    record: str = "M_D"            # withhold: which record never reaches the arbiter

    def validate(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(f"unknown attack kind {self.kind!r} (choose from {ATTACK_KINDS})")
        if self.channel not in QUANTUM_CHANNELS:
            raise ConfigError(f"unknown channel {self.channel!r} (choose from {QUANTUM_CHANNELS})")
        if self.kind == "entangle-measure" and self.eve is None:
            raise ConfigError("entangle-measure attack requires eve parameters")
        if self.kind == "withhold" and self.record not in WITHHOLDABLE:
            raise ConfigError(f"withholdable records are {WITHHOLDABLE}, got {self.record!r}")
        if self.basis not in INTERCEPT_BASES:
            raise ConfigError(f"intercept-resend basis must be one of {INTERCEPT_BASES}, got {self.basis!r}")

    def adversary(self, channel: str) -> InterceptResend | EntangleMeasure | None:
        """A fresh attacker for ``channel``, or None when it is not tapped."""
        if channel != self.channel:
            return None
        if self.kind == "intercept-resend":
            return InterceptResend(self.basis)
        if self.kind == "entangle-measure":
            assert self.eve is not None
            return EntangleMeasure(self.eve)
        return None

    def to_json_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind}
        for name in ATTACK_FIELDS[self.kind]:
            value = getattr(self, name)
            if value is not None:
                out[name] = value.to_json_dict() if name == "eve" else value
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "AttackSpec":
        """Inverse of :meth:`to_json_dict`; absent keys take the field defaults.

        A key that the attack kind does not read is a ValueError.
        """
        unread = set(data) - {"kind", *ATTACK_FIELDS.get(data.get("kind", cls.kind), ())}
        if unread:
            raise ValueError(f"attack kind {data.get('kind', cls.kind)!r} does not read {sorted(unread)}")
        if data.get("eve") is not None:
            data = {**data, "eve": EveParams.from_json_dict(data["eve"])}
        return cls(**data)


# The owner's private inputs: RunConfig fields that never enter a transcript.
PRIVATE_FIELDS = ("g_a", "k_a")

# Upper bounds on the sizes a config may ask for, far above any size in
# use (n = 64 and hash_bits = 300 at most), so that a config from outside
# cannot hold a run in allocation or hashing for minutes.
SIZE_BOUNDS = {"n": 4096, "decoy_count": 4096, "hash_bits": 65536}


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one protocol run bit-for-bit."""

    n: int
    seed: int
    g_a: Bits | None = None        # owner's message; drawn from the seed when None
    k_a: Bits | None = None        # owner's blinding key; drawn from the seed when None
    decoy_count: int | None = None  # per-channel decoys; defaults to n
    error_threshold: float = 0.0
    hash_bits: int = HashConfig.output_bits
    hash_algorithm: str = HashConfig.algorithm
    key_mode: str = "simulated"
    attack: AttackSpec = field(default_factory=AttackSpec)

    def validate(self) -> None:
        ints = {"n": self.n, "seed": self.seed, "decoy_count": self.resolved_decoy_count,
                "hash_bits": self.hash_bits, "attack.bit_index": self.attack.bit_index}
        for name, value in ints.items():
            if type(value) is not int:  # not bool, not a numpy integer
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if type(self.error_threshold) not in (int, float):
            raise ConfigError(f"error_threshold must be a number, got {self.error_threshold!r}")
        for name, bound in SIZE_BOUNDS.items():
            if ints[name] > bound:
                raise ConfigError(f"{name} must be <= {bound}, got {ints[name]}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, value in (("g_a", self.g_a), ("k_a", self.k_a)):
            if value is not None and not (isinstance(value, Bits) and len(value) == self.n):
                raise ConfigError(f"{name} must be Bits of n={self.n} bits, got {value!r}")
        if self.decoy_count is not None and self.decoy_count < 1:
            raise ConfigError(f"decoy_count must be >= 1, got {self.decoy_count}")
        if not 0.0 <= self.error_threshold < 1.0:
            raise ConfigError(f"error_threshold must be in [0, 1), got {self.error_threshold}")
        self.hash_config  # built here so that a bad hash setting fails validation
        if self.key_mode not in KEY_MODES:
            raise ConfigError(f"key_mode must be one of {KEY_MODES}, got {self.key_mode!r}")
        self.attack.validate()
        tapped = CHANNELS[self.attack.channel][2] if self.attack.kind in QUANTUM_ATTACKS else None
        if self.key_mode == "stubbed" and tapped in KEY_GUARDS:
            raise ConfigError(f"stubbed keys skip key agreement, so {self.attack.channel!r} cannot be attacked")

    @cached_property
    def hash_config(self) -> HashConfig:
        return HashConfig(self.hash_bits, self.hash_algorithm)

    @property
    def resolved_decoy_count(self) -> int:
        return self.decoy_count if self.decoy_count is not None else self.n

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "attack"}
        bits = {name: str(out[name]) for name in PRIVATE_FIELDS if out[name] is not None}
        return {**out, **bits, "attack": self.attack.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        """Inverse of :meth:`to_json_dict`; absent keys take the field defaults."""
        data = dict(data)
        for name in PRIVATE_FIELDS:
            if data.get(name) is not None:
                if not (isinstance(data[name], str) and set(data[name]) <= {"0", "1"}):
                    raise ConfigError(f"{name} must be a 0/1 string, got {data[name]!r}")
                data[name] = Bits(data[name])
        if "attack" in data:
            data["attack"] = AttackSpec.from_json_dict(data["attack"])
        return cls(**data)


# The canonical JSON form of a transcript or of any part of one: sorted keys, no whitespace.
canonical = partial(json.dumps, sort_keys=True, separators=(",", ":"))


class Transcript:
    """Append-only public record of one protocol run."""

    def __init__(self, meta: dict):
        self.meta = meta
        self.events: list[dict] = []
        self.verdict: str | None = None

    def add(self, event_type: str, **fields: Any) -> dict:
        """Append one event: a field set of its type in ``EVENTS``, each value in ``JSON_SCALARS`` or a list of them.

        Anything else is a TypeError, and nothing is appended.
        """
        if frozenset(fields) not in EVENTS.get(event_type, ()):
            raise TypeError(f"transcript.EVENTS has no {event_type!r} event with the fields {sorted(fields)}")
        for key, value in fields.items():
            if type(value) not in JSON_SCALARS and not (type(value) is list and JSON_SCALARS.issuperset(map(type, value))):
                raise TypeError(f"{event_type} field {key} holds {value!r}, not a JSON scalar or a list of them")
        event = {"type": event_type, **fields}
        self.events.append(event)
        return event

    def to_dict(self) -> dict:
        return {"meta": self.meta, "events": self.events, "verdict": self.verdict}

    def canonical_json(self) -> str:
        """Byte-stable serialization used for replay and blindness checks."""
        return canonical(self.to_dict())

    def events_of(self, event_type: str) -> list[dict]:
        return [e for e in self.events if e["type"] == event_type]
