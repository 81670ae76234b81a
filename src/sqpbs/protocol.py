"""Five-party orchestration of the proxy blind signature protocol.

Participants: Alice owns the message; Bob is the original signer who
delegates signing; David is the proxy signer; Charlie verifies; Trent
is the third party who prepares the entangled carriers and restores the
blinded states.  Alice, David and Trent are fully quantum; Bob and
Charlie are semiquantum (Z-basis preparation/measurement, reflection
and reordering only), which :class:`Party` enforces on their record
measurements.  Which check each receiver runs comes from
``transcript.CHANNELS``: Bob and Charlie run the return check, whose only
receiver-side operation is a Z measurement.

A run walks four phases:

1. initializing — key agreement (one 2n-bit BB84 key, two n-bit
   semiquantum keys, plus Alice's local n-bit blinding key), carrier
   preparation (n four-particle chi states), dispatch of the particle
   sequences with decoys, and Alice's hash commitment H(g) to Charlie.
2. blindness — Alice encodes each blind bit g_i as |+> (0) or |-> (1).
3. signing — the ordered measurement cascade: channel checks, Bob's Z
   record M_B, David's Bell record M_D, Charlie's Z record M_C, all
   one-time-pad encrypted to Trent, who applies the teleportation
   correction per instance, reads out the restored state in the X
   basis, and ships the re-encoded result G' to Charlie with decoys.
   Each measurement drops the particles it measures, so Trent corrects
   and reads particle 3 alone (with a probe, if one rides on it).  His
   recovery record publishes only G'; ``recovered`` keeps his corrected
   stack.  Each record is the ``Bits`` of its measurement's outcome array.
4. verifying — Charlie Z-measures G', recomputes the keyed hash, and
   declares the signature valid iff it matches Alice's commitment.

Determinism: a run consumes randomness exclusively from one generator
seeded by ``config.seed``, and only through ``rng.random``, in a fixed
order (private inputs if not supplied, hash secret, key agreement, then
per-channel decoy and measurement draws in protocol order).  Bits, coins,
codes and samples are built from uniform vectors by the formulas of the
``statevec`` draw section.  Each measurement step draws once: M_B, M_D,
M_C and Trent's X reads take one ``rng.random(n)`` each.  Reads whose
outcomes an untapped channel fixes take no draw: Charlie's read of G',
and the key-agreement and check reads of prepared qubits, one
``channels.read_prepared`` call a step when tapped (the ``keys`` and
``channels`` docstrings give the order of the steps).  Two runs with the
same config are therefore bit-identical, which is the replay contract.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .bits import Bits
from .channels import (
    TransmittedSequence,
    check_decoys,
    semiquantum_return_check,
    send_with_decoys,
)
from .errors import (
    EavesdroppingDetected,
    KeyEstablishmentError,
    ProtocolError,
    SemiquantumCapabilityError,
)
from .keys import (
    OtpKey,
    establish_key_bb84,
    establish_key_sqkd,
    keyed_hash,
    xor_blind,
)
from .registers import measure_qubits_bell, merge
from .statevec import (
    KETS,
    Basis,
    Rng,
    apply_1q_rows,
    measure_rows,
    new_rng,
    num_qubits,
)
from .teleport import correction_matrices, prepare_chi
from .transcript import CHANNELS, PRIVATE_FIELDS, RunConfig, TOOL_VERSION, Transcript, canonical

HASH_SECRET_BITS = 128


class Party:
    """A protocol participant; gates quantum operations by capability."""

    def __init__(self, name: str, quantum: bool):
        self.name = name
        self.quantum = quantum

    def _require_quantum(self, operation: str) -> None:
        if not self.quantum:
            raise SemiquantumCapabilityError(
                f"{self.name} is semiquantum and cannot perform {operation}"
            )

    def measure(self, stack: np.ndarray, column: int, basis: Basis, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
        """Measure the qubit at ``column`` of every row, with one ``rng.random(rows)``: the outcomes, and the rest."""
        if basis is not Basis.Z:
            self._require_quantum(f"a {basis.value}-basis measurement")
        return measure_rows(stack, column, basis, rng.random(len(stack)))

    def measure_bell(self, stack: np.ndarray, qubit_a: int, qubit_b: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
        """Bell-measure the pair (a, b) of every row: each row's Bell index (``BellState`` order), and the rest."""
        self._require_quantum("a Bell-basis measurement")
        return measure_qubits_bell(stack, qubit_a, qubit_b, rng)

    def prepare_z(self, bits: Bits) -> np.ndarray:
        """One row per bit: ``|bit>``, the ``KETS`` row of Z code ``bit``."""
        return KETS[np.asarray(bits)]

    def prepare_state(self, states: np.ndarray) -> np.ndarray:
        """One row per state of the ``(rows, 2**k)`` array ``states``."""
        self._require_quantum("arbitrary state preparation")
        return np.array(states, dtype=complex)

    def apply_gates(self, stack: np.ndarray, column: int, matrices: np.ndarray) -> np.ndarray:
        """Apply ``matrices[r]`` to the qubit at ``column`` of row ``r``: the new stack."""
        self._require_quantum("a unitary operation")
        return apply_1q_rows(stack, column, matrices)


VERDICT_VALID = "valid"
VERDICT_INVALID = "invalid"


class ProtocolRun:
    """One seeded execution of the full protocol.

    Build with a validated :class:`RunConfig`, call :meth:`run`, and
    read the returned :class:`Transcript`.  Aborts (failed checks,
    withheld records) are recorded in the transcript verdict, never
    raised past :meth:`run`.
    """

    def __init__(self, config: RunConfig):
        config.validate()
        self.config = config
        self.rng = new_rng(config.seed)
        self.n = config.n
        self.d = config.resolved_decoy_count
        self.threshold = config.error_threshold
        self.alice = Party("alice", quantum=True)
        self.bob = Party("bob", quantum=False)
        self.charlie = Party("charlie", quantum=False)
        self.david = Party("david", quantum=True)
        self.trent = Party("trent", quantum=True)
        public = {k: v for k, v in config.to_json_dict().items() if k not in PRIVATE_FIELDS}
        self.transcript = Transcript(meta={"format": "sqpbs-run", "version": TOOL_VERSION, **public})
        self.phase = "initializing"

    # -- phase 1: initializing -------------------------------------------------

    def phase_initialize(self) -> None:
        cfg = self.config
        rng = self.rng
        n = self.n
        self.g_a = cfg.g_a if cfg.g_a is not None else Bits.random(n, rng)
        self.k_a = cfg.k_a if cfg.k_a is not None else Bits.random(n, rng)
        self.hash_secret = Bits.random(HASH_SECRET_BITS, rng)

        # Each agreed key pads the record its receiver sends to Trent: the
        # receiver encrypts with its own copy, Trent decrypts with his.
        self.pads: dict[str, tuple[OtpKey, OtpKey]] = {}
        for channel, bits in (("bb84_dt", 2 * n), ("sqkd_bt", n), ("sqkd_ct", n)):
            sender, receiver, _ = CHANNELS[channel]
            label = f"K{receiver[0]}{sender[0]}".upper()
            self.pads[receiver] = tuple(OtpKey(copy, label) for copy in self._establish(channel, bits))

        # One carrier per row, particles 1..4 at columns 0..3.
        self.carriers = np.tile(prepare_chi(), (n, 1))
        self.transcript.add("chi_prepared", party="trent", instances=n, qubits=4 * n)

        self.w1_seq, self.carriers = self._dispatch("w1", self.carriers, 0)
        self.w2_seq, self.carriers = self._dispatch("w2", self.carriers, 1)
        self.w4_seq, self.carriers = self._dispatch("w4", self.carriers, 3)

        self.g = xor_blind(self.g_a, self.k_a)
        self.h_g = keyed_hash(cfg.hash_config, self.hash_secret, self.g)
        self._classical("alice", "charlie", "H(g)", self.h_g)
        self.phase = "blindness"

    def _establish(self, channel: str, bits: int) -> tuple[Bits, Bits]:
        """One key agreement (a pre-shared key when stubbed): the sender's and the receiver's copy."""
        sender, receiver, kind = CHANNELS[channel]
        parties = [sender, receiver]
        if self.config.key_mode == "stubbed":
            copies = (Bits.random(bits, self.rng),) * 2
            self.transcript.add(
                "key_established", kind="preshared", simulates=kind,
                parties=parties, bits=bits, error_rate=0.0,
            )
        else:
            establish = establish_key_bb84 if kind == "bb84" else establish_key_sqkd
            result = establish(
                bits, self.rng, self.config.attack.adversary(channel), error_threshold=self.threshold
            )
            copies = result.sender_key, result.receiver_key
            self.transcript.add(
                "key_established", kind=kind, parties=parties, bits=bits,
                error_rate=result.error_rate, raw_qubits=result.raw_count,
            )
        return copies

    def _dispatch(self, channel: str, payload: np.ndarray, column: int) -> tuple[TransmittedSequence, np.ndarray]:
        """Send the qubit at ``column`` of every row over ``channel``: the sequence and the payload as it arrived."""
        sender, receiver, _ = CHANNELS[channel]
        seq = send_with_decoys(
            [payload], self.d, self.rng, self.config.attack.adversary(channel),
            channel=channel, column=column,
        )
        self.transcript.add(
            "quantum_send", channel=channel, sender=sender, receiver=receiver,
            payload_qubits=len(payload), decoy_qubits=self.d,
        )
        return seq, seq.payload[0]

    def _classical(self, sender: str, receiver: str, label: str, payload: Bits) -> None:
        self.transcript.add("classical_send", sender=sender, receiver=receiver, label=label, bits=str(payload))

    def _notice(self, sender: str, receiver: str, label: str) -> None:
        self.transcript.add("notice", sender=sender, receiver=receiver, label=label)

    # -- phase 2: blindness ------------------------------------------------------

    def phase_blind(self) -> None:
        self.xi = self.alice.prepare_state(KETS[2 + np.asarray(self.g)])
        self.transcript.add("xi_prepared", party="alice", qubits=self.n)
        self.phase = "signing"

    # -- phase 3: authorization and signing ---------------------------------------

    def _check(self, seq: TransmittedSequence) -> None:
        """The receiver runs the guard that the channel table names."""
        _, receiver, guard = CHANNELS[seq.channel]
        if guard == "decoy":
            result = check_decoys(seq, self.rng, threshold=self.threshold)
            fields = dict(decoys=result.decoy_count, errors=result.errors, error_rate=result.error_rate)
        else:
            result = semiquantum_return_check(seq, self.rng, threshold=self.threshold)
            fields = dict(
                reflected_count=result.reflected_count, reflected_error_rate=result.reflected_error_rate,
                z_sift_count=result.z_sift_count, z_sift_error_rate=result.z_sift_error_rate,
            )
        self.transcript.add(f"{guard}_check", channel=seq.channel, by=receiver, **fields)

    def _report(self, party: Party, label: str, basis: str, bits: Bits) -> Bits:
        """Publish ``party``'s record and pad it to Trent; return what Trent decrypts.

        A withheld record aborts the run; a forged or tampered M_D is
        swapped for the attacker's ciphertext on the way to Trent.
        """
        self.transcript.add("measurement_record", party=party.name, label=label, basis=basis, bits=str(bits))
        trent_pad, own_pad = self.pads[party.name]
        sent = f"E_{own_pad.label}[{label}]"
        attack = self.config.attack
        if attack.kind == "withhold" and attack.record == label:
            self.transcript.add("withheld", party=party.name, label=sent)
            raise ProtocolError(f"missing:{label}")
        ct = own_pad.encrypt(bits)
        self._classical(party.name, "trent", sent, ct)
        if label == "M_D" and attack.kind in ("forge-md", "tamper-md"):
            forged = attack.kind == "forge-md"
            ct = Bits.random(len(ct), self.rng) if forged else ct.flip(attack.bit_index % len(ct))
            self.transcript.add("message_tampered", label=sent, kind=attack.kind, bits=str(ct))
        return trent_pad.decrypt(ct)

    def phase_sign(self) -> None:
        rng = self.rng

        # Step 1-2: Alice ships the blinded states to David; decoy check.
        self.xi_seq, self.xi = self._dispatch("xi_m", self.xi, 0)
        self._check(self.xi_seq)
        self._notice("david", "bob", "signing-approval-request")

        # Step 3: Bob's SIFT/CTRL return check clears the w1 channel.
        self._check(self.w1_seq)

        # Step 4: Bob authorizes by measuring his particle sequence in Z.
        # Step 5: Trent decrypts and triggers the proxy signature.
        self._notice("bob", "david", "signing-approved")
        m_b, self.carriers = self.bob.measure(self.carriers, 0, Basis.Z, rng)
        self.m_b = self._report(self.bob, "M_B", "Z", Bits._trusted(m_b))
        self._notice("trent", "david", "sign-request")

        # Step 6: David clears w2, Bell-measures each (message, carrier-2) pair.
        # Step 7: Trent decrypts the signature and asks Charlie to measure.
        # Bob's read left particles 2, 3, 4 at columns 0, 1, 2.  The Bell step
        # joins each carrier to its message qubit, whose row may carry a
        # probe; particle c then sits at column shift + c - 2.
        self._check(self.w2_seq)
        shift = num_qubits(self.xi[0])
        bells, joint = self.david.measure_bell(merge(self.xi, self.carriers), 0, shift, rng)
        # Each Bell index gives two bits of M_D, high bit then low bit.
        self.m_d = self._report(self.david, "M_D", "Bell", Bits._trusted(((bells[:, None] >> [1, 0]) & 1).ravel()))
        self._notice("trent", "charlie", "measure-request")

        # Step 8: Charlie clears w4 with the return check and measures in Z.
        # The Bell step dropped the message and particle 2: particle c now
        # sits at column shift + c - 4.
        self._check(self.w4_seq)
        m_c, joint = self.charlie.measure(joint, shift, Basis.Z, rng)
        self.m_c = self._report(self.charlie, "M_C", "Z", Bits._trusted(m_c))

        # Step 9: Trent corrects each particle 3, reads it out in X, and
        # re-encodes the result as Z states for Charlie.
        particle3 = shift - 1
        self.recovered = self.trent.apply_gates(joint, particle3, correction_matrices(self.m_b, self.m_d, self.m_c))
        self.g_prime_trent = Bits._trusted(self.trent.measure(self.recovered, particle3, Basis.X, rng)[0])
        self.transcript.add("recovery_record", party="trent", g_prime=str(self.g_prime_trent))
        self.g_seq, self.g_prime_qubits = self._dispatch("g_prime", self.trent.prepare_z(self.g_prime_trent), 0)
        self.phase = "verifying"

    # -- phase 4: verifying ---------------------------------------------------------

    def phase_verify(self) -> str:
        self._check(self.g_seq)
        g_prime = self.g_prime_trent  # Charlie's Z read of Trent's Z states, when untapped
        if self.g_seq.tapped is not None:
            g_prime = Bits._trusted(self.charlie.measure(self.g_prime_qubits, 0, Basis.Z, self.rng)[0])
        self.g_prime = g_prime
        self.transcript.add("measurement_record", party="charlie", label="g_prime", basis="Z", bits=str(g_prime))
        h_g_prime = keyed_hash(self.config.hash_config, self.hash_secret, g_prime)
        match = h_g_prime == self.h_g
        self.transcript.add(
            "verdict_check", by="charlie", hash_g=str(self.h_g), hash_g_prime=str(h_g_prime), match=match
        )
        verdict = VERDICT_VALID if match else VERDICT_INVALID
        self.transcript.verdict = verdict
        self.phase = "done"
        return verdict

    # -- driver --------------------------------------------------------------------

    def run(self) -> Transcript:
        try:
            self.phase_initialize()
            self.phase_blind()
            self.phase_sign()
            self.phase_verify()
        except EavesdroppingDetected as exc:
            self.transcript.add(
                "abort", phase=self.phase, reason="eavesdropping", channel=exc.channel,
                check=exc.check, error_rate=exc.error_rate, threshold=exc.threshold,
            )
            self.transcript.verdict = "aborted:eavesdropping"
        except KeyEstablishmentError as exc:
            self.transcript.add(
                "abort", phase=self.phase, reason="key-establishment", kind=exc.kind,
                error_rate=exc.error_rate, threshold=exc.threshold,
            )
            self.transcript.verdict = "aborted:key-establishment"
        except ProtocolError as exc:
            self.transcript.add("abort", phase=self.phase, reason=str(exc))
            self.transcript.verdict = f"aborted:{exc}"
        return self.transcript


def run_full(config: RunConfig) -> Transcript:
    """Execute one complete protocol run and return its transcript."""
    return ProtocolRun(config).run()


def replay_difference(config: RunConfig, recorded: Any) -> str | None:
    """Re-run ``config``: None if its canonical bytes equal ``recorded``'s, else where they first differ.

    ``recorded`` is a transcript read back from a file.  A different
    ``meta.version`` is named first, as ``meta.version: 0.8.0 recorded,
    0.9.0 re-executed``, since a file from another release differs for
    that reason.  Otherwise the first difference in canonical (sorted-key)
    order reads, for example, ``meta.n``, ``events[12] measurement_record:
    field bits``, ``events: 29 recorded, 31 re-executed`` or ``verdict``.
    """
    fresh = run_full(config).to_dict()
    if canonical(recorded) == canonical(fresh):
        return None
    meta = recorded.get("meta") if isinstance(recorded, dict) else None
    if isinstance(meta, dict) and meta.get("version") != TOOL_VERSION:
        return f"meta.version: {meta.get('version')} recorded, {TOOL_VERSION} re-executed"
    section = _differing_key(recorded, fresh)
    if section is None:
        return "transcript"
    old, new = recorded.get(section), fresh.get(section)
    if section == "events" and isinstance(old, list):
        for index, (event, fresh_event) in enumerate(zip(old, new)):
            if canonical(event) != canonical(fresh_event):
                key = _differing_key(event, fresh_event)
                return f"events[{index}] {fresh_event['type']}" + ("" if key is None else f": field {key}")
        return f"events: {len(old)} recorded, {len(new)} re-executed"
    key = _differing_key(old, new)
    return section if key is None else f"{section}.{key}"


def _differing_key(old: Any, new: Any) -> str | None:
    """The first key, sorted, whose canonical value differs between two dicts; None unless both are dicts."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return None
    return next(key for key in sorted(old.keys() | new.keys())
                if key not in old or key not in new or canonical(old[key]) != canonical(new[key]))
