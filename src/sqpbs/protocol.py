"""Five-party orchestration of the proxy blind signature protocol.

Participants: Alice owns the message; Bob is the original signer who
delegates signing; David is the proxy signer; Charlie verifies; Trent
is the third party who prepares the entangled carriers and restores the
blinded states.  Alice, David and Trent are fully quantum; Bob and
Charlie are semiquantum (Z-basis preparation/measurement, reflection
and reordering only), which :class:`Party` enforces on every quantum
operation they perform.

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
4. verifying — Charlie Z-measures G', recomputes the keyed hash, and
   declares the signature valid iff it matches Alice's commitment.

Determinism: a run consumes randomness exclusively from one generator
seeded by ``config.seed``, in a fixed order (private inputs if not
supplied, hash secret, key agreement, then per-channel decoy and
measurement draws in protocol order).  Two runs with the same config
are therefore bit-identical, which is the replay contract.
"""

from __future__ import annotations

import json

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
    HashConfig,
    KeyRing,
    OtpKey,
    establish_key_bb84,
    establish_key_sqkd,
    keyed_hash,
    xor_blind,
)
from .registers import (
    Qubit,
    Register,
    apply_to_qubits,
    measure_qubit,
    measure_qubits_bell,
    new_qubit,
    new_z_qubit,
    qubit_fidelity_to,
)
from .statevec import (
    Basis,
    BellState,
    Rng,
    ket_minus,
    ket_plus,
    new_rng,
)
from .teleport import TeleportOutcomes, correction_for, prepare_chi
from .transcript import RunConfig, TOOL_VERSION, Transcript

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

    def measure_qubit(self, qubit: Qubit, basis: Basis, rng: Rng) -> int:
        if basis is not Basis.Z:
            self._require_quantum(f"a {basis.value}-basis measurement")
        return measure_qubit(qubit, basis, rng)

    def measure_bell(self, qubit_a: Qubit, qubit_b: Qubit, rng: Rng) -> BellState:
        self._require_quantum("a Bell-basis measurement")
        return measure_qubits_bell(qubit_a, qubit_b, rng)

    def prepare_z(self, bit: int) -> Qubit:
        return new_z_qubit(bit)

    def prepare_state(self, state: np.ndarray) -> Qubit:
        self._require_quantum("arbitrary state preparation")
        return new_qubit(state)

    def apply_gate(self, qubit: Qubit, matrix: np.ndarray) -> None:
        self._require_quantum("a unitary operation")
        apply_to_qubits([qubit], matrix)


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
        self.hash_config = HashConfig(config.hash_bits, config.hash_algorithm)
        self.alice = Party("alice", quantum=True)
        self.bob = Party("bob", quantum=False)
        self.charlie = Party("charlie", quantum=False)
        self.david = Party("david", quantum=True)
        self.trent = Party("trent", quantum=True)
        self.transcript = Transcript(
            meta={
                "format": "sqpbs-run",
                "version": TOOL_VERSION,
                "n": config.n,
                "seed": config.seed,
                "decoy_count": self.d,
                "error_threshold": config.error_threshold,
                "hash": {"algorithm": config.hash_algorithm, "output_bits": config.hash_bits},
                "key_mode": config.key_mode,
                "attack": config.attack.to_json_dict(),
            }
        )
        self.phase = "initializing"

    # -- phase 1: initializing -------------------------------------------------

    def phase_initialize(self) -> None:
        cfg = self.config
        rng = self.rng
        n = self.n
        self.g_a = cfg.g_a if cfg.g_a is not None else Bits.random(n, rng)
        self.k_a = cfg.k_a if cfg.k_a is not None else Bits.random(n, rng)
        hash_secret = Bits.random(HASH_SECRET_BITS, rng)

        k_dt, k_bt, k_ct = (
            self._establish(kind, channel, bits, parties)
            for kind, channel, bits, parties in (
                ("bb84", "bb84_dt", 2 * n, ("trent", "david")),
                ("sqkd", "sqkd_bt", n, ("trent", "bob")),
                ("sqkd", "sqkd_ct", n, ("trent", "charlie")),
            )
        )
        self.keys = KeyRing(n=n, k_a=self.k_a, k_bt=k_bt, k_ct=k_ct, k_dt=k_dt, hash_secret=hash_secret)
        self.otp_bt = OtpKey(k_bt, "K_BT")
        self.otp_ct = OtpKey(k_ct, "K_CT")
        self.otp_dt = OtpKey(k_dt, "K_DT")

        # Particles 1..4 of each carrier; the handles stay valid when the
        # register later absorbs the message qubit at the Bell measurement.
        self.chi = [tuple(Register(prepare_chi()).qubits) for _ in range(n)]
        self.transcript.add("chi_prepared", party="trent", instances=n, qubits=4 * n)
        self.transcript.count("chi_qubits", 4 * n)

        self.w1_seq = self._dispatch("w1", [p1 for p1, _, _, _ in self.chi], "trent", "bob")
        self.w2_seq = self._dispatch("w2", [p2 for _, p2, _, _ in self.chi], "trent", "david")
        self.w4_seq = self._dispatch("w4", [p4 for _, _, _, p4 in self.chi], "trent", "charlie")

        self.g = xor_blind(self.g_a, self.k_a)
        self.h_g = keyed_hash(self.hash_config, hash_secret, self.g)
        self._classical("alice", "charlie", "H(g)", self.h_g, counted=True)
        self.phase = "blindness"

    def _establish(self, kind: str, channel: str, bits: int, parties: tuple[str, str]) -> Bits:
        """One key agreement, simulated or, in stubbed mode, drawn as a pre-shared key."""
        if self.config.key_mode == "stubbed":
            key = Bits.random(bits, self.rng)
            self.transcript.add(
                "key_established", kind="preshared", simulates=kind,
                parties=list(parties), bits=bits, error_rate=0.0,
            )
        else:
            establish = establish_key_bb84 if kind == "bb84" else establish_key_sqkd
            result = establish(
                bits, self.rng, self.config.attack.adversary(channel), error_threshold=self.threshold
            )
            key = result.sender_key
            self.transcript.add(
                "key_established", kind=kind, parties=list(parties), bits=bits,
                error_rate=result.error_rate, raw_qubits=result.raw_count,
            )
            self.transcript.count(f"{kind}_raw_qubits", result.raw_count)
        self.transcript.count(f"{kind}_key_bits", bits)
        return key

    def _dispatch(self, channel: str, payload: list[Qubit], sender: str, receiver: str) -> TransmittedSequence:
        seq = send_with_decoys(
            payload, self.d, self.rng, self.config.attack.adversary(channel), channel=channel
        )
        self.transcript.add(
            "quantum_send", channel=channel, sender=sender, receiver=receiver,
            payload_qubits=len(payload), decoy_qubits=seq.decoy_count,
        )
        return seq

    def _classical(self, sender: str, receiver: str, label: str, payload: Bits, *, counted: bool) -> None:
        self.transcript.add(
            "classical_send", sender=sender, receiver=receiver, label=label,
            bits=payload, counted=counted,
        )
        self.transcript.count("classical_bits_counted" if counted else "classical_bits_overhead", len(payload))

    def _notice(self, sender: str, receiver: str, label: str) -> None:
        self.transcript.add("notice", sender=sender, receiver=receiver, label=label)

    # -- phase 2: blindness ------------------------------------------------------

    def phase_blind(self) -> None:
        self.xi_qubits = [
            self.alice.prepare_state(ket_plus() if bit == 0 else ket_minus()) for bit in self.g
        ]
        self.transcript.add("xi_prepared", party="alice", qubits=self.n)
        self.transcript.count("xi_qubits", self.n)
        self.phase = "signing"

    # -- phase 3: authorization and signing ---------------------------------------

    def _decoy_check(self, seq: TransmittedSequence, by: Party) -> None:
        result = check_decoys(seq, self.rng, threshold=self.threshold, measure=by.measure_qubit)
        self.transcript.add(
            "decoy_check", channel=seq.channel, by=by.name, decoys=result.decoy_count,
            errors=result.errors, error_rate=result.error_rate, passed=result.passed,
        )

    def _return_check(self, seq: TransmittedSequence, by: Party) -> None:
        result = semiquantum_return_check(
            seq, self.rng, threshold=self.threshold,
            z_measure=lambda q, r: by.measure_qubit(q, Basis.Z, r),
        )
        self.transcript.add(
            "return_check", channel=seq.channel, by=by.name,
            reflected_count=result.reflected_count,
            reflected_error_rate=result.reflected_error_rate,
            z_sift_count=result.z_sift_count,
            z_sift_error_rate=result.z_sift_error_rate,
            passed=result.passed,
        )

    def phase_sign(self) -> None:
        rng = self.rng
        n = self.n
        attack = self.config.attack

        # Step 1-2: Alice ships the blinded states to David; decoy check.
        self.xi_seq = self._dispatch("xi_m", self.xi_qubits, "alice", "david")
        self._decoy_check(self.xi_seq, self.david)
        self._notice("david", "bob", "signing-approval-request")

        # Step 3: Bob's SIFT/CTRL return check clears the w1 channel.
        self._return_check(self.w1_seq, self.bob)

        # Step 4: Bob authorizes by measuring his particle sequence in Z.
        self._notice("bob", "david", "signing-approved")
        m_b = Bits(self.bob.measure_qubit(q, Basis.Z, rng) for q in self.w1_seq.payload())
        self.transcript.add("measurement_record", party="bob", label="M_B", basis="Z", bits=m_b)
        if attack.kind == "withhold" and attack.record == "M_B":
            self.transcript.add("withheld", party="bob", label="E_KBT[M_B]")
            raise ProtocolError("missing:M_B")
        ct_b = self.otp_bt.encrypt(m_b)
        self._classical("bob", "trent", "E_KBT[M_B]", ct_b, counted=True)

        # Step 5: Trent decrypts and triggers the proxy signature.
        self.m_b = self.otp_bt.decrypt(ct_b)
        self._notice("trent", "david", "sign-request")

        # Step 6: David clears w2, Bell-measures each (message, carrier-2) pair.
        self._decoy_check(self.w2_seq, self.david)
        w2_payload = self.w2_seq.payload()
        xi_payload = self.xi_seq.payload()
        m_d_bits: list[int] = []
        for xi_q, w2_q in zip(xi_payload, w2_payload):
            outcome = self.david.measure_bell(xi_q, w2_q, rng)
            m_d_bits.extend(outcome.bits)
        m_d = Bits(m_d_bits)
        self.transcript.add("measurement_record", party="david", label="M_D", basis="Bell", bits=m_d)
        self.transcript.count("signature_bits", 2 * n)
        if attack.kind == "withhold" and attack.record == "M_D":
            self.transcript.add("withheld", party="david", label="E_KDT[M_D]")
            raise ProtocolError("missing:M_D")
        ct_d = self.otp_dt.encrypt(m_d)
        self._classical("david", "trent", "E_KDT[M_D]", ct_d, counted=True)
        received_ct_d = ct_d
        if attack.kind == "forge-md":
            received_ct_d = Bits.random(2 * n, rng)
            self.transcript.add("message_tampered", label="E_KDT[M_D]", kind="forge-md", bits=received_ct_d)
        elif attack.kind == "tamper-md":
            received_ct_d = ct_d.flip(attack.bit_index % (2 * n))
            self.transcript.add("message_tampered", label="E_KDT[M_D]", kind="tamper-md", bits=received_ct_d)

        # Step 7: Trent decrypts the signature and asks Charlie to measure.
        self.m_d = self.otp_dt.decrypt(received_ct_d)
        self._notice("trent", "charlie", "measure-request")

        # Step 8: Charlie clears w4 with the return check and measures in Z.
        self._return_check(self.w4_seq, self.charlie)
        m_c = Bits(self.charlie.measure_qubit(q, Basis.Z, rng) for q in self.w4_seq.payload())
        self.transcript.add("measurement_record", party="charlie", label="M_C", basis="Z", bits=m_c)
        if attack.kind == "withhold" and attack.record == "M_C":
            self.transcript.add("withheld", party="charlie", label="E_KCT[M_C]")
            raise ProtocolError("missing:M_C")
        ct_c = self.otp_ct.encrypt(m_c)
        self._classical("charlie", "trent", "E_KCT[M_C]", ct_c, counted=True)
        self.m_c = self.otp_ct.decrypt(ct_c)

        # Step 9: Trent corrects each particle 3, reads it out in X, and
        # re-encodes the result as Z states for Charlie.
        pairs = self.m_d.pairs()
        g_prime_bits: list[int] = []
        fidelities: list[float] = []
        for i, (_, _, particle3, _) in enumerate(self.chi):
            outcomes = TeleportOutcomes(
                z1=self.m_b[i], bell_m2=BellState.from_bits(*pairs[i]), z4=self.m_c[i]
            )
            self.trent.apply_gate(particle3, correction_for(outcomes).matrix)
            expected = ket_plus() if self.g[i] == 0 else ket_minus()
            fidelities.append(qubit_fidelity_to(particle3, expected))
            g_prime_bits.append(self.trent.measure_qubit(particle3, Basis.X, rng))
        self.g_prime_trent = Bits(g_prime_bits)
        self.transcript.add(
            "recovery_record", party="trent", g_prime=self.g_prime_trent, fidelities=fidelities
        )
        g_prime_qubits = [self.trent.prepare_z(bit) for bit in self.g_prime_trent]
        self.transcript.count("g_prime_qubits", n)
        self.g_seq = self._dispatch("g_prime", g_prime_qubits, "trent", "charlie")
        self.phase = "verifying"

    # -- phase 4: verifying ---------------------------------------------------------

    def phase_verify(self) -> str:
        self._return_check(self.g_seq, self.charlie)
        g_prime = Bits(
            self.charlie.measure_qubit(q, Basis.Z, self.rng) for q in self.g_seq.payload()
        )
        self.g_prime = g_prime
        self.transcript.add("measurement_record", party="charlie", label="g_prime", basis="Z", bits=g_prime)
        h_g_prime = keyed_hash(self.hash_config, self.keys.hash_secret, g_prime)
        match = h_g_prime == self.h_g
        self.transcript.add(
            "verdict_check", by="charlie", hash_g=self.h_g, hash_g_prime=h_g_prime, match=match
        )
        verdict = VERDICT_VALID if match else VERDICT_INVALID
        self.transcript.set_verdict(verdict)
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
            self.transcript.set_verdict("aborted:eavesdropping")
        except KeyEstablishmentError as exc:
            self.transcript.add(
                "abort", phase=self.phase, reason="key-establishment", kind=exc.kind,
                error_rate=exc.error_rate, threshold=exc.threshold,
            )
            self.transcript.set_verdict("aborted:key-establishment")
        except ProtocolError as exc:
            self.transcript.add("abort", phase=self.phase, reason=str(exc))
            self.transcript.set_verdict(f"aborted:{exc}")
        return self.transcript


def run_full(config: RunConfig) -> Transcript:
    """Execute one complete protocol run and return its transcript."""
    return ProtocolRun(config).run()


def replay_matches(config: RunConfig, transcript_dict: dict) -> bool:
    """Re-run ``config`` and compare against a previously recorded transcript."""
    fresh = run_full(config)
    return json.dumps(fresh.to_dict(), sort_keys=True) == json.dumps(transcript_dict, sort_keys=True)
