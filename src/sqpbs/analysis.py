"""Efficiency accounting, comparison reporting, and experiment drivers.

Qubit efficiency is the signature length divided by everything consumed:

    eta = q_s / (q_t + q_c)

computed in exact rational arithmetic.  For this protocol q_s = 2n (the
proxy's n Bell outcomes), q_t = 30n (4n carrier qubits, n message
qubits, n re-encoded qubits, 8n for the 2n-bit BB84 key at 4 qubits per
key bit, and 8n for each of the two n-bit semiquantum keys at 8 qubits
per key bit), and q_c = l + 4n classical bits (the l-bit hash
commitment plus the three encrypted records of n, 2n and n bits).
Qubits and classical bits spent on eavesdropping detection are excluded
by convention.  ``instrumented_accounting`` reads the same terms back
from a run's published events, which state each count once.

The experiment drivers are thin Monte Carlo harnesses over the channel
and protocol layers; every one derives per-trial seeds from a single
master seed, so results are reproducible from (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction

import numpy as np

from .bits import Bits
from .channels import check_decoys, semiquantum_return_check, send_with_decoys
from .errors import ConfigError, EavesdroppingDetected
from .protocol import run_full
from .statevec import KETS, new_rng
from .teleport import MessageQubit, all_outcomes, correction_matrices, forced_branches_particle3
from .transcript import CHANNELS, KEY_GUARDS, QUANTUM_ATTACKS, AttackSpec, RunConfig, Transcript

# Per-key-bit qubit overheads used by the accounting convention: a BB84
# key costs 4 transmitted qubits per sifted bit, a semiquantum key 8.
BB84_QUBITS_PER_KEY_BIT = 4
SQKD_QUBITS_PER_KEY_BIT = 8

THIS_PROTOCOL = "chi-teleport proxy blind signature (this package)"
WSTATE_REFERENCE = "W-state bi-signature (published reference design)"
GHZ5_REFERENCE = "five-particle GHZ blind signature (published reference design)"

DETECTION_SCOPES = ("channel", "full")
FORGERY_MODELS = ("outside-random-md", "honest-control")


@dataclass(frozen=True)
class EfficiencyReport:
    """Exact qubit-efficiency accounting for one parameter point."""

    protocol: str
    n: int
    hash_bits: int
    signature_bits: int          # q_s
    consumed_qubits: int         # q_t
    classical_bits: int          # q_c
    eta: Fraction
    components: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        eta = self.eta
        return {
            **asdict(self),
            "eta": {"numerator": eta.numerator, "denominator": eta.denominator, "decimal": float(eta)},
        }


def qubit_efficiency(n: int, hash_bits: int) -> EfficiencyReport:
    """eta = 2n / (34n + l), assembled term by term and kept rational."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if hash_bits < 1:
        raise ConfigError(f"hash_bits must be >= 1, got {hash_bits}")
    components = {
        "carrier_qubits": 4 * n,
        "message_qubits": n,
        "re_encoded_qubits": n,
        "bb84_qubits": BB84_QUBITS_PER_KEY_BIT * 2 * n,
        "sqkd_qubits": SQKD_QUBITS_PER_KEY_BIT * n * 2,
        "hash_commitment_bits": hash_bits,
        "encrypted_record_bits": 4 * n,
    }
    q_s = 2 * n
    q_t = (
        components["carrier_qubits"]
        + components["message_qubits"]
        + components["re_encoded_qubits"]
        + components["bb84_qubits"]
        + components["sqkd_qubits"]
    )
    q_c = components["hash_commitment_bits"] + components["encrypted_record_bits"]
    return EfficiencyReport(
        protocol=THIS_PROTOCOL,
        n=n,
        hash_bits=hash_bits,
        signature_bits=q_s,
        consumed_qubits=q_t,
        classical_bits=q_c,
        eta=Fraction(q_s, q_t + q_c),
        components=components,
    )


def instrumented_accounting(transcript: Transcript) -> dict:
    """Re-derive (q_s, q_t, q_c) from the events of a real run's transcript.

    Protocol qubits are read from the preparation and send events;
    key-agreement qubits are charged at the per-key-bit overheads of the
    convention, a pre-shared key as the kind it simulates (the simulator's
    actual raw counts are reported alongside but are stochastic).  An
    aborted run counts what it published before the abort.
    """
    events = transcript.events_of
    key_bits = {"bb84": 0, "sqkd": 0}
    raw_qubits = {"bb84": 0, "sqkd": 0}
    for key in events("key_established"):
        key_bits[key.get("simulates", key["kind"])] += key["bits"]
        if "raw_qubits" in key:
            raw_qubits[key["kind"]] += key["raw_qubits"]
    q_t = (
        sum(e["qubits"] for e in events("chi_prepared") + events("xi_prepared"))
        + sum(e["payload_qubits"] for e in events("quantum_send") if e["channel"] == "g_prime")
        + BB84_QUBITS_PER_KEY_BIT * key_bits["bb84"]
        + SQKD_QUBITS_PER_KEY_BIT * key_bits["sqkd"]
    )
    return {
        "signature_bits": sum(len(e["bits"]) for e in events("measurement_record") if e["label"] == "M_D"),
        "consumed_qubits": q_t,
        "classical_bits": sum(len(e["bits"]) for e in events("classical_send")),
        "simulated_raw_qubits": raw_qubits,
    }


@dataclass(frozen=True)
class ComparisonRow:
    protocol: str
    quantum_resource: str
    semiquantum_parties: str
    message_owners: int
    proxy_signers: int
    eavesdropping_check: bool
    quantum_party_measurements: str
    semiquantum_party_measurements: str
    preshared_keys: bool
    uses_teleportation: bool
    uses_unitaries: bool
    eta: Fraction | None            # cited constant, or None when parametric
    eta_formula: str

    def to_json_dict(self) -> dict:
        out = asdict(self)
        eta = out.pop("eta")
        if eta is not None:
            out["eta"] = {"numerator": eta.numerator, "denominator": eta.denominator}
        return out


def comparison_table(n: int | None = None, hash_bits: int | None = None) -> list[ComparisonRow]:
    """This protocol against the two published semiquantum signature designs.

    The reference efficiencies 2/31 and 1/29 are cited constants; those
    protocols are not simulated here.  When (n, hash_bits) are given,
    this protocol's row carries its concrete efficiency too.
    """
    ours_eta = qubit_efficiency(n, hash_bits).eta if n is not None and hash_bits is not None else None
    return [
        ComparisonRow(
            protocol=WSTATE_REFERENCE,
            quantum_resource="W states and single-particle states",
            semiquantum_parties="signature verifier",
            message_owners=2,
            proxy_signers=0,
            eavesdropping_check=False,
            quantum_party_measurements="three-particle entangled-state and Z-basis measurements",
            semiquantum_party_measurements="Z-basis measurements",
            preshared_keys=True,
            uses_teleportation=True,
            uses_unitaries=True,
            eta=Fraction(2, 31),
            eta_formula="2/31",
        ),
        ComparisonRow(
            protocol=GHZ5_REFERENCE,
            quantum_resource="five-particle GHZ states and single-particle states",
            semiquantum_parties="signature verifier",
            message_owners=1,
            proxy_signers=0,
            eavesdropping_check=True,
            quantum_party_measurements="Z-basis measurements",
            semiquantum_party_measurements="Z-basis measurements",
            preshared_keys=True,
            uses_teleportation=False,
            uses_unitaries=True,
            eta=Fraction(1, 29),
            eta_formula="1/29",
        ),
        ComparisonRow(
            protocol=THIS_PROTOCOL,
            quantum_resource="four-particle chi states and single-particle states",
            semiquantum_parties="original signer and signature verifier",
            message_owners=1,
            proxy_signers=1,
            eavesdropping_check=True,
            quantum_party_measurements="Bell-basis and Z-basis measurements",
            semiquantum_party_measurements="Z-basis measurements",
            preshared_keys=True,
            uses_teleportation=True,
            uses_unitaries=True,
            eta=ours_eta,
            eta_formula="2n/(34n+l)",
        ),
    ]


def exceeds_ghz_reference(n: int, hash_bits: int) -> bool:
    """True iff this protocol beats the GHZ design's 1/29 (i.e. l < 24n)."""
    return qubit_efficiency(n, hash_bits).eta > Fraction(1, 29)


@dataclass
class ExperimentResult:
    """Monte Carlo outcome with a 3-sigma normal-approximation interval."""

    kind: str
    trials: int
    successes: int
    config: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def stderr(self) -> float:
        if not self.trials:
            return 0.0
        p = self.rate
        return math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def interval3(self) -> tuple[float, float]:
        return (max(0.0, self.rate - 3 * self.stderr), min(1.0, self.rate + 3 * self.stderr))

    def to_json_dict(self) -> dict:
        return {**asdict(self), "rate": self.rate, "stderr": self.stderr, "interval3": list(self.interval3)}


# Most trials one experiment or audit may run; acceptance criterion 7 runs 10 000.
MAX_TRIALS = 1_000_000


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ConfigError(f"trials must be <= {MAX_TRIALS}, got {trials}")


def _trial_seeds(seed: int, trials: int) -> list[int]:
    master = new_rng(seed)
    return [int(s) for s in master.integers(0, 2**63, size=trials)]


def experiment_detection(
    attack: AttackSpec,
    *,
    trials: int,
    seed: int,
    n: int = 1,
    decoy_count: int = 20,
    threshold: float = 0.0,
    scope: str = "channel",
) -> ExperimentResult:
    """Fraction of runs aborted under an attack.

    ``scope="channel"`` replays just the attacked transfer and the guard
    its receiver runs (decoy or return check; not for key channels);
    ``scope="full"`` runs the entire protocol and counts eavesdropping
    and key-agreement aborts.  On a payload channel at threshold 0, in
    either scope, only the tapped channel's guard can abort, and each of
    its d decoys is caught with probability q from the attacker's exact
    per-state disturbances e (``expected_error_rates`` of
    ``InterceptResend`` or ``EveParams``): q = mean(e) under a decoy
    check, which reads each decoy in its preparation basis, and q =
    (e0 + e1)/4 + (e+ + e-)/8 under a return check, which reads a Z decoy
    on CTRL and on SIFT and an X decoy on CTRL only, each half the time.
    Detection is then 1 - (1 - q)^d, reported as the detail
    ``expected_intercept_resend`` or ``expected_entangle_measure``.  An
    attack kind that taps no channel is a ConfigError; ``none`` is the
    false-alarm control.
    """
    _require_trials(trials)
    if scope not in DETECTION_SCOPES:
        raise ValueError(f"scope must be one of {DETECTION_SCOPES}, got {scope!r}")
    if attack.kind not in ("none", *QUANTUM_ATTACKS):
        raise ConfigError(f"attack {attack.kind!r} taps no channel, so no check can detect it")
    base = RunConfig(n=n, seed=seed, decoy_count=decoy_count, error_threshold=threshold, attack=attack)
    base.validate()
    _, _, guard = CHANNELS[attack.channel]
    detections = 0
    if scope == "channel":
        if guard in KEY_GUARDS:
            raise ConfigError(f"channel scope cannot replay key channel {attack.channel!r}; use full scope")
        check = check_decoys if guard == "decoy" else semiquantum_return_check
        master = new_rng(seed)
        for _ in range(trials):
            adversary = attack.adversary(attack.channel)
            payload = np.tile(KETS[2], (n, 1))
            seq = send_with_decoys([payload], decoy_count, master, adversary, channel=attack.channel)
            try:
                check(seq, master, threshold=threshold)
            except EavesdroppingDetected:
                detections += 1
    else:
        for trial_seed in _trial_seeds(seed, trials):
            transcript = run_full(replace(base, seed=trial_seed))
            detections += transcript.verdict in ("aborted:eavesdropping", "aborted:key-establishment")
    detail = {}
    if attack.kind != "none" and guard not in KEY_GUARDS and threshold == 0:
        attacker = attack.eve if attack.kind == "entangle-measure" else attack.adversary(attack.channel)
        e = attacker.expected_error_rates()
        q = sum(e.values()) / 4 if guard == "decoy" else (e["0"] + e["1"]) / 4 + (e["+"] + e["-"]) / 8
        detail[f"expected_{attack.kind.replace('-', '_')}"] = 1.0 - (1.0 - q) ** decoy_count
    return ExperimentResult(
        kind="detection",
        trials=trials,
        successes=detections,
        config={
            "attack": attack.to_json_dict(), "n": n, "decoy_count": decoy_count,
            "threshold": threshold, "seed": seed, "scope": scope,
        },
        detail=detail,
    )


def forgery_instance_probability(g_bit: int) -> float:
    """Exact per-instance acceptance probability under a random Bell record.

    Brute-force enumeration: for every true measurement branch (forced
    by projection, probability from first principles) and every
    substituted Bell value, apply the arbiter's correction for the
    substituted value to the true collapsed state and accumulate the
    Born probability that the X-basis readout still reproduces the
    blind bit.
    """
    if g_bit not in (0, 1):
        raise ValueError(f"g_bit must be 0 or 1, got {g_bit}")
    m = MessageQubit.plus() if g_bit == 0 else MessageQubit.minus()
    prob, collapsed3 = forced_branches_particle3(m)
    outcomes = all_outcomes()
    # Row (branch, substituted): the branch's Z outcomes with each Bell value in turn.
    z1 = np.repeat([o.z1 for o in outcomes], 4)
    z4 = np.repeat([o.z4 for o in outcomes], 4)
    substituted = np.tile([(s >> 1, s & 1) for s in range(4)], (len(outcomes), 1))
    final = correction_matrices(z1, substituted, z4) @ np.repeat(collapsed3, 4, axis=0)[:, :, None]
    p_match = np.abs(final[:, :, 0] @ m.state().conj()) ** 2
    return float(sum((np.repeat(prob, 4) * 0.25 * p_match).tolist()))


def forgery_oracle_rate(n: int) -> float:
    """Predicted acceptance rate of a random-M_D forgery for a random message."""
    p = 0.5 * (forgery_instance_probability(0) + forgery_instance_probability(1))
    return p**n


def experiment_forgery(
    *,
    n: int,
    trials: int,
    seed: int,
    model: str = "outside-random-md",
    key_mode: str = "stubbed",
) -> ExperimentResult:
    """Fraction of forged runs that still verify as valid.

    ``outside-random-md`` replaces the proxy's encrypted Bell record in
    transit with uniform random bits (an outsider without the pad key
    can do no better); ``honest-control`` leaves the run untouched and
    must accept every time.
    """
    _require_trials(trials)
    if model not in FORGERY_MODELS:
        raise ValueError(f"unknown forgery model {model!r}")
    attack = AttackSpec(kind="forge-md") if model == "outside-random-md" else AttackSpec()
    accepted = 0
    for trial_seed in _trial_seeds(seed, trials):
        config = RunConfig(n=n, seed=trial_seed, attack=attack, key_mode=key_mode)
        transcript = run_full(config)
        accepted += transcript.verdict == "valid"
    oracle = forgery_oracle_rate(n) if model == "outside-random-md" else 1.0
    return ExperimentResult(
        kind="forgery",
        trials=trials,
        successes=accepted,
        config={"n": n, "seed": seed, "model": model, "key_mode": key_mode},
        detail={"oracle_rate": oracle},
    )


def experiment_blindness(
    *,
    n: int,
    trials: int,
    seed: int,
    key_mode: str = "simulated",
) -> ExperimentResult:
    """Count transcript differences under paired (message, key) flips.

    For random (g_a, k_a, delta, run-seed), the runs on (g_a, k_a) and
    (g_a xor delta, k_a xor delta) share the same blind message, so
    their public transcripts must serialize identically; any difference
    counts as a violation (the expected count is zero).
    """
    _require_trials(trials)
    master = new_rng(seed)
    violations = 0
    for _ in range(trials):
        run_seed = int(master.integers(0, 2**63))
        g_a = Bits.random(n, master)
        k_a = Bits.random(n, master)
        delta = Bits.random(n, master)
        base = run_full(RunConfig(n=n, seed=run_seed, g_a=g_a, k_a=k_a, key_mode=key_mode))
        flipped = run_full(
            RunConfig(n=n, seed=run_seed, g_a=g_a ^ delta, k_a=k_a ^ delta, key_mode=key_mode)
        )
        violations += base.canonical_json() != flipped.canonical_json()
    return ExperimentResult(
        kind="blindness",
        trials=trials,
        successes=violations,
        config={"n": n, "seed": seed, "key_mode": key_mode},
        detail={"meaning": "successes counts violations; must be 0"},
    )

