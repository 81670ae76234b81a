"""The four benchmark workloads.

Each workload turns the run seed into an endless, deterministic sequence
of trial inputs (trial ``i`` depends only on the seed and ``i``), times
one unit of work per trial, and checks every output.  Interface:

* ``input(i)`` — the input of trial ``i``; built outside the timed region;
* ``trial(inp)`` — the timed work; returns the output;
* ``check(out)`` — per-trial correctness, counted in ``passed_frac``;
* ``record(out)`` — the bytes of the output that enter the run digest;
* ``tally(out)`` — 0 or 1, summed over the checked prefix for ``run_check``;
* ``run_check(hits, trials)`` — the run-level check on that prefix.

``min_trials`` is the length of the checked prefix: the digest and the
run-level check cover exactly the first ``min_trials`` trials, so both
repeat for a fixed seed whatever the run length.  Oracles are computed
in ``__init__`` (set-up), never inside a timed trial.

Workloads call the package through module attributes (``teleport.x``,
not ``from teleport import x``) so that the tracer's wrappers see the
calls made from here too.
"""

from __future__ import annotations

import math

import numpy as np

from sqpbs import adversary, channels, registers, statevec, teleport
from sqpbs.analysis import forgery_oracle_rate
from sqpbs.errors import EavesdroppingDetected
from sqpbs.protocol import ProtocolRun
from sqpbs.transcript import AttackSpec, RunConfig

# Trial index of the untimed warm-up trial; outside any realistic run.
WARMUP_INDEX = 2**40


def trial_seed(seed: int, index: int) -> int:
    """A 63-bit seed for trial ``index`` of run ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def within_3_sigma(hits: int, trials: int, rate: float) -> tuple[bool, str]:
    """Binomial count ``hits`` out of ``trials`` against an exact ``rate``."""
    expected = trials * rate
    sigma = math.sqrt(trials * rate * (1.0 - rate))
    ok = bool(abs(hits - expected) <= 3.0 * sigma)
    return ok, f"{hits}/{trials} vs oracle {expected:.2f} +- {3.0 * sigma:.2f} (3 sigma)"


class _Workload:
    """Defaults for a workload whose trials are all checked individually."""

    @staticmethod
    def tally(out) -> int:
        return 0

    @staticmethod
    def run_check(hits: int, trials: int) -> tuple[bool, str]:
        return True, "no run-level check (every trial is checked)"


class _ProtocolWorkload(_Workload):
    """One full ``ProtocolRun`` per trial, ending with ``canonical_json()``."""

    n: int
    key_mode: str
    attack = AttackSpec()

    def __init__(self, seed: int):
        self.seed = seed

    def input(self, index: int) -> RunConfig:
        return RunConfig(
            n=self.n, seed=trial_seed(self.seed, index), key_mode=self.key_mode, attack=self.attack
        )

    @staticmethod
    def trial(config: RunConfig) -> tuple[ProtocolRun, str]:
        run = ProtocolRun(config)
        transcript = run.run()
        return run, transcript.canonical_json()

    @staticmethod
    def record(out: tuple[ProtocolRun, str]) -> bytes:
        return out[1].encode()


class HonestN64Sim(_ProtocolWorkload):
    """Honest run at n=64 with simulated BB84 and semiquantum key agreement."""

    name = "honest-n64-sim"
    n = 64
    key_mode = "simulated"
    min_trials = 100

    @staticmethod
    def check(out: tuple[ProtocolRun, str]) -> bool:
        run, _ = out
        return run.transcript.verdict == "valid" and run.g_prime == run.g


class ForgeN8Stubbed(_ProtocolWorkload):
    """Random-M_D forgery at n=8 with pre-shared (stubbed) keys."""

    name = "forge-n8-stubbed"
    n = 8
    key_mode = "stubbed"
    attack = AttackSpec("forge-md")
    min_trials = 1500

    def __init__(self, seed: int):
        super().__init__(seed)
        # forgery_oracle_rate re-enumerates all branches on every call.
        self.oracle = float(forgery_oracle_rate(self.n))

    @staticmethod
    def check(out: tuple[ProtocolRun, str]) -> bool:
        run, _ = out
        verdict = run.transcript.verdict
        if verdict not in ("valid", "invalid"):
            return False
        return (verdict == "valid") == (run.g_prime == run.g)

    @staticmethod
    def tally(out: tuple[ProtocolRun, str]) -> int:
        return int(out[0].transcript.verdict == "valid")

    def run_check(self, hits: int, trials: int) -> tuple[bool, str]:
        ok, text = within_3_sigma(hits, trials, self.oracle)
        return ok, f"accepted forgeries {text}"


# Detectable entangle-measure coupling with a two-qubit probe: it never
# flips Z-basis decoys and flips X-basis decoys with probability 0.152.
DETECT_COUPLING = dict(
    alpha_00=1.0, alpha_01=0.0, alpha_10=0.0, alpha_11=1.0,
    eps_00=(1.0, 0.0, 0.0, 0.0),
    eps_01=(1.0, 0.0, 0.0, 0.0),
    eps_10=(1.0, 0.0, 0.0, 0.0),
    eps_11=(math.cos(0.8), 0.0, 0.0, math.sin(0.8)),
)
DETECT_DECOYS = 20


class DetectEmD20(_Workload):
    """Channel-scope detection trial: one |+> payload, 20 decoys, fresh attacker."""

    name = "detect-em-d20"
    min_trials = 2000

    def __init__(self, seed: int, eve: "adversary.EveParams | None" = None):
        self.seed = seed
        own = adversary.EveParams(**DETECT_COUPLING)
        # Trials use ``eve`` when given, but are always judged against
        # the oracle of the workload's own coupling.
        self.eve = own if eve is None else eve
        rates = own.expected_error_rates()
        mean_error = sum(rates.values()) / len(rates)
        self.oracle = 1.0 - (1.0 - mean_error) ** DETECT_DECOYS

    def input(self, index: int) -> "np.random.Generator":
        return statevec.new_rng(trial_seed(self.seed, index))

    def trial(self, rng: "np.random.Generator") -> tuple[bool, float]:
        attacker = adversary.EntangleMeasure(self.eve)
        payload = [registers.new_qubit(statevec.ket_plus())]
        seq = channels.send_with_decoys(payload, DETECT_DECOYS, rng, attacker, channel="xi_m")
        try:
            result = channels.check_decoys(seq, rng, threshold=0.0)
        except EavesdroppingDetected as exc:
            return True, exc.error_rate
        return False, result.error_rate

    @staticmethod
    def check(out: tuple[bool, float]) -> bool:
        detected, error_rate = out
        return 0.0 <= error_rate <= 1.0 and detected == (error_rate > 0.0)

    @staticmethod
    def record(out: tuple[bool, float]) -> bytes:
        return f"{int(out[0])}:{out[1]!r};".encode()

    @staticmethod
    def tally(out: tuple[bool, float]) -> int:
        return int(out[0])

    def run_check(self, hits: int, trials: int) -> tuple[bool, str]:
        ok, text = within_3_sigma(hits, trials, self.oracle)
        return ok, f"detections {text}"


class AuditCorrections(_Workload):
    """Projection audit of the 16-entry correction table on one random message."""

    name = "audit-corrections"
    min_trials = 1000

    def __init__(self, seed: int, check_table: dict | None = None):
        self.seed = seed
        self.check_table = check_table

    def input(self, index: int) -> "teleport.MessageQubit":
        return teleport.MessageQubit.random(statevec.new_rng(trial_seed(self.seed, index)))

    def trial(self, message: "teleport.MessageQubit") -> "teleport.TableAuditReport":
        return teleport.verify_correction_table(message, check_table=self.check_table)

    @staticmethod
    def check(report: "teleport.TableAuditReport") -> bool:
        return report.all_pass()

    @staticmethod
    def record(report: "teleport.TableAuditReport") -> bytes:
        """Pass flag, message and each branch's findings, rounded to 1e-9."""

        def num(x: float) -> str:
            return f"{round(x, 9) + 0.0!r}"  # + 0.0 folds -0.0 into 0.0

        m = report.message
        fields = [str(int(report.all_pass()))]
        fields += [num(z.real) + "," + num(z.imag) for z in (m.a, m.b)]
        for b in report.branches:
            fields.append(":".join((
                num(b.probability), num(b.collapsed_fidelity), num(b.corrected_fidelity),
                num(b.recovery_phase.real), str(len(b.fidelity_one_corrections)),
                str(int(b.order_independent)),
            )))
        return ("|".join(fields) + ";").encode()


WORKLOADS = {
    w.name: w for w in (HonestN64Sim, ForgeN8Stubbed, DetectEmD20, AuditCorrections)
}
