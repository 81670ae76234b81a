"""Acceptance suite: one test per acceptance criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Criteria 3 and 7 execute tens of thousands of full protocol
runs and dominate the suite's runtime (a few minutes total).
"""

import json
import math
import time
from fractions import Fraction

import pytest

from sqpbs.adversary import EveParams, violation_grid
from sqpbs.analysis import (
    comparison_table,
    exceeds_ghz_reference,
    experiment_blindness,
    experiment_detection,
    experiment_forgery,
    forgery_oracle_rate,
    qubit_efficiency,
    GHZ5_REFERENCE,
    WSTATE_REFERENCE,
)
from sqpbs.bits import Bits
from sqpbs.protocol import ProtocolRun, replay_difference, run_full
from sqpbs.statevec import new_rng
from sqpbs.teleport import MessageQubit, prepare_chi, verify_correction_table
from sqpbs.transcript import AttackSpec, RunConfig
from test_golden import criterion_1_messages


def report(criterion: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): PASS — {detail}")


def test_criterion_1_correction_table_oracle():
    """100 random messages (complex amplitudes included): every forced
    branch recovers the message at fidelity >= 1 - 1e-10 and has
    probability 1/16 within 1e-12; runtime under 1 s."""
    started = time.perf_counter()
    messages = criterion_1_messages()
    worst_fidelity = 1.0
    worst_prob_err = 0.0
    for m in messages:
        audit = verify_correction_table(m, tolerance=1e-10)
        assert audit.all_pass(), audit.failures()
        worst_fidelity = min(worst_fidelity, min(b.corrected_fidelity for b in audit.branches))
        worst_prob_err = max(worst_prob_err, max(abs(b.probability - 1 / 16) for b in audit.branches))
    elapsed = time.perf_counter() - started
    assert worst_fidelity >= 1 - 1e-10
    assert worst_prob_err <= 1e-12
    assert elapsed < 1.0, f"oracle took {elapsed:.2f}s (budget 1s)"
    report(1, "correction-table oracle",
           f"1600 branches, min fidelity {worst_fidelity:.15f}, "
           f"max |p - 1/16| {worst_prob_err:.2e}, {elapsed:.2f}s")


def test_criterion_2_carrier_amplitudes():
    """The prepared carrier matches its eight-term definition within 1e-12."""
    chi = prepare_chi()
    amp = 1 / (2 * math.sqrt(2))
    expected = {
        0b0000: amp, 0b0011: amp, 0b0110: amp, 0b1001: amp,
        0b1010: amp, 0b1100: amp, 0b0101: -amp, 0b1111: -amp,
    }
    worst = 0.0
    for ket in range(16):
        worst = max(worst, abs(chi[ket] - expected.get(ket, 0.0)))
    assert worst <= 1e-12
    report(2, "carrier amplitudes", f"max deviation {worst:.2e} over all 16 kets")


def test_criterion_3_end_to_end_honest_correctness():
    """1000 honest runs across n in {1, 8, 32, 64}: all valid with the
    re-encoded message equal to the blind message; under 30 s."""
    counts = {1: 400, 8: 300, 32: 200, 64: 100}
    master = new_rng(3003)
    started = time.perf_counter()
    total = 0
    for n, runs in counts.items():
        for _ in range(runs):
            config = RunConfig(
                n=n,
                seed=int(master.integers(0, 2**63)),
                g_a=Bits.random(n, master),
                k_a=Bits.random(n, master),
            )
            run = ProtocolRun(config)
            transcript = run.run()
            assert transcript.verdict == "valid", (n, config.seed, transcript.verdict)
            assert run.g_prime == run.g, (n, config.seed)
            total += 1
    elapsed = time.perf_counter() - started
    assert total == 1000
    assert elapsed < 30.0, f"1000 runs took {elapsed:.1f}s (budget 30s)"
    report(3, "end-to-end honest correctness", f"1000/1000 valid with g' = g in {elapsed:.1f}s")


def test_criterion_4_blindness_invariance():
    """1000 random (g_a, k_a, delta, seed): the paired-flip transcripts
    are bit-identical; zero violations."""
    result = experiment_blindness(n=8, trials=1000, seed=4004)
    assert result.trials == 1000
    assert result.successes == 0
    report(4, "blindness invariance", "0 violations over 1000 paired transcripts")


def test_criterion_5_intercept_resend_detection():
    """d=20 decoys on the message channel, 10^4 trials: abort rate within
    3 sigma of 1 - (3/4)^20."""
    trials = 10_000
    result = experiment_detection(
        AttackSpec("intercept-resend", "xi_m"), trials=trials, seed=5005, decoy_count=20
    )
    expected = 1 - 0.75**20
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(result.rate - expected) <= 3 * sigma, (result.rate, expected, sigma)
    report(5, "intercept-resend detection",
           f"rate {result.rate:.4f} vs {expected:.4f} (3 sigma = {3 * sigma:.4f})")


def test_criterion_6_entangle_measure_dichotomy():
    """(a) a coupling satisfying the undetectability constraints passes
    every decoy check in 10^4 trials and its probe carries no
    information (trace distance <= 1e-10 across the four inputs);
    (b) on a 20-point grid of constraint violations at violation norm
    >= 0.05, the expected decoy error rate is at least 1e-3."""
    quiet = EveParams.undetectable((0.6, 0.8))
    trials = 10_000
    result = experiment_detection(
        AttackSpec("entangle-measure", "xi_m", eve=quiet),
        trials=trials, seed=6006, decoy_count=4,
    )
    assert result.successes == 0, f"{result.successes} of {trials} trials detected a quiet coupling"
    trace_distance = quiet.max_probe_trace_distance()
    assert trace_distance <= 1e-10

    grid = violation_grid(10)
    assert len(grid) == 20
    min_mean_rate = 1.0
    for params in grid:
        assert params.violation_norm() >= 0.05
        rates = params.expected_error_rates()
        mean_rate = sum(rates.values()) / 4
        min_mean_rate = min(min_mean_rate, mean_rate)
        assert mean_rate >= 1e-3, (params.violation_norm(), rates)
    report(6, "entangle-measure dichotomy",
           f"quiet coupling: 0/{trials} detections, probe trace distance {trace_distance:.1e}; "
           f"20 violating points all detectable (min mean rate {min_mean_rate:.2e})")


def test_criterion_7_forgery_rejection():
    """Outside forger substituting a uniform random signature record:
    zero acceptances at n=32 over 10^4 runs, and at n=8 the acceptance
    rate agrees with the enumeration oracle within 3 sigma."""
    trials = 10_000
    big = experiment_forgery(n=32, trials=trials, seed=7007)
    assert big.successes == 0, f"{big.successes} forged runs accepted at n=32"

    small = experiment_forgery(n=8, trials=trials, seed=7008)
    oracle = forgery_oracle_rate(8)
    assert oracle == pytest.approx(2.0**-8, abs=1e-12)
    sigma = math.sqrt(oracle * (1 - oracle) / trials)
    assert abs(small.rate - oracle) <= 3 * sigma, (small.rate, oracle, sigma)
    # the loose geometric bound holds as well
    assert small.rate <= 2 * (5 / 8) ** 8 + 3 * sigma
    report(7, "forgery rejection",
           f"n=32: 0/{trials} accepted; n=8: rate {small.rate:.5f} vs oracle {oracle:.5f} "
           f"(3 sigma = {3 * sigma:.5f})")


def test_criterion_8_efficiency_accounting():
    """Exact rational efficiency 2n/(34n+l); cited reference constants
    2/31 and 1/29; the better-than-reference flag is l < 24n."""
    for n, l in [(1, 2), (8, 128), (16, 256), (64, 512), (33, 100)]:
        assert qubit_efficiency(n, l).eta == Fraction(2 * n, 34 * n + l)
    rows = {row.protocol: row for row in comparison_table()}
    assert rows[WSTATE_REFERENCE].eta == Fraction(2, 31)
    assert rows[GHZ5_REFERENCE].eta == Fraction(1, 29)
    for n in (1, 5, 16, 64):
        for l in (1, 24 * n - 1, 24 * n, 24 * n + 1, 40 * n):
            assert exceeds_ghz_reference(n, l) == (l < 24 * n), (n, l)
    report(8, "efficiency accounting",
           "eta = 2n/(34n+l) exact; references 2/31 and 1/29 verbatim; regime flag = (l < 24n)")


def test_criterion_9_determinism_and_replay(tmp_path):
    """Any transcript replays bit-identically from its embedded config."""
    configs = [
        RunConfig(n=8, seed=9009),
        RunConfig(n=4, seed=9010, g_a=Bits("1011"), k_a=Bits("0010"), hash_bits=64),
        RunConfig(n=2, seed=9011, decoy_count=20, attack=AttackSpec("intercept-resend", "xi_m")),
        RunConfig(n=4, seed=9012, attack=AttackSpec("tamper-md", bit_index=1), key_mode="stubbed"),
    ]
    for config in configs:
        transcript = run_full(config)
        payload = {"config": config.to_json_dict(), "transcript": transcript.to_dict()}
        path = tmp_path / f"run-{config.seed}.json"
        path.write_text(json.dumps(payload))
        loaded = json.loads(path.read_text())
        restored = RunConfig.from_json_dict(loaded["config"])
        assert replay_difference(restored, loaded["transcript"]) is None, config
    report(9, "determinism and replay", f"{len(configs)} transcripts replay bit-identically")
