"""Efficiency accounting, comparison report, and experiment drivers.

The exact intercept-resend and entangle-measure cells each run at their
own fixed seed and pass within 3.9 sigma of their exact rate, so a correct
simulator fails a cell by chance with probability at most 1e-4, and the
family of thirteen at a rate of about 1.3e-3.
"""

import math
from fractions import Fraction

import pytest

from sqpbs.adversary import EveParams
from sqpbs.analysis import (
    DETECTION_SCOPES,
    GHZ5_REFERENCE,
    THIS_PROTOCOL,
    WSTATE_REFERENCE,
    comparison_table,
    exceeds_ghz_reference,
    experiment_blindness,
    experiment_detection,
    experiment_forgery,
    forgery_instance_probability,
    forgery_oracle_rate,
    instrumented_accounting,
    qubit_efficiency,
)
from sqpbs.errors import ConfigError
from sqpbs.protocol import run_full
from sqpbs.transcript import AttackSpec, RunConfig
from test_golden import CONFIGS


class TestQubitEfficiency:
    def test_smallest_case_exact(self):
        report = qubit_efficiency(1, 2)
        assert report.eta == Fraction(2, 36) == Fraction(1, 18)
        assert report.signature_bits == 2
        assert report.consumed_qubits == 30
        assert report.classical_bits == 6

    @pytest.mark.parametrize("n,l", [(1, 1), (4, 128), (16, 256), (64, 512), (100, 2400)])
    def test_closed_form(self, n, l):
        report = qubit_efficiency(n, l)
        assert report.eta == Fraction(2 * n, 34 * n + l)
        assert report.consumed_qubits == 30 * n
        assert report.classical_bits == l + 4 * n

    def test_component_breakdown_sums_to_totals(self):
        report = qubit_efficiency(7, 96)
        c = report.components
        qubits = (
            c["carrier_qubits"] + c["message_qubits"] + c["re_encoded_qubits"]
            + c["bb84_qubits"] + c["sqkd_qubits"]
        )
        assert qubits == report.consumed_qubits == 30 * 7
        assert c["hash_commitment_bits"] + c["encrypted_record_bits"] == report.classical_bits

    def test_rational_not_float(self):
        assert isinstance(qubit_efficiency(3, 7).eta, Fraction)

    def test_example_point(self):
        # n=16, l=256: 32/800 = 1/25
        assert qubit_efficiency(16, 256).eta == Fraction(1, 25)

    def test_validation(self):
        with pytest.raises(ValueError):
            qubit_efficiency(0, 128)
        with pytest.raises(ValueError):
            qubit_efficiency(4, 0)


class TestComparison:
    def test_cited_constants_verbatim(self):
        rows = {row.protocol: row for row in comparison_table()}
        assert rows[WSTATE_REFERENCE].eta == Fraction(2, 31)
        assert rows[GHZ5_REFERENCE].eta == Fraction(1, 29)
        assert rows[THIS_PROTOCOL].eta is None
        assert rows[THIS_PROTOCOL].eta_formula == "2n/(34n+l)"

    def test_parametric_row_filled_when_requested(self):
        rows = {row.protocol: row for row in comparison_table(16, 256)}
        assert rows[THIS_PROTOCOL].eta == Fraction(1, 25)

    def test_qualitative_rows(self):
        rows = {row.protocol: row for row in comparison_table()}
        ours = rows[THIS_PROTOCOL]
        assert ours.proxy_signers == 1
        assert ours.eavesdropping_check
        assert ours.semiquantum_parties == "original signer and signature verifier"
        assert not rows[WSTATE_REFERENCE].eavesdropping_check
        assert rows[WSTATE_REFERENCE].message_owners == 2

    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_reference_threshold_is_l_below_24n(self, n):
        assert exceeds_ghz_reference(n, 24 * n - 1)
        assert not exceeds_ghz_reference(n, 24 * n)  # equality is a tie, not a win
        assert not exceeds_ghz_reference(n, 24 * n + 1)


class TestInstrumentedAccounting:
    def test_real_run_reproduces_the_accounting_identities(self):
        n, l = 8, 96
        transcript = run_full(RunConfig(n=n, seed=3, hash_bits=l))
        counted = instrumented_accounting(transcript)
        formula = qubit_efficiency(n, l)
        assert counted["signature_bits"] == formula.signature_bits == 2 * n
        assert counted["consumed_qubits"] == formula.consumed_qubits == 30 * n
        assert counted["classical_bits"] == formula.classical_bits == l + 4 * n
        # the raw simulated key traffic is reported but stochastic
        assert counted["simulated_raw_qubits"]["bb84"] > 2 * n
        assert counted["simulated_raw_qubits"]["sqkd"] > 4 * n

    def test_overhead_announcements_are_excluded(self):
        transcript = run_full(RunConfig(n=4, seed=5, hash_bits=32))
        assert instrumented_accounting(transcript)["classical_bits"] == 32 + 16

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_every_pinned_config_meets_the_formula(self, name):
        """Criterion 8 on every pinned config: the formula's terms when the run
        reaches the verdict check, at most them when it aborts on the way."""
        config = CONFIGS[name]
        transcript = run_full(config)
        counted = instrumented_accounting(transcript)
        formula = qubit_efficiency(config.n, config.hash_bits)
        terms = {
            "signature_bits": formula.signature_bits,
            "consumed_qubits": formula.consumed_qubits,
            "classical_bits": formula.classical_bits,
        }
        got = {key: counted[key] for key in terms}
        if transcript.events_of("verdict_check"):
            assert got == terms
        else:
            assert all(got[key] <= terms[key] for key in terms), got


class TestForgeryOracle:
    def test_per_instance_probability_is_half(self):
        # Enumeration over (true branch) x (substituted Bell value): for
        # blinded messages exactly 2 of 4 substitutions keep the readout.
        assert forgery_instance_probability(0) == pytest.approx(0.5, abs=1e-12)
        assert forgery_instance_probability(1) == pytest.approx(0.5, abs=1e-12)

    def test_oracle_rate_decays_geometrically(self):
        assert forgery_oracle_rate(8) == pytest.approx(2.0**-8, abs=1e-12)
        assert forgery_oracle_rate(32) == pytest.approx(2.0**-32, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            forgery_instance_probability(2)


class TestExperiments:
    def test_detection_without_attack_is_zero(self):
        result = experiment_detection(AttackSpec("none"), trials=50, seed=1)
        assert result.successes == 0

    def test_detection_at_its_defaults_is_pinned(self):
        # Only attack, trials and seed: n, decoy_count, threshold and scope take their defaults.
        attack = AttackSpec("entangle-measure", "xi_m", eve=EveParams.rotation(0.25))
        result = experiment_detection(attack, trials=200, seed=11)
        assert result.successes == 150
        assert result.config == {
            "attack": attack.to_json_dict(), "n": 1, "decoy_count": 20, "threshold": 0.0, "seed": 11,
            "scope": "channel",
        }

    def test_detection_channel_scope_matches_formula(self):
        result = experiment_detection(
            AttackSpec("intercept-resend", "xi_m"), trials=800, seed=2, decoy_count=20
        )
        p = 1 - 0.75**20
        sigma = math.sqrt(p * (1 - p) / result.trials)
        assert abs(result.rate - p) < 3 * sigma

    def test_detection_full_scope_aborts_runs(self):
        result = experiment_detection(
            AttackSpec("intercept-resend", "xi_m"), trials=40, seed=3,
            decoy_count=20, scope="full",
        )
        assert result.rate > 0.9

    def test_detection_channel_scope_runs_the_return_check_on_semiquantum_channels(self):
        # The return check catches a random-basis intercept-resend on a decoy
        # with probability 1/2 * 1/4 (CTRL) + 1/2 * 1/2 * 1/4 (SIFT of a Z decoy).
        result = experiment_detection(
            AttackSpec("intercept-resend", "w1"), trials=800, seed=9, decoy_count=4
        )
        p = 1 - (13 / 16) ** 4
        sigma = math.sqrt(p * (1 - p) / result.trials)
        assert abs(result.rate - p) < 3 * sigma
        assert result.detail["expected_intercept_resend"] == p

    def test_detection_full_scope_counts_key_agreement_aborts(self):
        result = experiment_detection(
            AttackSpec("intercept-resend", "bb84_dt"), trials=10, seed=1, scope="full"
        )
        assert result.successes > 0

    def test_forgery_outsider_matches_oracle(self):
        result = experiment_forgery(n=8, trials=800, seed=4)
        oracle = result.detail["oracle_rate"]
        sigma = math.sqrt(oracle * (1 - oracle) / result.trials)
        assert abs(result.rate - oracle) < 3 * sigma + 1e-12

    def test_forgery_honest_control_always_accepts(self):
        result = experiment_forgery(n=4, trials=20, seed=5, model="honest-control")
        assert result.rate == 1.0

    def test_blindness_no_violations(self):
        result = experiment_blindness(n=4, trials=25, seed=6)
        assert result.successes == 0

    def test_results_reproducible(self):
        a = experiment_forgery(n=4, trials=50, seed=7)
        b = experiment_forgery(n=4, trials=50, seed=7)
        assert a.successes == b.successes

    @pytest.mark.parametrize(
        "experiment",
        [
            lambda trials: experiment_detection(AttackSpec("none"), trials=trials, seed=1),
            lambda trials: experiment_detection(AttackSpec("none"), trials=trials, seed=1, n=2, scope="full"),
            lambda trials: experiment_forgery(n=2, trials=trials, seed=1),
            lambda trials: experiment_blindness(n=2, trials=trials, seed=1),
        ],
        ids=["detection-channel", "detection-full", "forgery", "blindness"],
    )
    def test_one_trial_runs_and_none_is_refused(self, experiment):
        assert experiment(1).trials == 1
        with pytest.raises(ConfigError, match="trials must be >= 1, got 0"):
            experiment(0)

    def test_interval_and_serialization(self):
        result = experiment_detection(AttackSpec("none"), trials=10, seed=8)
        lo, hi = result.interval3
        assert lo == 0.0 and hi == 0.0
        payload = result.to_json_dict()
        assert payload["kind"] == "detection"
        assert payload["trials"] == 10


CELL_SIGMAS = 3.9
CELL_SEED = 17


# Channel scope, d = 4, per-decoy catch probability q.  A decoy check reads
# every decoy in its preparation basis: q = 1/4 in every basis.  A return
# check reads a Z decoy on CTRL and on SIFT and an X decoy on CTRL only,
# each half the time: q = (e0 + e1)/4 + (e+ + e-)/8 from the attacker's
# per-state disturbances e.  Channels that share a guard draw alike, so
# one channel stands for each guard.  The run reports 1 - (1 - q)^d from
# ``InterceptResend.expected_error_rates``; it must equal the listed q's.
IR_CHANNEL_CELLS = [
    ("xi_m", "random", 1 / 4), ("xi_m", "z", 1 / 4), ("xi_m", "x", 1 / 4),
    ("w1", "random", 3 / 16), ("w1", "z", 1 / 8), ("w1", "x", 1 / 4),
]


@pytest.mark.parametrize("channel,basis,q", IR_CHANNEL_CELLS, ids=[f"{c}-{b}" for c, b, _ in IR_CHANNEL_CELLS])
def test_intercept_resend_channel_cell_matches_its_exact_rate(channel, basis, q):
    d = 4
    result = experiment_detection(
        AttackSpec("intercept-resend", channel, basis=basis), trials=2000, seed=CELL_SEED, decoy_count=d
    )
    p = result.detail["expected_intercept_resend"]
    assert p == pytest.approx(1 - (1 - q) ** d, abs=1e-12)
    assert abs(result.rate - p) < CELL_SIGMAS * math.sqrt(p * (1 - p) / result.trials)


# Entangle-measure couplings, channel scope, d = 4: the run reports its
# exact rate, 1 - (1 - q)^d, with q from the per-state disturbances e of
# ``EveParams.expected_error_rates`` (``experiment_detection`` gives the
# weights of each guard).
EM_CHANNEL_CELLS = [
    ("xi_m", "rotation", EveParams.rotation(0.8)), ("w1", "rotation", EveParams.rotation(0.8)),
    ("w2", "marking", EveParams.probe_marking(1.2)), ("w4", "marking", EveParams.probe_marking(1.2)),
]


@pytest.mark.parametrize("channel,_,eve", EM_CHANNEL_CELLS, ids=[f"{c}-{k}" for c, k, _ in EM_CHANNEL_CELLS])
def test_entangle_measure_channel_cell_matches_its_exact_rate(channel, _, eve):
    result = experiment_detection(
        AttackSpec("entangle-measure", channel, eve=eve), trials=2000, seed=CELL_SEED, decoy_count=4
    )
    p = result.detail["expected_entangle_measure"]
    assert abs(result.rate - p) < CELL_SIGMAS * math.sqrt(p * (1 - p) / result.trials)


# The same q in closed form: a rotation by theta disturbs every decoy state
# with probability sin^2 theta, a probe marking by phi only the X states,
# with probability sin^2 (phi / 2).
EM_CLOSED_FORM_Q = {
    "xi_m": math.sin(0.8) ** 2,
    "w1": 3 / 4 * math.sin(0.8) ** 2,
    "w2": math.sin(0.6) ** 2 / 2,
    "w4": math.sin(0.6) ** 2 / 4,
}


@pytest.mark.parametrize("channel,_,eve", EM_CHANNEL_CELLS, ids=[f"{c}-{k}" for c, k, _ in EM_CHANNEL_CELLS])
def test_entangle_measure_reported_rate_is_its_closed_form(channel, _, eve):
    result = experiment_detection(AttackSpec("entangle-measure", channel, eve=eve), trials=1, seed=1, decoy_count=4)
    assert result.detail["expected_entangle_measure"] == pytest.approx(1 - (1 - EM_CLOSED_FORM_Q[channel]) ** 4, abs=1e-12)


@pytest.mark.parametrize("threshold,scope", [(0.1, "channel"), (0.0, "full")])
def test_entangle_measure_rate_is_reported_only_at_threshold_0(threshold, scope):
    attack = AttackSpec("entangle-measure", "xi_m", eve=EveParams.rotation(0.8))
    result = experiment_detection(attack, trials=1, seed=1, threshold=threshold, scope=scope)
    assert ("expected_entangle_measure" in result.detail) == (threshold == 0)


@pytest.mark.parametrize("channel", ["xi_m", "w1"])
def test_intercept_resend_rate_is_reported_alike_in_either_scope(channel):
    # Only the tapped channel's guard can abort a full run, so the rate is the channel's.
    attack = AttackSpec("intercept-resend", channel)
    rates = [
        experiment_detection(attack, trials=1, seed=1, decoy_count=4, scope=scope).detail["expected_intercept_resend"]
        for scope in DETECTION_SCOPES
    ]
    assert rates[0] == rates[1]


def test_no_rate_is_reported_on_a_key_channel():
    result = experiment_detection(AttackSpec("intercept-resend", "bb84_dt"), trials=1, seed=1, scope="full")
    assert result.detail == {}


@pytest.mark.parametrize("basis", ["random", "z", "x"])
def test_intercept_resend_bb84_full_scope_cell_matches_its_exact_rate(basis):
    # A sifted BB84 bit is wrong with probability 1/4 in every basis, and
    # n = 1 samples min(2n, 64) check bits.
    n = 1
    result = experiment_detection(
        AttackSpec("intercept-resend", "bb84_dt", basis=basis), trials=600, seed=CELL_SEED, n=n, scope="full"
    )
    p = 1 - 0.75 ** min(2 * n, 64)
    assert abs(result.rate - p) < CELL_SIGMAS * math.sqrt(p * (1 - p) / result.trials)
