"""Intercept-resend and entangle-measure attackers, and the
undetectability dichotomy for probe couplings."""

import math

import numpy as np
import pytest

from sqpbs.adversary import EntangleMeasure, EveParams, InterceptResend, violation_grid
from sqpbs.channels import DecoyState
from sqpbs.registers import measure_qubit, new_qubit
from sqpbs.statevec import (
    Basis,
    apply_unitary,
    fidelity_up_to_phase,
    ket_plus,
    new_rng,
    num_qubits,
    postselect,
    tensor,
)
from test_golden import FOUR_DIM_EVE


def tap(attacker, state, rng) -> np.ndarray:
    """A one-row stack around ``state``, sent past ``attacker`` once."""
    return attacker.intercept([(new_qubit(state), 0)], rng)[0]


def closed_form_rates(params: EveParams) -> dict[str, float]:
    """Independent route to the decoy error rates, straight from the
    coupling's branch amplitudes (no simulation)."""
    a00, a01, a10, a11 = params.alpha_00, params.alpha_01, params.alpha_10, params.alpha_11
    e00 = np.asarray(params.eps_00)
    e01 = np.asarray(params.eps_01)
    e10 = np.asarray(params.eps_10)
    e11 = np.asarray(params.eps_11)
    minus_branch = a00 * e00 - a01 * e01 + a10 * e10 - a11 * e11
    plus_branch = a00 * e00 + a01 * e01 - a10 * e10 - a11 * e11
    return {
        "0": abs(a01) ** 2,
        "1": abs(a10) ** 2,
        "+": 0.25 * float(np.linalg.norm(minus_branch) ** 2),
        "-": 0.25 * float(np.linalg.norm(plus_branch) ** 2),
    }


def defining_columns(params: EveParams) -> tuple[np.ndarray, np.ndarray]:
    """E|0>|e> and E|1>|e>, straight from the amplitudes and probe vectors."""
    e00, e01, e10, e11 = (np.asarray(e) for e in (params.eps_00, params.eps_01, params.eps_10, params.eps_11))
    return (
        np.concatenate([params.alpha_00 * e00, params.alpha_01 * e01]),
        np.concatenate([params.alpha_10 * e10, params.alpha_11 * e11]),
    )


def coupled_decoys(params: EveParams) -> dict[DecoyState, np.ndarray]:
    """One-state reference of the exact analysis: E(|s>|e>) per decoy state, one state at a time."""
    targets = list(range(1 + int(math.log2(params.probe_dim))))
    u = params.coupling_unitary()
    return {decoy: apply_unitary(tensor(decoy.make_state(), params.initial_probe()), targets, u) for decoy in DecoyState}


class OnlyDefiningColumns:
    """``params``' probe and coupling with every column but 0 and ``probe_dim`` zeroed."""

    def __init__(self, params: EveParams):
        self.initial_probe = params.initial_probe
        u, kept = params.coupling_unitary(), [0, params.probe_dim]
        self.unitary = np.zeros_like(u)
        self.unitary[:, kept] = u[:, kept]

    def coupling_unitary(self) -> np.ndarray:
        return self.unitary


ANALYSED = [*violation_grid(10), FOUR_DIM_EVE, EveParams.undetectable((0.6, 0.8)), EveParams.undetectable((1j, 0))]
NEARLY_TRIVIAL_PHIS = [2.1998148529878888e-08, -3e-8, 1e-12]


class TestInterceptResend:
    def test_basis_validation(self):
        with pytest.raises(ValueError):
            InterceptResend("diagonal")

    def test_z_tap_never_disturbs_z_states(self):
        rng = new_rng(1)
        attacker = InterceptResend("z")
        for bit in (0, 1):
            for _ in range(20):
                stack = tap(attacker, DecoyState.ONE.make_state() if bit else DecoyState.ZERO.make_state(), rng)
                assert measure_qubit(stack, 0, 0, Basis.Z, rng) == bit

    def test_x_tap_never_disturbs_x_states(self):
        rng = new_rng(2)
        attacker = InterceptResend("x")
        for _ in range(20):
            stack = tap(attacker, DecoyState.MINUS.make_state(), rng)
            assert measure_qubit(stack, 0, 0, Basis.X, rng) == 1

    def test_random_tap_consumes_fresh_coin_per_qubit(self):
        rng = new_rng(3)
        attacker = InterceptResend("random")
        flips = 0
        trials = 400
        for _ in range(trials):
            flips += measure_qubit(tap(attacker, ket_plus(), rng), 0, 0, Basis.X, rng)
        sigma = math.sqrt(0.25 * 0.75 / trials)
        assert abs(flips / trials - 0.25) < 3 * sigma


class TestEveParamsValidation:
    def test_alpha_norms_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            EveParams(1.0, 0.5, 0.0, 1.0, eps_00=(1, 0), eps_01=(1, 0), eps_10=(1, 0), eps_11=(1, 0))

    def test_probe_norms_enforced(self):
        with pytest.raises(ValueError, match="eps_00"):
            EveParams(1.0, 0.0, 0.0, 1.0, eps_00=(2, 0), eps_01=(1, 0), eps_10=(1, 0), eps_11=(1, 0))

    def test_unnormalized_probe_ignored_when_amplitude_zero(self):
        # eps_01/eps_10 are irrelevant when their amplitudes vanish.
        params = EveParams(1.0, 0.0, 0.0, 1.0, eps_00=(1, 0), eps_01=(0, 0), eps_10=(0, 0), eps_11=(1, 0))
        assert max(params.expected_error_rates().values()) <= 1e-10

    def test_non_unitary_coupling_rejected(self):
        s = 1 / math.sqrt(2)
        with pytest.raises(ValueError, match="unitary"):
            EveParams(s, s, s, s, eps_00=(1, 0), eps_01=(1, 0), eps_10=(1, 0), eps_11=(1, 0))

    def test_probe_dimension_cap(self):
        with pytest.raises(ValueError, match="dimension"):
            EveParams(
                1.0, 0.0, 0.0, 1.0,
                eps_00=(1, 0, 0, 0, 0), eps_01=(1, 0), eps_10=(1, 0), eps_11=(1, 0),
            )

    def test_coupling_unitary_is_unitary(self):
        for params in (EveParams.undetectable(), EveParams.rotation(0.4), EveParams.probe_marking(0.7)):
            u = params.coupling_unitary()
            np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-10)

    @pytest.mark.parametrize("phi", NEARLY_TRIVIAL_PHIS)
    def test_nearly_trivial_marking_completes_to_a_unitary(self, phi):
        # A coupling this close to the identity leaves its defining columns
        # nearly parallel to basis vectors; the QR completion must stay unitary.
        u = EveParams.probe_marking(phi).coupling_unitary()
        np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-10)

    @pytest.mark.parametrize("params", ANALYSED + [EveParams.probe_marking(phi) for phi in NEARLY_TRIVIAL_PHIS])
    def test_defining_columns_are_exact(self, params):
        u = params.coupling_unitary()
        col0, col1 = defining_columns(params)
        assert u[:, 0].tobytes() == col0.tobytes()
        assert u[:, params.probe_dim].tobytes() == col1.tobytes()

    def test_json_round_trip(self):
        params = EveParams.probe_marking(0.6)
        clone = EveParams.from_json_dict(params.to_json_dict())
        np.testing.assert_allclose(clone.coupling_unitary(), params.coupling_unitary(), atol=1e-12)


class TestExactAnalysisReference:
    @pytest.mark.parametrize("params", ANALYSED)
    def test_rates_and_probe_states_equal_the_one_state_reference(self, params):
        rates, probes = params.expected_error_rates(), params.probe_states()
        for decoy, joint in coupled_decoys(params).items():
            prob, _ = postselect(joint, 0, decoy.basis, 1 - decoy.bit)
            assert rates[decoy.label].hex() == float(prob).hex()
            t = joint.reshape(2, params.probe_dim)
            assert probes[decoy.label].tobytes() == (t.conj().T @ t).tobytes()


class TestUndetectableCoupling:
    def test_identity_family_has_zero_rates(self):
        for tau in (None, (0.6, 0.8), (1j, 0)):
            params = EveParams.undetectable(tau)
            assert max(params.expected_error_rates().values()) <= 1e-10
            assert all(r <= 1e-12 for r in params.expected_error_rates().values())

    def test_plus_state_passes_through_with_probe_in_tau(self):
        # The trivial coupling maps |+>|e> to |+>|tau> exactly.
        tau = (0.6, 0.8)
        params = EveParams.undetectable(tau)
        joint = tensor(ket_plus(), params.initial_probe())
        out = apply_unitary(joint, [0, 1], params.coupling_unitary())
        expected = tensor(ket_plus(), np.array(tau, dtype=complex))
        assert fidelity_up_to_phase(out, expected) == pytest.approx(1.0, abs=1e-12)

    def test_probe_carries_no_information(self):
        params = EveParams.undetectable((0.28, 0.96))
        assert params.max_probe_trace_distance() <= 1e-10
        assert params.violation_norm() <= 1e-10

    def test_z_copy_probe_marks_x_states_only(self):
        # eps_00 = |0>, eps_11 = |1>: perfect Z copy, invisible in Z.
        params = EveParams(1.0, 0.0, 0.0, 1.0, eps_00=(1, 0), eps_01=(1, 0), eps_10=(1, 0), eps_11=(0, 1))
        rates = params.expected_error_rates()
        assert rates["0"] == pytest.approx(0.0, abs=1e-12)
        assert rates["1"] == pytest.approx(0.0, abs=1e-12)
        # P(flip) = (1 - Re<e00|e11>)/2 = 1/2 on both X states
        assert rates["+"] == pytest.approx(0.5, abs=1e-12)
        assert rates["-"] == pytest.approx(0.5, abs=1e-12)
        # and its probe does distinguish Z inputs
        assert params.max_probe_trace_distance() == pytest.approx(1.0, abs=1e-10)


class TestDetectionDichotomy:
    def test_closed_form_matches_simulated_rates(self):
        for params in violation_grid(5) + [EveParams.undetectable((0.6, 0.8))]:
            simulated = params.expected_error_rates()
            formula = closed_form_rates(params)
            for key in simulated:
                assert simulated[key] == pytest.approx(formula[key], abs=1e-10), key

    def test_grid_points_are_all_detectable(self):
        grid = violation_grid(10)
        assert len(grid) == 20
        for params in grid:
            rates = params.expected_error_rates()
            assert params.violation_norm() >= 0.05
            assert sum(rates.values()) / 4 >= 1e-3
            assert max(rates.values()) >= 1e-3

    def test_violation_norm_zero_iff_undetectable(self):
        assert EveParams.undetectable((0.8, 0.6)).violation_norm() <= 1e-12
        for params in violation_grid(4):
            assert params.violation_norm() > 0.05
            assert max(params.expected_error_rates().values()) > 1e-10

    def test_rotation_rates_are_sin_squared(self):
        theta = 0.37
        rates = EveParams.rotation(theta).expected_error_rates()
        for value in rates.values():
            assert value == pytest.approx(math.sin(theta) ** 2, abs=1e-12)

    def test_marking_rates_are_sin_squared_half_angle(self):
        phi = 0.9
        rates = EveParams.probe_marking(phi).expected_error_rates()
        assert rates["0"] == pytest.approx(0.0, abs=1e-12)
        assert rates["+"] == pytest.approx(math.sin(phi / 2) ** 2, abs=1e-12)


class TestEntangleMeasureHook:
    @pytest.mark.parametrize("params", [EveParams.probe_marking(0.8), FOUR_DIM_EVE], ids=["probe2", "probe4"])
    def test_probe_widens_each_crossed_stack_once(self, params):
        probe_qubits = int(math.log2(params.probe_dim))
        carriers, decoys = np.tile(ket_plus(), (3, 1)), np.tile(ket_plus(), (2, 1))
        decoys, carriers = EntangleMeasure(params).intercept([(decoys, 0), (carriers, 0)], new_rng(4))
        assert num_qubits(carriers[0]) == num_qubits(decoys[0]) == 1 + probe_qubits
        assert len(carriers) == 3 and len(decoys) == 2

    @pytest.mark.parametrize("params", [EveParams.probe_marking(1.2), FOUR_DIM_EVE], ids=["probe2", "probe4"])
    @pytest.mark.parametrize("width", [1, 4])
    def test_stacked_coupling_equals_apply_unitary_row_by_row(self, params, width):
        rng = new_rng(width)
        raw = rng.normal(size=(8, 1 << width)) + 1j * rng.normal(size=(8, 1 << width))
        rows = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        probe = params.initial_probe()
        for column in range(width):
            stack = EntangleMeasure(params).intercept([(rows.copy(), column)], rng)[0]
            wide = width + int(math.log2(params.probe_dim))
            for got, row in zip(stack, rows, strict=True):
                want = apply_unitary(tensor(row, probe), [column, *range(width, wide)], params.coupling_unitary())
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("params", [EveParams.probe_marking(1.2), EveParams.rotation(0.8), FOUR_DIM_EVE])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_only_the_defining_columns_reach_the_output(self, params, width):
        # Every probe starts in |e>, so no other column of E meets a nonzero amplitude.
        rng = new_rng(40 + width)
        raw = rng.normal(size=(5, 1 << width)) + 1j * rng.normal(size=(5, 1 << width))
        rows = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        for column in range(width):
            full = EntangleMeasure(params).intercept([(rows.copy(), column)], rng)[0]
            masked = EntangleMeasure(OnlyDefiningColumns(params)).intercept([(rows.copy(), column)], rng)[0]
            assert np.array_equal(full, masked)

    def test_undetectable_attack_never_disturbs_decoys(self):
        params = EveParams.undetectable((0.6, 0.8))
        rng = new_rng(5)
        attacker = EntangleMeasure(params)
        for _ in range(200):
            state = list(DecoyState)[int(rng.integers(0, 4))]
            assert measure_qubit(tap(attacker, state.make_state(), rng), 0, 0, state.basis, rng) == state.bit

    def test_marking_attack_flips_x_decoys_half_the_time(self):
        params = EveParams(1.0, 0.0, 0.0, 1.0, eps_00=(1, 0), eps_01=(1, 0), eps_10=(1, 0), eps_11=(0, 1))
        rng = new_rng(6)
        attacker = EntangleMeasure(params)
        flips = 0
        trials = 600
        for _ in range(trials):
            flips += measure_qubit(tap(attacker, ket_plus(), rng), 0, 0, Basis.X, rng)
        sigma = math.sqrt(0.5 * 0.5 / trials)
        assert abs(flips / trials - 0.5) < 3 * sigma

    def test_marking_attack_never_flips_z_decoys(self):
        params = EveParams(1.0, 0.0, 0.0, 1.0, eps_00=(1, 0), eps_01=(1, 0), eps_10=(1, 0), eps_11=(0, 1))
        rng = new_rng(7)
        attacker = EntangleMeasure(params)
        for bit, state in ((0, DecoyState.ZERO), (1, DecoyState.ONE)):
            for _ in range(50):
                assert measure_qubit(tap(attacker, state.make_state(), rng), 0, 0, Basis.Z, rng) == bit
