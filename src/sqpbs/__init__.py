"""sqpbs: simulator and verification harness for a semiquantum proxy
blind signature protocol built on chi-state quantum teleportation.

Layered bottom-up: ``statevec`` (dense simulator) -> ``teleport``
(carrier state, correction lookup, projection oracle) -> ``keys`` /
``channels`` / ``adversary`` (classical material, decoy-protected
transmission, attackers) -> ``protocol`` (five-party orchestration,
replayable transcripts) -> ``analysis`` (efficiency and experiment
drivers) -> ``cli``.
"""

from .adversary import EntangleMeasure, EveParams, InterceptResend, violation_grid
from .analysis import (
    ExperimentResult,
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
from .bits import Bits
from .channels import (
    DecoyState,
    check_decoys,
    semiquantum_return_check,
    send_with_decoys,
)
from .errors import (
    ConfigError,
    EavesdroppingDetected,
    KeyEstablishmentError,
    ProtocolError,
    SemiquantumCapabilityError,
    SqpbsError,
)
from .keys import (
    HashConfig,
    establish_key_bb84,
    establish_key_sqkd,
    keyed_hash,
    otp_decrypt,
    otp_encrypt,
    xor_blind,
)
from .protocol import Party, ProtocolRun, run_full
from .statevec import (
    Basis,
    BellState,
    PauliCorrection,
    apply_unitary,
    basis_state,
    fidelity_up_to_phase,
    measure,
    measure_bell,
    new_rng,
    tensor,
)
from .teleport import (
    MessageQubit,
    TeleportOutcomes,
    correction_for,
    prepare_chi,
    run_teleportation,
    verify_correction_table,
)
from .transcript import AttackSpec, RunConfig, TOOL_VERSION, Transcript

__version__ = TOOL_VERSION
