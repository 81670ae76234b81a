"""Command-line front end.

Subcommands:

* ``run`` — execute one protocol run (optionally attacked) and write a
  replayable transcript file.
* ``verify-corrections`` — audit the teleportation correction lookup
  against the brute-force projection oracle on random message qubits.
* ``experiment`` — batch drivers: detection, forgery, blindness,
  efficiency.
* ``replay`` — re-execute a transcript file's embedded config and diff.

Exit codes are stable: 0 valid/success, 1 verification or replay
failure, 2 invalid signature, 3 aborted run (eavesdropping or missing
record), 4 configuration error.  Human-readable summaries go to stdout;
machine-readable JSON only to files (``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from pathlib import Path

from . import analysis
from .adversary import INTERCEPT_BASES, EveParams
from .bits import Bits
from .errors import ConfigError, SqpbsError
from .protocol import replay_difference, run_full
from .statevec import new_rng
from .teleport import MessageQubit, verify_correction_table, _TABLE
from .transcript import (
    ATTACK_FIELDS,
    ATTACK_KINDS,
    KEY_MODES,
    QUANTUM_CHANNELS,
    TOOL_VERSION,
    TRANSCRIPT_FORMAT,
    WITHHOLDABLE,
    AttackSpec,
    RunConfig,
)

EXIT_VALID = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2
EXIT_ABORTED = 3
EXIT_CONFIG = 4

SEED_ENV_VAR = "SQPBS_SEED"


def _resolve_seed(seed: int | None) -> int:
    """--seed flag, else the SQPBS_SEED environment variable, else entropy.

    Whatever wins is echoed into the transcript config, so every output
    is replayable.
    """
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return secrets.randbits(48)
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _parse_bits(text: str | None, label: str) -> Bits | None:
    if text is None:
        return None
    try:
        return Bits(text)
    except ValueError as exc:
        raise ConfigError(f"{label} must be a 0/1 string: {exc}") from exc


def _load_eve_params(path: str) -> EveParams:
    try:
        data = json.loads(Path(path).read_text())
        return EveParams.from_json_dict(data)
    except (OSError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot load attack parameters from {path}: {exc}") from exc


# Each attack flag and the AttackSpec field it sets.
ATTACK_FLAGS = {
    "--attack-channel": "channel",
    "--attack-basis": "basis",
    "--eve-params": "eve",
    "--tamper-bit": "bit_index",
    "--withhold-record": "record",
}


# The flags each experiment kind reads besides --out, by destination, and
# the value each takes when left out (None: the experiment function's own default).
_RUNS = {"n": 8, "trials": 1000, "seed": None}
EXPERIMENT_FLAGS = {
    "detection": {**_RUNS, "decoys": 20, "threshold": RunConfig.error_threshold, "scope": "channel",
                  "attack": AttackSpec.kind, **dict.fromkeys(ATTACK_FLAGS.values())},
    "forgery": {**_RUNS, "model": analysis.FORGERY_MODELS[0], "key_mode": None},
    "blindness": {**_RUNS, "key_mode": None},
    "efficiency": {"n": 8, "hash_bits": RunConfig.hash_bits},
}


def _attack_from_args(args: argparse.Namespace, *, also_read: tuple[str, ...] = ()) -> AttackSpec:
    """The attack the flags describe; flags left out keep the field defaults.

    A flag that neither the ``--attack`` kind nor ``also_read`` reads is a
    configuration error.
    """
    given = {name: getattr(args, name) for name in ATTACK_FLAGS.values() if getattr(args, name) is not None}
    reads = (*ATTACK_FIELDS[args.attack], *also_read)
    unread = [flag for flag, name in ATTACK_FLAGS.items() if name in given and name not in reads]
    if unread:
        raise ConfigError(f"--attack {args.attack} does not read {', '.join(unread)}")
    if "eve" in given:
        given["eve"] = _load_eve_params(given["eve"])
    return AttackSpec(kind=args.attack, **given)


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit through :class:`ConfigError`."""

    def error(self, message: str):
        raise ConfigError(message)


def _experiment_args(args: argparse.Namespace) -> None:
    """Fill in the flags left out; a flag that ``args.kind`` does not read is a configuration error."""
    reads = EXPERIMENT_FLAGS[args.kind]
    flags = {name: flag for flag, name in ATTACK_FLAGS.items()}
    unread = [flags.get(name, "--" + name.replace("_", "-")) for name, value in vars(args).items()
              if value is not None and name not in (*reads, "command", "kind", "out")]
    if unread:
        raise ConfigError(f"experiment {args.kind} does not read {', '.join(unread)}")
    for name, value in reads.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _add_attack_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--attack", choices=ATTACK_KINDS,
                        help=f"adversary model to inject (default {AttackSpec.kind})")
    parser.add_argument("--attack-channel", dest="channel", choices=QUANTUM_CHANNELS,
                        help=f"which transmission is tapped (default {AttackSpec.channel})")
    parser.add_argument("--attack-basis", dest="basis", choices=INTERCEPT_BASES,
                        help=f"intercept-resend measurement basis (default {AttackSpec.basis})")
    parser.add_argument("--eve-params", dest="eve", metavar="FILE",
                        help="JSON file with entangle-measure parameters (alpha/eps)")
    parser.add_argument("--tamper-bit", dest="bit_index", type=int,
                        help=f"tamper-md: ciphertext bit to flip (default {AttackSpec.bit_index})")
    parser.add_argument("--withhold-record", dest="record", choices=WITHHOLDABLE,
                        help=f"withhold: record that never reaches the arbiter (default {AttackSpec.record})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sqpbs",
        description="Simulator and verification harness for a semiquantum proxy blind signature protocol",
    )
    parser.add_argument("--version", action="version", version=f"sqpbs {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one protocol run")
    run_p.add_argument("--n", type=int, default=8, help="message length in bits")
    run_p.add_argument("--seed", type=int, default=None, help="run seed (default: $SQPBS_SEED or entropy)")
    run_p.add_argument("--message", help="owner's message g_a as a 0/1 string (default: drawn from seed)")
    run_p.add_argument("--blinding-key", help="owner's blinding key k_a as a 0/1 string")
    run_p.add_argument("--decoys", type=int, default=RunConfig.decoy_count,
                       help="decoys per channel (default: n)")
    run_p.add_argument("--threshold", type=float, default=RunConfig.error_threshold,
                       help="tolerated check error rate")
    run_p.add_argument("--hash-bits", type=int, default=RunConfig.hash_bits, help="keyed-hash output length")
    run_p.add_argument("--hash-algorithm", default=RunConfig.hash_algorithm)
    run_p.add_argument("--key-mode", default=RunConfig.key_mode, choices=KEY_MODES)
    run_p.add_argument("--out", metavar="FILE", help="write the replayable transcript JSON here")
    _add_attack_flags(run_p)
    run_p.set_defaults(attack=AttackSpec.kind)

    ver_p = sub.add_parser("verify-corrections", help="audit the correction lookup against the projection oracle")
    ver_p.add_argument("--trials", type=int, default=100, help="random message qubits to audit")
    ver_p.add_argument("--seed", type=int, default=None)
    ver_p.add_argument("--corrupt-branch", type=int, default=None, metavar="INDEX",
                       help="negative control: corrupt lookup entry 0..15 and expect a named failure")

    exp_p = sub.add_parser("experiment", help="batch experiment drivers")
    exp_p.add_argument("kind", choices=["detection", "forgery", "blindness", "efficiency"])
    exp_p.add_argument("--n", type=int, help="message length in bits (default 8)")
    exp_p.add_argument("--trials", type=int, help="runs (default 1000)")
    exp_p.add_argument("--seed", type=int)
    exp_p.add_argument("--decoys", type=int, help="detection: decoys per channel (default 20)")
    exp_p.add_argument("--threshold", type=float, help="detection: tolerated check error rate")
    exp_p.add_argument("--hash-bits", "--l", dest="hash_bits", type=int,
                       help="efficiency: hash output length l")
    exp_p.add_argument("--scope", choices=analysis.DETECTION_SCOPES,
                       help="detection: simulate the attacked channel only, or whole runs")
    exp_p.add_argument("--key-mode", choices=KEY_MODES,
                       help="forgery and blindness: key-agreement mode for the underlying runs "
                            "(default: stubbed for forgery, simulated for blindness)")
    exp_p.add_argument("--model", choices=analysis.FORGERY_MODELS, help="forgery model")
    exp_p.add_argument("--out", metavar="FILE", help="write the result JSON here")
    _add_attack_flags(exp_p)

    rep_p = sub.add_parser("replay", help="re-run a transcript file's config and diff")
    rep_p.add_argument("transcript", help="transcript JSON written by `sqpbs run`")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    config = RunConfig(
        n=args.n,
        seed=seed,
        g_a=_parse_bits(args.message, "--message"),
        k_a=_parse_bits(args.blinding_key, "--blinding-key"),
        decoy_count=args.decoys,
        error_threshold=args.threshold,
        hash_bits=args.hash_bits,
        hash_algorithm=args.hash_algorithm,
        key_mode=args.key_mode,
        attack=_attack_from_args(args),
    )
    config.validate()
    transcript = run_full(config)
    print(f"verdict: {transcript.verdict}")
    print(f"seed: {seed}  n: {config.n}  decoys/channel: {config.resolved_decoy_count}")
    if transcript.verdict in ("valid", "invalid"):
        checks = transcript.events_of("decoy_check") + transcript.events_of("return_check")
        print(f"channel checks passed: {len(checks)}")  # a failed check aborts the run
    if args.out:
        _write_json(
            args.out,
            {
                "format": TRANSCRIPT_FORMAT,
                "version": TOOL_VERSION,
                "config": config.to_json_dict(),
                "transcript": transcript.to_dict(),
            },
        )
        print(f"transcript written to {args.out}")
    if transcript.verdict == "valid":
        return EXIT_VALID
    if transcript.verdict == "invalid":
        return EXIT_INVALID
    return EXIT_ABORTED


def _cmd_verify_corrections(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    seed = _resolve_seed(args.seed)
    rng = new_rng(seed)
    table = None
    if args.corrupt_branch is not None:
        keys = list(_TABLE)
        if not 0 <= args.corrupt_branch < len(keys):
            raise ConfigError(f"--corrupt-branch must be in 0..{len(keys) - 1}, got {args.corrupt_branch}")
        key = keys[args.corrupt_branch]
        table = dict(_TABLE)
        coeffs, corr = table[key]
        wrong = next(p for p in type(corr) if p is not corr)
        table[key] = (coeffs, wrong)
        print(f"negative control: corrupted branch {key[0]}/{key[1].value}/{key[2]}")
    failures = 0
    messages = [MessageQubit(1.0, 0.0)] + [MessageQubit.random(rng) for _ in range(args.trials - 1)]
    for m in messages:
        report = verify_correction_table(m, check_table=table)
        for bad in report.failures():
            failures += 1
            o = bad.outcomes
            print(
                f"FAIL branch z1={o.z1} bell={o.bell_m2.value} z4={o.z4}: "
                f"p={bad.probability:.6f} collapsed_fid={bad.collapsed_fidelity:.6f} "
                f"corrected_fid={bad.corrected_fidelity:.6f}"
            )
        if table is not None and report.failures():
            break  # one corrupted audit is enough for the negative control
    branches = len(messages) * 16 if table is None else 16
    if failures == 0:
        print(f"all {branches} branch checks passed over {len(messages)} message qubits (seed {seed})")
        return EXIT_VALID
    print(f"{failures} branch check(s) failed")
    return EXIT_FAILURE


def _cmd_experiment(args: argparse.Namespace) -> int:
    _experiment_args(args)
    if args.kind == "efficiency":
        report = analysis.qubit_efficiency(args.n, args.hash_bits)
        rows = analysis.comparison_table(args.n, args.hash_bits)
        eta = report.eta
        raw = f"{report.signature_bits}/{report.consumed_qubits + report.classical_bits}"
        print(f"n={args.n} l={args.hash_bits}: eta = {raw} = {eta.numerator}/{eta.denominator} = {float(eta):.6f}")
        print(f"q_s={report.signature_bits} q_t={report.consumed_qubits} q_c={report.classical_bits}")
        beats = analysis.exceeds_ghz_reference(args.n, args.hash_bits)
        print(f"beats the 1/29 GHZ reference (l < 24n): {beats}")
        for row in rows:
            label = row.eta_formula if row.eta is None else f"{row.eta.numerator}/{row.eta.denominator}"
            print(f"  {row.protocol}: eta = {label}")
        if args.out:
            _write_json(
                args.out,
                {
                    "format": "sqpbs-efficiency",
                    "version": TOOL_VERSION,
                    "report": report.to_json_dict(),
                    "comparison": [r.to_json_dict() for r in rows],
                    "beats_ghz_reference": beats,
                },
            )
        return EXIT_VALID

    seed = _resolve_seed(args.seed)
    if args.kind == "detection":
        # Channel scope reads the channel even with --attack none.
        result = analysis.experiment_detection(
            _attack_from_args(args, also_read=("channel",)),
            trials=args.trials,
            seed=seed,
            n=args.n,
            decoy_count=args.decoys,
            threshold=args.threshold,
            scope=args.scope,
        )
    else:
        # Without --key-mode each driver keeps its own default.
        key_mode = {} if args.key_mode is None else {"key_mode": args.key_mode}
        if args.kind == "forgery":
            result = analysis.experiment_forgery(
                n=args.n, trials=args.trials, seed=seed, model=args.model, **key_mode
            )
        else:  # blindness
            result = analysis.experiment_blindness(n=args.n, trials=args.trials, seed=seed, **key_mode)
    lo, hi = result.interval3
    print(
        f"{result.kind}: {result.successes}/{result.trials} "
        f"rate={result.rate:.6f} 3-sigma=[{lo:.6f}, {hi:.6f}]"
    )
    for key, value in result.detail.items():
        print(f"  {key}: {value}")
    if args.out:
        _write_json(
            args.out,
            {"format": "sqpbs-experiment", "version": TOOL_VERSION, **result.to_json_dict()},
        )
    return EXIT_VALID


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        data = json.loads(Path(args.transcript).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read transcript {args.transcript}: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != TRANSCRIPT_FORMAT:
        raise ConfigError(f"{args.transcript} is not a {TRANSCRIPT_FORMAT} file")
    try:
        config = RunConfig.from_json_dict(data["config"])
        config.validate()
        recorded = data["transcript"]
    except ConfigError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"{args.transcript} is malformed: {exc!r}") from exc
    difference = replay_difference(config, recorded)
    if difference is None:
        print(f"replay matches: {len(recorded['events'])} events, verdict {recorded['verdict']}")
        return EXIT_VALID
    print(f"replay MISMATCH: re-executed transcript differs from the recorded one at {difference}")
    return EXIT_FAILURE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify-corrections":
            return _cmd_verify_corrections(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return _cmd_replay(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SqpbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
