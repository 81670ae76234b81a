"""Channel adversaries: intercept-resend and entangle-measure probes.

Both adversaries expose ``intercept(segments, rng)`` and are invoked
once per transmission over an attacked channel (forward leg), with one
``(stack, column)`` per crossed stack: the qubit at ``column`` of every
row crosses.  It returns the crossed stacks, in segment order, and
writes into none it is given.  Per transmission, random-basis
intercept-resend draws one coin vector (``statevec.draw_bits``), then
every intercept-resend draws one uniform vector for its reads, both from
``rng.random``; the entangle-measure attacker draws nothing.

The entangle-measure attacker couples a private probe to each transiting
qubit with a joint unitary E defined by its action on the computational
basis (probe started in a reference state |e>):

    E |0>|e> = a00 |0>|p00> + a01 |1>|p01>
    E |1>|e> = a10 |0>|p10> + a11 |1>|p11>

with |a00|^2 + |a01|^2 = |a10|^2 + |a11|^2 = 1.  Unitarity additionally
forces the two right-hand sides to be orthogonal; the constructor
validates this and completes E to a full unitary on (qubit x probe) with
one QR factorization.  Every probe starts in |e>, so only E's two
defining columns ever reach an output: the attacker sends each crossing
qubit through them alone, as the isometry |b> -> E|b>|e>
(``statevec.couple_rows``), and the completion serves the exact analysis,
which couples the decoy states through the full unitary as an independent
route to the same states.

Such an attacker escapes decoy detection on all four decoy states if
and only if a01 = a10 = 0 and a00|p00> = a11|p11>; its probe then ends
in the same state regardless of the transmitted qubit, so measuring it
yields nothing.  ``expected_error_rates`` and ``probe_states`` make this
dichotomy computable exactly, from the four decoy states coupled as one
row stack, and ``violation_norm`` measures how far a parameter set is
from the undetectable manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import DecoyState
from .registers import merge
from .statevec import KETS, Basis, Rng, apply_rows, born_rows, couple_rows, draw_bits, is_unitary, measure_rows, num_qubits, prepare_rows

INTERCEPT_BASES = ("random", "z", "x")


class InterceptResend:
    """Measure each transiting qubit and resend it in the state it was found in.

    ``basis`` is ``"random"`` (fresh coin per qubit), ``"z"`` or ``"x"``.
    The random-basis attacker disturbs each decoy state with probability
    1/4 and produces the textbook 25% sifted error rate against BB84.
    """

    def __init__(self, basis: str = "random"):
        if basis not in INTERCEPT_BASES:
            raise ValueError(f"basis must be one of {INTERCEPT_BASES}, got {basis!r}")
        self.basis = basis

    def intercept(self, segments: list[tuple[np.ndarray, int]], rng: Rng) -> list[np.ndarray]:
        """A coin vector, ``floor(2u)`` (random basis only), then a uniform vector, over all rows in segment order;
        each segment's Z rows and X rows are measured out with one ``measure_rows`` each and
        the qubit is re-prepared as its code, 2 * basis + outcome, with ``prepare_rows``."""
        rows = [len(stack) for stack, _ in segments]
        on_x = draw_bits(rng, sum(rows), 1) == 1 if self.basis == "random" else np.full(sum(rows), self.basis == "x")
        cuts = np.cumsum(rows)[:-1]
        crossed = [stack.copy() for stack, _ in segments]
        for (stack, column), out, x, u in zip(segments, crossed, np.split(on_x, cuts), np.split(rng.random(sum(rows)), cuts)):
            for basis, picked in ((Basis.Z, ~x), (Basis.X, x)):
                if picked.any():
                    outcomes, rest = measure_rows(stack[picked], column, basis, u[picked])
                    out[picked] = prepare_rows(rest, column, 2 * x[picked] + outcomes)
        return crossed

    def expected_error_rates(self) -> dict[str, float]:
        """Exact disturbance probability for each of the four decoy states, keyed as ``EveParams``' rates.

        A read in a state's own basis resends it unchanged, and one in the
        other basis resends a state that the receiver reads wrong half the
        time; the random basis is the other one half the time.
        """
        other = {"random": (0.5, 0.5), "z": (0.0, 1.0), "x": (1.0, 0.0)}[self.basis]  # per Z state, X state
        return {d.label: 0.5 * other[d.index >> 1] for d in DecoyState}


def _as_probe_vector(v, dim: int) -> np.ndarray:
    vec = np.asarray(v, dtype=complex).reshape(-1)
    if vec.size > dim:
        raise ValueError(f"probe vector of dimension {vec.size} exceeds probe space {dim}")
    out = np.zeros(dim, dtype=complex)
    out[: vec.size] = vec
    return out


@dataclass(frozen=True)
class EveParams:
    """Parameters of an entangle-measure attack.

    ``alpha`` entries are the four coupling amplitudes (a00, a01, a10,
    a11); ``eps_*`` are the probe states they multiply, given in any
    dimension up to 4 (padded to the probe space).  The probe space
    dimension is the smallest power of two covering the given vectors.
    """

    alpha_00: complex
    alpha_01: complex
    alpha_10: complex
    alpha_11: complex
    eps_00: tuple[complex, ...]
    eps_01: tuple[complex, ...]
    eps_10: tuple[complex, ...]
    eps_11: tuple[complex, ...]
    _unitary: np.ndarray = field(init=False, repr=False, compare=False)
    _images: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("alpha_00", "alpha_01", "alpha_10", "alpha_11"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        raw = [self.eps_00, self.eps_01, self.eps_10, self.eps_11]
        dim = max(len(np.asarray(e).reshape(-1)) for e in raw)
        if dim > 4:
            raise ValueError(f"probe vectors of dimension {dim} > 4 are not supported")
        dim = 2 if dim <= 2 else 4
        vecs = [_as_probe_vector(e, dim) for e in raw]
        amps = (self.alpha_00, self.alpha_01, self.alpha_10, self.alpha_11)
        if not np.all(np.isfinite([*amps, *np.concatenate(vecs)])):
            raise ValueError("coupling amplitudes and probe vectors must be finite")
        for label, vec, amp in zip(("eps_00", "eps_01", "eps_10", "eps_11"), vecs, amps):
            norm = float(np.linalg.norm(vec))
            if abs(amp) > 1e-12 and abs(norm - 1.0) > 1e-10:
                raise ValueError(f"{label} must be normalized (|{label}| = {norm})")
        for pair, total in (
            (("alpha_00", "alpha_01"), abs(self.alpha_00) ** 2 + abs(self.alpha_01) ** 2),
            (("alpha_10", "alpha_11"), abs(self.alpha_10) ** 2 + abs(self.alpha_11) ** 2),
        ):
            if abs(total - 1.0) > 1e-10:
                raise ValueError(f"|{pair[0]}|^2 + |{pair[1]}|^2 must be 1, got {total}")
        object.__setattr__(self, "eps_00", tuple(vecs[0]))
        object.__setattr__(self, "eps_01", tuple(vecs[1]))
        object.__setattr__(self, "eps_10", tuple(vecs[2]))
        object.__setattr__(self, "eps_11", tuple(vecs[3]))
        object.__setattr__(self, "_unitary", self._build_unitary(vecs, dim))
        object.__setattr__(self, "_images", self._unitary[:, [0, dim]].T.copy())

    def _build_unitary(self, vecs: list[np.ndarray], dim: int) -> np.ndarray:
        col0 = np.concatenate([self.alpha_00 * vecs[0], self.alpha_01 * vecs[1]])
        col1 = np.concatenate([self.alpha_10 * vecs[2], self.alpha_11 * vecs[3]])
        cross = np.vdot(col0, col1)
        if abs(cross) > 1e-10:
            raise ValueError(
                f"parameters do not extend to a unitary coupling (<E0|E1> = {cross:.3e})"
            )
        # Q's trailing columns complete the basis; the defining columns go in
        # exactly, at |0>|e0> (index 0) and |1>|e0> (index dim).
        spare = np.linalg.qr(np.column_stack([col0, col1, np.eye(2 * dim)]))[0][:, 2:]
        u = np.column_stack([col0, spare[:, : dim - 1], col1, spare[:, dim - 1 :]])
        if not is_unitary(u):
            raise ValueError("internal error: completed coupling is not unitary")
        return u

    @property
    def probe_dim(self) -> int:
        return len(self.eps_00)

    def initial_probe(self) -> np.ndarray:
        """Probe reference state |e> = first basis vector of the probe space."""
        amps = np.zeros(self.probe_dim, dtype=complex)
        amps[0] = 1.0
        return amps

    def coupling_unitary(self) -> np.ndarray:
        """The completed joint unitary on (qubit x probe).

        Columns 0 and ``probe_dim`` are exactly E|0>|e> and E|1>|e>; QR
        fills the others, which no output depends on, since every probe
        starts in |e>.
        """
        return self._unitary.copy()

    def coupling_images(self) -> np.ndarray:
        """E|0>|e> and E|1>|e>, the completed unitary's columns 0 and ``probe_dim``, as the rows of a
        ``(2, 2 * probe_dim)`` array: the isometry that every crossing qubit goes through."""
        return self._images.copy()

    # -- exact analysis helpers (no sampling) --------------------------------

    def _coupled_decoys(self) -> np.ndarray:
        """E (|s> x |e>) for the four ``DecoyState``s, one row each in definition order."""
        stack = merge(KETS, self.initial_probe()[None])
        return apply_rows(stack, list(range(num_qubits(stack))), self._unitary)

    def expected_error_rates(self) -> dict[str, float]:
        """Exact disturbance probability for each of the four decoy states.

        The rate for a state is the Born probability that the receiver,
        measuring in the preparation basis after the coupling, sees the
        orthogonal outcome.
        """
        born = born_rows(self._coupled_decoys(), 0, [d.basis is Basis.X for d in DecoyState])
        return {d.label: float(born[1 - d.bit][d.index]) for d in DecoyState}

    def probe_states(self) -> dict[str, np.ndarray]:
        """Reduced probe density matrix after coupling, per input state."""
        rows = self._coupled_decoys().reshape(len(DecoyState), 2, self.probe_dim)
        return {d.label: t.conj().T @ t for d, t in zip(DecoyState, rows)}  # trace out the qubit

    def max_probe_trace_distance(self) -> float:
        """Largest trace distance between probe states across the four inputs."""
        states = list(self.probe_states().values())
        worst = 0.0
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                diff = states[i] - states[j]
                eigs = np.linalg.eigvalsh(diff)
                worst = max(worst, 0.5 * float(np.sum(np.abs(eigs))))
        return worst

    def violation_norm(self) -> float:
        """Distance proxy from the undetectable-parameter manifold.

        sqrt(|a01|^2 + |a10|^2 + ||a00 p00 - a11 p11||^2 / 2); zero
        exactly on the manifold.
        """
        d = self.alpha_00 * np.asarray(self.eps_00) - self.alpha_11 * np.asarray(self.eps_11)
        return math.sqrt(
            abs(self.alpha_01) ** 2
            + abs(self.alpha_10) ** 2
            + 0.5 * float(np.linalg.norm(d) ** 2)
        )

    # -- constructors for the named attack families --------------------------

    @classmethod
    def undetectable(cls, tau: tuple[complex, ...] | None = None) -> "EveParams":
        """The only family that passes every decoy check: trivial coupling."""
        t = (1.0, 0.0) if tau is None else tau
        return cls(1.0, 0.0, 0.0, 1.0, eps_00=t, eps_01=t, eps_10=t, eps_11=t)

    @classmethod
    def rotation(cls, theta: float) -> "EveParams":
        """Bit-flipping coupling that never marks the probe (detectable in Z and X)."""
        c, s = math.cos(theta), math.sin(theta)
        e = (1.0, 0.0)
        return cls(c, s, -s, c, eps_00=e, eps_01=e, eps_10=e, eps_11=e)

    @classmethod
    def probe_marking(cls, phi: float) -> "EveParams":
        """Coupling that copies Z information into the probe (detectable in X)."""
        e0 = (1.0, 0.0)
        e1 = (math.cos(phi), math.sin(phi))
        return cls(1.0, 0.0, 0.0, 1.0, eps_00=e0, eps_01=e0, eps_10=e0, eps_11=e1)

    def to_json_dict(self) -> dict:
        def c2(z: complex) -> list[float]:
            return [float(z.real), float(z.imag)]

        def v2(v: tuple[complex, ...]) -> list[list[float]]:
            return [c2(complex(z)) for z in v]

        return {
            "alpha": [c2(self.alpha_00), c2(self.alpha_01), c2(self.alpha_10), c2(self.alpha_11)],
            "eps": [v2(self.eps_00), v2(self.eps_01), v2(self.eps_10), v2(self.eps_11)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EveParams":
        """Inverse of :meth:`to_json_dict`; anything but its exact layout is a ValueError."""
        if set(data) != {"alpha", "eps"}:
            raise ValueError(f"attack parameters need exactly the keys 'alpha' and 'eps', got {sorted(data)}")
        for key in ("alpha", "eps"):
            if len(data[key]) != 4:
                raise ValueError(f"{key!r} needs exactly 4 entries, got {len(data[key])}")

        def c1(pair) -> complex:
            if len(pair) != 2:
                raise ValueError(f"a complex number is a [re, im] pair, got {pair!r}")
            return complex(pair[0], pair[1])

        def v1(vec) -> tuple[complex, ...]:
            return tuple(c1(p) for p in vec)

        a = [c1(p) for p in data["alpha"]]
        e = [v1(v) for v in data["eps"]]
        return cls(a[0], a[1], a[2], a[3], eps_00=e[0], eps_01=e[1], eps_10=e[2], eps_11=e[3])


class EntangleMeasure:
    """Attack hook that couples a fresh probe to every transiting qubit.

    It draws nothing.  Each segment goes through one ``couple_rows`` call
    with E's two defining columns: the crossing qubit of every row becomes
    E|b>|e>, its probe joining the row as the least significant qubits, so
    no column moves.
    """

    def __init__(self, params: EveParams):
        self.params = params

    def intercept(self, segments: list[tuple[np.ndarray, int]], rng: Rng) -> list[np.ndarray]:
        images = self.params.coupling_images()
        return [couple_rows(stack, column, images) for stack, column in segments]


def violation_grid(points_per_family: int) -> list[EveParams]:
    """A grid of detectable entangle-measure parameter sets.

    Two families: coupling rotations (violating the zero-crosstalk
    condition) and probe markings (violating the equal-probe condition).
    All points sit at violation norm >= 0.1.
    """
    grid: list[EveParams] = []
    for k in range(points_per_family):
        theta = 0.1 + 0.9 * k / max(points_per_family - 1, 1)
        grid.append(EveParams.rotation(theta))
    for k in range(points_per_family):
        phi = 0.15 + 1.35 * k / max(points_per_family - 1, 1)
        grid.append(EveParams.probe_marking(phi))
    return grid
