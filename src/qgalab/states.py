"""Immutable n-qubit statevectors and the measurements everything else uses.

Conventions:
  * Qubit 0 is the most significant bit of the amplitude index, so the basis
    label |q0 q1 ... q_{n-1}> lives at index sum(q_i << (n - 1 - i)).
  * States are always unit vectors (checked to 1e-10 at construction) and the
    amplitude buffer is read-only: a buffer handed over read-only is kept, any
    other is copied.
  * Equality of states is only ever judged through overlaps; global phase is
    never stripped or compared.

All probabilistic tests are computed analytically from amplitudes; sampling a
binary outcome is a separate step that consumes a Generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-10
MAX_QUBITS = 20  # statevector cap: 2**20 amplitudes


class ImpossibleBranchError(RuntimeError):
    """A measurement branch with probability zero was selected."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state on ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = self.num_qubits
        if not (1 <= n <= MAX_QUBITS):
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {n}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**n,):
            raise ValueError(f"expected {2**n} amplitudes, got shape {amps.shape}")
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= ATOL:  # also rejects NaN amplitudes
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        if amps.flags.writeable:
            amps = amps.copy()
            amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits


def from_amplitudes(amplitudes) -> StateVector:
    """Wrap an amplitude array, inferring the qubit count from its length."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    n = int(round(np.log2(amps.size)))
    if 2**n != amps.size:
        raise ValueError(f"amplitude count {amps.size} is not a power of two")
    return StateVector(n, amps)


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def plus_state(num_qubits: int) -> StateVector:
    """H^(x)n |0...0>: the uniform superposition."""
    amps = np.full(2**num_qubits, 1.0, dtype=np.complex128)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def tensor(*states: StateVector) -> StateVector:
    """Tensor product; register order matches argument order (leftmost first)."""
    if not states:
        raise ValueError("tensor of zero states")
    amps = states[0].amplitudes
    n = states[0].num_qubits
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
        n += s.num_qubits
    amps.flags.writeable = False
    return StateVector(n, amps)


# ---------------------------------------------------------------------------
# overlaps and the two canonical tests
# ---------------------------------------------------------------------------

def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> (first argument conjugated)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("inner product of states with different qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def snap_prob(p: float, atol: float = ATOL) -> float:
    """Clamp a probability into [0, 1], snapping values within ``atol`` of the
    endpoints onto them. Accept probabilities of honestly generated objects
    are exactly 0 or 1 in exact arithmetic; this removes the float residue so
    deterministic verification contracts stay deterministic."""
    if p >= 1.0 - atol:
        return 1.0
    if p <= atol:
        return 0.0
    return float(p)


def projection_prob(target: StateVector, candidate: StateVector) -> float:
    """Probability that projecting ``candidate`` onto ``target`` succeeds: |<t|c>|^2."""
    return float(abs(inner_product(target, candidate)) ** 2)


def projection_sample(target: StateVector, candidate: StateVector, rng: np.random.Generator) -> bool:
    return bool(rng.random() < snap_prob(projection_prob(target, candidate)))


def swap_test_accept_prob(a: StateVector, b: StateVector) -> float:
    """Probability the SWAP test on |a>, |b> reports "equal": (1 + |<a|b>|^2) / 2."""
    return (1.0 + projection_prob(a, b)) / 2.0


def swap_test_sample(a: StateVector, b: StateVector, rng: np.random.Generator) -> bool:
    """One SWAP-test shot; True means the test reported "equal"."""
    return bool(rng.random() < snap_prob(swap_test_accept_prob(a, b)))


def swap_expectation_joint(joint: StateVector) -> float:
    """<phi|SWAP|phi> for a state on two equal registers (may be entangled)."""
    if joint.num_qubits % 2 != 0:
        raise ValueError("joint state must split into two equal registers")
    half = joint.num_qubits // 2
    m = joint.amplitudes.reshape(2**half, 2**half)
    return float(np.trace(np.conj(m) @ m).real)


def swap_test_accept_prob_joint(joint: StateVector) -> float:
    """SWAP-test accept probability between the two halves of a joint state.

    Reduces to (1 + |<a|b>|^2) / 2 on product input a (x) b.
    """
    return (1.0 + swap_expectation_joint(joint)) / 2.0


# ---------------------------------------------------------------------------
# projective register measurement with collapse
# ---------------------------------------------------------------------------

def _register_axes(joint: StateVector, register_index: int, register_width: int) -> tuple[int, int, int]:
    n = joint.num_qubits
    if register_width < 1 or n % register_width != 0:
        raise ValueError(f"register width {register_width} does not divide {n} qubits")
    count = n // register_width
    if not 0 <= register_index < count:
        raise ValueError(f"register index {register_index} out of range for {count} registers")
    left = 2 ** (register_index * register_width)
    mid = 2**register_width
    right = 2 ** ((count - register_index - 1) * register_width)
    return left, mid, right


def _branch(num_qubits: int, cube: np.ndarray, coeff: np.ndarray, target: StateVector,
            hit: bool) -> StateVector:
    """The hit branch coeff (x) t, or the miss branch cube - coeff (x) t, normalized
    by its own norm (keeps float residue out of the collapsed state) in one fresh
    buffer handed over read-only."""
    out = np.empty(cube.size, dtype=np.complex128)
    view = out.reshape(cube.shape)
    np.multiply(coeff[:, None, :], target.amplitudes[None, :, None], out=view)
    if not hit:
        np.subtract(cube, view, out=view)
    out /= np.linalg.norm(out)
    out.flags.writeable = False
    return StateVector(num_qubits, out)


def project_register(
    joint: StateVector, register_index: int, register_width: int, target: StateVector,
    rng: np.random.Generator | None = None,
) -> tuple[float, StateVector | None, StateVector | None]:
    """Project one register onto |target><target|: (p_hit, hit_state, miss_state).

    Without ``rng`` both branches are returned; a branch of probability ~0 is None.
    With ``rng`` the projector is measured: one ``rng.random()`` is drawn against
    ``snap_prob(p_hit)``, only the drawn branch is built and the other is None.
    """
    if target.num_qubits != register_width:
        raise ValueError("target width does not match register width")
    left, mid, right = _register_axes(joint, register_index, register_width)
    cube = joint.amplitudes.reshape(left, mid, right)
    # overlap of the register with the target, for every (left, right) block
    coeff = np.tensordot(np.conj(target.amplitudes), cube, axes=([0], [1]))  # (left, right)
    p_hit = float(np.sum(np.abs(coeff) ** 2))
    p_hit = min(max(p_hit, 0.0), 1.0)

    # branches below ATOL can never be selected (snap_prob snaps them away),
    # so they are not constructed
    n = joint.num_qubits
    if rng is None:
        hit_state = _branch(n, cube, coeff, target, True) if p_hit > ATOL else None
        miss_state = _branch(n, cube, coeff, target, False) if 1.0 - p_hit > ATOL else None
        return p_hit, hit_state, miss_state
    hit = bool(rng.random() < snap_prob(p_hit))
    if (p_hit if hit else 1.0 - p_hit) <= ATOL:
        raise ImpossibleBranchError(f"sampled a branch of probability ~0 (p_hit={p_hit})")
    state = _branch(n, cube, coeff, target, hit)
    return (p_hit, state, None) if hit else (p_hit, None, state)


def measure_register_projector(
    joint: StateVector,
    register_index: int,
    register_width: int,
    target: StateVector,
    rng: np.random.Generator,
) -> tuple[bool, StateVector]:
    """Measure {|t><t|, 1 - |t><t|} on one register and collapse."""
    _, hit_state, miss_state = project_register(joint, register_index, register_width, target, rng)
    if hit_state is not None:
        return True, hit_state
    return False, miss_state


# ---------------------------------------------------------------------------
# Haar sampling and helpers
# ---------------------------------------------------------------------------

def sample_haar_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state: normalized vector of i.i.d. complex Gaussians."""
    dim = 2**num_qubits
    z = rng.standard_normal(2 * dim).view(np.complex128)
    amps = z / math.sqrt(np.vdot(z, z).real)
    amps.flags.writeable = False
    return StateVector(num_qubits, amps)


def orthogonal_state(state: StateVector) -> StateVector:
    """A deterministic unit vector orthogonal to ``state``.

    Gram-Schmidt of the basis vector where ``state`` has least weight; always
    well-defined because a unit vector cannot dominate every component.
    """
    k = int(np.argmin(np.abs(state.amplitudes)))
    v = np.zeros(state.dim, dtype=np.complex128)
    v[k] = 1.0
    v -= np.vdot(state.amplitudes, v) * state.amplitudes
    return StateVector(state.num_qubits, v / np.linalg.norm(v))


def state_to_json(state: StateVector) -> dict:
    """Amplitudes as [re, im] pairs (test fixtures, reports)."""
    return {
        "num_qubits": state.num_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def state_from_json(obj: dict) -> StateVector:
    amps = np.array([complex(re, im) for re, im in obj["amplitudes"]], dtype=np.complex128)
    return StateVector(int(obj["num_qubits"]), amps)
