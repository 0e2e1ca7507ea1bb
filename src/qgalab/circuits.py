"""Gates and circuits over the statevector core.

Gate application reshapes the amplitude buffer to [2]*n, moves the target
axes to the front and applies the gate matrix to that block; a DIAG gate
scales the block rows instead. IQP elements bypass this: H . qga.diagonal . H,
with the Walsh-Hadamard layer H a dense matrix up to 8 qubits and, above, a
butterfly that runs its low-bit stages on a transposed copy.

Dense (explicit-matrix) gates are capped at MAX_DENSE_QUBITS targets; the
same cap applies to Haar unitary sampling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from functools import lru_cache

import numpy as np

from .states import ATOL, StateVector

MAX_DENSE_QUBITS = 6  # dense matrices up to 64 x 64

_SQRT2 = np.sqrt(2.0)

FIXED_GATES: dict[str, np.ndarray] = {
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2,
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(np.complex128),
    "CS": np.diag([1, 1, 1, 1j]).astype(np.complex128),
}
GATE_KINDS = tuple(FIXED_GATES) + ("DIAG", "UNITARY")


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate: a fixed kind, a DIAG phase vector, or a dense UNITARY."""

    kind: str
    targets: tuple[int, ...]
    payload: np.ndarray | None = None

    def __post_init__(self) -> None:
        targets = tuple(int(q) for q in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate targets in gate: {targets}")
        if any(q < 0 for q in targets):
            raise ValueError(f"negative target in gate: {targets}")
        k = len(targets)
        if self.kind in FIXED_GATES:
            arity = int(round(np.log2(FIXED_GATES[self.kind].shape[0])))
            if k != arity:
                raise ValueError(f"{self.kind} gate takes {arity} target(s), got {k}")
            if self.payload is not None:
                raise ValueError(f"{self.kind} gate takes no payload")
            return
        if self.kind == "DIAG":
            if k < 1:
                raise ValueError("DIAG gate needs at least one target")
            entries = np.asarray(self.payload, dtype=np.complex128)
            if entries.shape != (2**k,):
                raise ValueError(f"DIAG payload must have 2^{k} entries, got {entries.shape}")
            if np.max(np.abs(np.abs(entries) - 1.0)) > ATOL:
                raise ValueError("DIAG entries must have unit modulus")
            entries = entries.copy()
            entries.flags.writeable = False
            object.__setattr__(self, "payload", entries)
            return
        if self.kind == "UNITARY":
            if not 1 <= k <= MAX_DENSE_QUBITS:
                raise ValueError(f"UNITARY gate supports 1..{MAX_DENSE_QUBITS} targets, got {k}")
            u = np.asarray(self.payload, dtype=np.complex128)
            if u.shape != (2**k, 2**k):
                raise ValueError(f"UNITARY payload must be {2**k} x {2**k}, got {u.shape}")
            if np.max(np.abs(u.conj().T @ u - np.eye(2**k))) > ATOL:
                raise ValueError("UNITARY payload is not unitary within 1e-10")
            u = u.copy()
            u.flags.writeable = False
            object.__setattr__(self, "payload", u)
            return
        raise ValueError(f"unknown gate kind: {self.kind!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        if self.kind != other.kind or self.targets != other.targets:
            return False
        if self.payload is None or other.payload is None:
            return self.payload is other.payload
        return bool(np.array_equal(self.payload, other.payload))

    def matrix(self) -> np.ndarray:
        if self.kind in FIXED_GATES:
            return FIXED_GATES[self.kind]
        if self.kind == "DIAG":
            return np.diag(self.payload)
        return self.payload


def h(q: int) -> Gate:
    return Gate("H", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def z(q: int) -> Gate:
    return Gate("Z", (q,))


def s(q: int) -> Gate:
    return Gate("S", (q,))


def t(q: int) -> Gate:
    return Gate("T", (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def cz(a: int, b: int) -> Gate:
    return Gate("CZ", (a, b))


def cs(a: int, b: int) -> Gate:
    return Gate("CS", (a, b))


def diag_gate(targets: tuple[int, ...], entries) -> Gate:
    return Gate("DIAG", tuple(targets), np.asarray(entries, dtype=np.complex128))


def diag_from_function(targets: tuple[int, ...], phase_fn: Callable[[int], complex]) -> Gate:
    """Tabulate a diagonal gate from a phase function on target basis indices."""
    k = len(targets)
    entries = np.array([phase_fn(i) for i in range(2**k)], dtype=np.complex128)
    return Gate("DIAG", tuple(targets), entries)


def unitary_gate(targets: tuple[int, ...], matrix) -> Gate:
    return Gate("UNITARY", tuple(targets), np.asarray(matrix, dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            if max(g.targets) >= self.num_qubits:
                raise ValueError(f"gate targets {g.targets} out of range for {self.num_qubits} qubits")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self.gates == other.gates


# ---------------------------------------------------------------------------
# application kernels (raw arrays; StateVector wrappers at the bottom)
# ---------------------------------------------------------------------------

def apply_gate_array(arr: np.ndarray, num_qubits: int, gate: Gate) -> np.ndarray:
    """Apply one gate to a raw amplitude array (not necessarily normalized)."""
    k = len(gate.targets)
    cube = arr.reshape([2] * num_qubits)
    cube = np.moveaxis(cube, gate.targets, range(k))
    block = cube.reshape(2**k, -1)
    if gate.kind == "DIAG":
        block = gate.payload[:, None] * block
    else:
        block = gate.matrix() @ block
    cube = block.reshape([2] * num_qubits)
    cube = np.moveaxis(cube, range(k), gate.targets)
    return cube.reshape(-1)


def run_circuit_array(circuit: Circuit, arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.complex128)
    for gate in circuit.gates:
        out = apply_gate_array(out, circuit.num_qubits, gate)
    return out


@lru_cache(maxsize=None)
def _walsh_matrix(dim: int) -> np.ndarray:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    m = np.array([[1.0]])
    while m.shape[0] < dim:
        m = np.kron(m, h)
    m.flags.writeable = False
    return m


def _butterfly_stages(a: np.ndarray, half: int, n: int) -> None:
    """In place on rows of n, pairs half, 2 half, ... apart: (x, y) -> (x + y, -1.0 y + x)."""
    while half < n:
        view = a.reshape(-1, 2, half)
        top = view[:, 0, :].copy()
        view[:, 0, :] += view[:, 1, :]
        view[:, 1, :] *= -1.0
        view[:, 1, :] += top
        half *= 2


def hadamard_layer_array(arr: np.ndarray) -> np.ndarray:
    """H on every qubit of each row (the last axis): a cached dense transform up to 8
    qubits (on a batch, rows @ W, not byte-equal to W @ row). Above, for k qubits, the
    radix-2 butterfly with its floor(k/2) low-bit stages run on a transposed copy, so
    each stage pairs runs of 2^floor(k/2) or more; same operations, same bytes."""
    a = np.asarray(arr, dtype=np.complex128)
    n = a.shape[-1]
    if n <= 256:
        return _walsh_matrix(n) @ a if a.ndim == 1 else a @ _walsh_matrix(n)
    cols = 1 << ((n.bit_length() - 1) // 2)
    out = a.reshape(-1, n // cols, cols).transpose(0, 2, 1).copy()
    _butterfly_stages(out, n // cols, n)
    out = np.ascontiguousarray(out.transpose(0, 2, 1)).reshape(a.shape)
    _butterfly_stages(out, cols, n)
    out /= np.sqrt(n)
    return out


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    if gate.targets and max(gate.targets) >= state.num_qubits:
        raise ValueError(f"gate targets {gate.targets} out of range for {state.num_qubits} qubits")
    return StateVector(state.num_qubits, apply_gate_array(state.amplitudes, state.num_qubits, gate))


def run_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    if circuit.num_qubits != state.num_qubits:
        raise ValueError("circuit and state qubit counts differ")
    return StateVector(state.num_qubits, run_circuit_array(circuit, state.amplitudes))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense matrix of a whole circuit (oracle/debug aid, capped at the dense limit)."""
    if circuit.num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"dense expansion capped at {MAX_DENSE_QUBITS} qubits")
    dim = 2**circuit.num_qubits
    cols = np.eye(dim, dtype=np.complex128)
    for j in range(dim):
        cols[:, j] = run_circuit_array(circuit, cols[:, j])
    return cols


# ---------------------------------------------------------------------------
# Haar-random unitaries
# ---------------------------------------------------------------------------

def sample_haar_unitary(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar measure on U(2^n): QR of a complex Ginibre matrix, phases fixed."""
    if not 1 <= num_qubits <= MAX_DENSE_QUBITS:
        raise ValueError(f"dense Haar sampling capped at {MAX_DENSE_QUBITS} qubits")
    dim = 2**num_qubits
    from scipy.linalg import qr  # imported here: it slows CLI start-up, and only this needs it
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / _SQRT2
    q, r = qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# serialization: {num_qubits, gates: [{kind, targets, payload?}]}
# ---------------------------------------------------------------------------

def _complex_pairs(values: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


def gate_to_json(gate: Gate) -> dict:
    obj: dict = {"kind": gate.kind, "targets": list(gate.targets)}
    if gate.kind == "DIAG":
        obj["payload"] = _complex_pairs(gate.payload)
    elif gate.kind == "UNITARY":
        obj["payload"] = [_complex_pairs(row) for row in gate.payload]
    return obj


def gate_from_json(obj: dict) -> Gate:
    kind = obj["kind"]
    targets = tuple(int(q) for q in obj["targets"])
    if kind == "DIAG":
        entries = np.array([complex(re, im) for re, im in obj["payload"]], dtype=np.complex128)
        return Gate(kind, targets, entries)
    if kind == "UNITARY":
        rows = [[complex(re, im) for re, im in row] for row in obj["payload"]]
        return Gate(kind, targets, np.array(rows, dtype=np.complex128))
    return Gate(kind, targets)


def circuit_to_json(circuit: Circuit) -> dict:
    return {"num_qubits": circuit.num_qubits, "gates": [gate_to_json(g) for g in circuit.gates]}


def circuit_from_json(obj: dict) -> Circuit:
    return Circuit(int(obj["num_qubits"]), tuple(gate_from_json(g) for g in obj["gates"]))
