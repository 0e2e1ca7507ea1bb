"""Dense unitary blocks, {T, CS} phase words, and the Walsh-Hadamard layer.

A Gate is a dense unitary block on at most MAX_DENSE_QUBITS targets (brickwork
blocks, Haar unitaries, the orthogonal ow adversary). Gate application
reshapes the amplitude buffer to [2]*n, moves the target axes to the front and
multiplies that block by the payload. A PhaseWord is the body of an
iqp-diagonal-circuit element: a word over {T, CS} held as two int arrays, used
only through its Z_8 phase polynomial (qga.stacked_diagonals). IQP elements
never run gates: H . qga.diagonal . H, with the Walsh-Hadamard layer H a dense
matrix up to 8 qubits and, above, a butterfly that runs its low-bit stages on a
transposed copy.

The MAX_DENSE_QUBITS cap also applies to Haar unitary sampling.
"""
from __future__ import annotations

from dataclasses import dataclass

from functools import lru_cache

import numpy as np

from .states import ATOL

MAX_DENSE_QUBITS = 6  # dense matrices up to 64 x 64

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class Gate:
    """A dense unitary on 1..MAX_DENSE_QUBITS distinct targets; the payload is
    stored as a read-only complex128 copy."""

    targets: tuple[int, ...]
    payload: np.ndarray

    def __post_init__(self) -> None:
        targets = tuple(int(q) for q in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate targets in gate: {targets}")
        if any(q < 0 for q in targets):
            raise ValueError(f"negative target in gate: {targets}")
        k = len(targets)
        if not 1 <= k <= MAX_DENSE_QUBITS:
            raise ValueError(f"a gate acts on 1..{MAX_DENSE_QUBITS} targets, got {k}")
        u = np.array(self.payload, dtype=np.complex128)
        if u.shape != (2**k, 2**k):
            raise ValueError(f"gate payload must be {2**k} x {2**k}, got {u.shape}")
        if np.max(np.abs(u.conj().T @ u - np.eye(2**k))) > ATOL:
            raise ValueError("gate payload is not unitary within 1e-10")
        u.flags.writeable = False
        object.__setattr__(self, "payload", u)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        return self.targets == other.targets and bool(np.array_equal(self.payload, other.payload))


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


@dataclass(frozen=True, eq=False)
class PhaseWord:
    """A word over {T, CS} in draw order, as two read-only int arrays: letter i
    is T on wire a[i] when b[i] is -1, else CS on wires (a[i], b[i])."""

    num_qubits: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        n = self.num_qubits
        a = np.array(self.a, dtype=np.int64)
        b = np.array(self.b, dtype=np.int64)
        if not (n >= 1 and a.ndim == 1 and a.shape == b.shape
                and np.all((a >= 0) & (a < n) & (b >= -1) & (b < n) & (a != b))):
            raise ValueError(f"a phase word holds T on one of {n} wires or CS on two distinct ones")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseWord):
            return NotImplemented
        return (self.num_qubits == other.num_qubits and bool(np.array_equal(self.a, other.a))
                and bool(np.array_equal(self.b, other.b)))


# ---------------------------------------------------------------------------
# application kernels (raw arrays)
# ---------------------------------------------------------------------------

def apply_gate_array(arr: np.ndarray, num_qubits: int, gate: Gate) -> np.ndarray:
    """Apply one gate to a raw amplitude array (not necessarily normalized)."""
    k = len(gate.targets)
    cube = arr.reshape([2] * num_qubits)
    cube = np.moveaxis(cube, gate.targets, range(k))
    block = gate.payload @ cube.reshape(2**k, -1)
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
    payload = [_complex_pairs(row) for row in gate.payload]
    return {"kind": "UNITARY", "targets": list(gate.targets), "payload": payload}


def gate_from_json(obj: dict) -> Gate:
    if obj["kind"] != "UNITARY":
        raise ValueError(f"a circuit holds only UNITARY gates, got {obj['kind']!r}")
    rows = [[complex(re, im) for re, im in row] for row in obj["payload"]]
    return Gate(tuple(int(q) for q in obj["targets"]), np.array(rows, dtype=np.complex128))


def circuit_to_json(circuit: Circuit) -> dict:
    return {"num_qubits": circuit.num_qubits, "gates": [gate_to_json(g) for g in circuit.gates]}


def circuit_from_json(obj: dict) -> Circuit:
    return Circuit(int(obj["num_qubits"]), tuple(gate_from_json(g) for g in obj["gates"]))


def word_to_json(word: PhaseWord) -> dict:
    gates = [{"kind": "T", "targets": [a]} if b < 0 else {"kind": "CS", "targets": [a, b]}
             for a, b in zip(word.a.tolist(), word.b.tolist())]
    return {"num_qubits": word.num_qubits, "gates": gates}


_LETTER_ARITY = {"T": 1, "CS": 2}


def word_from_json(obj: dict) -> PhaseWord:
    a, b = [], []
    for g in obj["gates"]:
        targets = [int(q) for q in g["targets"]]
        if len(targets) != _LETTER_ARITY.get(g["kind"]) or min(targets) < 0:
            raise ValueError(f"a phase word holds only T on one wire and CS on two, got {g}")
        a.append(targets[0])
        b.append(targets[1] if len(targets) == 2 else -1)
    return PhaseWord(int(obj["num_qubits"]), a, b)
