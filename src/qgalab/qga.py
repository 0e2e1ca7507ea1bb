"""Quantum group actions: samplable families of unitaries with classical
descriptions, plus a state sampler.

A QGA here is just a pair of samplers (no group axioms demanded):
  * sample_g draws a description of a unitary on lambda qubits,
  * sample_s returns the description of the start state (always |0...0>).

Three candidate families ship, together with two reference families used by
tests and games:

  1. generic-circuit: a brickwork of independent Haar-random two-qubit blocks.
  2. iqp-diagonal-circuit: H^(x)n . D . H^(x)n with D a random word over
     {T, CS} on random wires, held as a circuits.PhaseWord: a Z_8 phase
     polynomial (see diagonal()).
  3. iqp-sparse-poly: same sandwich with D|x> = (-1)^{f(x)}|x> for a random
     sparse GF(2) polynomial f with f(0) = 0.

Candidates 2 and 3 share one path, H . diagonal() . H, which apply_qga_rows
runs once for a batch of rows over their stacked_diagonals; they commute
pairwise and fix the uniform superposition exactly. apply_qga_start acts on the start
state and reuses its cached first layer H^(x)n|s>, so an IQP image costs one
Walsh-Hadamard layer.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import circuits as qc
from .circuits import Circuit, Gate, PhaseWord
from .gf2poly import PARITY_SIGNS, SparsePolyF2, poly_from_json, poly_to_json, sample_sparse_poly, subset_sums
from .states import StateVector, basis_state

VARIANT_GENERIC = "generic-circuit"
VARIANT_IQP_CIRCUIT = "iqp-diagonal-circuit"
VARIANT_IQP_POLY = "iqp-sparse-poly"


@dataclass(frozen=True)
class StateDescription:
    """Classical description of a preparable state (a basis state)."""

    num_qubits: int
    basis_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.basis_index < 2**self.num_qubits:
            raise ValueError("basis index out of range")

    @lru_cache(maxsize=8)
    def expand(self) -> StateVector:
        """The basis state: one immutable StateVector shared by equal descriptions."""
        return basis_state(self.num_qubits, self.basis_index)


_FIRST_LAYER_LOCK = threading.Lock()


@lru_cache(maxsize=8)
def _first_layer(start: StateDescription) -> np.ndarray:
    """H^(x)n|s>, read-only: the first layer of every IQP start-state image.
    Call it under _FIRST_LAYER_LOCK, so that worker threads compute it once."""
    first = qc.hadamard_layer_array(start.expand().amplitudes)
    first.flags.writeable = False
    return first


_BODY_TYPES = {VARIANT_GENERIC: Circuit, VARIANT_IQP_CIRCUIT: PhaseWord, VARIANT_IQP_POLY: SparsePolyF2}


@dataclass(frozen=True, eq=False)
class QgaDescription:
    """Classical description of one group element."""

    variant: str
    num_qubits: int
    body: Circuit | PhaseWord | SparsePolyF2

    def __post_init__(self) -> None:
        body_type = _BODY_TYPES.get(self.variant)
        if body_type is None:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not isinstance(self.body, body_type):
            raise ValueError(f"{self.variant} body must be a {body_type.__name__}")
        width = self.body.num_vars if body_type is SparsePolyF2 else self.body.num_qubits
        if width != self.num_qubits:
            raise ValueError(f"{self.variant} body must act on num_qubits qubits")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QgaDescription):
            return NotImplemented
        return (
            self.variant == other.variant
            and self.num_qubits == other.num_qubits
            and self.body == other.body
        )

    def diagonal(self) -> np.ndarray:
        """D of an IQP element H^(x)n . D . H^(x)n: the one-row case of
        stacked_diagonals, cached and read-only."""
        cached = self.__dict__.get("_diagonal")
        if cached is None:
            cached = self.__dict__["_diagonal"] = stacked_diagonals((self,))[0]
        return cached


def stacked_diagonals(descs) -> np.ndarray:
    """D of each IQP element, one read-only (len(descs), 2^n) array."""
    return weight_diagonals(descs[0].variant, phase_weights(descs))


def phase_weights(descs) -> np.ndarray:
    """The uint8 monomial weights of each IQP element, one row each, filled for
    all rows at once: 1 at each term of an iqp-sparse-poly element; each T on q
    weighs 1 at {q}, each CS on (a, b) 2 at {a, b}, summed mod 256 (8 | 256)."""
    variant, n = descs[0].variant, descs[0].num_qubits
    if variant == VARIANT_GENERIC:
        raise ValueError(f"{variant} has no diagonal form")
    if any((d.variant, d.num_qubits) != (variant, n) for d in descs):
        raise ValueError("stacked elements must share one variant and qubit count")
    weights = np.zeros((len(descs), 2**n), dtype=np.uint8)
    if variant == VARIANT_IQP_POLY:
        weights[[i for i, d in enumerate(descs) for _ in d.body.terms],
                [m for d in descs for m in d.body.terms]] = 1
        return weights
    a = np.concatenate([d.body.a for d in descs])
    b = np.concatenate([d.body.b for d in descs])
    rows = np.repeat(np.arange(len(descs)), [len(d.body.a) for d in descs])
    t = b < 0
    # a T letter has b = -1, so its second shift repeats its own wire
    np.add.at(weights, (rows, (1 << a) | (1 << np.where(t, a, b))), np.where(t, 1, 2).astype(np.uint8))
    return weights


def weight_diagonals(variant: str, weights: np.ndarray) -> np.ndarray:
    """D from phase_weights rows, read-only, by one subset_sums: (-1)^f for
    iqp-sparse-poly; omega^k(x), omega = e^{i pi/4}, where k(x) sums the weights
    of the monomials contained in x, for iqp-diagonal-circuit."""
    table = PARITY_SIGNS if variant == VARIANT_IQP_POLY else _OMEGA_POWERS
    stack = table.take(subset_sums(weights))
    stack.flags.writeable = False
    return stack


_OMEGA_POWERS = np.exp(1j * np.pi / 4 * (np.arange(256) % 8))  # omega^s, uint8 s; 8 | 256


def apply_qga_array(desc: QgaDescription, arr: np.ndarray) -> np.ndarray:
    """Apply a group element to a raw amplitude array; IQP elements as H.D.H."""
    if arr.shape != (2**desc.num_qubits,):
        raise ValueError("state dimension does not match the group element")
    if desc.variant == VARIANT_GENERIC:
        return qc.run_circuit_array(desc.body, arr)
    return qc.hadamard_layer_array(qc.hadamard_layer_array(arr) * desc.diagonal())


def apply_qga_rows(elements: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """g_i on row i of a (B, 2^n) array: IQP elements as their stacked diagonals,
    one H.D.H; generic ones as an object array, one row at a time."""
    if elements.dtype == object:
        return np.stack([apply_qga_array(d, row) for d, row in zip(elements, rows)])
    return qc.hadamard_layer_array(qc.hadamard_layer_array(rows) * elements)


def apply_qga(desc: QgaDescription, state: StateVector) -> StateVector:
    if state.num_qubits != desc.num_qubits:
        raise ValueError("state and group element qubit counts differ")
    return StateVector(state.num_qubits, apply_qga_array(desc, state.amplitudes))


def apply_qga_start(desc: QgaDescription, start: StateDescription) -> StateVector:
    """g|s>, byte for byte apply_qga(desc, start.expand()); an IQP element reuses the
    cached first layer H^(x)n|s> and computes only H . D . (that layer)."""
    if desc.variant == VARIANT_GENERIC or start.num_qubits != desc.num_qubits:
        return apply_qga(desc, start.expand())
    with _FIRST_LAYER_LOCK:
        first = _first_layer(start)
    amps = qc.hadamard_layer_array(first * desc.diagonal())
    amps.flags.writeable = False
    return StateVector(desc.num_qubits, amps)


def sample_s(num_qubits: int) -> StateDescription:
    """The state sampler shared by every family: deterministically |0...0>."""
    return StateDescription(num_qubits, 0)


# ---------------------------------------------------------------------------
# candidate samplers
# ---------------------------------------------------------------------------

def sample_g_candidate1(num_qubits: int, depth: int, rng: np.random.Generator) -> QgaDescription:
    """Brickwork of Haar-random two-qubit blocks; depth 0 is the empty circuit."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    gates: list[Gate] = []
    for layer in range(depth):
        start = layer % 2
        for a in range(start, num_qubits - 1, 2):
            gates.append(Gate((a, a + 1), qc.sample_haar_unitary(2, rng)))
    return QgaDescription(VARIANT_GENERIC, num_qubits, Circuit(num_qubits, tuple(gates)))


def sample_g_candidate2(num_qubits: int, num_gates: int, rng: np.random.Generator) -> QgaDescription:
    """Random diagonal word over {T, CS} on random wires, H-sandwiched on use:
    per letter, a fair coin (when there are two wires) picks CS on a random
    pair, else T on a random wire."""
    if num_gates < 0:
        raise ValueError("num_gates must be non-negative")
    a = np.empty(num_gates, dtype=np.int64)
    b = np.full(num_gates, -1, dtype=np.int64)
    for i in range(num_gates):
        if num_qubits >= 2 and rng.random() < 0.5:
            a[i], b[i] = rng.choice(num_qubits, size=2, replace=False)
        else:
            a[i] = rng.integers(num_qubits)
    return QgaDescription(VARIANT_IQP_CIRCUIT, num_qubits, PhaseWord(num_qubits, a, b))


def sample_g_candidate3(
    num_qubits: int, degree_bound: int, term_bound: int, rng: np.random.Generator
) -> QgaDescription:
    """Random sparse GF(2) polynomial phase, H-sandwiched on use."""
    poly = sample_sparse_poly(num_qubits, degree_bound, term_bound, rng)
    return QgaDescription(VARIANT_IQP_POLY, num_qubits, poly)


# ---------------------------------------------------------------------------
# packaged instances (samplers plus their parameters, for games and the CLI)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QgaInstance:
    name: str
    num_qubits: int
    params: dict
    _sampler: Callable[[np.random.Generator], QgaDescription] = field(repr=False)

    def sample_g(self, rng: np.random.Generator) -> QgaDescription:
        return self._sampler(rng)

    def sample_s(self) -> StateDescription:
        return sample_s(self.num_qubits)


def random_circuit_qga(num_qubits: int, depth: int = 4) -> QgaInstance:
    params = {"candidate": "circuit", "lambda": num_qubits, "depth": depth}
    return QgaInstance(
        "circuit", num_qubits, params, lambda rng: sample_g_candidate1(num_qubits, depth, rng)
    )


def iqp_circuit_qga(num_qubits: int, num_gates: int | None = None) -> QgaInstance:
    if num_gates is None:
        num_gates = 5 * num_qubits**2
    params = {"candidate": "iqp-diagonal", "lambda": num_qubits, "num_gates": num_gates}
    return QgaInstance(
        "iqp-diagonal", num_qubits, params, lambda rng: sample_g_candidate2(num_qubits, num_gates, rng)
    )


def iqp_poly_qga(num_qubits: int, degree_bound: int = 3, term_bound: int | None = None) -> QgaInstance:
    if term_bound is None:
        term_bound = num_qubits**2
    degree_bound = min(degree_bound, num_qubits)
    params = {"candidate": "iqp-sparse", "lambda": num_qubits, "d": degree_bound, "w": term_bound}
    return QgaInstance(
        "iqp-sparse",
        num_qubits,
        params,
        lambda rng: sample_g_candidate3(num_qubits, degree_bound, term_bound, rng),
    )


def haar_unitary_qga(num_qubits: int) -> QgaInstance:
    """Reference family: exact Haar unitaries as single dense gates.

    Not one of the structured candidates; used where a test needs the exact
    Haar expectation (overlap of independent elements is 2^-lambda on the nose).
    """
    def sampler(rng: np.random.Generator) -> QgaDescription:
        u = qc.sample_haar_unitary(num_qubits, rng)
        gate = Gate(tuple(range(num_qubits)), u)
        return QgaDescription(VARIANT_GENERIC, num_qubits, Circuit(num_qubits, (gate,)))

    return QgaInstance("haar", num_qubits, {"candidate": "haar", "lambda": num_qubits}, sampler)


def identity_qga(num_qubits: int) -> QgaInstance:
    """Degenerate one-element family: every draw is the empty circuit."""
    ident = QgaDescription(VARIANT_GENERIC, num_qubits, Circuit(num_qubits, ()))
    return QgaInstance(
        "identity", num_qubits, {"candidate": "identity", "lambda": num_qubits}, lambda rng: ident
    )


# ---------------------------------------------------------------------------
# serialization: {variant, num_qubits, body}
# ---------------------------------------------------------------------------

def qga_to_json(desc: QgaDescription) -> dict:
    to_json = {VARIANT_GENERIC: qc.circuit_to_json, VARIANT_IQP_CIRCUIT: qc.word_to_json,
               VARIANT_IQP_POLY: poly_to_json}[desc.variant]
    return {"variant": desc.variant, "num_qubits": desc.num_qubits, "body": to_json(desc.body)}


def qga_from_json(obj: dict) -> QgaDescription:
    """Parse a group element; a missing field raises ValueError, as a bad one does."""
    try:
        variant = obj["variant"]
        n = int(obj["num_qubits"])
        if variant == VARIANT_IQP_POLY:
            body: Circuit | PhaseWord | SparsePolyF2 = poly_from_json(obj["body"], n)
        elif variant == VARIANT_IQP_CIRCUIT:
            body = qc.word_from_json(obj["body"])
        elif variant == VARIANT_GENERIC:
            body = qc.circuit_from_json(obj["body"])
        else:
            raise ValueError(f"unknown variant {variant!r}")
    except KeyError as exc:
        raise ValueError(f"group element description lacks the field {exc}") from None
    return QgaDescription(variant, n, body)


def state_desc_to_json(desc: StateDescription) -> dict:
    return {"num_qubits": desc.num_qubits, "basis_index": desc.basis_index}


def state_desc_from_json(obj: dict) -> StateDescription:
    return StateDescription(int(obj["num_qubits"]), int(obj["basis_index"]))
