"""Naor-Reingold-style function-like state generation from a QGA.

A key is (g_0, ..., g_ell, base state). On input bits x = x_1 ... x_ell the
generated state is

    g_ell^{x_ell} . ... . g_1^{x_1} . g_0 |s_0>,

i.e. g_0 is always applied first and g_i joins the product exactly when
x_i = 1, in ascending order of i.

Four query oracles share one interface:
  * real     - answers with the keyed generator itself.
  * hybrid   - a fresh group element per distinct input, memoized.
  * ideal    - a fresh Haar state per distinct input, memoized.
  * game j   - memoizes a fresh group element per distinct j-bit prefix and
               applies the keyed tail g_{j+1}..g_ell; j = 0 collapses to the
               real oracle (given the same key) and j = ell to the hybrid one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qga import (
    QgaDescription,
    QgaInstance,
    StateDescription,
    apply_qga_array,
    apply_qga_start,
    qga_from_json,
    qga_to_json,
    state_desc_from_json,
    state_desc_to_json,
)
from .states import StateVector, projection_prob, sample_haar_state, snap_prob

def _as_bits(x, ell: int) -> tuple[int, ...]:
    """Normalize an input ('0110', (0,1,1,0), ...) to a bit tuple of length ell."""
    if isinstance(x, str):
        if any(c not in "01" for c in x):
            raise ValueError(f"input string must be binary, got {x!r}")
        bits = tuple(int(c) for c in x)
    else:
        bits = tuple(int(b) for b in x)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"input bits must be 0/1, got {x!r}")
    if len(bits) != ell:
        raise ValueError(f"input length {len(bits)} does not match ell={ell}")
    return bits


@dataclass(frozen=True, eq=False)
class PrfsgKey:
    """(g_0, ..., g_ell) plus the base state description."""

    group_elements: tuple[QgaDescription, ...]
    base_state: StateDescription

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_elements", tuple(self.group_elements))
        if len(self.group_elements) < 2:
            raise ValueError("key needs g_0 and at least one g_i (ell >= 1)")
        lam = self.base_state.num_qubits
        if any(g.num_qubits != lam for g in self.group_elements):
            raise ValueError("every group element must act on the base state's qubits")

    @property
    def input_length(self) -> int:
        return len(self.group_elements) - 1

    @property
    def num_qubits(self) -> int:
        return self.base_state.num_qubits


def keygen(qga: QgaInstance, ell: int, rng: np.random.Generator) -> PrfsgKey:
    if ell < 1:
        raise ValueError("ell must be at least 1")
    elements = tuple(qga.sample_g(rng) for _ in range(ell + 1))
    return PrfsgKey(elements, qga.sample_s())


def state_gen(key: PrfsgKey, x) -> StateVector:
    """Evaluate the keyed generator on a classical input."""
    bits = _as_bits(x, key.input_length)
    arr = apply_qga_start(key.group_elements[0], key.base_state).amplitudes
    for i, bit in enumerate(bits, start=1):
        if bit:
            arr = apply_qga_array(key.group_elements[i], arr)
    return StateVector(key.num_qubits, arr)


def state_gen_all(key: PrfsgKey):
    """Yield (x, state_gen(key, x)) for every input x, ascending, byte for byte.

    A depth-first walk of the prefix tree: the 0-child reuses its parent's
    array and the 1-child applies the next g_i, so the 2^ell states cost
    2^ell - 1 applications and at most ell + 1 arrays are live."""
    ell = key.input_length

    def walk(prefix: str, arr):
        if len(prefix) == ell:
            yield prefix, StateVector(key.num_qubits, arr)
            return
        yield from walk(prefix + "0", arr)
        yield from walk(prefix + "1", apply_qga_array(key.group_elements[len(prefix) + 1], arr))

    yield from walk("", apply_qga_start(key.group_elements[0], key.base_state).amplitudes)


def key_to_json(key: PrfsgKey) -> dict:
    return {
        "lambda": key.num_qubits,
        "ell": key.input_length,
        "base_state": state_desc_to_json(key.base_state),
        "group_elements": [qga_to_json(g) for g in key.group_elements],
    }


def key_from_json(obj: dict) -> PrfsgKey:
    try:
        elements = tuple(qga_from_json(g) for g in obj["group_elements"])
        key = PrfsgKey(elements, state_desc_from_json(obj["base_state"]))
        header = int(obj["lambda"]), int(obj["ell"])
    except KeyError as exc:
        raise ValueError(f"key description lacks the field {exc}") from None
    if header != (key.num_qubits, key.input_length):
        raise ValueError("key header does not match its group elements")
    return key


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

class StateOracle:
    """Classical-query oracle returning states; records queries and memo hits.

    Every rung of the hybrid answers the same way: it memoizes a start state
    per prefix of the input (the first ``prefix_len`` bits, the whole input
    unless GameOracle sets fewer) and finishes the answer from it. When the
    prefix is the whole input, a repeated query returns the identical stored
    state, so transcript consistency is exact, not just high-fidelity.
    """

    def __init__(self, input_length: int, num_qubits: int, prefix_len: int | None = None) -> None:
        self.input_length = input_length
        self.num_qubits = num_qubits
        self.prefix_len = input_length if prefix_len is None else prefix_len
        self.queried: set[tuple[int, ...]] = set()
        self.transcript: list[dict] = []
        self.memo: dict[tuple[int, ...], StateVector] = {}

    def query(self, x) -> StateVector:
        bits = _as_bits(x, self.input_length)
        prefix = bits[:self.prefix_len]
        if prefix not in self.memo:
            self.memo[prefix] = self._start(prefix)
        answer = self._finish(bits, self.memo[prefix])
        self.queried.add(bits)
        self.transcript.append({"x": "".join(map(str, bits)),
                                "answer_ref": "".join(map(str, prefix))})
        return answer

    def _start(self, prefix: tuple[int, ...]) -> StateVector:
        raise NotImplementedError

    def _finish(self, bits: tuple[int, ...], start: StateVector) -> StateVector:
        return start


class RealOracle(StateOracle):
    def __init__(self, key: PrfsgKey) -> None:
        super().__init__(key.input_length, key.num_qubits)
        self.key = key

    def _start(self, prefix):
        return state_gen(self.key, prefix)


class HybridOracle(StateOracle):
    """Fresh h_x per distinct input, applied to the base state; memoized."""

    def __init__(self, qga: QgaInstance, ell: int, rng: np.random.Generator) -> None:
        self.base_state = qga.sample_s()
        super().__init__(ell, self.base_state.num_qubits)
        self.qga = qga
        self.rng = rng

    def _start(self, prefix):
        h = self.qga.sample_g(self.rng)
        return apply_qga_start(h, self.base_state)


class IdealOracle(StateOracle):
    """Fresh Haar state per distinct input; memoized."""

    def __init__(self, num_qubits: int, ell: int, rng: np.random.Generator) -> None:
        super().__init__(ell, num_qubits)
        self.rng = rng

    def _start(self, prefix):
        return sample_haar_state(self.num_qubits, self.rng)


class GameOracle(StateOracle):
    """Prefix-hybrid oracle: fresh start per distinct j-bit prefix, keyed tail.

    For prefix length 0 the start is g_0|s_0> from the key and no fresh draws
    happen, which makes the oracle coincide with RealOracle on the same key.
    """

    def __init__(self, key: PrfsgKey, prefix_len: int, qga: QgaInstance,
                 rng: np.random.Generator) -> None:
        if not 0 <= prefix_len <= key.input_length:
            raise ValueError(f"prefix length {prefix_len} outside [0, {key.input_length}]")
        super().__init__(key.input_length, key.num_qubits, prefix_len)
        self.key = key
        self.qga = qga
        self.rng = rng

    def _start(self, prefix):
        g = self.key.group_elements[0] if self.prefix_len == 0 else self.qga.sample_g(self.rng)
        return apply_qga_start(g, self.key.base_state)

    def _finish(self, bits, start):
        """Apply the keyed tail g_{j+1}..g_ell to the prefix's start state."""
        arr = start.amplitudes
        for i in range(self.prefix_len + 1, self.input_length + 1):
            if bits[i - 1]:
                arr = apply_qga_array(self.key.group_elements[i], arr)
        return StateVector(self.num_qubits, arr)


# ---------------------------------------------------------------------------
# unclonable-tag use of the generator
# ---------------------------------------------------------------------------

def mac_tag(key: PrfsgKey, x) -> StateVector:
    """Tag a message: the generated state itself."""
    return state_gen(key, x)


def mac_accept_prob(key: PrfsgKey, x, candidate: StateVector) -> float:
    return snap_prob(projection_prob(state_gen(key, x), candidate))


def mac_verify(key: PrfsgKey, x, candidate: StateVector, rng: np.random.Generator) -> bool:
    """Project the candidate tag onto the honest tag for (key, x)."""
    return bool(rng.random() < mac_accept_prob(key, x, candidate))
