"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the library's fast paths: dense matrices
are built column by column with direct index arithmetic, polynomial phases
are evaluated per basis index, and the Naor-Reingold reference value is a
bare modular exponentiation. Tests compare the library against these.
"""
from __future__ import annotations

import numpy as np

from qgalab.circuits import Circuit, Gate, h, run_circuit, unitary_gate
from qgalab.qga import (
    VARIANT_GENERIC,
    VARIANT_IQP_CIRCUIT,
    VARIANT_IQP_POLY,
    QgaDescription,
    apply_qga,
)
from qgalab.states import StateVector, sample_haar_state, swap_test_sample, tensor

H2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)

# textbook matrices, written out independently of the library's gate table
_FIXED = {
    "H": H2,
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.diag([1.0, -1.0]).astype(np.complex128),
    "S": np.diag([1.0, 1.0j]).astype(np.complex128),
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(np.complex128),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128),
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128),
    "CS": np.diag([1.0, 1.0, 1.0, 1.0j]).astype(np.complex128),
}


def gate_matrix_small(gate: Gate) -> np.ndarray:
    """The gate's own unitary on its targets (diagonal payloads expanded)."""
    if gate.kind in _FIXED:
        return _FIXED[gate.kind]
    if gate.kind == "DIAG":
        return np.diag(np.asarray(gate.payload, dtype=np.complex128))
    return np.asarray(gate.payload, dtype=np.complex128)


def dense_gate_matrix(gate: Gate, num_qubits: int) -> np.ndarray:
    """Embed a gate into the full 2^n unitary by direct index arithmetic.

    Qubit 0 is the most significant bit of the amplitude index. For each
    basis column, the target bits are extracted, mapped through the gate's
    small matrix, and written back.
    """
    dim = 2**num_qubits
    small = gate_matrix_small(gate)
    k = len(gate.targets)
    full = np.zeros((dim, dim), dtype=np.complex128)
    shifts = [num_qubits - 1 - t for t in gate.targets]
    for col in range(dim):
        sub_in = 0
        for pos, sh in enumerate(shifts):
            sub_in = (sub_in << 1) | ((col >> sh) & 1)
        for sub_out in range(2**k):
            amp = small[sub_out, sub_in]
            if amp == 0:
                continue
            row = col
            for pos, sh in enumerate(shifts):
                bit = (sub_out >> (k - 1 - pos)) & 1
                row = (row & ~(1 << sh)) | (bit << sh)
            full[row, col] += amp
    return full


def dense_circuit_matrix(circuit: Circuit) -> np.ndarray:
    m = np.eye(2**circuit.num_qubits, dtype=np.complex128)
    for gate in circuit.gates:
        m = dense_gate_matrix(gate, circuit.num_qubits) @ m
    return m


def hadamard_all(num_qubits: int) -> np.ndarray:
    m = np.array([[1.0]], dtype=np.complex128)
    for _ in range(num_qubits):
        m = np.kron(m, H2)
    return m


def hadamard_layer_reference(arr: np.ndarray) -> np.ndarray:
    """The plain in-place radix-2 butterfly over the natural amplitude order,
    stage by stage from the lowest bit: (x, y) -> (x + y, -1.0 y + x)."""
    a = np.array(arr, dtype=np.complex128)
    n = a.size
    half = 1
    while half < n:
        view = a.reshape(-1, 2, half)
        top = view[:, 0, :].copy()
        view[:, 0, :] += view[:, 1, :]
        view[:, 1, :] *= -1.0
        view[:, 1, :] += top
        half *= 2
    return a / np.sqrt(n)


def poly_eval_reference(poly, assignment_bits: list[int]) -> int:
    """XOR-of-ANDs evaluation straight from the monomial masks."""
    value = 0
    for mask in poly.terms:
        prod = 1
        j = 0
        m = mask
        while m:
            if m & 1 and assignment_bits[j] == 0:
                prod = 0
                break
            m >>= 1
            j += 1
        value ^= prod
    return value


def sign_vector_reference(poly) -> np.ndarray:
    """(-1)^f over all amplitude indices by dense evaluation: a (terms x 2^n)
    matrix marks which indices contain each bit-reversed monomial mask, and
    its columns are XOR-reduced. Memory grows with the term count."""
    n = poly.num_vars
    idx = np.arange(2**n)
    index_masks = np.array([_bit_reverse(m, n) for m in poly.terms], dtype=np.int64)
    hits = (idx[None, :] & index_masks[:, None]) == index_masks[:, None]
    f = np.bitwise_xor.reduce(hits.astype(np.int64), axis=0)
    return 1.0 - 2.0 * f


def _bit_reverse(mask: int, width: int) -> int:
    """Variable j (mask bit j) sits at amplitude-index bit width - 1 - j."""
    out = 0
    for j in range(width):
        if mask >> j & 1:
            out |= 1 << (width - 1 - j)
    return out


def sample_sparse_poly_terms_reference(num_vars: int, degree_bound: int, term_bound: int,
                                       rng: np.random.Generator) -> frozenset[int]:
    """The sampler's rejection loop, one mask at a time: draw batches of
    2 * needed raw masks and accept, in order, those of popcount <= d until
    ``term_bound`` draws are accepted (duplicates count)."""
    terms: set[int] = set()
    needed = term_bound
    while needed > 0:
        batch = rng.integers(1, 2**num_vars, size=2 * needed)
        for mask in batch:
            mask = int(mask)
            if mask.bit_count() <= degree_bound:
                terms.add(mask)
                needed -= 1
                if needed == 0:
                    break
    return frozenset(terms)


def dense_qga_matrix(desc: QgaDescription) -> np.ndarray:
    """Full unitary of a group-element description, built independently."""
    n = desc.num_qubits
    if desc.variant == VARIANT_GENERIC:
        return dense_circuit_matrix(desc.body)
    hn = hadamard_all(n)
    if desc.variant == VARIANT_IQP_CIRCUIT:
        return hn @ dense_circuit_matrix(desc.body) @ hn
    if desc.variant == VARIANT_IQP_POLY:
        poly = desc.body
        signs = np.empty(2**n, dtype=np.complex128)
        for z in range(2**n):
            bits = [(z >> (n - 1 - j)) & 1 for j in range(n)]
            signs[z] = -1.0 if poly_eval_reference(poly, bits) else 1.0
        return hn @ np.diag(signs) @ hn
    raise ValueError(f"unknown variant {desc.variant}")


# ---------------------------------------------------------------------------
# multi-bit encryption, one sub-ciphertext at a time
# ---------------------------------------------------------------------------

def ske_multi_enc_reference(key, message, rng: np.random.Generator) -> list:
    """The scalar encryption loop: per bit, per key of its block, a Haar |s>, then
    g|s> for a 0-bit or a second Haar state for a 1-bit, as StateVector pairs."""
    cts = []
    for i, bit in enumerate(int(b) for b in message):
        for j in range(key.repetitions):
            desc = key.keys[i * key.repetitions + j].group_desc
            first = sample_haar_state(desc.num_qubits, rng)
            second = apply_qga(desc, first) if bit == 0 else sample_haar_state(desc.num_qubits, rng)
            cts.append((first, second))
    return cts


def ske_multi_dec_reference(key, cts, rng: np.random.Generator) -> tuple[int, ...]:
    """The scalar decryption loop: one SWAP-test shot per sub-ciphertext, in
    order; bit i is 0 iff every shot of its block reports "equal"."""
    shots = [
        swap_test_sample(apply_qga(sub.group_desc, first), second, rng)
        for sub, (first, second) in zip(key.keys, cts)
    ]
    t = key.repetitions
    return tuple(0 if all(shots[i * t:(i + 1) * t]) else 1 for i in range(key.message_length))


# ---------------------------------------------------------------------------
# SWAP test as an explicit ancilla circuit on the engine
# ---------------------------------------------------------------------------

_CSWAP = np.eye(8, dtype=np.complex128)
_CSWAP[[5, 6]] = _CSWAP[[6, 5]]  # swap |101> and |110>: control 1 exchanges targets


def swap_test_circuit_accept_prob(a: StateVector, b: StateVector) -> float:
    """Hadamard, controlled-SWAPs, Hadamard; probability of ancilla reading 0."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("register sizes differ")
    n = a.num_qubits
    total = 1 + 2 * n
    gates = [h(0)]
    for i in range(n):
        gates.append(unitary_gate((0, 1 + i, 1 + n + i), _CSWAP))
    gates.append(h(0))
    circuit = Circuit(total, tuple(gates))
    anc = StateVector(1, np.array([1.0, 0.0], dtype=np.complex128))
    out = run_circuit(circuit, tensor(anc, a, b))
    amps = out.amplitudes
    # ancilla is qubit 0, the top bit of the index
    return float(np.sum(np.abs(amps[: 2 ** (2 * n)]) ** 2))


def swap_operator_matrix(register_width: int) -> np.ndarray:
    dim = 2**register_width
    m = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            m[j * dim + i, i * dim + j] = 1.0
    return m


# ---------------------------------------------------------------------------
# classical reference values
# ---------------------------------------------------------------------------

def nr_direct_exponentiation(p: int, q: int, key_elements, bits, s0: int) -> int:
    """s0^(g_ell^{x_ell} * ... * g_1^{x_1} * g_0 mod q) mod p."""
    exponent = key_elements[0] % q
    for i, bit in enumerate(bits, start=1):
        if bit:
            exponent = (exponent * key_elements[i]) % q
    return pow(s0, exponent, p)


def wilson_reference(successes: int, trials: int) -> tuple[float, float]:
    from scipy.stats import binomtest

    ci = binomtest(successes, trials).proportion_ci(confidence_level=0.95, method="wilson")
    return float(ci.low), float(ci.high)
