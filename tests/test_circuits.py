"""Gates, circuits, the Hadamard layer and Haar unitary sampling, checked
against independently built dense matrices."""
import json

import numpy as np
import pytest

import oracles
from qgalab.circuits import (
    FIXED_GATES,
    MAX_DENSE_QUBITS,
    Circuit,
    Gate,
    apply_gate,
    circuit_from_json,
    circuit_to_json,
    circuit_unitary,
    cnot,
    cs,
    cz,
    diag_from_function,
    diag_gate,
    gate_from_json,
    gate_to_json,
    h,
    hadamard_layer_array,
    run_circuit,
    s,
    sample_haar_unitary,
    t,
    unitary_gate,
    x,
    z,
)
from qgalab.rng import stream
from qgalab.states import basis_state, plus_state, sample_haar_state

INV_SQRT2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# gate construction
# ---------------------------------------------------------------------------

def test_gate_rejects_duplicate_and_negative_targets():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("H", (-1,))


def test_gate_arity_checks():
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("CNOT", (0,))


def test_fixed_gate_rejects_payload():
    with pytest.raises(ValueError):
        Gate("H", (0,), np.eye(2))


def test_diag_gate_validation():
    with pytest.raises(ValueError):
        Gate("DIAG", (), np.array([1.0]))
    with pytest.raises(ValueError):
        diag_gate((0,), [1.0, 0.5])  # not unit modulus
    with pytest.raises(ValueError):
        diag_gate((0,), [1.0, 1.0, 1.0, 1.0])  # wrong length
    gate = diag_gate((0, 1), [1, -1, 1j, -1j])
    assert gate.payload.flags.writeable is False


def test_unitary_gate_validation():
    with pytest.raises(ValueError):
        unitary_gate((0,), np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        unitary_gate(tuple(range(MAX_DENSE_QUBITS + 1)), np.eye(2 ** (MAX_DENSE_QUBITS + 1)))
    with pytest.raises(ValueError):
        unitary_gate((0, 1), np.eye(2))  # shape mismatch


def test_unknown_gate_kind():
    with pytest.raises(ValueError):
        Gate("Y", (0,))


def test_gate_equality():
    assert h(0) == h(0)
    assert h(0) != h(1)
    assert h(0) != t(0)
    assert diag_gate((0,), [1, -1]) == diag_gate((0,), [1, -1])
    assert diag_gate((0,), [1, -1]) != diag_gate((0,), [1, 1j])
    assert h(0) != "h"


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0, ())
    with pytest.raises(ValueError):
        Circuit(1, (cnot(0, 1),))
    assert Circuit(2, (h(0),)) == Circuit(2, (h(0),))
    assert Circuit(2, (h(0),)) != Circuit(2, (h(1),))


# ---------------------------------------------------------------------------
# single-gate facts
# ---------------------------------------------------------------------------

def test_h_on_zero():
    out = apply_gate(basis_state(1, 0), h(0))
    assert np.allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2])


def test_x_flips():
    out = apply_gate(basis_state(1, 0), x(0))
    assert np.array_equal(out.amplitudes, basis_state(1, 1).amplitudes)


def test_t_phases_one():
    out = apply_gate(basis_state(1, 1), t(0))
    assert out.amplitudes[1] == pytest.approx(np.exp(1j * np.pi / 4))


def test_s_and_z_phases(rng):
    psi = sample_haar_state(1, rng)
    s_out = apply_gate(psi, s(0))
    z_out = apply_gate(psi, z(0))
    assert s_out.amplitudes[1] == pytest.approx(1j * psi.amplitudes[1])
    assert z_out.amplitudes[1] == pytest.approx(-psi.amplitudes[1])


def test_cs_phases_eleven_only():
    out = apply_gate(basis_state(2, 3), cs(0, 1))
    assert out.amplitudes[3] == pytest.approx(1j)
    for idx in range(3):
        out = apply_gate(basis_state(2, idx), cs(0, 1))
        assert out.amplitudes[idx] == pytest.approx(1.0)


def test_cnot_control_is_first_target():
    out = apply_gate(basis_state(2, 2), cnot(0, 1))  # |10> -> |11>
    assert np.array_equal(out.amplitudes, basis_state(2, 3).amplitudes)
    out = apply_gate(basis_state(2, 1), cnot(0, 1))  # |01> unchanged
    assert np.array_equal(out.amplitudes, basis_state(2, 1).amplitudes)


def test_cz_is_symmetric(rng):
    psi = sample_haar_state(2, rng)
    assert np.allclose(
        apply_gate(psi, cz(0, 1)).amplitudes, apply_gate(psi, cz(1, 0)).amplitudes
    )


def test_gate_on_nonadjacent_wires_matches_oracle(rng):
    gate = cnot(2, 0)
    psi = sample_haar_state(3, rng)
    expected = oracles.dense_gate_matrix(gate, 3) @ psi.amplitudes
    assert np.max(np.abs(apply_gate(psi, gate).amplitudes - expected)) < 1e-12


def test_apply_gate_range_check():
    with pytest.raises(ValueError):
        apply_gate(basis_state(1), h(1))


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

def test_empty_circuit_is_identity(rng):
    psi = sample_haar_state(3, rng)
    out = run_circuit(Circuit(3, ()), psi)
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_h_squared_is_identity(rng):
    psi = sample_haar_state(1, rng)
    out = run_circuit(Circuit(1, (h(0), h(0))), psi)
    assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-12


def test_hzh_is_x():
    # computed via the oracle product as well, not just the known identity
    circuit = Circuit(1, (h(0), z(0), h(0)))
    out = run_circuit(circuit, basis_state(1, 0))
    assert np.max(np.abs(out.amplitudes - basis_state(1, 1).amplitudes)) < 1e-12
    product = oracles.dense_circuit_matrix(circuit)
    assert np.max(np.abs(product - oracles.gate_matrix_small(x(0)))) < 1e-12


def test_run_circuit_size_mismatch():
    with pytest.raises(ValueError):
        run_circuit(Circuit(2, ()), basis_state(1))


def _random_gate(n, rng):
    kind = rng.integers(6)
    wires = rng.permutation(n)
    if kind == 0:
        return h(int(wires[0]))
    if kind == 1:
        return t(int(wires[0]))
    if kind == 2:
        return cnot(int(wires[0]), int(wires[1]))
    if kind == 3:
        return cs(int(wires[0]), int(wires[1]))
    if kind == 4:
        phases = np.exp(2j * np.pi * rng.random(4))
        return diag_gate((int(wires[0]), int(wires[1])), phases)
    return unitary_gate((int(wires[0]), int(wires[1])), sample_haar_unitary(2, rng))


def test_random_circuits_match_dense_oracle(rng):
    # dual route: the axis-shuffling kernel against direct index arithmetic
    for trial in range(8):
        n = 3
        gates = tuple(_random_gate(n, rng) for _ in range(6))
        circuit = Circuit(n, gates)
        psi = sample_haar_state(n, rng)
        fast = run_circuit(circuit, psi).amplitudes
        slow = oracles.dense_circuit_matrix(circuit) @ psi.amplitudes
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_circuit_unitary_matches_oracle(rng):
    gates = (h(0), cnot(0, 1), t(1), cs(1, 2), h(2))
    circuit = Circuit(3, gates)
    assert np.max(np.abs(circuit_unitary(circuit) - oracles.dense_circuit_matrix(circuit))) < 1e-10


def test_circuit_unitary_respects_dense_cap():
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(MAX_DENSE_QUBITS + 1, ()))


# ---------------------------------------------------------------------------
# Hadamard layer
# ---------------------------------------------------------------------------

def test_hadamard_layer_matches_gates_small(rng):
    psi = sample_haar_state(3, rng)
    layered = hadamard_layer_array(psi.amplitudes)
    gated = run_circuit(Circuit(3, tuple(h(q) for q in range(3))), psi)
    assert np.max(np.abs(layered - gated.amplitudes)) < 1e-12


def test_hadamard_layer_matches_kron_large(rng):
    # size 512 exercises the butterfly path rather than the cached dense one
    n = 9
    psi = sample_haar_state(n, rng)
    expected = oracles.hadamard_all(n) @ psi.amplitudes
    assert np.max(np.abs(hadamard_layer_array(psi.amplitudes) - expected)) < 1e-10


def test_hadamard_layer_is_involution(rng):
    for n in (2, 9):
        psi = sample_haar_state(n, rng)
        twice = hadamard_layer_array(hadamard_layer_array(psi.amplitudes))
        assert np.max(np.abs(twice - psi.amplitudes)) < 1e-10


def test_hadamard_layer_sends_zero_to_plus():
    out = hadamard_layer_array(basis_state(4, 0).amplitudes)
    assert np.max(np.abs(out - plus_state(4).amplitudes)) < 1e-12


def _hadamard_inputs(num_qubits: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    dim = 2**num_qubits
    uniform = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    # -0-0j on the first half, +0 on the second: the output's zero signs tell
    # -1.0 y + x apart from x - y, which differ only in the sign of zero
    signed_zeros = np.zeros(dim, dtype=np.complex128)
    signed_zeros[: dim // 2] = complex(-0.0, -0.0)
    return {
        "random": rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        "basis": basis_state(num_qubits, 3).amplitudes,
        "uniform": uniform,
        "h-uniform": oracles.hadamard_layer_reference(uniform),
        "signed-zeros": signed_zeros,
    }


@pytest.mark.parametrize("num_qubits", [9, 13, 16, 17, 18])
def test_hadamard_layer_is_byte_identical_to_plain_butterfly(num_qubits):
    # odd and even qubit counts split the transposed low stages differently
    rng = np.random.default_rng(num_qubits)
    for name, amps in _hadamard_inputs(num_qubits, rng).items():
        expected = oracles.hadamard_layer_reference(amps)
        assert hadamard_layer_array(amps).tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("num_qubits", [1, 3, 8, 9, 12])
def test_batched_hadamard_rows_match_one_dimensional_calls(num_qubits):
    # dense (up to 8 qubits) and butterfly branches; the butterfly runs the
    # same element operations per row, so there the bytes agree too
    rng = np.random.default_rng(num_qubits)
    rows = rng.standard_normal((5, 2**num_qubits)) + 1j * rng.standard_normal((5, 2**num_qubits))
    batched = hadamard_layer_array(rows)
    assert batched.shape == rows.shape
    for row, out in zip(rows, batched):
        single = hadamard_layer_array(row)
        assert np.max(np.abs(out - single)) < 1e-12
        if num_qubits > 8:
            assert out.tobytes() == single.tobytes()


def test_hadamard_layer_accepts_and_keeps_read_only_input(rng):
    psi = sample_haar_state(10, rng)
    before = psi.amplitudes.tobytes()
    out = hadamard_layer_array(psi.amplitudes)
    assert psi.amplitudes.tobytes() == before
    assert out.flags.writeable
    assert out.tobytes() == oracles.hadamard_layer_reference(psi.amplitudes).tobytes()


# ---------------------------------------------------------------------------
# Haar unitaries
# ---------------------------------------------------------------------------

def test_sample_haar_unitary_is_unitary_and_deterministic():
    u1 = sample_haar_unitary(2, stream(5, "u"))
    u2 = sample_haar_unitary(2, stream(5, "u"))
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(4))) < 1e-10


def test_sample_haar_unitary_cap():
    with pytest.raises(ValueError):
        sample_haar_unitary(MAX_DENSE_QUBITS + 1, stream(0, "u"))


def test_sample_haar_unitary_first_entry_moment(rng):
    # |u_00|^2 has mean 1/dim under Haar
    dim, draws = 4, 1500
    vals = np.array([abs(sample_haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(draws)])
    se = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - 1.0 / dim) < 3 * se


def test_haar_unitary_columns_differ(rng):
    u = sample_haar_unitary(1, rng)
    v = sample_haar_unitary(1, rng)
    assert np.max(np.abs(u - v)) > 1e-3


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_gate_json_round_trip_all_kinds(rng):
    gates = [
        h(0), x(1), z(0), s(2), t(1), cnot(0, 2), cz(1, 0), cs(0, 1),
        diag_gate((0, 1), np.exp(2j * np.pi * rng.random(4))),
        unitary_gate((1, 2), sample_haar_unitary(2, rng)),
    ]
    for gate in gates:
        back = gate_from_json(json.loads(json.dumps(gate_to_json(gate))))
        assert back == gate


def test_circuit_json_round_trip(rng):
    circuit = Circuit(3, (h(0), cnot(0, 1), unitary_gate((1, 2), sample_haar_unitary(2, rng))))
    back = circuit_from_json(json.loads(json.dumps(circuit_to_json(circuit))))
    assert back == circuit


def test_fixed_gate_table_matches_textbook():
    for kind, matrix in FIXED_GATES.items():
        assert np.max(np.abs(matrix - oracles._FIXED[kind])) < 1e-12


def test_diag_from_function():
    gate = diag_from_function((0, 1), lambda i: -1.0 if i == 3 else 1.0)
    assert gate == cz(0, 1) or np.array_equal(gate.payload, np.array([1, 1, 1, -1], dtype=complex))
