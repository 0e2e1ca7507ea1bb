"""Dense gates, circuits, phase words, the Hadamard layer and Haar unitary
sampling, checked against independently built dense matrices."""
import json

import numpy as np
import pytest

import oracles
from qgalab.circuits import (
    MAX_DENSE_QUBITS,
    Circuit,
    Gate,
    PhaseWord,
    apply_gate_array,
    circuit_from_json,
    circuit_to_json,
    gate_from_json,
    gate_to_json,
    hadamard_layer_array,
    run_circuit_array,
    sample_haar_unitary,
    word_from_json,
    word_to_json,
)
from qgalab.rng import stream
from qgalab.states import basis_state, plus_state, sample_haar_state

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def dense(kind, *targets):
    """A library Gate carrying the oracle's textbook matrix for kind."""
    return Gate(targets, oracles.TEXTBOOK[kind])


def apply(gate, n, state):
    return apply_gate_array(state.amplitudes, n, gate)


# ---------------------------------------------------------------------------
# gate construction
# ---------------------------------------------------------------------------

def test_gate_rejects_duplicate_and_negative_targets():
    with pytest.raises(ValueError):
        dense("CNOT", 1, 1)
    with pytest.raises(ValueError):
        dense("H", -1)


def test_gate_arity_checks():
    with pytest.raises(ValueError):
        dense("H", 0, 1)
    with pytest.raises(ValueError):
        dense("CNOT", 0)
    with pytest.raises(ValueError):
        Gate((), np.eye(1))


def test_unitary_gate_validation():
    with pytest.raises(ValueError):
        Gate((0,), np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Gate(tuple(range(MAX_DENSE_QUBITS + 1)), np.eye(2 ** (MAX_DENSE_QUBITS + 1)))
    with pytest.raises(ValueError):
        Gate((0, 1), np.eye(2))  # shape mismatch
    matrix = np.array(oracles.TEXTBOOK["CZ"])
    gate = Gate((0, 1), matrix)
    assert gate.payload.flags.writeable is False and gate.payload.dtype == np.complex128
    matrix[3, 3] = 1.0  # the gate keeps its own copy
    assert gate.payload[3, 3] == -1.0


def test_unknown_gate_kind():
    obj = gate_to_json(dense("H", 0))
    for kind in ("Y", "T", "DIAG"):
        with pytest.raises(ValueError):
            gate_from_json({**obj, "kind": kind})


def test_gate_equality():
    assert dense("H", 0) == dense("H", 0)
    assert dense("H", 0) != dense("H", 1)
    assert dense("H", 0) != dense("T", 0)
    assert dense("H", 0) != "h"


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0, ())
    with pytest.raises(ValueError):
        Circuit(1, (dense("CNOT", 0, 1),))
    assert Circuit(2, (dense("H", 0),)) == Circuit(2, (dense("H", 0),))
    assert Circuit(2, (dense("H", 0),)) != Circuit(2, (dense("H", 1),))


# ---------------------------------------------------------------------------
# single-gate facts: they pin the axis order of apply_gate_array
# ---------------------------------------------------------------------------

def test_h_on_zero():
    out = apply(dense("H", 0), 1, basis_state(1, 0))
    assert np.allclose(out, [INV_SQRT2, INV_SQRT2])


def test_x_flips():
    out = apply(dense("X", 0), 1, basis_state(1, 0))
    assert np.array_equal(out, basis_state(1, 1).amplitudes)


def test_t_phases_one():
    out = apply(dense("T", 0), 1, basis_state(1, 1))
    assert out[1] == pytest.approx(np.exp(1j * np.pi / 4))


def test_s_and_z_phases(rng):
    psi = sample_haar_state(1, rng)
    s_out = apply(dense("S", 0), 1, psi)
    z_out = apply(dense("Z", 0), 1, psi)
    assert s_out[1] == pytest.approx(1j * psi.amplitudes[1])
    assert z_out[1] == pytest.approx(-psi.amplitudes[1])


def test_cs_phases_eleven_only():
    out = apply(dense("CS", 0, 1), 2, basis_state(2, 3))
    assert out[3] == pytest.approx(1j)
    for idx in range(3):
        out = apply(dense("CS", 0, 1), 2, basis_state(2, idx))
        assert out[idx] == pytest.approx(1.0)


def test_cnot_control_is_first_target():
    out = apply(dense("CNOT", 0, 1), 2, basis_state(2, 2))  # |10> -> |11>
    assert np.array_equal(out, basis_state(2, 3).amplitudes)
    out = apply(dense("CNOT", 0, 1), 2, basis_state(2, 1))  # |01> unchanged
    assert np.array_equal(out, basis_state(2, 1).amplitudes)
    out = apply(dense("CNOT", 1, 0), 2, basis_state(2, 1))  # |01> -> |11> with control 1
    assert np.array_equal(out, basis_state(2, 3).amplitudes)


def test_cz_is_symmetric(rng):
    psi = sample_haar_state(2, rng)
    assert np.allclose(apply(dense("CZ", 0, 1), 2, psi), apply(dense("CZ", 1, 0), 2, psi))


def test_gate_on_nonadjacent_wires_matches_oracle(rng):
    gate = dense("CNOT", 2, 0)
    psi = sample_haar_state(3, rng)
    expected = oracles.dense_gate_matrix(gate, 3) @ psi.amplitudes
    assert np.max(np.abs(apply(gate, 3, psi) - expected)) < 1e-12


def test_apply_gate_range_check():
    with pytest.raises(ValueError):
        apply(dense("H", 1), 1, basis_state(1))


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

def test_empty_circuit_is_identity(rng):
    psi = sample_haar_state(3, rng)
    out = run_circuit_array(Circuit(3, ()), psi.amplitudes)
    assert np.array_equal(out, psi.amplitudes)


def test_h_squared_is_identity(rng):
    psi = sample_haar_state(1, rng)
    out = run_circuit_array(Circuit(1, (dense("H", 0), dense("H", 0))), psi.amplitudes)
    assert np.max(np.abs(out - psi.amplitudes)) < 1e-12


def test_hzh_is_x():
    # computed via the oracle product as well, not just the known identity
    gates = (dense("H", 0), dense("Z", 0), dense("H", 0))
    out = run_circuit_array(Circuit(1, gates), basis_state(1, 0).amplitudes)
    assert np.max(np.abs(out - basis_state(1, 1).amplitudes)) < 1e-12
    product = oracles.dense_circuit_matrix(1, gates)
    assert np.max(np.abs(product - oracles.TEXTBOOK["X"])) < 1e-12


def _random_gate(n, rng):
    kind = rng.integers(5)
    wires = [int(q) for q in rng.permutation(n)]
    if kind < 4:
        name = ("H", "T", "CNOT", "CS")[kind]
        return dense(name, *wires[: 1 if kind < 2 else 2])
    return Gate((wires[0], wires[1]), sample_haar_unitary(2, rng))


def test_random_circuits_match_dense_oracle(rng):
    # dual route: the axis-shuffling kernel against direct index arithmetic
    for trial in range(8):
        n = 3
        gates = tuple(_random_gate(n, rng) for _ in range(6))
        psi = sample_haar_state(n, rng)
        fast = run_circuit_array(Circuit(n, gates), psi.amplitudes)
        slow = oracles.dense_circuit_matrix(n, gates) @ psi.amplitudes
        assert np.max(np.abs(fast - slow)) < 1e-10


# ---------------------------------------------------------------------------
# phase words
# ---------------------------------------------------------------------------

def test_phase_word_validation():
    for n, a, b in [
        (0, [], []),  # no wires
        (2, [0], [-1, -1]),  # shape mismatch
        (2, [[0]], [[-1]]),  # not one-dimensional
        (2, [2], [-1]),  # T target out of range
        (2, [-1], [-1]),  # negative target
        (2, [0], [2]),  # CS target out of range
        (2, [1], [1]),  # repeated CS pair
        (2, [0], [-2]),  # b below the T marker
    ]:
        with pytest.raises(ValueError):
            PhaseWord(n, a, b)
    word = PhaseWord(3, [0, 2], [-1, 1])
    assert not word.a.flags.writeable and not word.b.flags.writeable


def test_phase_word_equality():
    word = PhaseWord(3, [0, 2], [-1, 1])
    assert word == PhaseWord(3, np.array([0, 2]), np.array([-1, 1]))
    assert word != PhaseWord(3, [0, 1], [-1, 2])  # CS(2, 1) is stored as drawn
    assert word != PhaseWord(4, [0, 2], [-1, 1])
    assert word != "word"

# ---------------------------------------------------------------------------
# Hadamard layer
# ---------------------------------------------------------------------------

def test_hadamard_layer_matches_gates_small(rng):
    psi = sample_haar_state(3, rng)
    layered = hadamard_layer_array(psi.amplitudes)
    gated = run_circuit_array(Circuit(3, tuple(dense("H", q) for q in range(3))), psi.amplitudes)
    assert np.max(np.abs(layered - gated)) < 1e-12


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
    gates = [dense("H", 0), dense("CNOT", 0, 2), Gate((1, 2), sample_haar_unitary(2, rng)),
             Gate((2, 0, 1), sample_haar_unitary(3, rng))]
    for gate in gates:
        obj = json.loads(json.dumps(gate_to_json(gate)))
        assert obj["kind"] == "UNITARY"
        assert gate_from_json(obj) == gate


def test_circuit_json_round_trip(rng):
    gates = (dense("H", 0), dense("CNOT", 0, 1), Gate((1, 2), sample_haar_unitary(2, rng)))
    circuit = Circuit(3, gates)
    back = circuit_from_json(json.loads(json.dumps(circuit_to_json(circuit))))
    assert back == circuit


def test_word_json_keeps_the_gate_dict_layout():
    word = PhaseWord(3, [1, 2, 0], [-1, 0, 2])
    obj = word_to_json(word)
    assert obj == {"num_qubits": 3, "gates": [
        {"kind": "T", "targets": [1]},
        {"kind": "CS", "targets": [2, 0]},
        {"kind": "CS", "targets": [0, 2]},
    ]}
    assert word_from_json(json.loads(json.dumps(obj))) == word
    assert word_from_json({"num_qubits": 1, "gates": []}) == PhaseWord(1, [], [])
