"""The three candidate unitary families and the two reference families."""
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qgalab import circuits as qc
from qgalab import qga as qga_module
from qgalab.circuits import Circuit, cs, h, t
from qgalab.games import run_up_game, up_haar
from qgalab.gf2poly import SparsePolyF2
from qgalab.qga import (
    VARIANT_GENERIC,
    VARIANT_IQP_CIRCUIT,
    VARIANT_IQP_POLY,
    QgaDescription,
    StateDescription,
    apply_qga,
    apply_qga_array,
    apply_qga_start,
    haar_unitary_qga,
    identity_qga,
    iqp_circuit_qga,
    iqp_poly_qga,
    qga_from_json,
    qga_to_json,
    random_circuit_qga,
    sample_g_candidate1,
    sample_g_candidate2,
    sample_g_candidate3,
    sample_s,
    state_desc_from_json,
    state_desc_to_json,
)
from qgalab.rng import stream
from qgalab.states import basis_state, plus_state, projection_prob, sample_haar_state


# ---------------------------------------------------------------------------
# descriptions
# ---------------------------------------------------------------------------

def test_state_description():
    desc = StateDescription(3, 5)
    assert np.array_equal(desc.expand().amplitudes, basis_state(3, 5).amplitudes)
    assert desc.expand() is desc.expand()
    with pytest.raises(ValueError):
        StateDescription(2, 4)


def test_basis_state_is_shared_across_descriptions():
    assert StateDescription(5).expand() is StateDescription(5).expand()
    assert not StateDescription(5).expand().amplitudes.flags.writeable


def test_sample_s_is_all_zeros():
    desc = sample_s(4)
    assert desc.basis_index == 0
    assert desc.expand().amplitudes[0] == 1.0


def test_description_validation(rng):
    poly = SparsePolyF2(2, frozenset({1}), 1, 1)
    with pytest.raises(ValueError):
        QgaDescription("nope", 2, Circuit(2, ()))
    with pytest.raises(ValueError):
        QgaDescription(VARIANT_IQP_POLY, 2, Circuit(2, ()))
    with pytest.raises(ValueError):
        QgaDescription(VARIANT_GENERIC, 2, poly)
    with pytest.raises(ValueError):
        QgaDescription(VARIANT_GENERIC, 3, Circuit(2, ()))
    with pytest.raises(ValueError):
        QgaDescription(VARIANT_IQP_POLY, 3, poly)  # poly on 2 vars, 3 qubits
    with pytest.raises(ValueError):
        QgaDescription(VARIANT_IQP_CIRCUIT, 2, Circuit(2, (h(0),)))  # only T and CS


def test_description_equality(rng):
    a = sample_g_candidate3(3, 2, 4, stream(1, "eq"))
    b = sample_g_candidate3(3, 2, 4, stream(1, "eq"))
    c = sample_g_candidate3(3, 2, 4, stream(2, "eq"))
    assert a == b
    assert a != c or a.body == c.body  # distinct streams generically differ
    assert a != "not a description"


# ---------------------------------------------------------------------------
# application and diagonals agree with independent dense matrices
# ---------------------------------------------------------------------------

def _sample_each_variant(n, rng):
    return [
        sample_g_candidate1(n, 3, rng),
        sample_g_candidate2(n, 12, rng),
        sample_g_candidate3(n, 3, n * n, rng),
    ]


def test_apply_matches_dense_oracle(rng):
    for desc in _sample_each_variant(3, rng):
        dense = oracles.dense_qga_matrix(desc)
        assert np.max(np.abs(dense.conj().T @ dense - np.eye(8))) < 1e-10
        psi = sample_haar_state(3, rng)
        fast = apply_qga(desc, psi).amplitudes
        assert np.max(np.abs(fast - dense @ psi.amplitudes)) < 1e-10


@st.composite
def _iqp_words(draw):
    """A {T, CS} word on 1..8 qubits; a small wire pool makes repeats common."""
    n = draw(st.integers(min_value=1, max_value=8))
    wire = st.integers(min_value=0, max_value=n - 1)
    gate = wire.map(t)
    if n >= 2:
        pair = st.lists(wire, min_size=2, max_size=2, unique=True)
        gate = st.one_of(gate, pair.map(lambda ab: cs(*ab)))
    return Circuit(n, tuple(draw(st.lists(gate, max_size=24))))


@settings(max_examples=40, deadline=None)
@given(_iqp_words())
def test_circuit_diagonal_matches_dense_word(word):
    desc = QgaDescription(VARIANT_IQP_CIRCUIT, word.num_qubits, word)
    dense = np.diag(oracles.dense_circuit_matrix(word))
    assert np.max(np.abs(desc.diagonal() - dense)) < 1e-12


def _circuit_diagonal(n, gates):
    return QgaDescription(VARIANT_IQP_CIRCUIT, n, Circuit(n, tuple(gates))).diagonal()


def test_circuit_diagonal_exact_cases():
    empty = _circuit_diagonal(3, [])
    assert empty.dtype == np.complex128
    assert empty.tobytes() == np.full(8, 1 + 0j).tobytes()
    assert _circuit_diagonal(3, [t(1)] * 8).tobytes() == empty.tobytes()  # T^8 = I
    assert _circuit_diagonal(3, [cs(0, 2)] * 4).tobytes() == empty.tobytes()  # CS^4 = I
    assert _circuit_diagonal(3, [cs(0, 2)]).tobytes() == _circuit_diagonal(3, [cs(2, 0)]).tobytes()


def test_circuit_diagonal_long_word_wraps_silently():
    # 500 T and 500 CS: the raw weights (500 and 1,000) pass 255
    word = Circuit(2, (t(0), cs(0, 1)) * 500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = QgaDescription(VARIANT_IQP_CIRCUIT, 2, word).diagonal()
    assert np.max(np.abs(diag - np.diag(oracles.dense_circuit_matrix(word)))) < 1e-12


def test_diagonal_is_cached_and_read_only(rng):
    for desc in _sample_each_variant(3, rng)[1:]:
        assert desc.diagonal() is desc.diagonal()
        assert not desc.diagonal().flags.writeable
    with pytest.raises(ValueError):
        sample_g_candidate1(3, 1, rng).diagonal()


def test_iqp_families_never_run_the_gate_loop(rng, monkeypatch):
    def refuse(*args):
        raise AssertionError("an IQP element went through run_circuit_array")

    monkeypatch.setattr(qc, "run_circuit_array", refuse)
    psi = sample_haar_state(4, rng)
    for family in (iqp_circuit_qga(4), iqp_poly_qga(4)):
        apply_qga(family.sample_g(rng), psi)


@pytest.mark.parametrize("num_qubits", [3, 8, 10])
def test_apply_qga_start_is_byte_identical_to_apply_qga(num_qubits, rng):
    # 8 and fewer qubits take the dense Walsh path, 10 the butterfly
    for basis_index in (0, 5):
        start = StateDescription(num_qubits, basis_index)
        for desc in _sample_each_variant(num_qubits, rng):
            expected = apply_qga(desc, start.expand()).amplitudes
            assert apply_qga_start(desc, start).amplitudes.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        apply_qga_start(sample_g_candidate3(3, 2, 4, rng), StateDescription(2))


def test_cached_start_image_is_read_only(rng):
    desc = sample_g_candidate3(10, 3, 20, rng)
    apply_qga_start(desc, sample_s(10))
    first = qga_module._first_layer(sample_s(10))
    assert first is qga_module._first_layer(StateDescription(10, 0))
    assert not first.flags.writeable
    assert first.tobytes() == qc.hadamard_layer_array(basis_state(10, 0).amplitudes).tobytes()


def test_iqp_up_trial_runs_one_walsh_layer(monkeypatch):
    family = iqp_poly_qga(10)
    apply_qga_start(family.sample_g(stream(0, "warm")), family.sample_s())
    calls = []
    layer = qc.hadamard_layer_array

    def counted(arr):
        calls.append(arr.size)
        return layer(arr)

    monkeypatch.setattr(qc, "hadamard_layer_array", counted)
    run_up_game(family, up_haar, 1, 2, seed=3)
    assert calls == [2**10, 2**10]


def test_apply_dimension_checks(rng):
    desc = sample_g_candidate3(3, 2, 4, rng)
    with pytest.raises(ValueError):
        apply_qga(desc, basis_state(2, 0))
    with pytest.raises(ValueError):
        apply_qga_array(desc, np.zeros(4, dtype=np.complex128))


def test_single_linear_monomial_action():
    # f = x1 on two qubits: H-sandwich of the sign flip on the top wire is Z
    # conjugated by H there, i.e. an X on qubit 0: |00> -> |10>
    poly = SparsePolyF2(2, frozenset({1}), 1, 1)
    desc = QgaDescription(VARIANT_IQP_POLY, 2, poly)
    out = apply_qga(desc, basis_state(2, 0))
    assert np.max(np.abs(out.amplitudes - basis_state(2, 2).amplitudes)) < 1e-12


# ---------------------------------------------------------------------------
# family-level structure
# ---------------------------------------------------------------------------

def test_iqp_families_fix_uniform_superposition(rng):
    plus = plus_state(4)
    for family in (iqp_circuit_qga(4), iqp_poly_qga(4)):
        for _ in range(5):
            out = apply_qga(family.sample_g(rng), plus)
            assert np.max(np.abs(out.amplitudes - plus.amplitudes)) < 1e-12


def test_iqp_families_commute(rng):
    psi = sample_haar_state(4, rng)
    for family in (iqp_circuit_qga(4), iqp_poly_qga(4)):
        for _ in range(5):
            g = family.sample_g(rng)
            hh = family.sample_g(rng)
            gh = apply_qga(g, apply_qga(hh, psi))
            hg = apply_qga(hh, apply_qga(g, psi))
            assert np.max(np.abs(gh.amplitudes - hg.amplitudes)) < 1e-10


def test_generic_circuits_do_not_commute(rng):
    family = random_circuit_qga(2, depth=1)
    psi = sample_haar_state(2, rng)
    g = family.sample_g(rng)
    hh = family.sample_g(rng)
    gh = apply_qga(g, apply_qga(hh, psi))
    hg = apply_qga(hh, apply_qga(g, psi))
    assert np.max(np.abs(gh.amplitudes - hg.amplitudes)) > 1e-3


def test_candidate1_brickwork_layout(rng):
    desc = sample_g_candidate1(4, 2, rng)
    targets = [g.targets for g in desc.body.gates]
    assert targets == [(0, 1), (2, 3), (1, 2)]
    assert sample_g_candidate1(4, 0, rng).body.gates == ()
    with pytest.raises(ValueError):
        sample_g_candidate1(4, -1, rng)


def test_candidate2_gate_word(rng):
    desc = sample_g_candidate2(3, 20, rng)
    assert len(desc.body.gates) == 20
    assert all(g.kind in ("T", "CS") for g in desc.body.gates)
    assert sample_g_candidate2(1, 6, rng).body.gates[0].kind == "T"
    with pytest.raises(ValueError):
        sample_g_candidate2(3, -1, rng)


def test_default_parameters():
    assert iqp_circuit_qga(3).params["num_gates"] == 45
    poly_family = iqp_poly_qga(3)
    assert poly_family.params["d"] == 3
    assert poly_family.params["w"] == 9
    assert iqp_poly_qga(2).params["d"] == 2  # clipped to lambda
    assert random_circuit_qga(3).params["depth"] == 4


def test_sampling_is_deterministic():
    for build in (random_circuit_qga, iqp_circuit_qga, iqp_poly_qga, haar_unitary_qga):
        family = build(3)
        assert family.sample_g(stream(4, "det")) == family.sample_g(stream(4, "det"))


def test_haar_unitary_family(rng):
    family = haar_unitary_qga(2)
    desc = family.sample_g(rng)
    assert desc.variant == VARIANT_GENERIC
    assert len(desc.body.gates) == 1
    assert desc.body.gates[0].kind == "UNITARY"
    assert desc.body.gates[0].targets == (0, 1)


def test_identity_family(rng):
    family = identity_qga(3)
    psi = sample_haar_state(3, rng)
    desc = family.sample_g(rng)
    assert desc == family.sample_g(rng)
    assert np.array_equal(apply_qga(desc, psi).amplitudes, psi.amplitudes)


def test_family_state_sampler():
    assert iqp_poly_qga(3).sample_s() == StateDescription(3, 0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_qga_json_round_trip_all_variants(rng):
    for desc in _sample_each_variant(3, rng):
        back = qga_from_json(json.loads(json.dumps(qga_to_json(desc))))
        assert back == desc


def test_state_desc_json_round_trip():
    desc = StateDescription(4, 9)
    back = state_desc_from_json(json.loads(json.dumps(state_desc_to_json(desc))))
    assert back == desc
