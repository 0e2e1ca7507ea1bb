"""The three candidate unitary families and the two reference families."""
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qgalab import circuits as qc
from qgalab import prfsg
from qgalab import qga as qga_module
from qgalab.circuits import Circuit, Gate, PhaseWord
from qgalab.games import run_up_game, up_haar
from qgalab.gf2poly import PARITY_SIGNS, SparsePolyF2, subset_sums
from qgalab.qga import (
    VARIANT_GENERIC,
    VARIANT_IQP_CIRCUIT,
    VARIANT_IQP_POLY,
    QgaDescription,
    StateDescription,
    apply_qga,
    apply_qga_array,
    apply_qga_rows,
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
    stacked_diagonals,
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
        QgaDescription(VARIANT_IQP_CIRCUIT, 2, Circuit(2, ()))  # a word, not a circuit
    with pytest.raises(ValueError):
        QgaDescription(VARIANT_GENERIC, 2, PhaseWord(2, [], []))
    with pytest.raises(ValueError):
        QgaDescription(VARIANT_IQP_CIRCUIT, 3, PhaseWord(2, [0], [1]))


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


_WIDTHS = st.integers(min_value=1, max_value=8)


@st.composite
def _iqp_words(draw, widths=_WIDTHS):
    """A {T, CS} PhaseWord on 1..8 qubits; a small wire pool makes repeats common."""
    n = draw(widths)
    wire = st.integers(min_value=0, max_value=n - 1)
    letter = wire.map(lambda a: (a, -1))
    if n >= 2:
        pair = st.lists(wire, min_size=2, max_size=2, unique=True)
        letter = st.one_of(letter, pair.map(tuple))
    letters = draw(st.lists(letter, max_size=24))
    return PhaseWord(n, [a for a, _ in letters], [b for _, b in letters])


@settings(max_examples=40, deadline=None)
@given(_iqp_words())
def test_circuit_diagonal_matches_dense_word(word):
    desc = QgaDescription(VARIANT_IQP_CIRCUIT, word.num_qubits, word)
    dense = np.diag(oracles.dense_circuit_matrix(word.num_qubits, oracles.word_letters(word)))
    assert np.max(np.abs(desc.diagonal() - dense)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(_WIDTHS.flatmap(lambda n: st.lists(_iqp_words(st.just(n)), min_size=1, max_size=4)))
def test_stacked_diagonals_match_the_per_letter_weight_loop(words):
    # np.add.at sums weights mod 256, the reference loop mod 8: 8 | 256, so the
    # omega table reads the same entries and the bytes agree
    descs = [QgaDescription(VARIANT_IQP_CIRCUIT, w.num_qubits, w) for w in words]
    expected = qga_module._OMEGA_POWERS.take(subset_sums(oracles.phase_weights_reference(descs)))
    assert stacked_diagonals(descs).tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(_WIDTHS.flatmap(lambda n: st.lists(
    st.sets(st.integers(1, 2**n - 1), max_size=12).map(
        lambda terms: SparsePolyF2(n, frozenset(terms), n, max(1, len(terms)))),
    min_size=1, max_size=4)))
def test_stacked_poly_diagonals_match_the_per_element_term_loop(polys):
    # one fancy assignment over all stacked terms sets the same 0/1 table as a
    # loop over the elements, so the parity signs agree byte for byte
    descs = [QgaDescription(VARIANT_IQP_POLY, p.num_vars, p) for p in polys]
    expected = PARITY_SIGNS.take(subset_sums(oracles.term_weights_reference(descs)))
    assert stacked_diagonals(descs).tobytes() == expected.tobytes()


def _circuit_diagonal(n, a, b):
    return QgaDescription(VARIANT_IQP_CIRCUIT, n, PhaseWord(n, a, b)).diagonal()


def test_circuit_diagonal_exact_cases():
    empty = _circuit_diagonal(3, [], [])
    assert empty.dtype == np.complex128
    assert empty.tobytes() == np.full(8, 1 + 0j).tobytes()
    assert _circuit_diagonal(3, [1] * 8, [-1] * 8).tobytes() == empty.tobytes()  # T^8 = I
    assert _circuit_diagonal(3, [0] * 4, [2] * 4).tobytes() == empty.tobytes()  # CS^4 = I
    assert _circuit_diagonal(3, [0], [2]).tobytes() == _circuit_diagonal(3, [2], [0]).tobytes()


def test_circuit_diagonal_long_word_wraps_silently():
    # 500 T and 500 CS: the raw weights (500 and 1,000) pass 255
    word = PhaseWord(2, [0, 0] * 500, [-1, 1] * 500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = QgaDescription(VARIANT_IQP_CIRCUIT, 2, word).diagonal()
    dense = oracles.dense_circuit_matrix(2, oracles.word_letters(word))
    assert np.max(np.abs(diag - np.diag(dense))) < 1e-12
    reference = qga_module._OMEGA_POWERS.take(subset_sums(
        oracles.phase_weights_reference([QgaDescription(VARIANT_IQP_CIRCUIT, 2, word)])))
    assert diag.tobytes() == reference[0].tobytes()


def test_diagonal_is_cached_and_read_only(rng):
    for desc in _sample_each_variant(3, rng)[1:]:
        assert desc.diagonal() is desc.diagonal()
        assert not desc.diagonal().flags.writeable
    with pytest.raises(ValueError):
        sample_g_candidate1(3, 1, rng).diagonal()


def test_stacked_diagonals_are_the_rows_of_each_diagonal(rng):
    for make in (lambda: sample_g_candidate2(4, 30, rng), lambda: sample_g_candidate3(4, 3, 16, rng)):
        descs = [make() for _ in range(5)]
        stack = stacked_diagonals(descs)
        assert stack.shape == (5, 16) and not stack.flags.writeable
        for desc, row in zip(descs, stack):
            assert row.tobytes() == desc.diagonal().tobytes()
            if desc.variant == VARIANT_IQP_POLY:
                assert row.tobytes() == desc.body.sign_vector().tobytes()
    with pytest.raises(ValueError):
        stacked_diagonals([sample_g_candidate2(3, 4, rng), sample_g_candidate3(3, 2, 4, rng)])
    with pytest.raises(ValueError):
        stacked_diagonals([sample_g_candidate3(3, 2, 4, rng), sample_g_candidate3(4, 2, 4, rng)])
    with pytest.raises(ValueError):
        stacked_diagonals([sample_g_candidate1(3, 1, rng)])


@pytest.mark.parametrize("num_qubits", [3, 9])
def test_apply_qga_rows_matches_apply_qga_array(num_qubits, rng):
    for make in (lambda: sample_g_candidate1(num_qubits, 2, rng),
                 lambda: sample_g_candidate2(num_qubits, 20, rng),
                 lambda: sample_g_candidate3(num_qubits, 3, num_qubits**2, rng)):
        descs = [make() for _ in range(4)]
        rows = np.array([sample_haar_state(num_qubits, rng).amplitudes for _ in descs])
        generic = descs[0].variant == VARIANT_GENERIC
        out = apply_qga_rows(np.array(descs, dtype=object) if generic else stacked_diagonals(descs), rows)
        for desc, row, got in zip(descs, rows, out):
            assert np.max(np.abs(got - apply_qga_array(desc, row))) < 1e-12


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


@pytest.mark.parametrize("workers", [2, 4])
def test_first_layer_is_computed_once_across_workers(workers, monkeypatch):
    # a cold cache and threads switching often: every trial but one must find
    # H^(x)n|0> cached, so each trial costs one layer and the cache one more
    qga_module._first_layer.cache_clear()
    calls = []
    layer = qc.hadamard_layer_array

    def counted(arr):
        calls.append(arr.size)
        return layer(arr)

    monkeypatch.setattr(qc, "hadamard_layer_array", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        trials = 8
        run_up_game(iqp_poly_qga(10), up_haar, 1, trials, seed=5, workers=workers)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == trials + 1


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
    assert isinstance(desc.body, PhaseWord)
    assert desc.body.a.shape == desc.body.b.shape == (20,)
    assert np.array_equal(sample_g_candidate2(1, 6, rng).body.b, [-1] * 6)  # T only
    with pytest.raises(ValueError):
        sample_g_candidate2(3, -1, rng)


@pytest.mark.parametrize("num_qubits", [1, 2, 5])
def test_candidate2_draws_letter_by_letter(num_qubits):
    # the word is the per-letter loop's, and the generator is left in the same state
    rng, ref_rng = stream(num_qubits, "word"), stream(num_qubits, "word")
    word = sample_g_candidate2(num_qubits, 40, rng).body
    letters = []
    for _ in range(40):
        if num_qubits >= 2 and ref_rng.random() < 0.5:
            letters.append(tuple(int(q) for q in ref_rng.choice(num_qubits, size=2, replace=False)))
        else:
            letters.append((int(ref_rng.integers(num_qubits)), -1))
    assert list(zip(word.a.tolist(), word.b.tolist())) == letters
    assert rng.random() == ref_rng.random()


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
    assert isinstance(desc.body.gates[0], Gate)
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


def _iqp_key_json(letters):
    # a valid first letter, so each case fails on its second
    gates = [{"kind": "T", "targets": [0]}] + letters
    return {"variant": VARIANT_IQP_CIRCUIT, "num_qubits": 3, "body": {"num_qubits": 3, "gates": gates}}


@pytest.mark.parametrize("obj", [
    _iqp_key_json([{"kind": "H", "targets": [0]}]),
    _iqp_key_json([{"kind": "CS", "targets": [0, 1, 2]}]),
    _iqp_key_json([{"kind": "CS", "targets": [1, 1]}]),
    _iqp_key_json([{"kind": "T", "targets": [3]}]),
    _iqp_key_json([{"kind": "CS", "targets": [0, 3]}]),
    _iqp_key_json([{"kind": "CS", "targets": [0, -1]}]),
    _iqp_key_json([{"kind": "T", "targets": [0, 1]}]),
    _iqp_key_json([{"kind": "T", "targets": []}]),
    {"variant": VARIANT_GENERIC, "num_qubits": 2,
     "body": {"num_qubits": 2, "gates": [{"kind": "T", "targets": [0]}]}},
    {"variant": "nope", "num_qubits": 2, "body": {"num_qubits": 2, "gates": []}},
    # missing fields
    {"variant": VARIANT_IQP_CIRCUIT, "num_qubits": 3, "body": {"num_qubits": 3}},
    {"variant": VARIANT_GENERIC, "num_qubits": 2, "body": {"num_qubits": 2}},
    _iqp_key_json([{"targets": [1]}]),
    {"variant": VARIANT_GENERIC, "num_qubits": 1,
     "body": {"num_qubits": 1, "gates": [{"kind": "UNITARY", "targets": [0]}]}},
    {"num_qubits": 3, "body": {"num_qubits": 3, "gates": []}},
    {"variant": VARIANT_IQP_CIRCUIT, "body": {"num_qubits": 3, "gates": []}},
], ids=["iqp-H", "iqp-three-targets", "iqp-cs-repeated", "iqp-t-out-of-range",
        "iqp-cs-out-of-range", "iqp-cs-negative", "iqp-t-two-targets", "iqp-t-no-target",
        "generic-T", "unknown-variant", "iqp-body-no-gates", "generic-body-no-gates",
        "iqp-letter-no-kind", "generic-gate-no-payload", "no-variant", "no-num-qubits"])
def test_malformed_descriptions_raise_value_error(obj):
    with pytest.raises(ValueError):
        qga_from_json(json.loads(json.dumps(obj)))


def test_prfsg_key_json_round_trip():
    for family in (iqp_circuit_qga(3), iqp_poly_qga(3), random_circuit_qga(3, 2)):
        key = prfsg.keygen(family, 2, stream(8, "key"))
        text = json.dumps(prfsg.key_to_json(key), sort_keys=True)
        back = prfsg.key_from_json(json.loads(text))
        assert back.group_elements == key.group_elements
        assert back.base_state == key.base_state
        assert json.dumps(prfsg.key_to_json(back), sort_keys=True) == text
