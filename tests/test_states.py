"""Statevector core: construction, overlaps, SWAP tests, register projection."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qgalab.rng import stream
from qgalab.states import (
    ATOL,
    MAX_QUBITS,
    ImpossibleBranchError,
    StateVector,
    basis_state,
    from_amplitudes,
    inner_product,
    measure_register_projector,
    orthogonal_state,
    plus_state,
    project_register,
    projection_prob,
    projection_sample,
    sample_haar_state,
    snap_prob,
    state_from_json,
    state_to_json,
    swap_expectation_joint,
    swap_test_accept_prob,
    swap_test_accept_prob_joint,
    swap_test_sample,
    tensor,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------

def test_constructor_rejects_bad_qubit_counts():
    amps = np.array([1.0, 0.0], dtype=np.complex128)
    with pytest.raises(ValueError):
        StateVector(0, np.array([1.0], dtype=np.complex128))
    with pytest.raises(ValueError):
        StateVector(MAX_QUBITS + 1, np.zeros(2 ** (MAX_QUBITS + 1)))
    StateVector(1, amps)


def test_constructor_rejects_wrong_length():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0], dtype=np.complex128))


def test_constructor_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0], dtype=np.complex128))
    with pytest.raises(ValueError):
        StateVector(1, np.array([0.5, 0.5], dtype=np.complex128))


def test_constructor_rejects_nan_amplitudes():
    # a NaN norm compares false against any tolerance, so it must be caught explicitly
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, np.nan], dtype=np.complex128))


def test_amplitude_buffer_is_read_only():
    state = basis_state(2, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_constructor_copies_input_buffer():
    amps = np.array([1.0, 0.0], dtype=np.complex128)
    state = StateVector(1, amps)
    amps[0] = 0.0  # mutating the source must not touch the state
    assert state.amplitudes[0] == 1.0


def test_constructor_keeps_read_only_input_buffer():
    amps = np.array([INV_SQRT2, INV_SQRT2], dtype=np.complex128)
    amps.flags.writeable = False
    assert np.shares_memory(StateVector(1, amps).amplitudes, amps)
    # a buffer handed over read-only is still checked
    for bad in ([1.0, 1.0], [1.0, np.nan]):
        frozen = np.array(bad, dtype=np.complex128)
        frozen.flags.writeable = False
        with pytest.raises(ValueError):
            StateVector(1, frozen)


def test_from_amplitudes_infers_size():
    state = from_amplitudes([0.0, 1.0, 0.0, 0.0])
    assert state.num_qubits == 2
    with pytest.raises(ValueError):
        from_amplitudes([1.0, 0.0, 0.0])


def test_basis_state_bounds():
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(2, -1)


def test_qubit_zero_is_most_significant():
    # |10> means qubit 0 reads 1, so the amplitude sits at index 2 on 2 qubits
    ten = tensor(basis_state(1, 1), basis_state(1, 0))
    assert ten.amplitudes[2] == 1.0
    assert np.array_equal(ten.amplitudes, basis_state(2, 2).amplitudes)


def test_plus_state_is_uniform():
    state = plus_state(3)
    assert np.allclose(state.amplitudes, np.full(8, INV_SQRT2**3))


def test_tensor_register_order_and_empty():
    a = basis_state(1, 0)
    b = basis_state(1, 1)
    assert np.array_equal(tensor(a, b).amplitudes, basis_state(2, 1).amplitudes)
    assert np.array_equal(tensor(b, a).amplitudes, basis_state(2, 2).amplitudes)
    with pytest.raises(ValueError):
        tensor()


def test_tensor_matches_kron(rng):
    a = sample_haar_state(2, rng)
    b = sample_haar_state(1, rng)
    assert np.allclose(tensor(a, b).amplitudes, np.kron(a.amplitudes, b.amplitudes))


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------

def test_inner_product_conjugates_first_argument(rng):
    a = sample_haar_state(2, rng)
    b = sample_haar_state(2, rng)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))
    assert inner_product(a, a) == pytest.approx(1.0)


def test_inner_product_size_mismatch():
    with pytest.raises(ValueError):
        inner_product(basis_state(1), basis_state(2))


def test_projection_prob_extremes(rng):
    psi = sample_haar_state(3, rng)
    assert projection_prob(psi, psi) == pytest.approx(1.0)
    assert projection_prob(psi, orthogonal_state(psi)) < 1e-12


def test_snap_prob_snaps_endpoints_only():
    assert snap_prob(1.0 - 1e-12) == 1.0
    assert snap_prob(1.0 + 1e-12) == 1.0
    assert snap_prob(1e-12) == 0.0
    assert snap_prob(-1e-12) == 0.0
    assert snap_prob(0.3) == 0.3


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_snap_prob_stays_close_and_in_range(p):
    out = snap_prob(p)
    assert 0.0 <= out <= 1.0
    assert abs(out - p) <= ATOL


def test_projection_sample_is_deterministic_under_stream(rng):
    target = sample_haar_state(2, rng)
    cand = sample_haar_state(2, rng)
    draws_a = [projection_sample(target, cand, stream(7, "p", i)) for i in range(20)]
    draws_b = [projection_sample(target, cand, stream(7, "p", i)) for i in range(20)]
    assert draws_a == draws_b


# ---------------------------------------------------------------------------
# SWAP tests: analytic pairwise, joint, and certainty on honest inputs
# ---------------------------------------------------------------------------

def test_swap_test_formula(rng):
    a = sample_haar_state(2, rng)
    b = sample_haar_state(2, rng)
    overlap = abs(inner_product(a, b)) ** 2
    assert swap_test_accept_prob(a, b) == pytest.approx((1.0 + overlap) / 2.0)
    assert swap_test_accept_prob(a, a) == pytest.approx(1.0)
    assert swap_test_accept_prob(a, orthogonal_state(a)) == pytest.approx(0.5)


def test_swap_test_sample_accepts_identical_states_always(rng):
    a = sample_haar_state(3, rng)
    assert all(swap_test_sample(a, a, stream(3, "s", i)) for i in range(50))


def test_swap_joint_reduces_to_pairwise_on_products(rng):
    a = sample_haar_state(2, rng)
    b = sample_haar_state(2, rng)
    joint = tensor(a, b)
    assert swap_expectation_joint(joint) == pytest.approx(abs(inner_product(a, b)) ** 2)
    assert swap_test_accept_prob_joint(joint) == pytest.approx(swap_test_accept_prob(a, b))


def test_swap_joint_matches_explicit_swap_operator(rng):
    # dual route: trace formula against <phi|SWAP|phi> with the permutation matrix
    for width in (1, 2):
        swap = oracles.swap_operator_matrix(width)
        for _ in range(5):
            joint = sample_haar_state(2 * width, rng)  # generically entangled
            expected = np.vdot(joint.amplitudes, swap @ joint.amplitudes).real
            assert abs(swap_expectation_joint(joint) - expected) < 1e-12


def test_swap_joint_rejects_odd_qubit_count(rng):
    with pytest.raises(ValueError):
        swap_expectation_joint(sample_haar_state(3, rng))


# ---------------------------------------------------------------------------
# register projection with collapse
# ---------------------------------------------------------------------------

def test_project_register_on_product_state(rng):
    a = sample_haar_state(2, rng)
    b = sample_haar_state(2, rng)
    joint = tensor(a, b)

    p_hit, hit, miss = project_register(joint, 0, 2, a)
    assert p_hit == pytest.approx(1.0)
    assert miss is None
    assert projection_prob(joint, hit) == pytest.approx(1.0)

    p_hit, hit, miss = project_register(joint, 0, 2, orthogonal_state(a))
    assert p_hit < 1e-12
    assert hit is None


def test_project_register_collapses_entangled_state():
    bell = from_amplitudes([INV_SQRT2, 0.0, 0.0, INV_SQRT2])
    p_hit, hit, miss = project_register(bell, 0, 1, basis_state(1, 0))
    assert p_hit == pytest.approx(0.5)
    assert np.allclose(hit.amplitudes, basis_state(2, 0).amplitudes)
    assert np.allclose(miss.amplitudes, basis_state(2, 3).amplitudes)


def test_project_register_second_register():
    bell = from_amplitudes([INV_SQRT2, 0.0, 0.0, INV_SQRT2])
    p_hit, hit, _ = project_register(bell, 1, 1, basis_state(1, 1))
    assert p_hit == pytest.approx(0.5)
    assert np.allclose(hit.amplitudes, basis_state(2, 3).amplitudes)


def test_project_register_validation(rng):
    joint = sample_haar_state(4, rng)
    with pytest.raises(ValueError):
        project_register(joint, 0, 3, sample_haar_state(3, rng))  # 3 does not divide 4
    with pytest.raises(ValueError):
        project_register(joint, 2, 2, sample_haar_state(2, rng))  # only registers 0 and 1
    with pytest.raises(ValueError):
        project_register(joint, 0, 2, sample_haar_state(1, rng))  # target width mismatch


def test_measure_register_projector_certain_branches(rng):
    a = sample_haar_state(2, rng)
    b = sample_haar_state(2, rng)
    joint = tensor(a, b)
    hit, post = measure_register_projector(joint, 0, 2, a, stream(1, "m"))
    assert hit is True
    assert projection_prob(joint, post) == pytest.approx(1.0)
    hit, post = measure_register_projector(joint, 0, 2, orthogonal_state(a), stream(1, "m"))
    assert hit is False


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda w: st.tuples(st.just(w), st.integers(1, 8 // w))),
       st.sampled_from(["entangled", "product-hit", "product-miss"]),
       st.integers(0, 2**32 - 1))
def test_measured_projection_builds_the_drawn_branch_of_the_two_branch_call(shape, kind, seed):
    width, count = shape
    make = stream(seed, "states")
    registers = [sample_haar_state(width, make) for _ in range(count)]
    joint = sample_haar_state(width * count, make) if kind == "entangled" else tensor(*registers)
    for reg in range(count):
        target = sample_haar_state(width, make) if kind == "entangled" else registers[reg]
        if kind == "product-miss":
            target = orthogonal_state(target)
        p_ref, hit_ref, miss_ref = project_register(joint, reg, width, target)
        rng, replay = stream(seed, "measure", reg), stream(seed, "measure", reg)
        p_hit, hit_state, miss_state = project_register(joint, reg, width, target, rng)
        assert p_hit == p_ref
        drawn = replay.random() < snap_prob(p_ref)
        assert rng.bit_generator.state == replay.bit_generator.state  # one draw, no more
        state, ref, other = (hit_state, hit_ref, miss_state) if drawn else (miss_state, miss_ref, hit_state)
        assert other is None
        assert state.amplitudes.tobytes() == ref.amplitudes.tobytes()
        expected = oracles.project_branch_reference(joint, reg, width, target, drawn)
        assert state.amplitudes.tobytes() == expected.tobytes()
        assert not state.amplitudes.flags.writeable
        hit, post = measure_register_projector(joint, reg, width, target, stream(seed, "measure", reg))
        assert hit == drawn and post.amplitudes.tobytes() == ref.amplitudes.tobytes()


def test_measurement_order_does_not_matter(rng):
    # project three 2-qubit registers of an entangled state in every order and
    # enumerate each branch analytically; outcome-pattern probabilities agree
    joint = sample_haar_state(6, rng)
    target = sample_haar_state(2, rng)

    reference = None
    for order in itertools.permutations((0, 1, 2)):
        probs = {}

        def walk(state, remaining, acc_prob, pattern):
            if acc_prob < 1e-14:
                return
            if not remaining:
                probs[tuple(sorted(pattern.items()))] = acc_prob
                return
            reg = remaining[0]
            p_hit, hit_state, miss_state = project_register(state, reg, 2, target)
            if hit_state is not None:
                walk(hit_state, remaining[1:], acc_prob * p_hit, {**pattern, reg: True})
            if miss_state is not None:
                walk(miss_state, remaining[1:], acc_prob * (1.0 - p_hit), {**pattern, reg: False})

        walk(joint, list(order), 1.0, {})
        if reference is None:
            reference = probs
        else:
            assert set(probs) == set(reference)
            for key in reference:
                assert abs(probs[key] - reference[key]) < 1e-10


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def test_sample_haar_state_is_normalized_and_deterministic():
    a = sample_haar_state(3, stream(11, "haar"))
    b = sample_haar_state(3, stream(11, "haar"))
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.vdot(a.amplitudes, a.amplitudes).real == pytest.approx(1.0)


def test_haar_mean_overlap_small_sample(rng):
    # mean |<psi|phi>|^2 = 2^-n; full 3-sigma sweep lives in the acceptance suite
    n, pairs = 2, 2000
    vals = np.array([
        projection_prob(sample_haar_state(n, rng), sample_haar_state(n, rng))
        for _ in range(pairs)
    ])
    se = vals.std(ddof=1) / np.sqrt(pairs)
    assert abs(vals.mean() - 0.25) < 3 * se


def test_orthogonal_state_is_orthogonal(rng):
    for n in (1, 2, 4):
        psi = sample_haar_state(n, rng)
        perp = orthogonal_state(psi)
        assert abs(inner_product(psi, perp)) < 1e-12
        assert np.vdot(perp.amplitudes, perp.amplitudes).real == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_state_json_round_trip(rng):
    import json

    state = sample_haar_state(3, rng)
    obj = json.loads(json.dumps(state_to_json(state)))
    back = state_from_json(obj)
    assert back.num_qubits == 3
    assert np.array_equal(back.amplitudes, state.amplitudes)
