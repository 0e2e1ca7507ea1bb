"""Keyed generator, the four query oracles, and the projection tag."""
import json

import numpy as np
import pytest

import oracles
from qgalab import prfsg as prfsg_mod
from qgalab.prfsg import (
    GameOracle,
    HybridOracle,
    IdealOracle,
    PrfsgKey,
    RealOracle,
    key_from_json,
    key_to_json,
    keygen,
    mac_accept_prob,
    mac_tag,
    mac_verify,
    state_gen,
    state_gen_all,
)
from qgalab.qga import (
    apply_qga,
    haar_unitary_qga,
    identity_qga,
    iqp_circuit_qga,
    iqp_poly_qga,
    random_circuit_qga,
    sample_g_candidate3,
)
from qgalab.rng import stream
from qgalab.states import orthogonal_state, projection_prob


def _key(lam=2, ell=2, seed=7):
    return keygen(iqp_poly_qga(lam), ell, stream(seed, "key"))


# ---------------------------------------------------------------------------
# keys and evaluation
# ---------------------------------------------------------------------------

def test_keygen_shape_and_determinism():
    key = _key(lam=3, ell=4)
    assert len(key.group_elements) == 5
    assert key.input_length == 4
    assert key.num_qubits == 3
    assert key.base_state.basis_index == 0
    again = keygen(iqp_poly_qga(3), 4, stream(7, "key"))
    assert all(a == b for a, b in zip(key.group_elements, again.group_elements))


def test_keygen_validation(rng):
    with pytest.raises(ValueError):
        keygen(iqp_poly_qga(2), 0, rng)
    g = sample_g_candidate3(2, 2, 4, rng)
    with pytest.raises(ValueError):
        PrfsgKey((g,), iqp_poly_qga(2).sample_s())
    with pytest.raises(ValueError):
        PrfsgKey((g, g), iqp_poly_qga(3).sample_s())


def test_state_gen_all_zeros_is_initial_element():
    key = _key()
    base = key.base_state.expand()
    expected = apply_qga(key.group_elements[0], base)
    assert np.array_equal(state_gen(key, "00").amplitudes, expected.amplitudes)


def test_state_gen_matches_dense_chain():
    key = _key()
    dense = [oracles.dense_qga_matrix(g) for g in key.group_elements]
    for x in range(4):
        bits = ((x >> 1) & 1, x & 1)
        mat = dense[0]
        for i, bit in enumerate(bits, start=1):
            if bit:
                mat = dense[i] @ mat
        expected = mat @ key.base_state.expand().amplitudes
        got = state_gen(key, bits).amplitudes
        assert np.max(np.abs(got - expected)) < 1e-10


def test_input_forms_are_equivalent():
    key = _key()
    ref = state_gen(key, "01").amplitudes
    assert np.array_equal(state_gen(key, (0, 1)).amplitudes, ref)
    assert np.array_equal(state_gen(key, [0, 1]).amplitudes, ref)
    with pytest.raises(ValueError):
        state_gen(key, "0a")
    with pytest.raises(ValueError):
        state_gen(key, "011")
    with pytest.raises(ValueError):
        state_gen(key, (0, 2))


FAMILIES = [random_circuit_qga, iqp_circuit_qga, iqp_poly_qga, haar_unitary_qga, identity_qga]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("ell", [1, 3, 5])
def test_state_gen_all_matches_state_gen_byte_for_byte(family, ell, monkeypatch):
    key = keygen(family(3), ell, stream(ell, "prefix-tree", family.__name__))
    applied = []
    apply = prfsg_mod.apply_qga_array
    monkeypatch.setattr(prfsg_mod, "apply_qga_array",
                        lambda g, arr: applied.append(g) or apply(g, arr))
    pairs = list(state_gen_all(key))
    assert len(applied) == 2**ell - 1  # one per 1-child of the prefix tree
    monkeypatch.undo()
    assert [x for x, _ in pairs] == [format(v, f"0{ell}b") for v in range(2**ell)]
    for x, state in pairs:
        assert state.amplitudes.tobytes() == state_gen(key, x).amplitudes.tobytes(), x


def test_key_json_round_trip():
    key = _key(lam=3, ell=2, seed=11)
    obj = json.loads(json.dumps(key_to_json(key)))
    back = key_from_json(obj)
    assert all(a == b for a, b in zip(back.group_elements, key.group_elements))
    assert back.base_state == key.base_state
    obj["ell"] = 5
    with pytest.raises(ValueError):
        key_from_json(obj)


@pytest.mark.parametrize("path", [("lambda",), ("base_state",), ("group_elements",),
                                  ("group_elements", 1, "variant"),
                                  ("group_elements", 0, "body", "terms")],
                         ids=["lambda", "base-state", "group-elements", "element-variant", "poly-terms"])
def test_key_from_json_rejects_missing_fields(path):
    obj = json.loads(json.dumps(key_to_json(_key(lam=3, ell=2, seed=11))))
    holder = obj
    for step in path[:-1]:
        holder = holder[step]
    del holder[path[-1]]
    with pytest.raises(ValueError):
        key_from_json(obj)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_real_oracle_memo_and_transcript():
    oracle = RealOracle(_key())
    first = oracle.query("10")
    second = oracle.query((1, 0))
    assert second is first  # repeat answers are the stored object
    assert oracle.queried == {(1, 0)}
    assert oracle.transcript == [
        {"x": "10", "answer_ref": "10"},
        {"x": "10", "answer_ref": "10"},
    ]
    assert np.max(np.abs(first.amplitudes - state_gen(oracle.key, "10").amplitudes)) == 0


def test_hybrid_oracle_is_fresh_per_input(rng):
    oracle = HybridOracle(random_circuit_qga(2), 2, rng)
    a = oracle.query("00")
    b = oracle.query("01")
    assert oracle.query("00") is a
    assert projection_prob(a, b) < 1 - 1e-6  # fresh draws generically differ


def test_ideal_oracle_is_fresh_per_input(rng):
    oracle = IdealOracle(3, 2, rng)
    a = oracle.query("11")
    assert oracle.query("11") is a
    b = oracle.query("10")
    assert abs(np.linalg.norm(b.amplitudes) - 1) < 1e-12
    assert projection_prob(a, b) < 1 - 1e-6


def test_game_oracle_prefix_zero_equals_real_without_randomness():
    key = _key(seed=3)
    rng = stream(99, "untouched")
    game = GameOracle(key, 0, iqp_poly_qga(2), rng)
    before = rng.bit_generator.state
    real = RealOracle(key)
    for x in ("00", "01", "10", "11"):
        assert np.array_equal(game.query(x).amplitudes, real.query(x).amplitudes)
    assert rng.bit_generator.state == before  # j = 0 never samples


def test_game_oracle_full_prefix_equals_hybrid():
    key = _key(seed=5)
    family = iqp_poly_qga(2)
    game = GameOracle(key, 2, family, stream(8, "side"))
    hybrid = HybridOracle(family, 2, stream(8, "side"))
    for x in ("11", "00", "11", "10"):
        assert np.array_equal(game.query(x).amplitudes, hybrid.query(x).amplitudes)


def test_game_oracle_shares_prefix_start():
    key = _key(seed=6)
    game = GameOracle(key, 1, iqp_poly_qga(2), stream(12, "game"))
    on_00 = game.query("00")
    on_01 = game.query("01")
    assert [e["answer_ref"] for e in game.transcript] == ["0", "0"]
    tail = apply_qga(key.group_elements[2], on_00)
    assert np.array_equal(on_01.amplitudes, tail.amplitudes)
    assert len(game.memo) == 1  # only the prefix (0,) was started


def test_game_oracle_prefix_bounds(rng):
    with pytest.raises(ValueError):
        GameOracle(_key(), 3, iqp_poly_qga(2), rng)
    with pytest.raises(ValueError):
        GameOracle(_key(), -1, iqp_poly_qga(2), rng)


# ---------------------------------------------------------------------------
# projection tag
# ---------------------------------------------------------------------------

def test_mac_honest_tag_always_accepted(rng):
    key = _key(lam=3, ell=2)
    tag = mac_tag(key, "10")
    assert mac_accept_prob(key, "10", tag) == 1.0
    assert mac_verify(key, "10", tag, rng)


def test_mac_orthogonal_tag_always_rejected(rng):
    key = _key(lam=3, ell=2)
    forged = orthogonal_state(mac_tag(key, "11"))
    assert mac_accept_prob(key, "11", forged) == 0.0
    assert not mac_verify(key, "11", forged, rng)
