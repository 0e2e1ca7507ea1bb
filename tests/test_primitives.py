"""One-way/pseudorandom state generation, money, and repetition encryption."""
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from qgalab import primitives
from qgalab.circuits import Circuit, Gate
from qgalab.games import _complete_basis
from qgalab.primitives import (
    ActionKey,
    Banknote,
    CiphertextBatch,
    SkeKeyMulti,
    _apply_to_first_register,
    money_accept_prob,
    money_keygen,
    money_mint,
    money_verify,
    owsg_accept_prob,
    owsg_keygen,
    owsg_state_gen,
    owsg_verify,
    prsg_keygen,
    prsg_state,
    ske1_dec,
    ske1_dec_zero_prob,
    ske1_enc,
    ske1_keygen,
    ske_multi_dec,
    ske_multi_enc,
    ske_multi_keygen,
)
from qgalab.qga import (
    VARIANT_GENERIC,
    QgaDescription,
    apply_qga,
    haar_unitary_qga,
    identity_qga,
    iqp_circuit_qga,
    iqp_poly_qga,
    random_circuit_qga,
)
from qgalab.rng import stream
from qgalab.states import orthogonal_state, sample_haar_state


def _unitary_family_element(first_column: np.ndarray) -> QgaDescription:
    """A single-unitary description sending |0...0> to the given column."""
    lam = int(np.log2(first_column.size))
    gate = Gate(tuple(range(lam)), _complete_basis(first_column))
    return QgaDescription(VARIANT_GENERIC, lam, Circuit(lam, (gate,)))


def test_apply_to_first_register_matches_kron(rng):
    desc = random_circuit_qga(2, depth=2).sample_g(rng)
    joint = sample_haar_state(4, rng)
    moved = _apply_to_first_register(desc, joint)
    expected = np.kron(oracles.dense_qga_matrix(desc), np.eye(4)) @ joint.amplitudes
    assert np.max(np.abs(moved.amplitudes - expected)) < 1e-10
    with pytest.raises(ValueError):
        _apply_to_first_register(desc, sample_haar_state(3, rng))


# ---------------------------------------------------------------------------
# one-way state generation
# ---------------------------------------------------------------------------

def test_owsg_state_gen_is_product(rng):
    key = owsg_keygen(iqp_poly_qga(2), rng)
    s = key.state_desc.expand()
    expected = np.kron(s.amplitudes, apply_qga(key.group_desc, s).amplitudes)
    assert np.max(np.abs(owsg_state_gen(key).amplitudes - expected)) < 1e-12


def test_owsg_honest_accept_is_certain(rng):
    key = owsg_keygen(random_circuit_qga(2), rng)
    phi = owsg_state_gen(key)
    assert owsg_accept_prob(key, phi) == 1.0
    assert owsg_verify(key, phi, rng)


def test_owsg_orthogonal_claim_hits_swap_floor(rng):
    # a claimed g' with g'|s> orthogonal to g|s> leaves the SWAP test at its
    # coin-flip floor of 1/2
    key = owsg_keygen(random_circuit_qga(2), rng)
    s = key.state_desc.expand()
    wrong = orthogonal_state(apply_qga(key.group_desc, s))
    key_prime = ActionKey(key.state_desc, _unitary_family_element(wrong.amplitudes))
    assert abs(owsg_accept_prob(key_prime, owsg_state_gen(key)) - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# pseudorandom state generation and money
# ---------------------------------------------------------------------------

def test_prsg_state_is_acted_base_state(rng):
    key = prsg_keygen(iqp_poly_qga(3), rng)
    expected = apply_qga(key.group_desc, key.state_desc.expand())
    assert np.array_equal(prsg_state(key).amplitudes, expected.amplitudes)


def test_money_honest_note_verifies(rng):
    key = money_keygen(random_circuit_qga(2), rng)
    note = money_mint(key)
    assert isinstance(note, Banknote)
    assert note.issuer is key
    assert money_accept_prob(key, note.note) == 1.0
    assert money_verify(key, note.note, rng)


def test_money_orthogonal_note_rejected(rng):
    key = money_keygen(random_circuit_qga(2), rng)
    fake = orthogonal_state(money_mint(key).note)
    assert money_accept_prob(key, fake) == 0.0
    assert not money_verify(key, fake, rng)


# ---------------------------------------------------------------------------
# one-bit encryption
# ---------------------------------------------------------------------------

def test_ske1_rejects_non_bits(rng):
    key = ske1_keygen(iqp_poly_qga(2), rng)
    with pytest.raises(ValueError):
        ske1_enc(key, 2, rng)


def test_ske1_zero_bit_decodes_perfectly(rng):
    family = iqp_poly_qga(2)
    for _ in range(200):
        key = ske1_keygen(family, rng)
        ct = ske1_enc(key, 0, rng)
        assert ske1_dec_zero_prob(key, ct) == 1.0
        assert ske1_dec(key, ct, rng) == 0


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_ske1_one_bit_statistics(rng, lam):
    # dual route: the sampled decode rate must sit within 3 sigma of the mean
    # analytic rate, and that mean within 3 standard errors of (1 + 2^-lam)/2
    family = iqp_poly_qga(lam)
    trials = 3000
    probs = np.empty(trials)
    zeros = 0
    for i in range(trials):
        key = ske1_keygen(family, rng)
        ct = ske1_enc(key, 1, rng)
        probs[i] = ske1_dec_zero_prob(key, ct)
        if ske1_dec(key, ct, rng) == 0:
            zeros += 1
    sigma_sampled = np.sqrt(np.sum(probs * (1 - probs))) / trials
    assert abs(zeros / trials - probs.mean()) < 3 * sigma_sampled
    target = (1 + 2.0**-lam) / 2
    se_mean = probs.std(ddof=1) / np.sqrt(trials)
    assert abs(probs.mean() - target) < 3 * se_mean + 1e-6


# ---------------------------------------------------------------------------
# multi-bit encryption
# ---------------------------------------------------------------------------

def test_multi_keygen_counts(rng):
    key = ske_multi_keygen(iqp_poly_qga(2), 3, 4, rng)
    assert len(key.keys) == 12
    with pytest.raises(ValueError):
        ske_multi_keygen(iqp_poly_qga(2), 0, 4, rng)
    with pytest.raises(ValueError):
        SkeKeyMulti(key.keys, 2, 4)


def test_multi_enc_dec_validation(rng):
    key = ske_multi_keygen(iqp_poly_qga(2), 2, 2, rng)
    with pytest.raises(ValueError):
        ske_multi_enc(key, [0, 1, 0], rng)
    with pytest.raises(ValueError):
        ske_multi_enc(key, [0, 2], rng)
    cts = ske_multi_enc(key, [0, 1], rng)
    with pytest.raises(ValueError):
        ske_multi_dec(key, cts[:-1], rng)


def test_multi_zero_message_always_decodes(rng):
    family = iqp_poly_qga(2)
    for _ in range(300):
        key = ske_multi_keygen(family, 2, 2, rng)
        cts = ske_multi_enc(key, [0, 0], rng)
        assert ske_multi_dec(key, cts, rng) == (0, 0)


def test_multi_ones_per_bit_rate(rng):
    # with t sub-ciphertexts a 1-bit survives as 1 unless every SWAP test
    # accepts; at lam=2, t=2 that happens with probability 1 - 0.625^2
    family = iqp_poly_qga(2)
    trials = 1000
    hits = 0
    for _ in range(trials):
        key = ske_multi_keygen(family, 2, 2, rng)
        cts = ske_multi_enc(key, [1, 1], rng)
        hits += sum(ske_multi_dec(key, cts, rng))
    rate = hits / (2 * trials)
    assert abs(rate - (1 - 0.625**2)) < 0.025


# ---------------------------------------------------------------------------
# one batch per message against the scalar reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 3, 32])
@pytest.mark.parametrize("m", [1, 3, 32, 2**11])
def test_merged_draws_equal_separate_draws(k, m):
    # the batched path takes one standard_normal and one random call where the
    # scalar path took k: same values, same generator state afterwards
    separate, merged, shaped = (np.random.default_rng(99) for _ in range(3))
    normals = np.concatenate([separate.standard_normal(m) for _ in range(k)])
    assert merged.standard_normal(k * m).tobytes() == normals.tobytes()
    assert shaped.standard_normal((k, m)).tobytes() == normals.tobytes()
    uniforms = np.array([separate.random() for _ in range(k)])
    assert merged.random(k).tobytes() == uniforms.tobytes()
    assert shaped.random(k).tobytes() == uniforms.tobytes()
    assert merged.bit_generator.state == separate.bit_generator.state
    assert shaped.bit_generator.state == separate.bit_generator.state


_SKE_FAMILIES = {
    "random-circuit": random_circuit_qga,
    "iqp-circuit": iqp_circuit_qga,
    "iqp-sparse": iqp_poly_qga,
    "haar-unitary": haar_unitary_qga,
    "identity": identity_qga,
}


@pytest.mark.parametrize("lam, name", [(lam, name) for name in _SKE_FAMILIES for lam in (1, 2, 3)]
                         + [(9, "iqp-sparse")])
def test_batched_ske_matches_scalar_reference(lam, name):
    # per-trial decoded bits, ciphertext amplitudes and the generator state
    # after each trial all match the one-sub-ciphertext-at-a-time reference
    family = _SKE_FAMILIES[name](lam)
    for i in range(12 if lam < 9 else 6):
        message = [(i >> b) & 1 for b in range(3)]
        batched, scalar = stream(7, name, lam, i), stream(7, name, lam, i)
        key = ske_multi_keygen(family, 3, 3, batched)
        ref_key = ske_multi_keygen(family, 3, 3, scalar)
        cts = ske_multi_enc(key, message, batched)
        ref_cts = oracles.ske_multi_enc_reference(ref_key, message, scalar)
        for j, (first, second) in enumerate(ref_cts):
            assert np.max(np.abs(cts.first[j] - first.amplitudes)) < 1e-12
            assert np.max(np.abs(cts.second[j] - second.amplitudes)) < 1e-12
        decoded = ske_multi_dec(key, cts, batched)
        assert decoded == oracles.ske_multi_dec_reference(ref_key, ref_cts, scalar)
        assert batched.random() == scalar.random()


def test_mixed_message_peaks_no_higher_than_the_zero_message(rng):
    # a mixed message's states are drawn straight into their (first, second)
    # rows, so no state is copied; the slack is bookkeeping, not a state (64 KiB)
    key = ske_multi_keygen(iqp_poly_qga(12), 2, 3, rng)
    ske_multi_enc(key, [0, 0, 0], rng)  # builds the key's cached diagonals
    peaks = {}
    for message in ((0, 0, 0), (0, 1, 0), (1, 0, 1)):
        tracemalloc.start()
        ske_multi_enc(key, message, rng)
        peaks[message] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert max(peaks[(0, 1, 0)], peaks[(1, 0, 1)]) <= peaks[(0, 0, 0)] + 1024


def test_ciphertext_batch_rows(rng):
    key = ske_multi_keygen(iqp_poly_qga(3), 2, 3, rng)
    cts = ske_multi_enc(key, [1, 0, 1], rng)
    assert len(cts) == 6 and cts.first.shape == cts.second.shape == (6, 8)
    assert not cts.first.flags.writeable and not cts.second.flags.writeable
    assert len(cts[:-1]) == 5 and cts[2:4].first.tobytes() == cts.first[2:4].tobytes()
    assert len(ske1_enc(ske1_keygen(iqp_poly_qga(3), rng), 1, rng)) == 1
    unnormalised = np.array(cts.first)
    unnormalised[1] *= 1.0 + 1e-8
    with pytest.raises(ValueError):
        CiphertextBatch(unnormalised, cts.second)
    with pytest.raises(ValueError):
        CiphertextBatch(cts.first, cts.second[:, :4])
    writable = np.array(cts.first)
    kept = CiphertextBatch(writable, cts.second)
    writable[0] = 0.0
    assert kept.first.tobytes() == cts.first.tobytes() and not kept.first.flags.writeable


def test_ciphertext_batch_rejects_nan_rows(rng):
    key = ske_multi_keygen(iqp_poly_qga(2), 1, 2, rng)
    cts = ske_multi_enc(key, [0, 1], rng)
    with pytest.raises(ValueError):
        CiphertextBatch(np.full((2, 4), np.nan + 0j), cts.second)
    with pytest.raises(ValueError):
        CiphertextBatch(cts.first, np.full((2, 4), np.nan + 0j))
    one_nan = np.array(cts.second)
    one_nan[1, 2] = np.nan
    with pytest.raises(ValueError):
        CiphertextBatch(cts.first, one_nan)


def test_accept_probs_reject_nan_moved_rows(rng):
    # a NaN overlap would pass snap_prob unchanged and decode silently as 0
    key = ske_multi_keygen(iqp_poly_qga(2), 1, 2, rng)
    cts = ske_multi_enc(key, [0, 1], rng)
    diagonals = np.array(primitives._key_elements(key))
    diagonals[1, 0] = np.nan
    with pytest.raises(ValueError):
        primitives._accept_probs(diagonals, cts)


# ---------------------------------------------------------------------------
# ske-roundtrip's trials in blocks against the per-trial loop
# ---------------------------------------------------------------------------

_ROUNDTRIP_FAMILIES = {
    "iqp-sparse": iqp_poly_qga,
    "iqp-circuit": iqp_circuit_qga,
    "random-circuit": random_circuit_qga,
    "identity": identity_qga,
}


def _recording(log: list):
    accept_probs = primitives._accept_probs

    def record(elements, cts):
        log.append(accept_probs(elements, cts))
        return log[-1]

    return record


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_ROUNDTRIP_FAMILIES)), lam=st.sampled_from([1, 2, 3, 9]),
       shape=st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda s: s[0] * s[1] <= 6),
       trials=st.integers(1, 9), chunk=st.sampled_from([1 << 4, 1 << 6, 1 << 10, 1 << 13]),
       seed=st.integers(0, 2**16))
@example(name="iqp-sparse", lam=3, shape=(2, 2), trials=9, chunk=1 << 6, seed=0)  # blocks of 2
@example(name="iqp-sparse", lam=9, shape=(2, 3), trials=5, chunk=1 << 13, seed=1)  # blocks of 2
@example(name="iqp-circuit", lam=2, shape=(1, 1), trials=9, chunk=1 << 4, seed=2)  # one-row messages
@example(name="random-circuit", lam=3, shape=(3, 1), trials=7, chunk=1 << 6, seed=3)
def test_blocked_roundtrip_matches_the_reference_loop(name, lam, shape, trials, chunk, seed):
    # same outcomes and generator states as the per-trial loop of oracles, and
    # the same accept probabilities: byte-equal, except that a one-row message
    # takes BLAS's one-row product, which differs from a batch in the last bits
    family, (t, ell) = _ROUNDTRIP_FAMILIES[name](lam), shape
    blocked_rngs = [stream(seed, "roundtrip", i) for i in range(trials)]
    ref_rngs = [stream(seed, "roundtrip", i) for i in range(trials)]
    blocked_log, ref_log = [], []
    with patch.object(primitives, "_CHUNK_AMPLITUDES", chunk):
        with patch.object(primitives, "_accept_probs", _recording(ref_log)):
            ref_zero_ok, ref_ones = oracles.ske_roundtrip_reference(family, t, ell, ref_rngs)
        with patch.object(primitives, "_accept_probs", _recording(blocked_log)):
            zero_ok, ones = primitives.ske_roundtrip_trials(family, t, ell, blocked_rngs)
    assert zero_ok.tolist() == ref_zero_ok
    assert [tuple(int(b) for b in row) for row in ones] == ref_ones
    for blocked, ref in zip(blocked_rngs, ref_rngs):
        assert blocked.bit_generator.state == ref.bit_generator.state
    for message in (0, 1):
        got = np.concatenate(blocked_log[message::2])
        want = np.concatenate(ref_log[message::2])
        if t * ell >= 2:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= 1e-15
