"""One-way/pseudorandom state generation, money, and repetition encryption."""
import numpy as np
import pytest

import oracles
from qgalab.circuits import Circuit, unitary_gate
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
    gate = unitary_gate(tuple(range(lam)), _complete_basis(first_column))
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
