"""Primitives built directly on a QGA: one-way and pseudorandom state
generation, private-key quantum money, and bit encryption whose security
rests on action-invariance of Haar inputs.

Probabilities are computed analytically; every *_verify / *_dec function
additionally offers the sampled Bernoulli step so game estimates stay honest
Monte Carlo.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qga import QgaDescription, QgaInstance, StateDescription, apply_qga, apply_qga_array, apply_qga_start
from .states import (
    StateVector,
    projection_prob,
    sample_haar_state,
    snap_prob,
    swap_test_accept_prob,
    swap_test_accept_prob_joint,
    swap_test_sample,
    tensor,
)


def _apply_to_first_register(desc: QgaDescription, joint: StateVector) -> StateVector:
    """(g (x) 1)|joint> for a state on two lambda-qubit registers."""
    lam = desc.num_qubits
    if joint.num_qubits != 2 * lam:
        raise ValueError("joint state must hold exactly two action-sized registers")
    m = joint.amplitudes.reshape(2**lam, 2**lam).copy()
    for j in range(2**lam):
        m[:, j] = apply_qga_array(desc, np.ascontiguousarray(m[:, j]))
    return StateVector(joint.num_qubits, m.reshape(-1))


# ---------------------------------------------------------------------------
# one-way and pseudorandom state generation, private-key money
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionKey:
    """The key (|s>, g) shared by the one-way, pseudorandom and money schemes."""

    state_desc: StateDescription
    group_desc: QgaDescription

    def image(self) -> StateVector:
        """g|s>."""
        return apply_qga_start(self.group_desc, self.state_desc)


def action_keygen(qga: QgaInstance, rng: np.random.Generator) -> ActionKey:
    return ActionKey(qga.sample_s(), qga.sample_g(rng))


owsg_keygen = prsg_keygen = money_keygen = action_keygen


def owsg_state_gen(key: ActionKey) -> StateVector:
    """|s> (x) g|s> on 2*lambda qubits."""
    return tensor(key.state_desc.expand(), key.image())


def owsg_accept_prob(key_prime: ActionKey, phi: StateVector) -> float:
    """Apply the claimed g' to the first register, then SWAP-test the halves."""
    moved = _apply_to_first_register(key_prime.group_desc, phi)
    return snap_prob(swap_test_accept_prob_joint(moved))


def owsg_verify(key_prime: ActionKey, phi: StateVector, rng: np.random.Generator) -> bool:
    return bool(rng.random() < owsg_accept_prob(key_prime, phi))


def prsg_state(key: ActionKey) -> StateVector:
    return key.image()


@dataclass(frozen=True, eq=False)
class Banknote:
    note: StateVector
    issuer: ActionKey  # serial context: which key minted this note


def money_mint(key: ActionKey) -> Banknote:
    return Banknote(key.image(), key)


def money_accept_prob(key: ActionKey, note_state: StateVector) -> float:
    return snap_prob(projection_prob(key.image(), note_state))


def money_verify(key: ActionKey, note_state: StateVector, rng: np.random.Generator) -> bool:
    """Project the presented note onto the honestly minted state."""
    return bool(rng.random() < money_accept_prob(key, note_state))


# ---------------------------------------------------------------------------
# one-bit encryption from action-invariance of Haar states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkeKey1:
    group_desc: QgaDescription


@dataclass(frozen=True, eq=False)
class Ciphertext1:
    first: StateVector
    second: StateVector


def ske1_keygen(qga: QgaInstance, rng: np.random.Generator) -> SkeKey1:
    return SkeKey1(qga.sample_g(rng))


def ske1_enc(key: SkeKey1, bit: int, rng: np.random.Generator) -> Ciphertext1:
    """bit 0 -> (|s>, g|s>); bit 1 -> (|s>, |s'>) with fresh Haar |s>, |s'>."""
    if bit not in (0, 1):
        raise ValueError(f"plaintext bit must be 0 or 1, got {bit}")
    lam = key.group_desc.num_qubits
    first = sample_haar_state(lam, rng)
    if bit == 0:
        return Ciphertext1(first, apply_qga(key.group_desc, first))
    return Ciphertext1(first, sample_haar_state(lam, rng))


def ske1_dec_zero_prob(key: SkeKey1, ct: Ciphertext1) -> float:
    """Probability that decryption outputs 0: SWAP test of (g . first, second)."""
    moved = apply_qga(key.group_desc, ct.first)
    return snap_prob(swap_test_accept_prob(moved, ct.second))


def ske1_dec(key: SkeKey1, ct: Ciphertext1, rng: np.random.Generator) -> int:
    """Apply g to the first half and SWAP-test; "equal" decodes to 0."""
    moved = apply_qga(key.group_desc, ct.first)
    return 0 if swap_test_sample(moved, ct.second, rng) else 1


# ---------------------------------------------------------------------------
# multi-bit encryption by repetition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkeKeyMulti:
    keys: tuple[SkeKey1, ...]
    repetitions: int
    message_length: int

    def __post_init__(self) -> None:
        if len(self.keys) != self.repetitions * self.message_length:
            raise ValueError("need repetitions * message_length one-bit keys")


def ske_multi_keygen(qga: QgaInstance, repetitions: int, message_length: int,
                     rng: np.random.Generator) -> SkeKeyMulti:
    if repetitions < 1 or message_length < 1:
        raise ValueError("repetitions and message_length must be positive")
    keys = tuple(ske1_keygen(qga, rng) for _ in range(repetitions * message_length))
    return SkeKeyMulti(keys, repetitions, message_length)


def ske_multi_enc(key: SkeKeyMulti, message, rng: np.random.Generator) -> tuple[Ciphertext1, ...]:
    """Encrypt bit i under its own block of ``repetitions`` one-bit keys."""
    bits = [int(b) for b in message]
    if len(bits) != key.message_length or any(b not in (0, 1) for b in bits):
        raise ValueError(f"message must be {key.message_length} bits")
    cts = []
    for i, bit in enumerate(bits):
        for j in range(key.repetitions):
            cts.append(ske1_enc(key.keys[i * key.repetitions + j], bit, rng))
    return tuple(cts)


def ske_multi_dec(key: SkeKeyMulti, cts: tuple[Ciphertext1, ...],
                  rng: np.random.Generator) -> tuple[int, ...]:
    """Bit i decodes to 0 iff all of its sub-decryptions say 0."""
    if len(cts) != key.repetitions * key.message_length:
        raise ValueError("ciphertext count does not match the key")
    out = []
    for i in range(key.message_length):
        sub = [
            ske1_dec(key.keys[i * key.repetitions + j], cts[i * key.repetitions + j], rng)
            for j in range(key.repetitions)
        ]
        out.append(0 if all(b == 0 for b in sub) else 1)
    return tuple(out)
