"""Primitives built directly on a QGA: one-way and pseudorandom state
generation, private-key quantum money, and bit encryption whose security
rests on action-invariance of Haar inputs.

Probabilities are computed analytically; every *_verify / *_dec function
additionally offers the sampled Bernoulli step so game estimates stay honest
Monte Carlo.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from .qga import (
    VARIANT_GENERIC,
    QgaDescription,
    QgaInstance,
    StateDescription,
    apply_qga_array,
    apply_qga_rows,
    apply_qga_start,
    phase_weights,
    stacked_diagonals,
    weight_diagonals,
)
from .states import ATOL, StateVector, projection_prob, snap_prob, swap_test_accept_prob_joint, tensor


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
# bit encryption from action-invariance of Haar states, one batch per message
# ---------------------------------------------------------------------------

_CHUNK_AMPLITUDES = 1 << 12  # per chunk of rows, and per block of ske_roundtrip_trials


def _chunks(count: int, width: int) -> list[slice]:
    step = max(1, _CHUNK_AMPLITUDES // width)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _check_unit_rows(rows: np.ndarray) -> None:
    """The StateVector norm check, NaN included, one vectorised test per chunk of rows."""
    for chunk in _chunks(len(rows), rows.shape[-1]):
        if not np.abs(np.linalg.norm(rows[chunk], axis=-1) - 1.0).max(initial=0.0) <= ATOL:
            raise ValueError("a row is not normalized within 1e-10")


@dataclass(frozen=True)
class SkeKey1:
    group_desc: QgaDescription


@dataclass(frozen=True, eq=False)
class CiphertextBatch:
    """Sub-ciphertexts (first_i, second_i) as two read-only (B, 2^lambda) arrays of
    unit rows. Arrays that are already read-only are kept, others copied."""

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self) -> None:
        for name in ("first", "second"):
            rows = np.asarray(getattr(self, name), dtype=np.complex128)
            if rows.flags.writeable:
                rows = rows.copy()
                rows.flags.writeable = False
            object.__setattr__(self, name, rows)
        if self.first.ndim != 2 or self.first.shape != self.second.shape:
            raise ValueError("ciphertext halves must be (B, 2^lambda) arrays of one shape")
        _check_unit_rows(self.first)
        _check_unit_rows(self.second)

    def __len__(self) -> int:
        return len(self.first)

    def __getitem__(self, rows: slice) -> CiphertextBatch:
        return CiphertextBatch(self.first[rows], self.second[rows])


def _key_elements(key: SkeKey1 | SkeKeyMulti) -> np.ndarray:
    """The key's elements in ciphertext order as apply_qga_rows takes them, cached."""
    if "_elements" not in key.__dict__:
        descs = [k.group_desc for k in (key.keys if isinstance(key, SkeKeyMulti) else (key,))]
        generic = descs[0].variant == VARIANT_GENERIC
        elements = np.array(descs, dtype=object) if generic else stacked_diagonals(descs)
        key.__dict__["_elements"] = elements
    return key.__dict__["_elements"]


def _draw_haar(bits: np.ndarray, num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Draw step of encryption: |s> per 0-bit row, |s> then |s'> per 1-bit row,
    unnormalised, with one standard_normal call's stream (see ske_multi_enc): B rows
    if every bit is 0, else row i's |s> at 2i and its |s'> (ones for a 0-bit) at 2i + 1."""
    if bits.all() or not bits.any():
        return rng.standard_normal((len(bits) + int(bits.sum()), 2**(num_qubits + 1))).view(np.complex128)
    states = np.ones((2 * len(bits), 2**(num_qubits + 1)))
    for i, bit in enumerate(bits.tolist()):
        rng.standard_normal(out=states[2 * i:2 * i + 1 + bit])
    return states.view(np.complex128)


def _seal(elements: np.ndarray, bits: np.ndarray, states: np.ndarray) -> CiphertextBatch:
    """Compute step of encryption: normalise the drawn states in place, deal them
    out as views (first_i, second_i) (see _draw_haar), and set second_i =
    g_i . first_i for every 0-bit row."""
    for rows in _chunks(len(states), states.shape[1]):
        states[rows] /= np.linalg.norm(states[rows], axis=1, keepdims=True)
    if bits.any():
        first, second = states[0::2], states[1::2]  # a 0-bit's second is set below
    else:
        first, second = states, np.empty_like(states)
    for rows in _chunks(len(bits), states.shape[1]):
        zeros = rows.start + np.flatnonzero(bits[rows] == 0)
        if zeros.size:
            second[zeros] = apply_qga_rows(elements[zeros], first[zeros])
    first.flags.writeable = second.flags.writeable = False
    return CiphertextBatch(first, second)


def _accept_probs(elements: np.ndarray, cts: CiphertextBatch) -> np.ndarray:
    """Compute step of decryption: per row, the snapped probability that the
    SWAP test of (g_i . first_i, second_i) reports "equal"."""
    if len(cts) != len(elements):
        raise ValueError("ciphertext count does not match the key")
    accept = np.empty(len(cts))
    for rows in _chunks(len(cts), cts.first.shape[1]):
        moved = apply_qga_rows(elements[rows], cts.first[rows])
        _check_unit_rows(moved)
        overlaps = np.abs(np.einsum("ij,ij->i", moved.conj(), cts.second[rows])) ** 2
        accept[rows] = [snap_prob((1.0 + p) / 2.0) for p in overlaps.tolist()]
    return accept


def _encrypt(key: SkeKey1 | SkeKeyMulti, bits: np.ndarray, rng: np.random.Generator) -> CiphertextBatch:
    """Row i encrypts bits[i] under element i: bit 0 -> (|s>, g|s>), bit 1 ->
    (|s>, |s'>), with fresh Haar |s>, |s'>."""
    num_qubits = (key.keys[0] if isinstance(key, SkeKeyMulti) else key).group_desc.num_qubits
    return _seal(_key_elements(key), bits, _draw_haar(bits, num_qubits, rng))


def _decode(accept: np.ndarray, shots: np.ndarray, repetitions: int) -> np.ndarray:
    """Per block of ``repetitions`` rows, 0 iff every SWAP-test shot says "equal"."""
    return (shots >= accept).reshape(-1, repetitions).any(axis=1)


def ske1_keygen(qga: QgaInstance, rng: np.random.Generator) -> SkeKey1:
    return SkeKey1(qga.sample_g(rng))


def ske1_enc(key: SkeKey1, bit: int, rng: np.random.Generator) -> CiphertextBatch:
    """bit 0 -> (|s>, g|s>); bit 1 -> (|s>, |s'>) with fresh Haar |s>, |s'>: one row."""
    if bit not in (0, 1):
        raise ValueError(f"plaintext bit must be 0 or 1, got {bit}")
    return _encrypt(key, np.array([bit]), rng)


def ske1_dec_zero_prob(key: SkeKey1, ct: CiphertextBatch) -> float:
    """Probability that decryption outputs 0: SWAP test of (g . first, second)."""
    return float(_accept_probs(_key_elements(key), ct)[0])


def ske1_dec(key: SkeKey1, ct: CiphertextBatch, rng: np.random.Generator) -> int:
    """Apply g to the first half and SWAP-test; "equal" decodes to 0."""
    accept = _accept_probs(_key_elements(key), ct)[0]
    return int(rng.random() >= accept)


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


def ske_multi_enc(key: SkeKeyMulti, message, rng: np.random.Generator) -> CiphertextBatch:
    """Encrypt bit i under its own block of ``repetitions`` one-bit keys, as one batch.

    Draw order: every Haar state in ciphertext order (row i * repetitions + j is
    bit i under key j of its block), |s> for a 0-bit row and |s> then |s'> for a
    1-bit row, 2^(lambda+1) standard normals each, taken by one standard_normal
    call: the stream of one sample_haar_state call per state.
    """
    bits = [int(b) for b in message]
    if len(bits) != key.message_length or any(b not in (0, 1) for b in bits):
        raise ValueError(f"message must be {key.message_length} bits")
    return _encrypt(key, np.repeat(bits, key.repetitions), rng)


def ske_multi_dec(key: SkeKeyMulti, cts: CiphertextBatch,
                  rng: np.random.Generator) -> tuple[int, ...]:
    """Bit i decodes to 0 iff all of its sub-decryptions say 0.

    Draw order: one rng.random(B) for the B = repetitions * message_length
    SWAP-test shots, in ciphertext order, after every probability is computed:
    the stream of one rng.random() per sub-decryption.
    """
    accept = _accept_probs(_key_elements(key), cts)
    return tuple(int(bit) for bit in _decode(accept, rng.random(len(cts)), key.repetitions))


def ske_roundtrip_trials(qga: QgaInstance, repetitions: int, message_length: int,
                         rngs: Iterable[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Per generator, ske_multi_keygen, then ske_multi_enc and ske_multi_dec of the
    all-zero and the all-one message, with their draws in their order: whether the
    zero message decoded, and the one message's bits. Trials run in blocks of at
    most _CHUNK_AMPLITUDES amplitudes per message: each trial keeps only its key's
    weight rows (generic: descriptions), and once all have drawn, each pass runs once."""
    rows, lam = repetitions * message_length, qga.num_qubits
    zeros, ones = np.zeros(rows, dtype=np.int64), np.ones(rows, dtype=np.int64)
    rngs, zero_ok, one_bits = iter(rngs), [], []
    while block := list(islice(rngs, max(1, _CHUNK_AMPLITUDES // (rows << lam)))):
        keys, draws = [], []
        for rng in block:
            descs = [qga.sample_g(rng) for _ in range(rows)]
            generic = descs[0].variant == VARIANT_GENERIC
            keys.append(np.array(descs, dtype=object) if generic else phase_weights(descs))
            draws.append((_draw_haar(zeros, lam, rng), rng.random(rows),
                          _draw_haar(ones, lam, rng), rng.random(rows)))
        elements = np.concatenate(keys)
        elements = elements if generic else weight_diagonals(descs[0].variant, elements)
        states0, shots0, states1, shots1 = map(np.concatenate, zip(*draws))
        cts0 = _seal(elements, np.tile(zeros, len(block)), states0)
        zero_ok.append(~_decode(_accept_probs(elements, cts0), shots0, rows))
        cts1 = _seal(elements, np.tile(ones, len(block)), states1)
        one_bits.append(_decode(_accept_probs(elements, cts1), shots1, repetitions))
    return np.concatenate(zero_ok), np.concatenate(one_bits).reshape(-1, message_length)
