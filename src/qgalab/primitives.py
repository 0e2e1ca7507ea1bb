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

from .qga import (
    VARIANT_GENERIC,
    QgaDescription,
    QgaInstance,
    StateDescription,
    apply_qga_array,
    apply_qga_rows,
    apply_qga_start,
    stacked_diagonals,
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

_CHUNK_AMPLITUDES = 1 << 16  # rows go through in chunks of at most this many amplitudes


def _chunks(count: int, num_qubits: int) -> list[np.ndarray]:
    step = max(1, _CHUNK_AMPLITUDES >> num_qubits)
    return [np.arange(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _check_unit_rows(rows: np.ndarray) -> None:
    """The StateVector norm check, one vectorised test per chunk of rows."""
    step = max(1, _CHUNK_AMPLITUDES // rows.shape[-1])
    for lo in range(0, len(rows), step):
        if np.abs(np.linalg.norm(rows[lo:lo + step], axis=-1) - 1.0).max(initial=0.0) > ATOL:
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


def _key_rows(key: SkeKey1 | SkeKeyMulti) -> tuple[list[QgaDescription], np.ndarray | None]:
    """The key's elements in ciphertext order and their stacked diagonals (None
    for generic elements), cached on the key."""
    if "_rows" not in key.__dict__:
        descs = [k.group_desc for k in (key.keys if isinstance(key, SkeKeyMulti) else (key,))]
        generic = descs[0].variant == VARIANT_GENERIC
        key.__dict__["_rows"] = descs, None if generic else stacked_diagonals(descs)
    return key.__dict__["_rows"]


def _act(key: SkeKey1 | SkeKeyMulti, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """g_i on each row, for the key elements i in ``index``."""
    descs, diagonals = _key_rows(key)
    return apply_qga_rows([descs[i] for i in index], rows, None if diagonals is None else diagonals[index])


def _encrypt(key: SkeKey1 | SkeKeyMulti, bits: np.ndarray, rng: np.random.Generator) -> CiphertextBatch:
    """Row i encrypts bits[i] under element i: bit 0 -> (|s>, g|s>), bit 1 ->
    (|s>, |s'>), with fresh Haar |s>, |s'>."""
    descs = _key_rows(key)[0]
    lam = descs[0].num_qubits
    first = np.empty((len(bits), 2**lam), dtype=np.complex128)
    second = np.empty_like(first)
    for rows in _chunks(len(bits), lam):
        chunk = bits[rows]
        at = np.cumsum(1 + chunk) - 1 - chunk  # the draw of each row's |s>
        haar = rng.standard_normal((at[-1] + 1 + chunk[-1], 2**(lam + 1))).view(np.complex128)
        haar /= np.linalg.norm(haar, axis=1, keepdims=True)
        first[rows] = haar[at]
        second[rows[chunk == 1]] = haar[at[chunk == 1] + 1]
        zeros = rows[chunk == 0]
        if zeros.size:
            second[zeros] = _act(key, zeros, first[zeros])
    first.flags.writeable = second.flags.writeable = False
    return CiphertextBatch(first, second)


def _accept_probs(key: SkeKey1 | SkeKeyMulti, cts: CiphertextBatch) -> np.ndarray:
    """Per row, the snapped probability that the SWAP test of (g_i . first_i,
    second_i) reports "equal"."""
    descs = _key_rows(key)[0]
    if cts.first.shape != (len(descs), 2**descs[0].num_qubits):
        raise ValueError("ciphertext count does not match the key")
    accept = np.empty(len(cts))
    for rows in _chunks(len(cts), descs[0].num_qubits):
        moved = _act(key, rows, cts.first[rows])
        _check_unit_rows(moved)
        overlaps = np.abs(np.einsum("ij,ij->i", moved.conj(), cts.second[rows])) ** 2
        accept[rows] = [snap_prob((1.0 + p) / 2.0) for p in overlaps.tolist()]
    return accept


def ske1_keygen(qga: QgaInstance, rng: np.random.Generator) -> SkeKey1:
    return SkeKey1(qga.sample_g(rng))


def ske1_enc(key: SkeKey1, bit: int, rng: np.random.Generator) -> CiphertextBatch:
    """bit 0 -> (|s>, g|s>); bit 1 -> (|s>, |s'>) with fresh Haar |s>, |s'>: one row."""
    if bit not in (0, 1):
        raise ValueError(f"plaintext bit must be 0 or 1, got {bit}")
    return _encrypt(key, np.array([bit]), rng)


def ske1_dec_zero_prob(key: SkeKey1, ct: CiphertextBatch) -> float:
    """Probability that decryption outputs 0: SWAP test of (g . first, second)."""
    return float(_accept_probs(key, ct)[0])


def ske1_dec(key: SkeKey1, ct: CiphertextBatch, rng: np.random.Generator) -> int:
    """Apply g to the first half and SWAP-test; "equal" decodes to 0."""
    accept = _accept_probs(key, ct)[0]
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
    call per chunk of rows: the stream of one sample_haar_state call per state.
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
    accept = _accept_probs(key, cts)
    rejects = (rng.random(len(cts)) >= accept).reshape(key.message_length, key.repetitions)
    return tuple(int(bit) for bit in rejects.any(axis=1))
