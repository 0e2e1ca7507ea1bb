"""Sample generators for the distinguishing assumptions.

Every generator returns the same nested shape:

    sample = [ block_1, ..., block_Q ]      one block per outer index q
    block  = [ copy_1, ..., copy_t ]        t identical copies
    copy   = (state, ...)                   a 1-, 2- or 4-tuple of states

Copies inside a block are the *same* object: repetition of a tuple means the
identical states, not fresh draws. Distributions without an outer index
produce a single block. The DDH pair is deliberately literal: one tuple,
repeated across both the copy and the block axis.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .qga import QgaDescription, QgaInstance, apply_qga, apply_qga_start
from .states import StateVector, sample_haar_state


class DistributionId(str, Enum):
    PR0 = "pr0"                  # (|s0>, h|s0>)^t
    PR1 = "pr1"                  # (|s0>, haar)^t
    PRQ0 = "prq0"                # { (h_q|s0>)^t }_q
    PRQ1 = "prq1"                # { haar_q^t }_q
    HAAR_PR0 = "haarpr0"         # (|s>, h|s>)^t, |s> haar
    HAAR_PR1 = "haarpr1"         # (|s>, |s'>)^t, both haar
    HAAR_PRQ0 = "haarprq0"       # { (|s_q>, h_q|s_q>)^t }_q
    HAAR_PRQ1 = "haarprq1"       # { (|s_q>, |s'_q>)^t }_q
    DDH0 = "ddh0"                # { (|s0>, g~|s0>, g|s0>, g~g|s0>)^t }_q, one tuple
    DDH1 = "ddh1"                # fourth component replaced by fresh h|s0>
    HAAR_DDH0 = "haarddh0"       # shared g on per-q haar states
    HAAR_DDH1 = "haarddh1"       # fresh h_q on per-q haar states
    NR0 = "nr0"                  # { (g_q|s0>, g~ g_q|s0>)^t }_q, shared g~
    NR1 = "nr1"                  # { (g_q|s0>, h_q|s0>)^t }_q
    NR_PRIME = "nrprime"         # { (|s_q>, h~_q|s_q>)^t }_q, haar bases
    NR_PRIME0 = "nrprime0"       # { (|s_q>, g~|s_q>)^t }_q, shared g~
    NR_PRIME1 = "nrprime1"       # { (|s_q>, |s'_q>)^t }_q


Sample = list[list[tuple[StateVector, ...]]]


class _Draw:
    """What a recipe builds tuples from: the action's base state, the group
    elements drawn once up front, and fresh group elements or Haar states."""

    def __init__(self, qga: QgaInstance, up_front: int, rng: np.random.Generator) -> None:
        self.qga = qga
        self.rng = rng
        self.start = qga.sample_s()
        self.s0 = self.start.expand()
        self.shared = tuple(qga.sample_g(rng) for _ in range(up_front))

    def g(self) -> QgaDescription:
        return self.qga.sample_g(self.rng)

    def act(self, g: QgaDescription) -> StateVector:
        return apply_qga_start(g, self.start)

    def haar(self) -> StateVector:
        return sample_haar_state(self.qga.num_qubits, self.rng)


def _haar_and_image(d: _Draw) -> tuple[StateVector, StateVector]:
    """(|s>, g|s>) for a Haar |s>; g is the shared element if one was drawn."""
    s = d.haar()
    return s, apply_qga(d.shared[0] if d.shared else d.g(), s)


def _haar_pair(d: _Draw) -> tuple[StateVector, StateVector]:
    return d.haar(), d.haar()


def _ddh(d: _Draw, real: bool) -> tuple[StateVector, ...]:
    g_tilde, g = d.shared
    third = d.act(g)
    fourth = apply_qga(g_tilde, third) if real else d.act(d.g())
    return d.s0, d.act(g_tilde), third, fourth


def _nr0(d: _Draw) -> tuple[StateVector, StateVector]:
    first = d.act(d.g())
    return first, apply_qga(d.shared[0], first)


# A recipe is (tuple count, group elements drawn up front, tuple builder). The
# count is one tuple, Q fresh tuples, or one tuple repeated Q times.
_ONE, _FRESH, _REPEAT = "one", "fresh", "repeat"
_FRESH_HAAR_AND_IMAGE = (_FRESH, 0, _haar_and_image)
_FRESH_HAAR_PAIRS = (_FRESH, 0, _haar_pair)
_HAAR_AND_SHARED_IMAGE = (_FRESH, 1, _haar_and_image)

_RECIPES = {
    DistributionId.PR0: (_ONE, 0, lambda d: (d.s0, d.act(d.g()))),
    DistributionId.PR1: (_ONE, 0, lambda d: (d.s0, d.haar())),
    DistributionId.PRQ0: (_FRESH, 0, lambda d: (d.act(d.g()),)),
    DistributionId.PRQ1: (_FRESH, 0, lambda d: (d.haar(),)),
    DistributionId.HAAR_PR0: (_ONE, 0, _haar_and_image),
    DistributionId.HAAR_PR1: (_ONE, 0, _haar_pair),
    DistributionId.HAAR_PRQ0: _FRESH_HAAR_AND_IMAGE,
    DistributionId.HAAR_PRQ1: _FRESH_HAAR_PAIRS,
    DistributionId.DDH0: (_REPEAT, 2, lambda d: _ddh(d, real=True)),
    DistributionId.DDH1: (_REPEAT, 2, lambda d: _ddh(d, real=False)),
    DistributionId.HAAR_DDH0: _HAAR_AND_SHARED_IMAGE,
    DistributionId.HAAR_DDH1: _FRESH_HAAR_AND_IMAGE,
    DistributionId.NR0: (_FRESH, 1, _nr0),
    DistributionId.NR1: (_FRESH, 0, lambda d: (d.act(d.g()), d.act(d.g()))),
    DistributionId.NR_PRIME: _FRESH_HAAR_AND_IMAGE,
    DistributionId.NR_PRIME0: _HAAR_AND_SHARED_IMAGE,
    DistributionId.NR_PRIME1: _FRESH_HAAR_PAIRS,
}


def gen_distribution(
    dist: DistributionId | str, qga: QgaInstance, t: int, q_samples: int, rng: np.random.Generator
) -> Sample:
    """Draw one sample of the named distribution over the given QGA."""
    count, up_front, build = _RECIPES[DistributionId(dist)]
    if t < 1 or q_samples < 1:
        raise ValueError("t and Q must be positive")
    d = _Draw(qga, up_front, rng)
    if count == _FRESH:
        tuples = [build(d) for _ in range(q_samples)]
    else:
        tuples = [build(d)] * (q_samples if count == _REPEAT else 1)
    return [[tup] * t for tup in tuples]


def sample_shape(sample: Sample) -> tuple[int, int, int]:
    """(blocks, copies per block, tuple arity) of a generated sample."""
    return len(sample), len(sample[0]), len(sample[0][0])
