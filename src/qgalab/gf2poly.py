"""Sparse multilinear polynomials over GF(2), stored as monomial bitmasks.

Bit j of a mask marks variable x_{j+1}; a monomial evaluates to 1 on an
assignment exactly when every marked variable is 1. The constant monomial
(mask 0) is excluded, so every polynomial here vanishes on the all-zeros
assignment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SparsePolyF2:
    num_vars: int
    terms: frozenset[int]
    degree_bound: int
    term_bound: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", terms := frozenset(map(int, self.terms)))
        v, d, w = self.num_vars, self.degree_bound, self.term_bound
        if v < 1:
            raise ValueError("need at least one variable")
        if not 1 <= d <= v:
            raise ValueError(f"degree bound {d} outside [1, {v}]")
        if w < 1:
            raise ValueError("term bound must be positive")
        if len(terms) > w:
            raise ValueError(f"{len(terms)} terms exceed the bound {w}")
        if terms and not (1 <= min(terms) and max(terms) < 2**v):
            m = min(terms) if min(terms) < 1 else max(terms)
            raise ValueError(f"monomial mask {m:#x} out of range (constant term excluded)")
        over = [m for m in terms if m.bit_count() > d] if d < v else []  # at d = v none is
        if over:
            raise ValueError(f"monomial mask {over[0]:#x} exceeds degree bound {d}")

    def sign_vector(self) -> np.ndarray:
        """(-1)^f over all basis indices, qubit j <-> variable x_{j+1}: the
        parity of ``subset_sums`` of the 0/1 term table, in O(num_vars *
        2^num_vars) time whatever the term count. Cached and read-only, since
        descriptions are immutable."""
        cached = self.__dict__.get("_sign_vector")
        if cached is None:
            coeffs = np.zeros(2**self.num_vars, dtype=np.uint8)
            coeffs[np.fromiter(self.terms, dtype=np.int64, count=len(self.terms))] = 1
            cached = PARITY_SIGNS.take(subset_sums(coeffs))
            cached.flags.writeable = False
            self.__dict__["_sign_vector"] = cached
        return cached


PARITY_SIGNS = np.where(np.arange(256) & 1, -1.0, 1.0)  # (-1)^s for a uint8 s


def subset_sums(coeffs: np.ndarray) -> np.ndarray:
    """Binary zeta (Moebius) transform of a uint8 table of 2^v entries indexed
    by monomial mask, on the last axis (leading axes are a batch of tables):
    entry z of the result sums coeffs[m], mod 256, over every m contained in
    z, in O(v * 2^v) time. The result is indexed by amplitude (mask bit j is
    index bit v - 1 - j), so the mask axes are reversed first."""
    v = coeffs.shape[-1].bit_length() - 1
    cube = coeffs.reshape((-1,) + (2,) * v)  # one leading axis for the batch
    sums = cube.transpose((0,) + tuple(range(v, 0, -1))).copy().reshape(coeffs.shape)
    for j in range(v):
        view = sums.reshape(-1, 2, 1 << j)
        view[:, 1, :] += view[:, 0, :]  # uint8 array arithmetic wraps silently
    return sums


def monomial_count(num_vars: int, degree_bound: int) -> int:
    """Number of admissible monomials: nonzero, degree at most d."""
    return sum(math.comb(num_vars, k) for k in range(1, degree_bound + 1))


def sample_sparse_poly(
    num_vars: int, degree_bound: int, term_bound: int, rng: np.random.Generator
) -> SparsePolyF2:
    """Draw ``term_bound`` monomials i.i.d. uniform over the admissible set
    (nonzero masks of degree at most ``degree_bound``), then deduplicate;
    collisions shrink the term count rather than resampling.
    """
    if not 1 <= degree_bound <= num_vars:
        raise ValueError(f"degree bound {degree_bound} outside [1, {num_vars}]")
    if term_bound < 1:
        raise ValueError("term bound must be positive")
    # uniform over nonzero masks of popcount <= d, by rejection on raw masks (none at d = v)
    terms: set[int] = set()
    needed = term_bound
    while needed > 0:
        batch = rng.integers(1, 2**num_vars, size=2 * needed)
        if degree_bound < num_vars:
            batch = batch[_popcount(batch, num_vars) <= degree_bound]
        accepted = batch[:needed]
        terms.update(accepted.tolist())
        needed -= accepted.size
    return SparsePolyF2(num_vars, frozenset(terms), degree_bound, term_bound)


def _popcount(masks: np.ndarray, width: int) -> np.ndarray:
    """Set bits of each mask in [0, 2**width), one 16-bit table lookup per
    16 bits of width (np.bitwise_count needs numpy 2)."""
    count = _POPCOUNT16[masks & 0xFFFF if width > 16 else masks]
    for shift in range(16, width, 16):
        count = count + _POPCOUNT16[(masks >> shift) & 0xFFFF]
    return count


# popcount of every 16-bit value, built by doubling: the upper half of each
# step's table is the lower half plus one
_POPCOUNT16 = np.zeros(1, dtype=np.uint8)
for _ in range(16):
    _POPCOUNT16 = np.concatenate([_POPCOUNT16, _POPCOUNT16 + 1])


def poly_to_json(poly: SparsePolyF2) -> dict:
    return {
        "degree_bound": poly.degree_bound,
        "term_bound": poly.term_bound,
        "terms": [format(m, "x") for m in sorted(poly.terms)],
    }


def poly_from_json(obj: dict, num_vars: int) -> SparsePolyF2:
    terms = frozenset(int(h, 16) for h in obj["terms"])
    return SparsePolyF2(num_vars, terms, int(obj["degree_bound"]), int(obj["term_bound"]))
