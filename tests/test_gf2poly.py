"""Sparse GF(2) polynomials: mask semantics, vectorized signs, sampling."""
import json
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qgalab import gf2poly
from qgalab.gf2poly import (
    SparsePolyF2,
    monomial_count,
    poly_from_json,
    poly_to_json,
    sample_sparse_poly,
    subset_sums,
)
from qgalab.rng import stream


def test_validation():
    with pytest.raises(ValueError):
        SparsePolyF2(0, frozenset(), 1, 1)
    with pytest.raises(ValueError):
        SparsePolyF2(3, frozenset(), 0, 1)
    with pytest.raises(ValueError):
        SparsePolyF2(3, frozenset(), 4, 1)
    with pytest.raises(ValueError):
        SparsePolyF2(3, frozenset(), 1, 0)
    with pytest.raises(ValueError):
        SparsePolyF2(3, frozenset({1, 2, 4}), 3, 2)  # 3 terms over bound 2
    with pytest.raises(ValueError):
        SparsePolyF2(3, frozenset({0}), 1, 1)  # constant term excluded
    with pytest.raises(ValueError):
        SparsePolyF2(3, frozenset({8}), 3, 1)  # mask out of range
    with pytest.raises(ValueError):
        SparsePolyF2(3, frozenset({7}), 2, 1)  # degree 3 over bound 2
    # numpy integers and lists are accepted and stored as a frozenset of ints
    poly = SparsePolyF2(3, [np.int64(3), 5, np.uint8(3)], 2, 2)
    assert poly.terms == frozenset({3, 5}) and {type(m) for m in poly.terms} == {int}
    assert SparsePolyF2(3, np.array([7, 1]), 3, 2).terms == frozenset({1, 7})  # d = v: any mask
    with pytest.raises(ValueError, match="out of range"):
        SparsePolyF2(3, [np.int64(0), 3], 3, 2)
    with pytest.raises(ValueError, match="out of range"):
        SparsePolyF2(3, np.array([1, 8]), 3, 2)
    with pytest.raises(ValueError, match="exceeds degree bound 2"):
        SparsePolyF2(3, [np.int64(7), 1], 2, 2)
    with pytest.raises(ValueError, match="exceed the bound 1"):
        SparsePolyF2(3, [1, np.int32(2)], 3, 1)


def test_empty_polynomial_is_zero():
    poly = SparsePolyF2(2, frozenset(), 1, 1)
    assert np.array_equal(poly.sign_vector(), np.ones(4))


def test_vanishes_at_zero_always(rng):
    for _ in range(20):
        poly = sample_sparse_poly(5, 3, 6, rng)
        assert poly.sign_vector()[0] == 1.0


def test_sign_vector_matches_per_index_evaluation(rng):
    # sign at amplitude index z uses qubit j (index bit n-1-j) as variable x_{j+1}
    for _ in range(10):
        n = 4
        poly = sample_sparse_poly(n, 3, 5, rng)
        signs = poly.sign_vector()
        for z in range(2**n):
            bits = [(z >> (n - 1 - j)) & 1 for j in range(n)]
            expected = -1.0 if oracles.poly_eval_reference(poly, bits) else 1.0
            assert signs[z] == expected


def test_sign_vector_is_cached_and_read_only(rng):
    poly = sample_sparse_poly(4, 2, 4, rng)
    first = poly.sign_vector()
    assert poly.sign_vector() is first
    with pytest.raises(ValueError):
        first[0] = 5.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sign_vector_matches_dense_reference(data):
    num_vars = data.draw(st.integers(min_value=1, max_value=12))
    masks = data.draw(
        st.sets(st.integers(min_value=1, max_value=2**num_vars - 1), max_size=40)
    )
    degree = max((m.bit_count() for m in masks), default=1)
    poly = SparsePolyF2(num_vars, frozenset(masks), degree, max(len(masks), 1))
    assert poly.sign_vector().tobytes() == oracles.sign_vector_reference(poly).tobytes()


@pytest.mark.parametrize("poly, flipped", [
    (SparsePolyF2(5, frozenset(), 1, 1), set()),
    # the degree-lambda monomial fires at the all-ones index only
    (SparsePolyF2(7, frozenset({2**7 - 1}), 7, 1), {2**7 - 1}),
    # every admissible monomial at (6, 6): 2^|z| - 1 subsets fire, odd unless z = 0
    (SparsePolyF2(6, frozenset(range(1, 2**6)), 6, 2**6 - 1), set(range(1, 2**6))),
    # the same at (9, 9): the all-ones entry sums 511 terms, past the uint8 wrap
    (SparsePolyF2(9, frozenset(range(1, 2**9)), 9, 2**9 - 1), set(range(1, 2**9))),
    # x1 x2 + x2 x3 cancels wherever both fire, the all-ones index included;
    # x1 x2 alone fires at indices 0b110*, x2 x3 alone at 0b011*
    (SparsePolyF2(4, frozenset({0b0011, 0b0110}), 2, 2), {0b1100, 0b1101, 0b0110, 0b0111}),
    # f = x1 x2 + x3 (masks 0b011, 0b100); variable x_{j+1} is index bit 2 - j, so
    # x3 alone fires at index 0b001 and x1 x2 alone at 0b110; both cancel at 0b111
    (SparsePolyF2(3, frozenset({0b011, 0b100}), 2, 2), {0b001, 0b011, 0b101, 0b110}),
], ids=["empty", "single-top-monomial", "all-monomials-6-6", "all-monomials-9-9",
        "cancel-at-all-ones", "x1x2-plus-x3"])
def test_sign_vector_edge_cases(poly, flipped):
    signs = poly.sign_vector()
    assert signs.dtype == np.float64
    assert signs.tobytes() == oracles.sign_vector_reference(poly).tobytes()
    assert {z for z in range(2**poly.num_vars) if signs[z] == -1.0} == flipped


def test_sign_vector_memory_does_not_grow_with_terms():
    # 256 terms at lambda = 16: a (terms x 2^16) evaluation would take ~150 MB
    masks = stream(16, "memory").choice(np.arange(1, 2**16), size=256, replace=False)
    poly = SparsePolyF2(16, frozenset(masks.tolist()), 16, 256)
    tracemalloc.start()
    try:
        poly.sign_vector()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**16 * 8


def test_monomial_count():
    assert monomial_count(3, 1) == 3
    assert monomial_count(3, 2) == 6
    assert monomial_count(3, 3) == 7
    assert monomial_count(5, 2) == 15
    # brute force cross-check
    brute = sum(1 for m in range(1, 2**5) if m.bit_count() <= 2)
    assert monomial_count(5, 2) == brute


def test_sampler_respects_bounds(rng):
    for _ in range(25):
        poly = sample_sparse_poly(5, 2, 7, rng)
        assert 1 <= len(poly.terms) <= 7
        assert all(1 <= m < 32 and m.bit_count() <= 2 for m in poly.terms)


def test_sampler_is_deterministic():
    a = sample_sparse_poly(6, 3, 8, stream(9, "poly"))
    b = sample_sparse_poly(6, 3, 8, stream(9, "poly"))
    assert a == b


@pytest.mark.parametrize("num_vars, degree_bound, term_bound", [
    (3, 1, 9), (5, 2, 25), (10, 3, 100), (18, 18, 324), (20, 4, 400), (40, 20, 50),
])
def test_sampler_matches_reference_loop(num_vars, degree_bound, term_bound):
    # same terms, and the generator is left in the same state
    for seed in range(5):
        rng, ref_rng = stream(seed, "poly"), stream(seed, "poly")
        poly = sample_sparse_poly(num_vars, degree_bound, term_bound, rng)
        ref_terms = oracles.sample_sparse_poly_terms_reference(
            num_vars, degree_bound, term_bound, ref_rng)
        assert poly.terms == ref_terms
        assert rng.random() == ref_rng.random()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_sampler_at_full_degree_skips_the_filter(num_vars, term_bound, seed):
    # at d = num_vars every nonzero mask is admissible: no popcount is taken,
    # and the terms and the generator state equal the filtering loop's
    rng, ref_rng = stream(seed, "poly"), stream(seed, "poly")
    with patch.object(gf2poly, "_popcount", side_effect=AssertionError("filtered at d = num_vars")):
        poly = sample_sparse_poly(num_vars, num_vars, term_bound, rng)
    ref_terms = oracles.sample_sparse_poly_terms_reference(num_vars, num_vars, term_bound, ref_rng)
    assert poly.terms == ref_terms
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sampler_is_uniform_over_admissible_masks(rng):
    # term_bound=1 draws a single monomial; its law is uniform on the 6
    # admissible masks at (v=3, d=2)
    counts = {}
    draws = 6000
    for _ in range(draws):
        (mask,) = sample_sparse_poly(3, 2, 1, rng).terms
        counts[mask] = counts.get(mask, 0) + 1
    assert set(counts) == {1, 2, 3, 4, 5, 6}
    from scipy.stats import chisquare

    _, p = chisquare(list(counts.values()))
    assert p > 0.01


def test_sampler_validation(rng):
    with pytest.raises(ValueError):
        sample_sparse_poly(3, 0, 2, rng)
    with pytest.raises(ValueError):
        sample_sparse_poly(3, 4, 2, rng)
    with pytest.raises(ValueError):
        sample_sparse_poly(3, 2, 0, rng)


def test_json_round_trip(rng):
    poly = sample_sparse_poly(6, 3, 9, rng)
    obj = json.loads(json.dumps(poly_to_json(poly)))
    assert obj["terms"] == sorted(obj["terms"], key=lambda h: int(h, 16))
    back = poly_from_json(obj, 6)
    assert back == poly


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 11), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_stacked_subset_sums_equal_per_row_sums(num_vars, rows, seed, saturated):
    # saturated tables (every weight 255) wrap mod 256 at every stage
    shape = (rows, 2**num_vars)
    coeffs = (np.full(shape, 255, dtype=np.uint8) if saturated
              else np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8))
    stacked = subset_sums(coeffs)
    assert stacked.shape == coeffs.shape and stacked.dtype == np.uint8
    for row, out in zip(coeffs, stacked):
        assert out.tobytes() == subset_sums(row).tobytes()
