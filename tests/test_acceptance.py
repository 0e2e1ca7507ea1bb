"""Acceptance gates for the whole laboratory.

Each test is one release criterion, pinned to its stated tolerance. They are
deliberately heavier than the unit tests (10^4-trial Monte Carlo runs) and
print one pass/fail line each under pytest -v.
"""
import time

import numpy as np

import oracles
from qgalab.cli import main as cli_main
from qgalab.ega import (
    check_orbit_uniformity,
    check_properties,
    instantiate_exp_action,
    nr_prf,
    nr_prf_keygen,
)
from qgalab.games import (
    UcfsgCloneOmniscient,
    attack_iqp_fixed_point,
    make_upsg_omniscient,
    run_ucfsg_game,
    run_upsg_game,
)
from qgalab.prfsg import (
    GameOracle,
    HybridOracle,
    IdealOracle,
    RealOracle,
    keygen,
    mac_accept_prob,
    mac_tag,
    mac_verify,
    state_gen,
)
from qgalab.primitives import (
    money_accept_prob,
    money_keygen,
    money_mint,
    money_verify,
    owsg_accept_prob,
    owsg_keygen,
    owsg_state_gen,
    owsg_verify,
    ske1_dec,
    ske1_enc,
    ske1_keygen,
    ske_multi_dec,
    ske_multi_enc,
    ske_multi_keygen,
)
from qgalab.qga import apply_qga, iqp_circuit_qga, iqp_poly_qga
from qgalab.rng import stream
from qgalab.states import (
    projection_prob,
    sample_haar_state,
    swap_test_accept_prob,
)

SEED = 20260815


def test_criterion_01_ske_zero_bit_always_decodes():
    # encrypted zeros decode to zero in every one of 10^4 fresh-key trials,
    # and the whole run stays under 10 seconds
    family = iqp_poly_qga(3)
    started = time.perf_counter()
    failures = 0
    for i in range(10_000):
        rng = stream(SEED, "acc-1", i)
        key = ske1_keygen(family, rng)
        ct = ske1_enc(key, 0, rng)
        failures += int(ske1_dec(key, ct, rng) != 0)
    elapsed = time.perf_counter() - started
    assert failures == 0
    assert elapsed < 10.0


def test_criterion_02_ske_one_bit_rate():
    # a 1-bit decodes to 1 at rate (1 - 2^-3)/2 = 0.4375 within 0.015 over
    # 10^4 trials, above the 1/5 floor; the complement stays below 4/5
    family = iqp_poly_qga(3)
    ones = 0
    for i in range(10_000):
        rng = stream(SEED, "acc-2", i)
        key = ske1_keygen(family, rng)
        ct = ske1_enc(key, 1, rng)
        ones += int(ske1_dec(key, ct, rng) == 1)
    rate = ones / 10_000
    assert abs(rate - 0.4375) < 0.015
    assert rate >= 1 / 5
    assert 1 - rate <= 4 / 5


def test_criterion_03_multibit_ske_rates():
    # at lambda=3, t=8, ell=4: the zero message decodes perfectly in every
    # trial, and each 1-bit survives at rate 1 - 0.5625^8 within 0.01,
    # above the 1 - (4/5)^8 floor
    family = iqp_poly_qga(3)
    t, ell, trials = 8, 4, 10_000
    zero_failures = 0
    one_bits = 0
    for i in range(trials):
        rng = stream(SEED, "acc-3", i)
        key = ske_multi_keygen(family, t, ell, rng)
        cts0 = ske_multi_enc(key, [0] * ell, rng)
        zero_failures += int(ske_multi_dec(key, cts0, rng) != (0,) * ell)
        cts1 = ske_multi_enc(key, [1] * ell, rng)
        one_bits += sum(ske_multi_dec(key, cts1, rng))
    assert zero_failures == 0
    per_bit = one_bits / (trials * ell)
    expected = 1 - 0.5625**t
    assert abs(per_bit - expected) < 0.01
    assert per_bit >= 1 - (4 / 5) ** t


def test_criterion_04_haar_mean_overlap():
    # mean |<psi|phi>|^2 over 10^4 independent pairs equals 2^-n within
    # three Monte Carlo standard errors, for n = 1, 2, 3
    pairs = 10_000
    for n in (1, 2, 3):
        rng = stream(SEED, "acc-4-overlap", n)
        overlaps = np.empty(pairs)
        for i in range(pairs):
            a = sample_haar_state(n, rng)
            b = sample_haar_state(n, rng)
            overlaps[i] = projection_prob(a, b)
        se = overlaps.std(ddof=1) / np.sqrt(pairs)
        assert abs(overlaps.mean() - 2.0**-n) < 3 * se


def test_criterion_05_swap_test_circuit_equivalence():
    # the closed-form accept probability agrees with an explicit
    # ancilla-controlled-SWAP circuit on 100 random pairs up to n = 4
    rng = stream(SEED, "acc-5")
    for n in (1, 2, 3, 4):
        for _ in range(25):
            a = sample_haar_state(n, rng)
            b = sample_haar_state(n, rng)
            analytic = swap_test_accept_prob(a, b)
            circuit = oracles.swap_test_circuit_accept_prob(a, b)
            assert abs(analytic - circuit) <= 1e-10


def test_criterion_06_iqp_candidates_commute():
    # both diagonal-phase families commute pairwise at lambda = 4:
    # ||gh|psi> - hg|psi>|| <= 1e-10 over 100 random triples each
    for family in (iqp_circuit_qga(4), iqp_poly_qga(4)):
        rng = stream(SEED, "acc-6", family.name)
        for _ in range(100):
            g = family.sample_g(rng)
            h = family.sample_g(rng)
            psi = sample_haar_state(4, rng)
            gh = apply_qga(g, apply_qga(h, psi)).amplitudes
            hg = apply_qga(h, apply_qga(g, psi)).amplitudes
            assert np.linalg.norm(gh - hg) <= 1e-10


def test_criterion_07_iqp_not_pru_attack():
    # the fixed-point probe accepts the diagonal family every single time,
    # accepts Haar at 2^-4 within 0.01, and separates the two by >= 0.92,
    # all in under 60 seconds at 10^4 trials per side
    started = time.perf_counter()
    result = attack_iqp_fixed_point(iqp_poly_qga(4), trials=10_000, seed=SEED)
    elapsed = time.perf_counter() - started
    assert result.detail["iqp_rate"] == 1.0
    assert abs(result.detail["haar_rate"] - 0.0625) < 0.01
    assert result.estimate >= 0.92
    assert elapsed < 60.0


def test_criterion_08_prfsg_structural_checks():
    family = iqp_poly_qga(3)
    key = keygen(family, 3, stream(SEED, "acc-8", "key"))

    # prefix-0 game oracle is the real oracle on every input
    game = GameOracle(key, 0, family, stream(SEED, "acc-8", "game"))
    real = RealOracle(key)
    for x in range(8):
        bits = format(x, "03b")
        fidelity = projection_prob(game.query(bits), real.query(bits))
        assert fidelity >= 1 - 1e-10

    # generation matches a dense matrix chain at lambda = 2, ell = 2
    small = keygen(iqp_poly_qga(2), 2, stream(SEED, "acc-8", "small"))
    dense = [oracles.dense_qga_matrix(g) for g in small.group_elements]
    base = small.base_state.expand().amplitudes
    for x in range(4):
        bits = ((x >> 1) & 1, x & 1)
        mat = dense[0]
        for i, bit in enumerate(bits, start=1):
            if bit:
                mat = dense[i] @ mat
        got = state_gen(small, bits).amplitudes
        assert np.max(np.abs(got - mat @ base)) < 1e-10

    # memoized oracles answer repeat queries with the identical state
    hybrid = HybridOracle(family, 3, stream(SEED, "acc-8", "hybrid"))
    ideal = IdealOracle(3, 3, stream(SEED, "acc-8", "ideal"))
    for oracle in (hybrid, ideal):
        first = oracle.query("101")
        second = oracle.query("101")
        assert second is first
        assert projection_prob(first, second) >= 1 - 1e-12


def test_criterion_09_honest_acceptance_and_counterfeits():
    family = iqp_poly_qga(3)
    rng = stream(SEED, "acc-9", "honest")

    # honest objects are accepted with probability exactly 1
    okey = owsg_keygen(family, rng)
    assert owsg_accept_prob(okey, owsg_state_gen(okey)) == 1.0
    assert owsg_verify(okey, owsg_state_gen(okey), rng)

    mkey = money_keygen(family, rng)
    note = money_mint(mkey)
    assert money_accept_prob(mkey, note.note) == 1.0
    assert money_verify(mkey, note.note, rng)

    tkey = keygen(family, 3, rng)
    tag = mac_tag(tkey, "110")
    assert mac_accept_prob(tkey, "110", tag) == 1.0
    assert mac_verify(tkey, "110", tag, rng)

    fixed = keygen(family, 3, stream(SEED, "acc-9", "fixed"))
    forge = run_upsg_game(lambda r: RealOracle(fixed), make_upsg_omniscient(fixed),
                          trials=200, seed=SEED)
    assert forge.estimate == 1.0
    clone = run_ucfsg_game(lambda r: RealOracle(fixed), UcfsgCloneOmniscient(fixed),
                           t=1, t_prime=2, trials=200, seed=SEED)
    assert clone.estimate == 1.0

    # haar counterfeits pass the projection verifiers at 2^-3 within 3 sigma
    trials = 3000
    sigma = np.sqrt(0.125 * 0.875 / trials)
    money_hits = 0
    mac_hits = 0
    for i in range(trials):
        crng = stream(SEED, "acc-9", "counterfeit", i)
        fake = sample_haar_state(3, crng)
        money_hits += int(money_verify(money_keygen(family, crng), fake, crng))
        mac_hits += int(mac_verify(keygen(family, 2, crng), "01", fake, crng))
    assert abs(money_hits / trials - 0.125) < 3 * sigma
    assert abs(mac_hits / trials - 0.125) < 3 * sigma


def test_criterion_10_classical_action_reference():
    action = instantiate_exp_action()

    # keyed evaluation equals direct modular exponentiation on all 2^8 inputs
    key = nr_prf_keygen(action, 8, stream(SEED, "acc-10"))
    for x in range(2**8):
        bits = tuple((x >> (7 - i)) & 1 for i in range(8))
        direct = oracles.nr_direct_exponentiation(23, 11, key.elements, bits,
                                                  action.origin)
        assert nr_prf(action, key, bits) == direct

    report = check_properties(action)
    assert report.regular

    uniformity = check_orbit_uniformity(action, 10_000, stream(SEED, "acc-10", "chi"))
    assert uniformity.p_value > 0.01


def test_criterion_11_byte_identical_reports(capsys):
    # identical (config, seed) gives identical bytes, and worker fan-out
    # cannot leak into the report
    def run(*argv):
        assert cli_main(list(argv)) == 0
        return capsys.readouterr().out

    sample_args = ("sample", "--seed", "11", "--lambda", "3")
    assert run(*sample_args) == run(*sample_args)

    game_args = ("game", "--id", "up", "--trials", "60", "--lambda", "2",
                 "--seed", "11")
    serial = run(*game_args, "--workers", "1")
    fanned = run(*game_args, "--workers", "3")
    assert serial == fanned

    attack_args = ("game", "--id", "attack-iqp-pru", "--trials", "40",
                   "--lambda", "3", "--seed", "11")
    assert run(*attack_args, "--workers", "1") == run(*attack_args, "--workers", "2")
