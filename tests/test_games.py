"""Monte Carlo harness: statistics, runners, baselines, reports."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qgalab.games import (
    GameResult,
    UcfsgCloneOmniscient,
    UcfsgEcho,
    UcfsgHaarPad,
    Z_95,
    _fold_advantage,
    attack_iqp_fixed_point,
    dist_random_guess,
    estimate,
    game_report,
    make_project_second,
    make_upsg_omniscient,
    ow_identity,
    ow_omniscient,
    ow_orthogonal,
    prfsg_repeat_query,
    run_distinguishing_game,
    run_ow_game,
    run_prfsg_game,
    run_trials,
    run_uc_game,
    run_ucfsg_game,
    run_up_game,
    run_upsg_game,
    standard_prfsg_factory,
    uc_cloner,
    uc_echo_junk,
    uc_haar_pad,
    up_copy,
    up_haar,
    up_omniscient,
    up_orthogonal,
    upsg_replay,
    wilson_interval,
)
from qgalab.prfsg import RealOracle, keygen, state_gen
from qgalab.qga import (
    haar_unitary_qga,
    identity_qga,
    iqp_circuit_qga,
    iqp_poly_qga,
    random_circuit_qga,
)
from qgalab.rng import stream
from qgalab.states import basis_state, projection_prob


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,n", [(50, 100), (0, 100), (100, 100), (3, 7), (9999, 10000), (1, 3)])
def test_wilson_matches_reference(k, n):
    lo, hi = wilson_interval(k, n)
    ref_lo, ref_hi = oracles.wilson_reference(k, n)
    assert abs(lo - ref_lo) < 1e-12
    assert abs(hi - ref_hi) < 1e-12


@given(st.integers(1, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@settings(max_examples=30, deadline=None)
def test_wilson_brackets_the_point_estimate(nt):
    n, k = nt
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 3)
    with pytest.raises(ValueError):
        estimate(1, 0)


def test_fold_advantage():
    assert _fold_advantage(0.4, 0.6) == (0.0, pytest.approx(0.2))
    assert _fold_advantage(0.7, 0.9) == (pytest.approx(0.4), pytest.approx(0.8))
    assert _fold_advantage(0.1, 0.3) == (pytest.approx(0.4), pytest.approx(0.8))


# ---------------------------------------------------------------------------
# trial driver
# ---------------------------------------------------------------------------

def test_run_trials_worker_count_does_not_change_outcomes():
    def coin(rng):
        return rng.random() < 0.5

    serial = run_trials(coin, 64, seed=5, label="coins", workers=1, record=True)
    pooled = run_trials(coin, 64, seed=5, label="coins", workers=4, record=True)
    assert serial == pooled


def test_run_trials_labels_give_independent_streams():
    def coin(rng):
        return rng.random() < 0.5

    _, a = run_trials(coin, 64, seed=5, label="alpha", record=True)
    _, b = run_trials(coin, 64, seed=5, label="beta", record=True)
    assert a != b


def test_run_trials_validation():
    with pytest.raises(ValueError):
        run_trials(lambda rng: True, 0, seed=0, label="x")


# ---------------------------------------------------------------------------
# action games
# ---------------------------------------------------------------------------

def test_ow_baselines():
    family = random_circuit_qga(2, depth=2)
    assert run_ow_game(family, ow_omniscient, 1, 40, seed=1).estimate == 1.0
    assert run_ow_game(family, ow_orthogonal, 1, 40, seed=2).estimate == 0.0
    ident = run_ow_game(identity_qga(2), ow_identity, 1, 40, seed=3)
    assert ident.estimate == 1.0


def test_up_baselines():
    family = random_circuit_qga(2, depth=2)
    assert run_up_game(family, up_omniscient, 1, 40, seed=4).estimate == 1.0
    assert run_up_game(family, up_orthogonal, 1, 40, seed=5).estimate == 0.0
    assert run_up_game(identity_qga(2), up_copy, 1, 40, seed=6).estimate == 1.0
    haar = run_up_game(family, up_haar, 1, 400, seed=7, source="haar")
    assert 0.12 < haar.estimate < 0.40  # mean overlap with a 2-qubit target is 1/4


def test_uc_baselines():
    family = random_circuit_qga(2, depth=2)
    win = run_uc_game(family, uc_cloner, 1, 2, 3, 30, seed=8)
    assert win.estimate == 1.0
    lose = run_uc_game(family, uc_echo_junk, 1, 2, 3, 30, seed=9)
    assert lose.estimate == 0.0
    pad = run_uc_game(family, uc_haar_pad, 1, 2, 3, 300, seed=10)
    assert 0.10 < pad.estimate < 0.45  # one haar pad must also hit: about 1/4


def test_uc_validation():
    family = random_circuit_qga(2, depth=2)
    with pytest.raises(ValueError):
        run_uc_game(family, uc_cloner, 1, 3, 3, 10, seed=0)
    with pytest.raises(ValueError):  # t = 0 leaves the adversary nothing to clone
        run_uc_game(family, uc_echo_junk, 1, 0, 3, 10, seed=0)
    with pytest.raises(ValueError):
        run_uc_game(random_circuit_qga(7, depth=1), uc_cloner, 1, 2, 3, 10, seed=0)


# ---------------------------------------------------------------------------
# distinguishing games
# ---------------------------------------------------------------------------

def test_distinguishing_random_guess_has_no_advantage():
    res = run_distinguishing_game(("pr0", "pr1"), iqp_poly_qga(2), dist_random_guess,
                                  t=1, q_samples=1, trials=200, seed=11)
    assert res.estimate < 0.2
    assert res.ci_low == 0.0
    assert res.detail["pair"] == ["pr0", "pr1"]


def test_distinguishing_projection_control_sees_the_difference():
    # against the identity family the left side's second component is |0...0>
    # while the right side is haar, so projecting onto |0...0> separates them
    family = identity_qga(3)
    dist = make_project_second(basis_state(3, 0))
    res = run_distinguishing_game(("pr0", "pr1"), family, dist,
                                  t=1, q_samples=1, trials=400, seed=12)
    assert res.estimate > 0.7


def test_prfsg_repeat_query_is_blind():
    factory = standard_prfsg_factory(iqp_poly_qga(2), 2)
    res = run_prfsg_game(factory, prfsg_repeat_query, trials=300, seed=13)
    assert res.estimate < 0.15
    assert res.ci_low == 0.0


def test_prfsg_projection_control_distinguishes_identity_family():
    factory = standard_prfsg_factory(identity_qga(2), 2)
    probe = basis_state(2, 0)

    def dist(oracle, rng):
        answer = oracle.query("00")
        return 0 if projection_prob(probe, answer) > 0.5 else 1

    res = run_prfsg_game(factory, dist, trials=400, seed=14)
    assert res.estimate > 0.8


# ---------------------------------------------------------------------------
# forgery and cloning on the keyed generator
# ---------------------------------------------------------------------------

def _real_factory(family, ell):
    def factory(rng):
        return RealOracle(keygen(family, ell, rng))
    return factory


def test_upsg_replay_wins_when_elements_collapse():
    res = run_upsg_game(_real_factory(identity_qga(2), 2), upsg_replay, trials=50, seed=15)
    assert res.estimate == 1.0


def test_upsg_replay_rate_on_haar_family():
    # replayed state meets an independently rotated target: mean overlap 2^-3
    res = run_upsg_game(_real_factory(haar_unitary_qga(3), 3), upsg_replay,
                        trials=800, seed=16)
    assert abs(res.estimate - 0.125) < 0.04


def test_upsg_querying_the_target_forfeits():
    def cheat(oracle, rng):
        x = "1" * oracle.input_length
        return x, oracle.query(x)

    res = run_upsg_game(_real_factory(identity_qga(2), 2), cheat, trials=30, seed=17)
    assert res.estimate == 0.0


def test_upsg_omniscient_forges_perfectly():
    key = keygen(iqp_poly_qga(2), 2, stream(18, "fixed-key"))
    res = run_upsg_game(lambda rng: RealOracle(key), make_upsg_omniscient(key),
                        trials=30, seed=18)
    assert res.estimate == 1.0


def test_ucfsg_baselines():
    key = keygen(iqp_poly_qga(2), 2, stream(19, "fixed-key"))
    factory = lambda rng: RealOracle(key)
    win = run_ucfsg_game(factory, UcfsgCloneOmniscient(key), 1, 2, 30, seed=19)
    assert win.estimate == 1.0
    lose = run_ucfsg_game(factory, UcfsgEcho(), 1, 2, 30, seed=20)
    assert lose.estimate == 0.0
    pad = run_ucfsg_game(factory, UcfsgHaarPad(), 1, 2, 300, seed=21)
    assert 0.10 < pad.estimate < 0.45


def test_ucfsg_validation():
    key = keygen(iqp_poly_qga(2), 2, stream(22, "fixed-key"))
    with pytest.raises(ValueError):
        run_ucfsg_game(lambda rng: RealOracle(key), UcfsgEcho(), 2, 2, 10, seed=0)
    with pytest.raises(ValueError):
        run_ucfsg_game(lambda rng: RealOracle(key), UcfsgEcho(), 0, 2, 10, seed=0)
    wide = keygen(iqp_poly_qga(7), 2, stream(22, "wide-key"))
    with pytest.raises(ValueError):
        run_ucfsg_game(lambda rng: RealOracle(wide), UcfsgEcho(), 2, 3, 10, seed=0)


# ---------------------------------------------------------------------------
# fixed-point attack
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("candidate", [2, 3])
def test_attack_iqp_fixed_point(candidate):
    family = {2: iqp_circuit_qga, 3: iqp_poly_qga}[candidate](3)
    res = attack_iqp_fixed_point(family, trials=60, seed=23)
    assert res.detail["iqp_rate"] == 1.0
    assert res.detail["haar_rate"] < 0.4
    assert res.estimate > 0.5


def test_attack_iqp_rejects_generic_candidate():
    with pytest.raises(ValueError):
        attack_iqp_fixed_point(random_circuit_qga(3), trials=10, seed=0)


# ---------------------------------------------------------------------------
# reports and determinism
# ---------------------------------------------------------------------------

def test_game_report_shape():
    res = run_up_game(iqp_poly_qga(2), up_copy, 1, 20, seed=24, record=True)
    report = game_report(res, "up", {"lambda": 2, "t": 1})
    assert set(report) == {"game", "params", "seed", "trials", "successes",
                           "estimate", "ci", "detail"}
    assert "outcomes" not in report["detail"]
    assert report["ci"] == [res.ci_low, res.ci_high]

    plain = run_up_game(iqp_poly_qga(2), up_copy, 1, 20, seed=24)
    assert "detail" not in game_report(plain, "up", {})


def test_runs_are_reproducible():
    family = random_circuit_qga(2, depth=2)
    a = run_ow_game(family, ow_identity, 1, 80, seed=25)
    b = run_ow_game(family, ow_identity, 1, 80, seed=25)
    assert a == b
    assert isinstance(a, GameResult)
