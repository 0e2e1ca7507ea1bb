"""Monte-Carlo harness for the security games.

Each trial derives its own RNG stream from (master seed, game label, trial
index), so estimates are reproducible bit-for-bit regardless of how many
worker threads ran them. Within a trial one generator is consumed in a fixed
order: challenger first, adversary second, measurement last.

Estimates carry Wilson 95% confidence intervals. Distinguishing games hide a
balanced side coin per trial and report the folded advantage |2 acc - 1|,
whose interval is the image of the accuracy interval (it contains 0 exactly
when the accuracy interval contains 1/2).
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import prfsg
from .circuits import Circuit, Gate, sample_haar_unitary
from .distributions import DistributionId, gen_distribution
from .qga import VARIANT_GENERIC, QgaDescription, QgaInstance, apply_qga, apply_qga_start
from .rng import stream
from .states import (
    MAX_QUBITS,
    StateVector,
    measure_register_projector,
    orthogonal_state,
    plus_state,
    projection_prob,
    projection_sample,
    sample_haar_state,
    tensor,
)

Z_95 = 1.959963984540054


@dataclass(frozen=True)
class GameResult:
    trials: int
    successes: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int
    detail: dict | None = None


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    # rounding at p = 0 or 1 can push a bound past the point estimate by one
    # ulp; the interval must always bracket p
    return max(0.0, min(p, center - half)), min(1.0, max(p, center + half))


def estimate(successes: int, trials: int) -> tuple[float, tuple[float, float]]:
    """Point estimate and Wilson 95% interval."""
    interval = wilson_interval(successes, trials)  # rejects trials <= 0 before the division
    return successes / trials, interval


def _fold_advantage(acc_low: float, acc_high: float) -> tuple[float, float]:
    """Image of an accuracy interval under a -> |2a - 1|."""
    lo, hi = 2 * acc_low - 1, 2 * acc_high - 1
    if lo <= 0.0 <= hi:
        return 0.0, max(abs(lo), abs(hi))
    return min(abs(lo), abs(hi)), max(abs(lo), abs(hi))


def run_trials(
    trial_fn: Callable[[np.random.Generator], bool],
    trials: int,
    seed: int,
    label: str,
    workers: int = 1,
    record: bool = False,
) -> tuple[int, list[bool] | None]:
    """Run seeded independent trials; outcomes never depend on ``workers``."""
    if trials < 1:
        raise ValueError("trials must be positive")

    def one(i: int) -> bool:
        return bool(trial_fn(stream(seed, label, i)))

    if workers <= 1:
        outcomes = [one(i) for i in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, range(trials)))
    return sum(outcomes), (outcomes if record else None)


def _result(successes: int, trials: int, seed: int, detail: dict | None = None,
            outcomes: list[bool] | None = None) -> GameResult:
    est, (lo, hi) = estimate(successes, trials)
    if outcomes is not None:
        detail = dict(detail or {})
        detail["outcomes"] = [int(b) for b in outcomes]
    return GameResult(trials, successes, est, lo, hi, seed, detail)


def _advantage_result(correct: int, trials: int, seed: int, detail: dict,
                      outcomes: list[bool] | None) -> GameResult:
    """Result of a balanced-coin game: the folded advantage |2 acc - 1|."""
    acc_lo, acc_hi = wilson_interval(correct, trials)
    adv_lo, adv_hi = _fold_advantage(acc_lo, acc_hi)
    est = abs(2.0 * correct / trials - 1.0)
    detail = {"accuracy": correct / trials, **detail}
    if outcomes is not None:
        detail["outcomes"] = [int(b) for b in outcomes]
    return GameResult(trials, correct, est, adv_lo, adv_hi, seed, detail)


def _count_hits(joint: StateVector, t_prime: int, target: StateVector,
                rng: np.random.Generator) -> int:
    """Project the t' registers of ``joint`` onto ``target`` one by one, with
    collapse, and count the hits."""
    lam = target.num_qubits
    if joint.num_qubits != t_prime * lam:
        raise ValueError("adversary output register count mismatch")
    hits = 0
    for reg in range(t_prime):
        hit, joint = measure_register_projector(joint, reg, lam, target, rng)
        hits += int(hit)
    return hits


def _check_register_cap(t_prime: int, lam: int) -> None:
    if t_prime * lam > MAX_QUBITS:
        raise ValueError("t_prime registers exceed the statevector cap")


def _fresh_answer(oracle: prfsg.StateOracle, x_star) -> StateVector | None:
    """The oracle's answer at x*, or None when x* was queried before."""
    bits = prfsg._as_bits(x_star, oracle.input_length)
    if bits in oracle.queried:
        return None
    return oracle.query(bits)


# ---------------------------------------------------------------------------
# challenge views handed to adversaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OwChallenge:
    qga: QgaInstance
    t: int
    base: StateVector          # |s>
    image: StateVector         # g|s>
    secret_g: QgaDescription   # out-of-band channel for omniscient baselines


@dataclass(frozen=True, eq=False)
class UpChallenge:
    qga: QgaInstance
    t: int
    base: StateVector
    secret_g: QgaDescription
    secret_target: StateVector


@dataclass(frozen=True, eq=False)
class UcChallenge:
    qga: QgaInstance
    t0: int
    t: int
    t_prime: int
    base: StateVector
    copies: StateVector        # g|s>, the t challenge copies are of this state
    secret_g: QgaDescription


def _challenge(
    qga: QgaInstance, source: str, rng: np.random.Generator
) -> tuple[StateVector, QgaDescription, StateVector]:
    """(base, g, g|base>), the base drawn before g."""
    if source not in ("action", "haar"):
        raise ValueError(f"unknown base-state source {source!r}; expected 'action' or 'haar'")
    start = qga.sample_s()
    base = start.expand() if source == "action" else sample_haar_state(qga.num_qubits, rng)
    g = qga.sample_g(rng)
    return base, g, apply_qga_start(g, start) if source == "action" else apply_qga(g, base)


# ---------------------------------------------------------------------------
# game runners
# ---------------------------------------------------------------------------

def run_ow_game(
    qga: QgaInstance,
    adversary: Callable[[OwChallenge, np.random.Generator], QgaDescription],
    t: int,
    trials: int,
    seed: int,
    workers: int = 1,
    record: bool = False,
) -> GameResult:
    """Invert-the-action game: adversary proposes g'; the challenger projects
    g|s> onto g'|s>, so success probability is |<s|(g')^dag g|s>|^2."""

    def trial(rng: np.random.Generator) -> bool:
        base, g, image = _challenge(qga, "action", rng)
        guess = adversary(OwChallenge(qga, t, base, image, g), rng)
        return projection_sample(image, apply_qga_start(guess, qga.sample_s()), rng)

    successes, outcomes = run_trials(trial, trials, seed, "ow", workers, record)
    return _result(successes, trials, seed, None, outcomes)


def run_up_game(
    qga: QgaInstance,
    adversary: Callable[[UpChallenge, np.random.Generator], StateVector],
    t: int,
    trials: int,
    seed: int,
    source: str = "action",
    workers: int = 1,
    record: bool = False,
) -> GameResult:
    """Unpredictability game: the adversary sees |s> copies only and must
    output a state close to g|s>; scored by a sampled projection."""

    def trial(rng: np.random.Generator) -> bool:
        base, g, target = _challenge(qga, source, rng)
        forged = adversary(UpChallenge(qga, t, base, g, target), rng)
        return projection_sample(target, forged, rng)

    successes, outcomes = run_trials(trial, trials, seed, "up", workers, record)
    return _result(successes, trials, seed, None, outcomes)


def run_uc_game(
    qga: QgaInstance,
    adversary: Callable[[UcChallenge, np.random.Generator], StateVector],
    t0: int,
    t: int,
    t_prime: int,
    trials: int,
    seed: int,
    source: str = "action",
    workers: int = 1,
    record: bool = False,
) -> GameResult:
    """Uncloneability game: with t genuine copies in hand the adversary
    returns t' > t registers; it wins when at least t+1 pass the projector,
    measured register by register with collapse."""
    if not 1 <= t < t_prime:
        raise ValueError("need 1 <= t < t_prime")
    _check_register_cap(t_prime, qga.num_qubits)

    def trial(rng: np.random.Generator) -> bool:
        base, g, target = _challenge(qga, source, rng)
        joint = adversary(UcChallenge(qga, t0, t, t_prime, base, target, g), rng)
        return _count_hits(joint, t_prime, target, rng) >= t + 1

    successes, outcomes = run_trials(trial, trials, seed, "uc", workers, record)
    return _result(successes, trials, seed, None, outcomes)


def run_distinguishing_game(
    pair: tuple[DistributionId | str, DistributionId | str],
    qga: QgaInstance,
    distinguisher: Callable[[list, np.random.Generator], int],
    t: int,
    q_samples: int,
    trials: int,
    seed: int,
    workers: int = 1,
    record: bool = False,
) -> GameResult:
    """Hidden balanced coin picks a side of the pair; the estimate is the
    folded advantage |2 acc - 1| with the interval folded the same way."""
    left, right = DistributionId(pair[0]), DistributionId(pair[1])

    def trial(rng: np.random.Generator) -> bool:
        side = int(rng.integers(2))
        sample = gen_distribution(right if side else left, qga, t, q_samples, rng)
        return int(distinguisher(sample, rng)) == side

    correct, outcomes = run_trials(trial, trials, seed, "dist-" + left.value + "-" + right.value,
                                   workers, record)
    return _advantage_result(correct, trials, seed, {"pair": [left.value, right.value]},
                             outcomes)


def standard_prfsg_factory(
    qga: QgaInstance, ell: int
) -> Callable[[int, np.random.Generator], prfsg.StateOracle]:
    """Factory building a keyed oracle for side 0 and a Haar oracle for side 1."""

    def factory(side: int, rng: np.random.Generator) -> prfsg.StateOracle:
        if side == 0:
            key = prfsg.keygen(qga, ell, rng)
            return prfsg.RealOracle(key)
        return prfsg.IdealOracle(qga.num_qubits, ell, rng)

    return factory


def run_prfsg_game(
    oracle_factory: Callable[[int, np.random.Generator], prfsg.StateOracle],
    distinguisher: Callable[[prfsg.StateOracle, np.random.Generator], int],
    trials: int,
    seed: int,
    workers: int = 1,
    record: bool = False,
) -> GameResult:
    """Oracle-distinguishing game; side 0 is the real (keyed) oracle."""

    def trial(rng: np.random.Generator) -> bool:
        side = int(rng.integers(2))
        oracle = oracle_factory(side, rng)
        return int(distinguisher(oracle, rng)) == side

    correct, outcomes = run_trials(trial, trials, seed, "prfsg", workers, record)
    return _advantage_result(correct, trials, seed, {}, outcomes)


def run_upsg_game(
    oracle_factory: Callable[[np.random.Generator], prfsg.StateOracle],
    adversary: Callable[[prfsg.StateOracle, np.random.Generator], tuple[str, StateVector]],
    trials: int,
    seed: int,
    workers: int = 1,
    record: bool = False,
) -> GameResult:
    """Forgery-on-fresh-input game with classical oracle queries.

    The adversary outputs (x*, state); querying x* beforehand forfeits the
    trial, otherwise the state is projected onto the oracle's answer at x*.
    """

    def trial(rng: np.random.Generator) -> bool:
        oracle = oracle_factory(rng)
        x_star, forged = adversary(oracle, rng)
        target = _fresh_answer(oracle, x_star)
        return target is not None and projection_sample(target, forged, rng)

    successes, outcomes = run_trials(trial, trials, seed, "upsg", workers, record)
    return _result(successes, trials, seed, None, outcomes)


class UcfsgAdversary:
    """Two-phase contract for the cloning-forgery game."""

    def choose_target(self, oracle: prfsg.StateOracle, rng: np.random.Generator) -> str:
        """The input x* to clone the answer at; by default 10...0, never queried."""
        return "1" + "0" * (oracle.input_length - 1)

    def clone(self, copies: Sequence[StateVector], t_prime: int,
              rng: np.random.Generator) -> StateVector:
        raise NotImplementedError


def run_ucfsg_game(
    oracle_factory: Callable[[np.random.Generator], prfsg.StateOracle],
    adversary: UcfsgAdversary,
    t: int,
    t_prime: int,
    trials: int,
    seed: int,
    workers: int = 1,
    record: bool = False,
) -> GameResult:
    """Cloning game on a fresh input: after t genuine copies of the answer at
    x*, the adversary must fill t' > t registers passing the projector at
    least t+1 times."""
    if not 1 <= t < t_prime:
        raise ValueError("need 1 <= t < t_prime")

    def trial(rng: np.random.Generator) -> bool:
        oracle = oracle_factory(rng)
        target = _fresh_answer(oracle, adversary.choose_target(oracle, rng))
        if target is None:
            return False
        _check_register_cap(t_prime, target.num_qubits)
        joint = adversary.clone([target] * t, t_prime, rng)
        return _count_hits(joint, t_prime, target, rng) >= t + 1

    successes, outcomes = run_trials(trial, trials, seed, "ucfsg", workers, record)
    return _result(successes, trials, seed, None, outcomes)


# ---------------------------------------------------------------------------
# fixed-point distinguisher against the IQP families posing as Haar unitaries
# ---------------------------------------------------------------------------

def attack_iqp_fixed_point(
    family: QgaInstance,
    trials: int,
    seed: int,
    workers: int = 1,
) -> GameResult:
    """Query the unitary on the uniform superposition and project back onto it.

    The IQP families fix that state exactly, a Haar unitary only hits it with
    probability 2^-lambda, so one query separates the two worlds.
    """
    if family.name not in ("iqp-diagonal", "iqp-sparse"):
        raise ValueError("the fixed-point attack targets the iqp-diagonal and iqp-sparse families")
    num_qubits = family.num_qubits
    probe = plus_state(num_qubits)

    def iqp_trial(rng: np.random.Generator) -> bool:
        reply = apply_qga(family.sample_g(rng), probe)
        return projection_sample(probe, reply, rng)

    def haar_trial(rng: np.random.Generator) -> bool:
        u = sample_haar_unitary(num_qubits, rng)
        reply = StateVector(num_qubits, u @ probe.amplitudes)
        return projection_sample(probe, reply, rng)

    iqp_hits, _ = run_trials(iqp_trial, trials, seed, "attack-iqp", workers)
    haar_hits, _ = run_trials(haar_trial, trials, seed, "attack-haar", workers)
    iqp_rate, (iqp_lo, iqp_hi) = estimate(iqp_hits, trials)
    haar_rate, (haar_lo, haar_hi) = estimate(haar_hits, trials)
    adv = abs(iqp_rate - haar_rate)
    lo = max(0.0, max(iqp_lo - haar_hi, haar_lo - iqp_hi))
    hi = min(1.0, max(iqp_hi - haar_lo, haar_hi - iqp_lo))
    detail = {
        "iqp_rate": iqp_rate,
        "haar_rate": haar_rate,
        "iqp_ci": [iqp_lo, iqp_hi],
        "haar_ci": [haar_lo, haar_hi],
    }
    return GameResult(2 * trials, iqp_hits + haar_hits, adv, lo, hi, seed, detail)


# ---------------------------------------------------------------------------
# baseline adversaries and distinguishers
# ---------------------------------------------------------------------------

def ow_omniscient(ch: OwChallenge, rng: np.random.Generator) -> QgaDescription:
    return ch.secret_g


def ow_identity(ch: OwChallenge, rng: np.random.Generator) -> QgaDescription:
    return QgaDescription(VARIANT_GENERIC, ch.qga.num_qubits, Circuit(ch.qga.num_qubits, ()))


def ow_orthogonal(ch: OwChallenge, rng: np.random.Generator) -> QgaDescription:
    """Maps |s> onto a state orthogonal to g|s>; drives the estimate to 0."""
    n = ch.qga.num_qubits
    w = orthogonal_state(ch.image).amplitudes
    base = ch.base.amplitudes
    # unitary with first column pair (|s> -> |w>): complete both to bases
    b_s = _complete_basis(base)
    b_w = _complete_basis(w)
    u = b_w @ b_s.conj().T
    return QgaDescription(VARIANT_GENERIC, n, Circuit(n, (Gate(tuple(range(n)), u),)))


def _complete_basis(first_column: np.ndarray) -> np.ndarray:
    dim = first_column.size
    m = np.eye(dim, dtype=np.complex128)
    m[:, 0] = first_column
    q, _ = np.linalg.qr(m)
    # qr may flip the leading phase; restore the requested first column
    q[:, 0] = first_column
    for j in range(1, dim):
        col = q[:, j]
        col -= np.vdot(first_column, col) * first_column
        q[:, j] = col / np.linalg.norm(col)
    return q


def up_copy(ch: UpChallenge, rng: np.random.Generator) -> StateVector:
    return ch.base


def up_omniscient(ch: UpChallenge, rng: np.random.Generator) -> StateVector:
    return ch.secret_target


def up_haar(ch: UpChallenge, rng: np.random.Generator) -> StateVector:
    return sample_haar_state(ch.qga.num_qubits, rng)


def up_orthogonal(ch: UpChallenge, rng: np.random.Generator) -> StateVector:
    return orthogonal_state(ch.secret_target)


def uc_echo_junk(ch: UcChallenge, rng: np.random.Generator) -> StateVector:
    """Return the t genuine copies padded with orthogonal junk: never wins."""
    return UcfsgEcho().clone([ch.copies] * ch.t, ch.t_prime, rng)


def uc_haar_pad(ch: UcChallenge, rng: np.random.Generator) -> StateVector:
    return UcfsgHaarPad().clone([ch.copies] * ch.t, ch.t_prime, rng)


def uc_cloner(ch: UcChallenge, rng: np.random.Generator) -> StateVector:
    """Omniscient: fills every register with the genuine state; always wins."""
    return tensor(*([ch.copies] * ch.t_prime))


def dist_random_guess(sample, rng: np.random.Generator) -> int:
    return int(rng.integers(2))


def make_project_second(target: StateVector) -> Callable:
    """Distinguisher sampling a projection of the second tuple component onto
    a fixed target; answers 0 ("left") on a hit."""

    def dist(sample, rng: np.random.Generator) -> int:
        state = sample[0][0][1]
        return 0 if rng.random() < projection_prob(target, state) else 1

    return dist


def prfsg_repeat_query(oracle: prfsg.StateOracle, rng: np.random.Generator) -> int:
    """Queries one input twice and checks consistency; both worlds are
    memoized, so this cannot do better than chance."""
    x = "0" * oracle.input_length
    a, b = oracle.query(x), oracle.query(x)
    return 0 if projection_prob(a, b) > 1.0 - 1e-9 else 1


def prfsg_random_guess(oracle: prfsg.StateOracle, rng: np.random.Generator) -> int:
    return int(rng.integers(2))


def upsg_replay(oracle: prfsg.StateOracle, rng: np.random.Generator) -> tuple[str, StateVector]:
    """Replays the answer of one queried input as a forgery for a fresh one."""
    ell = oracle.input_length
    seen = oracle.query("0" * ell)
    return "1" + "0" * (ell - 1), seen


def upsg_haar(oracle: prfsg.StateOracle, rng: np.random.Generator) -> tuple[str, StateVector]:
    return "1" * oracle.input_length, sample_haar_state(oracle.num_qubits, rng)


def make_upsg_omniscient(key: prfsg.PrfsgKey) -> Callable:
    """Handed the key out of band; outputs the honest state for a fresh input."""

    def adv(oracle: prfsg.StateOracle, rng: np.random.Generator) -> tuple[str, StateVector]:
        x_star = "1" * oracle.input_length
        return x_star, prfsg.state_gen(key, x_star)

    return adv


class UcfsgEcho(UcfsgAdversary):
    """Returns the t genuine copies plus orthogonal junk; never reaches t+1."""

    def clone(self, copies, t_prime, rng):
        junk = orthogonal_state(copies[0])
        return tensor(*list(copies), *([junk] * (t_prime - len(copies))))


class UcfsgCloneOmniscient(UcfsgAdversary):
    """Handed the key out of band; fills all t' registers honestly."""

    def __init__(self, key: prfsg.PrfsgKey) -> None:
        self.key = key

    def clone(self, copies, t_prime, rng):
        honest = prfsg.state_gen(self.key, "1" + "0" * (self.key.input_length - 1))
        return tensor(*([honest] * t_prime))


class UcfsgHaarPad(UcfsgAdversary):
    def clone(self, copies, t_prime, rng):
        lam = copies[0].num_qubits
        pads = [sample_haar_state(lam, rng) for _ in range(t_prime - len(copies))]
        return tensor(*list(copies), *pads)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def game_report(result: GameResult, game: str, params: dict) -> dict:
    """Canonical report: replayable, so no wall-clock field is embedded."""
    report = {
        "game": game,
        "params": params,
        "seed": result.seed,
        "trials": result.trials,
        "successes": result.successes,
        "estimate": result.estimate,
        "ci": [result.ci_low, result.ci_high],
    }
    if result.detail is not None:
        report["detail"] = {k: v for k, v in result.detail.items() if k != "outcomes"}
    return report
