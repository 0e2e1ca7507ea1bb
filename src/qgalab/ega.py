"""Classical effective group actions: the small-integer reference world.

Everything here is exhaustively checkable. A ClassicalEga carries a finite
group, a finite set, and the action map, all over machine ints. The shipped
instantiation is exponentiation on a prime-order subgroup, which makes the
Naor-Reingold-style PRF below agree with direct modular exponentiation and
gives the structural checkers a regular action to certify.

Distribution generators mirror the shapes of the quantum module one-for-one
so the two can be compared structurally in tests.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

import numpy as np

from .prfsg import _as_bits

MAX_MODULUS = 2**31
MAX_EXHAUSTIVE_PAIRS = 10**6


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, eq=False)
class ClassicalEga:
    """A finite group acting on a finite set, with effective operations.

    Elements on both sides are canonical ints (unique representation). The
    callables are total on the listed elements; nothing here is checked at
    construction time beyond basic membership, the structural checkers do
    the exhaustive work.
    """

    name: str
    group_elements: tuple[int, ...]
    identity: int
    op: Callable[[int, int], int] = field(repr=False)
    inv: Callable[[int], int] = field(repr=False)
    set_elements: tuple[int, ...]
    act: Callable[[int, int], int] = field(repr=False)
    origin: int
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.group_elements)) != len(self.group_elements):
            raise ValueError("group elements must be distinct")
        if len(set(self.set_elements)) != len(self.set_elements):
            raise ValueError("set elements must be distinct")
        if self.identity not in self.group_elements:
            raise ValueError("identity not in group")
        if self.origin not in self.set_elements:
            raise ValueError("origin not in set")

    def sample_group(self, rng: np.random.Generator) -> int:
        return self.group_elements[int(rng.integers(len(self.group_elements)))]

    def sample_set(self, rng: np.random.Generator) -> int:
        return self.set_elements[int(rng.integers(len(self.set_elements)))]


def instantiate_exp_action(p: int = 23, q: int = 11, generator: int = 2) -> ClassicalEga:
    """Exponentiation action a * s = s^a mod p on the order-q subgroup minus {1}.

    The group is the units mod q under multiplication. Writing s = gen^k, the
    action sends k to k*a mod q, so it is regular on the punctured subgroup.
    """
    for name, n in (("p", p), ("q", q)):
        if not 2 <= n < MAX_MODULUS:
            raise ValueError(f"{name} out of range [2, 2^31)")
    if not _is_prime(p):
        raise ValueError("p must be prime")
    if not _is_prime(q):
        raise ValueError("q must be prime")
    if (p - 1) % q != 0:
        raise ValueError("q must divide p - 1")
    g = generator % p
    if g in (0, 1) or pow(g, q, p) != 1:
        raise ValueError("generator must have order q mod p")

    subgroup = sorted(pow(g, k, p) for k in range(1, q))
    if len(subgroup) != q - 1:
        raise ValueError("generator must have order q mod p")

    return ClassicalEga(
        name="exp-subgroup",
        group_elements=tuple(range(1, q)),
        identity=1,
        op=lambda a, b: (a * b) % q,
        inv=lambda a: pow(a, -1, q),
        set_elements=tuple(subgroup),
        act=lambda a, s: pow(s, a, p),
        origin=g,
        params={"p": p, "q": q, "generator": g},
    )


def trivial_action(group_size: int, set_size: int) -> ClassicalEga:
    """Z_n acting trivially: every group element fixes every point."""
    if group_size < 1 or set_size < 1:
        raise ValueError("sizes must be positive")
    n = group_size
    return ClassicalEga(
        name="trivial",
        group_elements=tuple(range(n)),
        identity=0,
        op=lambda a, b: (a + b) % n,
        inv=lambda a: (-a) % n,
        set_elements=tuple(range(set_size)),
        act=lambda a, s: s,
        origin=0,
        params={"group_size": group_size, "set_size": set_size},
    )


def translation_with_fixed_point(group_size: int) -> ClassicalEga:
    """Z_n translating itself, plus one extra point fixed by everything.

    Faithful (translations move 0) but not free (the extra point is fixed),
    and not transitive (two orbits). Set element n encodes the fixed point.
    """
    if group_size < 2:
        raise ValueError("need group_size >= 2")
    n = group_size
    return ClassicalEga(
        name="translation-plus-fixed-point",
        group_elements=tuple(range(n)),
        identity=0,
        op=lambda a, b: (a + b) % n,
        inv=lambda a: (-a) % n,
        set_elements=tuple(range(n + 1)),
        act=lambda a, s: s if s == n else (a + s) % n,
        origin=0,
        params={"group_size": group_size},
    )


@dataclass(frozen=True)
class NrPrfKey:
    """Group elements (g_0, ..., g_ell) for the product-then-act PRF."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.elements) < 1:
            raise ValueError("key needs at least g_0")

    @property
    def input_length(self) -> int:
        return len(self.elements) - 1


def nr_prf_keygen(ega: ClassicalEga, ell: int, rng: np.random.Generator) -> NrPrfKey:
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return NrPrfKey(tuple(ega.sample_group(rng) for _ in range(ell + 1)))


def nr_prf(ega: ClassicalEga, key: NrPrfKey, x) -> int:
    """f(x) = (g_ell^{x_ell} ... g_1^{x_1} g_0) * s_0 with s_0 the origin."""
    bits = _as_bits(x, key.input_length)
    acc = key.elements[0]
    for i, bit in enumerate(bits, start=1):
        if bit:
            acc = ega.op(key.elements[i], acc)
    return ega.act(acc, ega.origin)


class ClassicalDistributionId(str, Enum):
    """Classical assumption-game sample shapes, mirroring the quantum ids."""

    PR0 = "pr0"    # [(s0, g*s0)]
    PR1 = "pr1"    # [(s0, u)]
    WPR0 = "wpr0"  # Q tuples (s_i, g*s_i), one g, fresh uniform s_i
    WPR1 = "wpr1"  # Q tuples (s_i, u_i), all components i.i.d. uniform
    DDH0 = "ddh0"  # [(s0, gt*s0, g*s0, (gt g)*s0)]
    DDH1 = "ddh1"  # [(s0, gt*s0, g*s0, u)]
    NR0 = "nr0"    # Q tuples (g_i*s0, (gt g_i)*s0), one shared gt
    NR1 = "nr1"    # Q tuples (g_i*s0, u_i)


def _set_and_image(ega: ClassicalEga, shared: tuple[int, ...],
                   rng: np.random.Generator) -> tuple[int, int]:
    s = ega.sample_set(rng)
    return s, ega.act(shared[0], s)


def _ddh(ega: ClassicalEga, shared: tuple[int, ...], rng: np.random.Generator,
         real: bool) -> tuple[int, ...]:
    g_tilde, g = shared
    s0 = ega.origin
    fourth = ega.act(ega.op(g_tilde, g), s0) if real else ega.sample_set(rng)
    return s0, ega.act(g_tilde, s0), ega.act(g, s0), fourth


def _nr(ega: ClassicalEga, shared: tuple[int, ...], rng: np.random.Generator) -> tuple[int, int]:
    """(g_i*s0, (gt g_i)*s0) with a shared gt drawn up front, else (g_i*s0, u_i)."""
    g_i = ega.sample_group(rng)
    second = ega.act(ega.op(shared[0], g_i), ega.origin) if shared else ega.sample_set(rng)
    return ega.act(g_i, ega.origin), second


# A recipe is (group elements drawn up front, Q tuples or one, tuple builder);
# a builder takes the action, the up-front elements and the generator.
_RECIPES = {
    ClassicalDistributionId.PR0: (1, False, lambda e, sh, rng: (e.origin, e.act(sh[0], e.origin))),
    ClassicalDistributionId.PR1: (0, False, lambda e, sh, rng: (e.origin, e.sample_set(rng))),
    ClassicalDistributionId.WPR0: (1, True, _set_and_image),
    ClassicalDistributionId.WPR1: (0, True, lambda e, sh, rng: (e.sample_set(rng), e.sample_set(rng))),
    ClassicalDistributionId.DDH0: (2, False, lambda e, sh, rng: _ddh(e, sh, rng, real=True)),
    ClassicalDistributionId.DDH1: (2, False, lambda e, sh, rng: _ddh(e, sh, rng, real=False)),
    ClassicalDistributionId.NR0: (1, True, _nr),
    ClassicalDistributionId.NR1: (0, True, _nr),
}


def gen_classical_distribution(
    dist: ClassicalDistributionId | str,
    ega: ClassicalEga,
    q_samples: int,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """Draw one sample of the named distribution as a list of int tuples."""
    up_front, per_q, build = _RECIPES[ClassicalDistributionId(dist)]
    if q_samples < 1:
        raise ValueError("q_samples must be positive")
    shared = tuple(ega.sample_group(rng) for _ in range(up_front))
    return [build(ega, shared, rng) for _ in range(q_samples if per_q else 1)]


@dataclass(frozen=True)
class PropertyReport:
    transitive: bool
    free: bool
    faithful: bool
    regular: bool


def check_properties(ega: ClassicalEga) -> PropertyReport:
    """Decide transitivity, freeness, faithfulness, regularity by brute force."""
    n_pairs = len(ega.group_elements) * len(ega.set_elements)
    if n_pairs > MAX_EXHAUSTIVE_PAIRS:
        raise ValueError(f"{n_pairs} group-set pairs exceeds exhaustive cap")

    orbit = {ega.act(g, ega.origin) for g in ega.group_elements}
    transitive = orbit == set(ega.set_elements)

    free = True
    faithful_witness = {g: False for g in ega.group_elements if g != ega.identity}
    for g in ega.group_elements:
        if g == ega.identity:
            continue
        for s in ega.set_elements:
            if ega.act(g, s) == s:
                free = False
            else:
                faithful_witness[g] = True
    faithful = all(faithful_witness.values())

    return PropertyReport(
        transitive=transitive,
        free=free,
        faithful=faithful,
        regular=transitive and free,
    )


@dataclass(frozen=True)
class UniformityReport:
    statistic: float
    p_value: float
    trials: int
    num_cells: int


def check_orbit_uniformity(
    ega: ClassicalEga,
    trials: int,
    rng: np.random.Generator,
    check_hypotheses: bool = True,
) -> UniformityReport:
    """Chi-square test of {g * s_0 : g uniform} against uniform on the set.

    With check_hypotheses the action must be transitive and faithful, the
    regime where the pushforward is exactly uniform. Disable it to measure
    how lopsided a defective action looks.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if check_hypotheses:
        report = check_properties(ega)
        if not (report.transitive and report.faithful):
            raise ValueError("action must be transitive and faithful")

    size = len(ega.set_elements)
    if size == 1:
        return UniformityReport(0.0, 1.0, trials, 1)

    # imported here: scipy.stats dominates start-up and only this check needs it
    from scipy import stats

    index = {s: i for i, s in enumerate(ega.set_elements)}
    counts = np.zeros(size, dtype=np.int64)
    for _ in range(trials):
        counts[index[ega.act(ega.sample_group(rng), ega.origin)]] += 1
    statistic, p_value = stats.chisquare(counts)
    return UniformityReport(float(statistic), float(p_value), trials, size)


def exp_action_to_json(ega: ClassicalEga) -> str:
    if ega.name != "exp-subgroup":
        raise ValueError("only the exponentiation action serializes to the fixture form")
    obj = {
        "p": ega.params["p"],
        "q": ega.params["q"],
        "generator": ega.params["generator"],
        "s0": ega.origin,
    }
    return json.dumps(obj, sort_keys=True)


def exp_action_from_json(text: str) -> ClassicalEga:
    obj = json.loads(text)
    ega = instantiate_exp_action(int(obj["p"]), int(obj["q"]), int(obj["generator"]))
    s0 = int(obj["s0"])
    if s0 != ega.origin:
        if s0 not in ega.set_elements:
            raise ValueError("s0 not in the acted-on set")
        ega = replace(ega, origin=s0)
    return ega


def classical_distribution_to_json(samples: list[tuple[int, ...]]) -> str:
    return json.dumps([list(tup) for tup in samples])
