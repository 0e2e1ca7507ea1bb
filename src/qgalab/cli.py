"""Command-line experiment runner.

Every run resolves a config (defaults < optional JSON config file < explicit
flags), validates it before any work starts, derives all randomness from the
single master seed, and emits a canonical report that embeds the resolved
config. Reports are byte-identical across re-runs with the same config and
seed, regardless of --workers; wall-clock timing goes to stderr only.

Exit codes: 0 ok, 2 rejected config (nothing has run), 3 runtime error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import ega as ega_mod
from . import games, prfsg, primitives
from .circuits import MAX_DENSE_QUBITS, PhaseWord, word_to_json
from .distributions import DistributionId
from .qga import (
    VARIANT_IQP_CIRCUIT,
    QgaInstance,
    haar_unitary_qga,
    identity_qga,
    iqp_circuit_qga,
    iqp_poly_qga,
    qga_to_json,
    random_circuit_qga,
    state_desc_to_json,
)
from .rng import stream
from .states import MAX_QUBITS, StateVector, sample_haar_state

# config key and flag name -> (flag type, default, lowest allowed integer);
# flags override a config file
_OPTIONS = {
    "seed": (int, 0, 0),
    "trials": (int, 1000, 1),
    "lambda": (int, 3, 1),
    "ell": (int, 3, 1),
    "t": (int, 2, 1),
    "t0": (int, 1, 0),
    "tprime": (int, 3, 1),
    "q": (int, 4, 1),
    "d": (int, None, 1),
    "w": (int, None, 1),
    "depth": (int, None, 0),
    "candidate": (str, "iqp-sparse", None),
    "id": (str, None, None),
    "adversary": (str, None, None),
    "out": (str, None, None),
    "format": (str, "json", None),
    "workers": (int, 1, 1),
}

# a prfsg-eval report holds 2^(lambda + ell) amplitudes, about 86 B of text and
# 300 B resident each: the cap keeps one call under 2 GiB
_MAX_REPORT_AMPLITUDES = 2**22

_CANDIDATE_ALIASES = {"1": "random-circuit", "2": "iqp-circuit", "3": "iqp-sparse"}
# candidate -> (family builder, {config key: builder keyword}); a key left unset
# falls back to the builder's own default
_FAMILIES = {
    "random-circuit": (random_circuit_qga, {"depth": "depth"}),
    "iqp-circuit": (iqp_circuit_qga, {"depth": "num_gates"}),
    "iqp-sparse": (iqp_poly_qga, {"d": "degree_bound", "w": "term_bound"}),
    "haar-unitary": (haar_unitary_qga, {}),
    "identity": (identity_qga, {}),
}

_GAME_ADVERSARIES = {
    "ow": ("identity", {"omniscient": games.ow_omniscient,
                        "identity": games.ow_identity,
                        "orthogonal": games.ow_orthogonal}),
    "up": ("copy", {"copy": games.up_copy,
                    "omniscient": games.up_omniscient,
                    "haar": games.up_haar,
                    "orthogonal": games.up_orthogonal}),
    "uc": ("echo-junk", {"echo-junk": games.uc_echo_junk,
                         "haar-pad": games.uc_haar_pad,
                         "cloner": games.uc_cloner}),
    "prfsg": ("repeat-query", {"repeat-query": games.prfsg_repeat_query,
                               "random-guess": games.prfsg_random_guess}),
    "upsg": ("replay", {"replay": games.upsg_replay,
                        "haar": games.upsg_haar}),
    "ucfsg": ("echo", {"echo": games.UcfsgEcho(),
                       "haar-pad": games.UcfsgHaarPad()}),
}


class ValidationError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for key, (kind, _, _) in _OPTIONS.items():
        common.add_argument(f"--{key}", dest=key, type=kind, default=None)
    common.add_argument("--config", type=str, default=None)

    parser = argparse.ArgumentParser(prog="qgalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sample", "game", "ske-roundtrip", "prfsg-eval", "money-demo", "ega-check"):
        sub.add_parser(name, parents=[common])
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    config = {key: default for key, (_, default, _) in _OPTIONS.items()}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in config:
                raise ValidationError(f"unknown config key {key!r}")
            config[key] = value
    for key in _OPTIONS:
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    return config


def _validate(config: dict, command: str) -> None:
    for key, (kind, default, low) in _OPTIONS.items():
        value = config[key]
        if value is None and default is None:
            continue
        if kind is str:
            # candidate is coerced below, so a config file may give it as a number
            if key != "candidate" and not isinstance(value, str):
                raise ValidationError(f"--{key} must be a string")
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"--{key} must be an integer")
        high = MAX_QUBITS if key == "lambda" else None
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ValidationError(f"--{key} must be {bound}, got {value}")
    if config["d"] is not None and config["d"] > config["lambda"]:
        raise ValidationError("--d cannot exceed --lambda")

    candidate = str(config["candidate"])
    candidate = _CANDIDATE_ALIASES.get(candidate, candidate)
    if candidate not in _FAMILIES:
        raise ValidationError(
            f"unknown candidate {config['candidate']!r}; choose from {', '.join(_FAMILIES)}")
    config["candidate"] = candidate
    dense = config["lambda"] > MAX_DENSE_QUBITS
    if dense and candidate == "haar-unitary" and command != "ega-check":
        raise ValidationError(
            f"haar-unitary samples dense unitaries, capped at --lambda {MAX_DENSE_QUBITS}")

    if config["format"] not in ("json", "csv"):
        raise ValidationError("--format must be json or csv")
    if config["format"] == "csv" and command != "game":
        raise ValidationError("--format csv is only available for the game command")

    if command == "game":
        if not config["id"]:
            raise ValidationError("game requires --id")
        gid = config["id"]
        if gid in _GAME_ADVERSARIES:
            default, table = _GAME_ADVERSARIES[gid]
            adversary = config["adversary"] or default
            if adversary not in table:
                raise ValidationError(
                    f"unknown adversary {adversary!r} for game {gid!r}; "
                    f"choose from {', '.join(sorted(table))}")
            config["adversary"] = adversary
        elif gid == "attack-iqp-pru":
            if config["candidate"] not in ("iqp-circuit", "iqp-sparse"):
                raise ValidationError("attack-iqp-pru targets iqp-circuit or iqp-sparse")
            if config["format"] == "csv":
                raise ValidationError(f"game {gid!r} does not record per-trial outcomes")
        elif "-vs-" in gid:
            left, _, right = gid.partition("-vs-")
            for side in (left, right):
                try:
                    DistributionId(side)
                except ValueError:
                    raise ValidationError(f"unknown distribution {side!r} in game id {gid!r}")
            config["adversary"] = config["adversary"] or "random-guess"
            if config["adversary"] not in ("random-guess",):
                raise ValidationError(f"unknown distinguisher {config['adversary']!r}")
        else:
            raise ValidationError(f"unknown game id {gid!r}")
        if dense and (gid == "attack-iqp-pru" or (gid, config["adversary"]) == ("ow", "orthogonal")):
            # Haar unitaries and the orthogonal adversary's gate are dense matrices
            raise ValidationError(
                f"game {gid!r} builds dense unitaries, capped at --lambda {MAX_DENSE_QUBITS}")
        if gid in ("uc", "ucfsg"):
            if config["tprime"] <= config["t"]:
                raise ValidationError("--tprime must exceed --t")
            if config["tprime"] * config["lambda"] > MAX_QUBITS:
                raise ValidationError(f"--tprime registers exceed the {MAX_QUBITS}-qubit cap")

    if command == "prfsg-eval":
        if config["ell"] > 8:
            raise ValidationError("--ell above 8 would enumerate too many inputs")
        if 2 ** (config["lambda"] + config["ell"]) > _MAX_REPORT_AMPLITUDES:
            raise ValidationError(
                f"2^(--lambda + --ell) amplitudes exceed the report cap of {_MAX_REPORT_AMPLITUDES}")


def _build_instance(config: dict) -> QgaInstance:
    build, keywords = _FAMILIES[config["candidate"]]
    return build(config["lambda"],
                 **{kw: config[key] for key, kw in keywords.items() if config[key] is not None})


def _public_config(config: dict) -> dict:
    # out and workers are execution details; reports must not depend on them
    return {k: v for k, v in config.items() if k not in ("out", "workers")}


def _canonical_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _rate_block(successes: int, n: int) -> dict:
    est, (lo, hi) = games.estimate(successes, n)
    return {"trials": n, "successes": successes, "estimate": est, "ci": [lo, hi]}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_sample(config: dict) -> str:
    instance = _build_instance(config)
    rng = stream(config["seed"], "sample")
    g = instance.sample_g(rng)
    s = instance.sample_s()
    report = {
        "command": "sample",
        "config": _public_config(config),
        "family": {"name": instance.name, "num_qubits": instance.num_qubits,
                   "params": instance.params},
        "group_element": qga_to_json(g),
        "base_state": state_desc_to_json(s),
    }
    return _canonical_json(report)


def _run_game(config: dict):
    gid = config["id"]
    instance = _build_instance(config)
    if gid == "attack-iqp-pru":
        return games.attack_iqp_fixed_point(instance, config["trials"], config["seed"],
                                            workers=config["workers"])

    run = {"trials": config["trials"], "seed": config["seed"], "workers": config["workers"],
           "record": config["format"] == "csv"}
    if "-vs-" in gid:
        left, _, right = gid.partition("-vs-")
        return games.run_distinguishing_game((left, right), instance, games.dist_random_guess,
                                             config["t"], config["q"], **run)

    adv = _GAME_ADVERSARIES[gid][1][config["adversary"]]
    if gid == "ow":
        return games.run_ow_game(instance, adv, config["t"], **run)
    if gid == "up":
        return games.run_up_game(instance, adv, config["t"], **run)
    if gid == "uc":
        return games.run_uc_game(instance, adv, config["t0"], config["t"], config["tprime"], **run)
    if gid == "prfsg":
        factory = games.standard_prfsg_factory(instance, config["ell"])
        return games.run_prfsg_game(factory, adv, **run)
    factory = _real_oracle_factory(instance, config["ell"])
    if gid == "upsg":
        return games.run_upsg_game(factory, adv, **run)
    return games.run_ucfsg_game(factory, adv, config["t"], config["tprime"], **run)


def _real_oracle_factory(instance: QgaInstance, ell: int):
    def factory(rng):
        return prfsg.RealOracle(prfsg.keygen(instance, ell, rng))

    return factory


def _cmd_game(config: dict) -> str:
    result = _run_game(config)
    if config["format"] == "csv":
        lines = ["trial,outcome"]
        lines += [f"{i},{int(o)}" for i, o in enumerate(result.detail["outcomes"])]
        return "\n".join(lines) + "\n"
    report = games.game_report(result, config["id"], _public_config(config))
    return _canonical_json(report)


def _cmd_ske_roundtrip(config: dict) -> str:
    trials, seed, ell = config["trials"], config["seed"], config["ell"]
    rngs = (stream(seed, "ske-roundtrip", i) for i in range(trials))
    zero_ok, ones = primitives.ske_roundtrip_trials(_build_instance(config), config["t"], ell, rngs)
    report = {
        "command": "ske-roundtrip",
        "config": _public_config(config),
        "seed": seed,
        "zero_message": _rate_block(int(zero_ok.sum()), trials),
        "ones_message": _rate_block(int(ones.all(axis=1).sum()), trials),
        "ones_per_bit": _rate_block(int(ones.sum()), trials * ell),
    }
    return _canonical_json(report)


def _state_text(state: StateVector, memo: list | None = None) -> str:
    """One state as json.dumps(state_to_json(state), sort_keys=True, indent=2)
    writes it two levels deep: json writes a StateVector's finite floats as
    repr(value), which is str(value). A state that repeats a value takes its
    texts from ``memo`` ([sorted bit patterns, reprs]), made once per report."""
    pair = "\n        ],\n        [\n          ".join(["%s,\n          %s"] * len(state.amplitudes))
    floats = state.amplitudes.view(float)
    values, inverse = np.unique(floats.view(np.uint64), return_inverse=True)
    if len(values) < len(floats):
        memo = [] if memo is None else memo
        known, reprs = memo or (np.empty(0, np.uint64), np.empty(0, object))
        at = np.searchsorted(known, values)
        new = at == np.searchsorted(known, values, side="right")  # not in the memo yet
        memo[:] = known, reprs = (np.insert(known, at[new], values[new]),
                                  np.insert(reprs, at[new], [*map(repr, values.view(float)[new].tolist())]))
        floats = reprs[np.searchsorted(known, values)][inverse]  # texts
    return ('{\n      "amplitudes": [\n        [\n          ' + pair % tuple(floats.tolist())
            + f'\n        ]\n      ],\n      "num_qubits": {state.num_qubits}\n    }}')


def _with_gates(text: str, words) -> str:
    """Fill the k-th '"gates": null' of an indented dump with the k-th word's gates
    list as the dump of word_to_json(word) writes it; each letter is dumped once."""
    pieces, letters = text.split('"gates": null'), {}
    for k, word in enumerate(words):
        pairs = list(zip(word.a.tolist(), word.b.tolist()))
        for a, b in set(pairs).difference(letters):
            one = word_to_json(PhaseWord(word.num_qubits, [a], [b]))["gates"]
            letters[a, b] = json.dumps(one, sort_keys=True, indent=2)[2:-2]  # "[\n" X "\n]"
        listed = "[\n" + ",\n".join(map(letters.__getitem__, pairs)) + "\n]" if pairs else "[]"
        pieces[k] += '"gates": ' + listed.replace("\n", pieces[k][pieces[k].rindex("\n"):])
    return "".join(pieces)


def _cmd_prfsg_eval(config: dict) -> str:
    """The canonical JSON of {command, config, key, seed, states}, in pieces
    with the same bytes: the canonical head, each iqp-circuit gates list filled
    in by _with_gates, then the states block, since "states" sorts last, the
    inputs are same-length binary strings yielded in ascending order, and
    "amplitudes" sorts before "num_qubits". Amplitude texts are keyed by bit
    pattern, not value: -0.0 == 0.0, but their texts differ."""
    key = prfsg.keygen(_build_instance(config), config["ell"], stream(config["seed"], "prfsg-eval"))
    words = [g.body for g in key.group_elements if g.variant == VARIANT_IQP_CIRCUIT]
    hollow = [replace(g, body=PhaseWord(g.num_qubits, (), ())) if g.variant == VARIANT_IQP_CIRCUIT
              else g for g in key.group_elements]
    key_json = prfsg.key_to_json(prfsg.PrfsgKey(hollow, key.base_state))
    for body in (e["body"] for e in key_json["group_elements"] if e["variant"] == VARIANT_IQP_CIRCUIT):
        body["gates"] = None
    head = _with_gates(_canonical_json({
        "command": "prfsg-eval",
        "config": _public_config(config),
        "seed": config["seed"],
        "key": key_json,
    }), words)
    parts, memo = [head.removesuffix("\n}\n"), ',\n  "states": {\n'], []
    for x, state in prfsg.state_gen_all(key):
        parts += f'    "{x}": ', _state_text(state, memo), ",\n"
    parts[-1] = "\n  }\n}\n"
    return "".join(parts)  # one copy of the report, not three


def _cmd_money_demo(config: dict) -> str:
    instance = _build_instance(config)
    trials, seed = config["trials"], config["seed"]
    lam = instance.num_qubits

    honest_ok = 0
    forged_ok = 0
    for i in range(trials):
        rng = stream(seed, "money-demo", i)
        key = primitives.money_keygen(instance, rng)
        note = primitives.money_mint(key)
        honest_ok += int(primitives.money_verify(key, note.note, rng))
        forged_ok += int(primitives.money_verify(key, sample_haar_state(lam, rng), rng))

    report = {
        "command": "money-demo",
        "config": _public_config(config),
        "seed": seed,
        "honest_accept": _rate_block(honest_ok, trials),
        "counterfeit_accept": _rate_block(forged_ok, trials),
        "counterfeit_expected": 0.5**lam,
    }
    return _canonical_json(report)


def _cmd_ega_check(config: dict) -> str:
    action = ega_mod.instantiate_exp_action()
    report = ega_mod.check_properties(action)
    rng = stream(config["seed"], "ega-check")
    uniformity = ega_mod.check_orbit_uniformity(action, config["trials"], rng)

    identity_ok = all(action.act(action.identity, s) == s for s in action.set_elements)
    compatible = all(
        action.act(action.op(a, b), s) == action.act(a, action.act(b, s))
        for a in action.group_elements
        for b in action.group_elements
        for s in action.set_elements
    )
    payload = {
        "command": "ega-check",
        "config": _public_config(config),
        "seed": config["seed"],
        "action": json.loads(ega_mod.exp_action_to_json(action)),
        "axioms": {"identity": identity_ok, "compatibility": compatible},
        "properties": {
            "transitive": report.transitive,
            "free": report.free,
            "faithful": report.faithful,
            "regular": report.regular,
        },
        "orbit_uniformity": {
            "statistic": uniformity.statistic,
            "p_value": uniformity.p_value,
            "trials": uniformity.trials,
            "num_cells": uniformity.num_cells,
        },
    }
    return _canonical_json(payload)


_COMMANDS = {
    "sample": _cmd_sample,
    "game": _cmd_game,
    "ske-roundtrip": _cmd_ske_roundtrip,
    "prfsg-eval": _cmd_prfsg_eval,
    "money-demo": _cmd_money_demo,
    "ega-check": _cmd_ega_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        config = _resolve_config(args)
        _validate(config, args.command)
        text = _COMMANDS[args.command](config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        if config["out"]:
            Path(config["out"]).write_text(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"elapsed_ms={elapsed_ms:.1f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
