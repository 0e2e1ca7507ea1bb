"""The benchmark workloads and why each was chosen.

Each workload is one qgalab CLI call, run in a fresh interpreter, with the
benchmark seed passed as ``--seed``. Together they put the weight on four
different layers, so each ROADMAP item has one workload that exercises it and
others on which it should change nothing:

``ske-small``  (ROADMAP 3, trial batching)
    ``ske-roundtrip`` at lambda = 3, the shape of acceptance criterion 03.
    With 8 amplitudes per state, time goes to per-call Python overhead spread
    over many layers: StateVector validation, Haar draws, the dense 8 x 8
    Walsh path, and 32 fresh tiny sign vectors per trial. Batching shows
    here while the large kernels stay idle.

``up-large``  (ROADMAP 2a, sign vector by Moebius transform; ROADMAP 3, threads)
    ``game --id up`` at lambda = 18 with two worker threads. The
    (terms x 2^lambda) sign-vector matrix dominates time and peak memory,
    and the Walsh-Hadamard layer takes its butterfly branch rather than the
    dense one. It is the only workload that fans out over ``--workers``; the
    traced run adds a ``--workers 1`` run of the same problem. lambda = 20
    would peak at 3.2 GB per draw on a shared 7 GB machine; at 18 the
    blow-up is still about 25 times the amplitude memory.

``uc-collapse``  (ROADMAP 2c, build only the sampled branch)
    ``game --id uc`` at lambda = 5 with t' = 4 registers, a 20-qubit joint
    state. Register projection builds and re-validates both branches and
    keeps one; the kernels acting on the 5-qubit registers are negligible.

``prfsg-eval-circuit``  (ROADMAP 2b, fused T/CS phase table)
    ``prfsg-eval`` with the iqp-circuit candidate at lambda = 10 (500-gate
    {T, CS} words). The per-gate loop of ``run_circuit_array`` dominates,
    followed by canonical JSON of the generated states. It is the only
    workload that runs the keyed generator (``prfsg``) and
    ``circuits.run_circuit_array``; the sign vector does not run at all.

Trial counts and ``ell`` size one call to about 2-3 s on a 2-core machine, so
a run repeats the call several times and reports medians.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from checks import check_prfsg_eval, check_ske_roundtrip, check_uc_haar_pad, check_up_haar


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: dict
    unit_of_work: str
    why: str
    check: Callable[[dict, dict], None]

    def argv(self, seed: int, **overrides) -> list[str]:
        flags = {**self.flags, **overrides, "seed": seed}
        argv = [self.command]
        for key, value in flags.items():
            argv += [f"--{key}", str(value)]
        return argv

    def units(self, report: dict) -> int:
        """Units of work a report shows completed: trials, or generated states."""
        if self.command == "game":
            return report["trials"]
        if self.command == "ske-roundtrip":
            return report["zero_message"]["trials"]
        return len(report["states"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ske-small", "ske-roundtrip",
            {"candidate": "iqp-sparse", "lambda": 3, "t": 8, "ell": 4, "trials": 900,
             "workers": 1},
            "trial",
            "criterion-03 shape at lambda=3: per-call overhead across many small layers "
            "(ROADMAP 3, batching)",
            check_ske_roundtrip,
        ),
        Workload(
            "up-large", "game",
            {"id": "up", "candidate": "iqp-sparse", "lambda": 18, "adversary": "haar",
             "trials": 10, "workers": 2},
            "trial",
            "lambda=18 with 2 threads: sign-vector matrix dominates time and peak memory "
            "(ROADMAP 2a, 3)",
            check_up_haar,
        ),
        Workload(
            "uc-collapse", "game",
            {"id": "uc", "candidate": "iqp-sparse", "lambda": 5, "t": 1, "tprime": 4,
             "adversary": "haar-pad", "trials": 15, "workers": 1},
            "trial",
            "20-qubit joint state: register projection builds both branches "
            "(ROADMAP 2c)",
            check_uc_haar_pad,
        ),
        Workload(
            "prfsg-eval-circuit", "prfsg-eval",
            {"candidate": "iqp-circuit", "lambda": 10, "ell": 6, "workers": 1},
            "state",
            "500-gate {T, CS} words at lambda=10: per-gate circuit loop and state JSON "
            "(ROADMAP 2b)",
            check_prfsg_eval,
        ),
    )
}
