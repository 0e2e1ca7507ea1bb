"""One measured qgalab CLI call in a fresh interpreter.

Usage: python child.py SPEC_JSON, where SPEC_JSON holds
  root     checkout root (its ``src`` directory is put on sys.path)
  spawned  time.monotonic() in the parent just before it started this process
  workload workload name, seed the --seed passed to the CLI
  overrides  extra CLI flags (for example {"workers": 1})
  trace    path for the span file, or null for an untraced call

Set-up is the time from ``spawned`` until ``qgalab`` and its CLI are
imported; the run is ``qgalab.cli.main(argv)`` with stdout captured. Peak RSS
is read right after the run, before the checks allocate anything. The last
line of stdout is one JSON object with the measurements and check outcome.
"""
import json
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["root"] + "/src")

import qgalab  # noqa: E402
import qgalab.cli  # noqa: E402

setup_s = time.monotonic() - spec["spawned"]

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def blas_info() -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def main() -> int:
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    argv = workload.argv(seed, **spec["overrides"])
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            if tracer is None:
                rc = qgalab.cli.main(argv)
            else:
                rc = tracer.call("cli.main", qgalab.cli.main, argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        run_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    text = out.getvalue()
    sha256 = hashlib.sha256(text.encode()).hexdigest()
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "report_sha256": sha256,
        "units": 0,
        "error": None,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    if rc != 0:
        result["error"] = f"exit code {rc}: {err.getvalue().strip()[-500:]}"
    else:
        try:
            report = json.loads(text)
            workload.check(report, {**workload.flags, **spec["overrides"], "seed": seed})
            checks.check_pinned(workload.name, seed, sha256)
            result["units"] = workload.units(report)
        except (checks.CheckFailed, ValueError, KeyError, TypeError) as exc:
            result["error"] = f"check failed: {type(exc).__name__}: {exc}"

    if tracer is not None:
        tracer.write_spans(spec["trace"])
        result["layers"] = tracing.layer_metrics(tracer)
        result["layers"]["cli.report_bytes"] = len(text.encode())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
