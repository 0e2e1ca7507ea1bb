"""Span tracing of qgalab's layers from outside the package.

The tracer replaces the public functions of each layer with timing wrappers.
``from .x import f`` copies the binding of ``f`` into the importing module, so
a function is rebound in every ``qgalab`` module that holds it, not only in
the module that defines it. Methods are patched once on their class.

Spans (id, name, start, end, parent, thread, self time) are kept in memory and
written out by the caller when the run ends. A span's self time is its
duration minus the part covered by child spans on the same thread. Trials run
on worker threads name the ``games.run_trials`` span as their parent but are
not subtracted from it, so its self time includes the wait for the workers.
"""
from __future__ import annotations

import gzip
import json
import statistics
import sys
import threading
import time
from collections import Counter
from itertools import count

# Spans whose self time is not attributed to any listed layer: the CLI body,
# the trial loop and the game logic inside a trial. Span coverage is the
# share of busy span time outside these.
CONTAINER_SPANS = ("cli.main", "games.run_trials", "games.trial")

# (module, function) pairs rebound at every qgalab module binding.
FUNCTIONS = (
    ("rng", "stream"),
    ("states", "sample_haar_state"),
    ("states", "project_register"),
    ("states", "tensor"),
    ("states", "state_to_json"),
    ("gf2poly", "sample_sparse_poly"),
    ("circuits", "hadamard_layer_array"),
    ("circuits", "run_circuit_array"),
    ("qga", "apply_qga_array"),
    ("prfsg", "keygen"),
    ("prfsg", "state_gen"),
    ("primitives", "ske1_keygen"),
    ("primitives", "ske1_enc"),
    ("primitives", "ske1_dec"),
)


class _Frame:
    __slots__ = ("span_id", "parent", "name", "start", "child_s")

    def __init__(self, span_id, parent, name, start):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = count(1)
        self._lock = threading.Lock()
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, parent: int | None = None) -> _Frame:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].span_id
        frame = _Frame(next(self._ids), parent, name, 0.0)
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child_s += duration
        self.spans.append((frame.span_id, frame.name, frame.start, end, frame.parent,
                           threading.get_ident(), duration - frame.child_s))

    def call(self, name: str, fn, *args, **kwargs):
        frame = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    def add(self, name: str, amount) -> None:
        with self._lock:
            self.counts[name] += amount

    def write_spans(self, path) -> None:
        """Gzipped JSON lines: [id, name, start_s, end_s, parent, thread, self_s]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _rebind(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qgalab" or name.startswith("qgalab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_function(tracer: Tracer, span: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(span, fn, *args, **kwargs)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the already-imported qgalab package."""
    import qgalab.circuits
    import qgalab.games
    import qgalab.gf2poly
    import qgalab.qga
    import qgalab.states

    for module_name, fn_name in FUNCTIONS:
        module = sys.modules[f"qgalab.{module_name}"]
        original = getattr(module, fn_name)
        _rebind(original, _wrap_function(tracer, f"{module_name}.{fn_name}", original))

    # per-call counters for the functions whose work depends on their arguments
    project = qgalab.states.project_register

    def project_register(*args, **kwargs):
        p_hit, hit, miss = result = project(*args, **kwargs)
        tracer.add("states.project_register.branches_built", (hit is not None) + (miss is not None))
        return result

    _rebind(project, project_register)

    hadamard = qgalab.circuits.hadamard_layer_array

    def hadamard_layer_array(arr):
        size = len(arr)
        # nominal traffic of an O(lambda 2^lambda) transform: every stage
        # reads and writes each complex128 amplitude once
        tracer.add("circuits.hadamard_layer_array.computed_bytes",
                   (size.bit_length() - 1) * size * 32)
        return hadamard(arr)

    _rebind(hadamard, hadamard_layer_array)

    run_circuit = qgalab.circuits.run_circuit_array

    def run_circuit_array(circuit, arr):
        tracer.add("circuits.run_circuit_array.gates", len(circuit.gates))
        return run_circuit(circuit, arr)

    _rebind(run_circuit, run_circuit_array)

    state_cls = qgalab.states.StateVector
    post_init = state_cls.__post_init__

    def state_post_init(self):
        tracer.add("states.amplitudes_allocated", 2**self.num_qubits)
        tracer.call("states.StateVector", post_init, self)

    state_cls.__post_init__ = state_post_init

    poly_cls = qgalab.gf2poly.SparsePolyF2
    sign_vector = poly_cls.sign_vector

    def traced_sign_vector(self):
        # the program caches the table on the (immutable) description
        if "_sign_vector" in self.__dict__:
            tracer.add("gf2poly.sign_vector.cached_calls", 1)
        else:
            tracer.add("gf2poly.sign_vector.fresh_calls", 1)
            # (terms x 2^lambda) hit matrix: 1 B bool plus 8 B int64 per entry
            tracer.add("gf2poly.sign_vector.computed_bytes",
                       len(self.terms) * 2**self.num_vars * 9)
        return tracer.call("gf2poly.sign_vector", sign_vector, self)

    poly_cls.sign_vector = traced_sign_vector

    instance_cls = qgalab.qga.QgaInstance
    sample_g = instance_cls.sample_g

    def traced_sample_g(self, rng):
        return tracer.call("qga.sample_g", sample_g, self, rng)

    instance_cls.sample_g = traced_sample_g

    run_trials = qgalab.games.run_trials

    def traced_run_trials(trial_fn, trials, seed, label, workers=1, record=False):
        frame = tracer.enter("games.run_trials")

        def trial(rng):
            inner = tracer.enter("games.trial", parent=frame.span_id)
            try:
                return trial_fn(rng)
            finally:
                tracer.exit(inner)

        started = time.perf_counter()
        try:
            return run_trials(trial, trials, seed, label, workers, record)
        finally:
            tracer.exit(frame)
            wall = time.perf_counter() - started
            tracer.add("games.workers_x_wall", wall * max(workers, 1))
            if workers > 1:
                # the calling thread only waits for the pool
                tracer.add("games.run_trials.wait_s", wall)

    _rebind(run_trials, traced_run_trials)


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times from the recorded spans and counters."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    trial_ms = []
    for _, name, start, end, _, _, own in tracer.spans:
        calls[name] += 1
        self_s[name] += own
        if name == "games.trial":
            trial_ms.append((end - start) * 1000.0)
    counts = tracer.counts

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    branches = counts.get("states.project_register.branches_built", 0)
    # coverage counts busy time only: a thread waiting for the trial pool is idle
    wait_s = counts.get("games.run_trials.wait_s", 0.0)
    total_self = sum(self_s.values()) - wait_s
    unattributed = sum(s(name) for name in CONTAINER_SPANS) - wait_s
    workers_x_wall = counts.get("games.workers_x_wall", 0.0)
    return {
        "rng.stream.calls": c("rng.stream"),
        "rng.stream.self_s": s("rng.stream"),
        "states.StateVector.constructions": c("states.StateVector"),
        "states.StateVector.self_s": s("states.StateVector"),
        "states.amplitudes_allocated": counts.get("states.amplitudes_allocated", 0),
        "states.sample_haar_state.calls": c("states.sample_haar_state"),
        "states.sample_haar_state.self_s": s("states.sample_haar_state"),
        "states.project_register.calls": c("states.project_register"),
        "states.project_register.self_s": s("states.project_register"),
        "states.project_register.branches_built": branches,
        "states.project_register.useful_ratio":
            c("states.project_register") / branches if branches else 0.0,
        "states.tensor.self_s": s("states.tensor"),
        "states.state_to_json.self_s": s("states.state_to_json"),
        "gf2poly.sign_vector.fresh_calls": counts.get("gf2poly.sign_vector.fresh_calls", 0),
        "gf2poly.sign_vector.cached_calls": counts.get("gf2poly.sign_vector.cached_calls", 0),
        "gf2poly.sign_vector.self_s": s("gf2poly.sign_vector"),
        "gf2poly.sign_vector.computed_bytes": counts.get("gf2poly.sign_vector.computed_bytes", 0),
        "gf2poly.sample_sparse_poly.calls": c("gf2poly.sample_sparse_poly"),
        "gf2poly.sample_sparse_poly.self_s": s("gf2poly.sample_sparse_poly"),
        "circuits.hadamard_layer_array.calls": c("circuits.hadamard_layer_array"),
        "circuits.hadamard_layer_array.self_s": s("circuits.hadamard_layer_array"),
        "circuits.hadamard_layer_array.computed_bytes":
            counts.get("circuits.hadamard_layer_array.computed_bytes", 0),
        "circuits.run_circuit_array.calls": c("circuits.run_circuit_array"),
        "circuits.run_circuit_array.gates": counts.get("circuits.run_circuit_array.gates", 0),
        "circuits.run_circuit_array.self_s": s("circuits.run_circuit_array"),
        "qga.apply_qga_array.calls": c("qga.apply_qga_array"),
        "qga.apply_qga_array.self_s": s("qga.apply_qga_array"),
        "qga.sample_g.calls": c("qga.sample_g"),
        "qga.sample_g.self_s": s("qga.sample_g"),
        "prfsg.keygen.self_s": s("prfsg.keygen"),
        "prfsg.state_gen.calls": c("prfsg.state_gen"),
        "prfsg.state_gen.self_s": s("prfsg.state_gen"),
        "primitives.ske1_keygen.self_s": s("primitives.ske1_keygen"),
        "primitives.ske1_enc.self_s": s("primitives.ske1_enc"),
        "primitives.ske1_dec.self_s": s("primitives.ske1_dec"),
        "games.run_trials.self_s": s("games.run_trials"),
        "games.trial_ms.p50": _quantile(trial_ms, 50),
        "games.trial_ms.p99": _quantile(trial_ms, 99),
        "games.worker_busy_frac":
            sum(trial_ms) / 1000.0 / workers_x_wall if workers_x_wall else 0.0,
        "cli.main.self_s": s("cli.main"),
        "trace.span_coverage": 1.0 - unattributed / total_self if total_self else 0.0,
    }
