"""Spans recorded from outside the library, and the per-layer numbers
derived from them.

The tracer replaces public functions by timing wrappers, each patched where
its caller looks the name up: ``numpy.linalg.*`` and ``numpy.fft.*`` as
module attributes, ``invariant_closure`` and friends in the namespace of
``quiverforge.stability``, ``TorusGrid.lap`` on the class, the ``io``
functions on the module the CLI calls through, and the solver entry points
in the package and CLI namespaces.  A name that a later version of the
library no longer has is skipped: nothing calls it.

Spans are ``[name, start, end, parent, op, extra]`` rows kept in memory and
written out when the run ends.  ``op`` is the benchmark operation the span
belongs to; spans outside any operation (the benchmark's own correctness
checks) are recorded but never counted.
"""
from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import quiverforge as qf
from gen import CLI_COMMANDS, TORUS_CLASSES

NAME, START, END, PARENT, OP, EXTRA = range(6)


class DerivationError(RuntimeError):
    """A derived count came out negative or non-integer: the formula behind
    it no longer matches the library, so the number must not be reported."""


class Tracer:
    """In-memory spans of patched calls, grouped under benchmark operations."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._op = None
        self._ops = 0

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        if not hasattr(owner, attr):
            return
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(row)
            row[START] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                row[END] = perf_counter()
                stack.pop()
            if extra is not None:
                row[EXTRA] = extra(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    @contextmanager
    def op(self, label: str):
        """Span of one benchmark operation; library spans inside it carry
        its id."""
        op_id = self._ops
        self._ops += 1
        row = ["op", 0.0, 0.0, -1, op_id, label]
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[START] = perf_counter()
        try:
            yield
        finally:
            row[END] = perf_counter()
            self._stack.pop()
            self._op = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(row[:5] + [_jsonable(row[EXTRA])]) + "\n")


def _jsonable(x):
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return str(x)


# ---------------------------------------------------------------------------
# what gets wrapped


def _fft_bytes(args, kwargs, result):
    # computed from array sizes: input read plus output written
    return int(np.asarray(args[0]).nbytes + result.nbytes)


def _flow_extra(args, kwargs, result):
    return (result.status, int(result.iterations))


def _closure_key(args, kwargs, result):
    parts = []
    for v in sorted(result.basis):
        b = result.basis[v]
        parts.append((v, b.shape[1], np.round(b @ b.conj().T, 7).tobytes()))
    return hash(tuple(parts))


def _extract_certified(args, kwargs, result):
    rep, params = args[0], args[1]
    return any(certified_step(rep, params, step) for step in result)


def certified_step(rep, params, step) -> bool:
    """An exactly invariant, proper subobject whose slope exceeds the
    representation's."""
    _, mu = qf.degree_and_slope(rep, params)
    ok, _ = qf.check_subrep(rep, step.witness)
    return bool(ok and 0 < step.witness.total_dim < rep.total_dim and step.slope > mu + 1e-9)


def _vortex_extra(args, kwargs, result):
    system = args[0]
    return (len(system.quiver.vertices), [float(d) for _, _, d in result.history[1:]])


def _qvtx_bytes(args, kwargs, result):
    state = args[1]
    n = next(iter(state.u.values())).shape[0]
    return 5 + 8 + 8 * n * n * len(state.u)


def _cli_extra(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return (argv[0] if argv else None, result)


def install(tracer: Tracer) -> None:
    import numpy
    from quiverforge import cli, io, stability, torus

    for f in ("eigh", "inv", "svd"):
        tracer.wrap(numpy.linalg, f, f"numpy.linalg.{f}")
    for f in ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
        tracer.wrap(numpy.fft, f, "numpy.fft", _fft_bytes)
    for owner in (qf, cli):
        tracer.wrap(owner, "flow_solve", "flow.flow_solve", _flow_extra)
        tracer.wrap(owner, "stability_oracle", "stability.stability_oracle")
        tracer.wrap(owner, "destabilizer_extract", "stability.destabilizer_extract", _extract_certified)
        tracer.wrap(owner, "solve_vortex", "torus.solve_vortex", _vortex_extra)
        tracer.wrap(owner, "ymh_identity", "torus.ymh_identity")
    tracer.wrap(stability, "invariant_closure", "reps.invariant_closure", _closure_key)
    tracer.wrap(stability, "witness_sum", "reps.witness_sum")
    tracer.wrap(stability, "witness_intersection", "reps.witness_intersection")
    tracer.wrap(stability, "check_subrep", "reps.check_subrep")
    tracer.wrap(torus.TorusGrid, "lap", "torus.lap")
    tracer.wrap(io, "load_instance", "io.load_instance")
    tracer.wrap(io, "export_report", "io.export_report", lambda a, k, r: len(r))
    tracer.wrap(io, "write_potential_binary", "io.write_potential_binary", _qvtx_bytes)
    tracer.wrap(cli, "check_relations", "quiver.check_relations")
    tracer.wrap(cli, "tensor_product", "reps.tensor_product")
    tracer.wrap(cli, "moment_map_residual", "flow.moment_map_residual")
    tracer.wrap(cli, "residual_norm_h", "flow.residual_norm_h")
    tracer.wrap(cli, "main", "cli.main", _cli_extra)


# ---------------------------------------------------------------------------
# per-layer metrics



def _ratio(num, den):
    return num / den if den else 0.0


def _log2_exact(d: float) -> int:
    """log2(1/d) for a damping factor that must be a power of one half."""
    if not 0.0 < d <= 1.0:
        raise DerivationError(f"damping factor {d!r} outside (0, 1]")
    k = -math.log2(d)
    if k != int(k):
        raise DerivationError(f"damping factor {d!r} is not a power of 1/2")
    return int(k)


def torus_counts(vertices: int, dampings: list[float], lap_calls: int) -> dict:
    """Newton-level counts of one solve, derived from public-boundary counts:

        residual_evals = 1 + sum over steps of (log2(1/damping) + 1)
        cg_iters       = lap_calls / V - residual_evals
    """
    backtracks = sum(_log2_exact(d) for d in dampings)
    residual_evals = 1 + backtracks + len(dampings)
    if lap_calls % vertices:
        raise DerivationError(f"{lap_calls} Laplacian calls do not split over {vertices} vertices")
    cg_iters = lap_calls // vertices - residual_evals
    if cg_iters < 0:
        raise DerivationError(f"derived CG iteration count {cg_iters} is negative")
    return {
        "newton_steps": len(dampings),
        "damped_steps": sum(1 for d in dampings if d < 1.0),
        "backtracks": backtracks,
        "residual_evals": residual_evals,
        "cg_iters": cg_iters,
    }


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Every per-layer metric, as totals per pass (counts, seconds) or
    ratios; layers a workload never reaches read 0."""
    spans = [s for s in tracer.spans if s[OP] is not None]
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    dur = {id(s): s[END] - s[START] for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[id(s)]

    def self_time(s):
        return dur[id(s)] - child_time[index[id(s)]]

    def ancestor(s, name):
        p = s[PARENT]
        while p >= 0:
            row = tracer.spans[p]
            if row[NAME] == name:
                return p
            p = row[PARENT]
        return None

    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def total(name):
        return sum(dur[id(s)] for s in by_name[name]) / passes

    def count(name):
        return len(by_name[name]) / passes

    m: dict[str, float] = {}

    # flow
    flows = by_name["flow.flow_solve"]
    iters = {"converged": 0, "diverged": 0, "max-iter": 0}
    flow_calls = {"converged": 0, "diverged": 0, "max-iter": 0}
    for s in flows:
        status, it = s[EXTRA]
        iters[status] = iters.get(status, 0) + it
        flow_calls[status] = flow_calls.get(status, 0) + 1
    all_iters = sum(iters.values())
    m["flow.iters"] = all_iters / passes
    m["flow.iters_converged"] = iters["converged"] / passes
    m["flow.iters_diverged"] = iters["diverged"] / passes
    m["flow.max_iter"] = flow_calls["max-iter"] / passes
    m["flow.ms_per_iter"] = 1e3 * _ratio(sum(dur[id(s)] for s in flows), all_iters)
    m["flow.self_s"] = sum(self_time(s) for s in flows) / passes

    # linalg, counted at numpy.linalg
    for f in ("eigh", "inv", "svd"):
        m[f"linalg.{f}_calls"] = count(f"numpy.linalg.{f}")
        m[f"linalg.{f}_s"] = total(f"numpy.linalg.{f}")
    for f in ("eigh", "inv"):
        in_flow = sum(1 for s in by_name[f"numpy.linalg.{f}"] if ancestor(s, "flow.flow_solve") is not None)
        m[f"linalg.{f}_per_iter"] = _ratio(in_flow, all_iters)

    # stability
    oracles = by_name["stability.stability_oracle"]
    m["stability.oracle_s"] = total("stability.stability_oracle")
    m["stability.oracle_self_s"] = sum(self_time(s) for s in oracles) / passes
    oracle_idx = {index[id(s)] for s in oracles}
    closures = defaultdict(list)
    for s in by_name["reps.invariant_closure"]:
        a = ancestor(s, "stability.stability_oracle")
        if a in oracle_idx:
            closures[a].append(s[EXTRA])
    built = sum(len(v) for v in closures.values())
    enrich = sum(
        1
        for name in ("reps.witness_sum", "reps.witness_intersection")
        for s in by_name[name]
        if ancestor(s, "stability.stability_oracle") is not None
    )
    m["stability.closures_per_call"] = _ratio(built, len(oracles))
    m["stability.enrich_per_call"] = _ratio(enrich, len(oracles))
    m["stability.closure_yield"] = _ratio(sum(len(set(v)) for v in closures.values()), built)
    extracts = by_name["stability.destabilizer_extract"]
    m["stability.extract_s"] = total("stability.destabilizer_extract")
    m["stability.extract_certified_frac"] = _ratio(sum(1 for s in extracts if s[EXTRA]), len(extracts))

    # reps
    m["reps.closure_s"] = total("reps.invariant_closure")
    m["reps.enrich_s"] = total("reps.witness_sum") + total("reps.witness_intersection")
    m["reps.check_subrep_calls"] = count("reps.check_subrep")

    # torus, per class: op spans labelled with the class name
    ops = {s[OP]: s for s in by_name["op"]}
    fft_by_op = defaultdict(list)
    for s in by_name["numpy.fft"]:
        fft_by_op[s[OP]].append(s)
    lap_by_solve = defaultdict(int)
    for s in by_name["torus.lap"]:
        a = ancestor(s, "torus.solve_vortex")
        if a is not None:
            lap_by_solve[a] += 1
    per_class = defaultdict(lambda: defaultdict(float))
    class_ops = defaultdict(int)
    for op_id, row in ops.items():
        label = row[EXTRA]
        if label not in TORUS_CLASSES:
            continue
        c = per_class[label]
        class_ops[label] += 1
        op_time = dur[id(row)]
        ffts = fft_by_op[op_id]
        fft_s = sum(dur[id(s)] for s in ffts)
        c["fft_calls"] += len(ffts)
        c["fft_s"] += fft_s
        c["fft_bytes"] += sum(s[EXTRA] for s in ffts)
        c["op_s"] += op_time
        c["self_s"] += op_time - fft_s
        for s in by_name["torus.solve_vortex"]:
            if s[OP] == op_id:
                vertices, dampings = s[EXTRA]
                counts = torus_counts(vertices, dampings, lap_by_solve[index[id(s)]])
                for k, v in counts.items():
                    c[k] += v
    for label in TORUS_CLASSES:
        c, n = per_class[label], class_ops[label]
        prefix = f"torus.{label}."
        if label != "ymh_n512":
            for k in ("newton_steps", "damped_steps", "backtracks", "residual_evals"):
                m[prefix + k] = _ratio(c[k], n)
            m[prefix + "cg_iters_per_step"] = _ratio(c["cg_iters"], c["newton_steps"])
        m[prefix + "fft_calls"] = _ratio(c["fft_calls"], n)
        m[prefix + "fft_s"] = _ratio(c["fft_s"], n)
        m[prefix + "fft_share"] = _ratio(c["fft_s"], c["op_s"])
        m[prefix + "fft_bytes"] = _ratio(c["fft_bytes"], n)
        m[prefix + "self_s"] = _ratio(c["self_s"], n)

    # io
    m["io.load_s"] = total("io.load_instance")
    m["io.export_s"] = total("io.export_report")
    m["io.qvtx_s"] = total("io.write_potential_binary")
    m["io.bytes_out"] = sum(
        s[EXTRA] for name in ("io.export_report", "io.write_potential_binary") for s in by_name[name]
    ) / passes

    # cli: the batch spans minus the library spans inside them
    mains = by_name["cli.main"]
    m["cli.self_s"] = sum(self_time(s) for s in mains) / passes
    for command in CLI_COMMANDS:
        entry = [dur[id(s)] for s in mains if s[EXTRA][0] == command]
        m[f"cli.{command}_ms"] = 1e3 * statistics.median(entry) if entry else 0.0

    m["quiver.relations_s"] = total("quiver.check_relations")
    m["trace.spans_per_pass"] = len(spans) / passes
    return m
