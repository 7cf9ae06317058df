"""The three workloads: set-up, one pass of timed operations, and the
correctness certificate behind every operation.

Each workload runs as a closed loop in one thread: the next operation starts
when the previous one has returned.  A pass is a fixed list of operations;
the timed loop repeats whole passes, so every run measures the same mix.
Only the library calls are inside the timed regions; the certificates are
checked between them.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import statistics
from contextlib import nullcontext
from time import process_time

import numpy as np

import quiverforge as qf
from quiverforge import cli
from quiverforge import io as qio

import gen
from spans import certified_step

FLOW_TOL = qf.FlowOptions().tol
CLOSED_FORM_TOL = 1e-9


# Reference kernels.  On a shared host the CPU time of identical work swings
# by up to 1.7x within seconds and drifts over minutes.  After every
# operation the benchmark times a fixed kernel of the workload's own kind of
# work and expresses the operation's CPU time at the kernel's nominal speed;
# the kernels never call the library, so a change to it moves the operation
# times and not the reference.  An operation of several seconds already
# averages the swings, and two kernel samples at its ends only add noise,
# so such operations are left unscaled.
_rng = np.random.default_rng(0)
_SMALL = [(lambda m: m + m.conj().T)(_rng.normal(size=(3, 3)) + 1j * _rng.normal(size=(3, 3))) for _ in range(4)]
_FIELD = _rng.normal(size=(512, 512))


def small_linalg_kernel() -> None:
    """Python-level loop over 3 x 3 eigh, inv and products, like the flow
    and the oracle."""
    eye = 4.0 * np.eye(3)
    for _ in range(60):
        for a in _SMALL:
            w, v = np.linalg.eigh(a)
            np.linalg.norm(v @ np.linalg.inv(a + eye))


def fft_kernel() -> None:
    """One spectral Laplacian-like round trip on a 512 x 512 field, like the
    torus solver."""
    np.real(np.fft.ifft2(np.exp(-np.abs(_FIELD)) * np.fft.fft2(_FIELD)))


class Recorder:
    """Operation times, attempts and failures of one run.

    With a ``reference`` (kernel, nominal seconds, labels left unscaled),
    the kernel is timed after every operation and each operation's CPU time
    is rescaled by nominal / (mean of the kernel's CPU time just before and
    just after it).  Every operation has a key that names the same work in
    every pass; its time is the median over the run's passes."""

    def __init__(self, tracer=None, reference=None):
        self.tracer = tracer
        self.reference = reference
        self._last_ref = self._time_reference()
        self.ops: dict[str, tuple[str, int, list[float]]] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def _time_reference(self) -> float | None:
        if self.reference is None:
            return None
        start = process_time()
        self.reference[0]()
        return process_time() - start

    def call(self, label: str, fn, *args, **kwargs):
        """Run one library call; returns (result, seconds).  Under tracing
        the call is an operation span labelled ``label``."""
        with self.tracer.op(label) if self.tracer else nullcontext():
            start = process_time()
            result = fn(*args, **kwargs)
            seconds = process_time() - start
        if self.reference is not None:
            kernel, nominal, unscaled = self.reference
            before, self._last_ref = self._last_ref, self._time_reference()
            if label not in unscaled:
                seconds *= nominal / (0.5 * (before + self._last_ref))
        return result, seconds

    def add(self, key: str, cls: str, seconds: float, units: int = 1) -> None:
        self.ops.setdefault(key, (cls, units, []))[2].append(seconds)

    def fail(self, op: str, reason: str) -> None:
        self.failures.append((op, reason))

    def seconds(self, *classes: str) -> float:
        return sum(statistics.median(t) for c, _, t in self.ops.values() if c in classes)

    def rate(self, *classes: str) -> float:
        """Units per second over the operations of ``classes``."""
        units = sum(u for c, u, _ in self.ops.values() if c in classes)
        return units / self.seconds(*classes)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class PointSweep:
    """Kempf-Ness flow (plus destabilizer extraction when it diverges) and
    the enumeration oracle on every instance of the pass."""

    name = "point-sweep"
    classes = ("flow_stable", "flow_unstable", "oracle")
    reference = (small_linalg_kernel, 0.01, ())

    def setup(self, seed: int, root: str) -> None:
        self.cases = gen.point_pass(seed)
        rep, tau = gen.criterion4_instance(gen.CRITERION4_BASE + 4)
        warm = gen.reframe(rep, np.random.default_rng([seed, 0]))
        params = qf.StabilityParams(gen.CRITERION4_SIGMAS[0], tau)
        qf.flow_solve(warm, params)
        qf.stability_oracle(warm, params, qf.OracleOptions(seed=0))

    def run_pass(self, rec: Recorder) -> None:
        for case in self.cases:
            status = self._decide(rec, case)
            self._oracle(rec, case, status)

    def _decide(self, rec: Recorder, case) -> str | None:
        rec.attempted += 1
        op = f"{case.name}/flow"
        try:
            report, seconds = rec.call("flow", qf.flow_solve, case.rep, case.params)
            steps = None
            if report.status == "diverged":
                steps, extra = rec.call("extract", qf.destabilizer_extract, case.rep, case.params, report)
                seconds += extra
        except Exception as exc:  # every exception is a failed decision
            rec.fail(op, _error(exc))
            return None
        rec.add(op, "flow_stable" if report.status == "converged" else "flow_unstable", seconds)
        if report.status == "converged":
            if report.residual_norm > FLOW_TOL:
                rec.fail(op, f"converged with residual {report.residual_norm:.3e} > {FLOW_TOL:g}")
                return None
            try:
                qf.MetricState(report.final_metric.h)
            except qf.errors.QuiverforgeError as exc:
                rec.fail(op, f"final metric fails HPD validation: {_error(exc)}")
                return None
        elif report.status == "diverged":
            if not any(certified_step(case.rep, case.params, s) for s in steps):
                rec.fail(op, "no filtration step is invariant, proper and of larger slope")
                return None
        else:
            rec.fail(op, f"flow ended with status {report.status}")
            return None
        return report.status

    def _oracle(self, rec: Recorder, case, status: str | None) -> None:
        rec.attempted += 1
        op = f"{case.name}/oracle"
        try:
            verdict, seconds = rec.call(
                "oracle", qf.stability_oracle, case.rep, case.params, qf.OracleOptions(seed=0)
            )
        except Exception as exc:
            rec.fail(op, _error(exc))
            return
        rec.add(op, "oracle", seconds)
        want = {"converged": ("stable", "polystable"), "diverged": ("unstable",)}.get(status)
        if want is not None and verdict.tag not in want:
            rec.fail(op, f"oracle says {verdict.tag}, flow says {status}")

    def named(self, rec: Recorder) -> dict:
        return {
            "flow_per_s": (rec.rate("flow_stable", "flow_unstable"), "1/s"),
            "flow_stable_per_s": (rec.rate("flow_stable"), "1/s"),
            "flow_unstable_per_s": (rec.rate("flow_unstable"), "1/s"),
            "oracle_per_s": (rec.rate("oracle"), "1/s"),
        }


class TorusSolve:
    """Damped Newton on three vortex systems and one YMH identity
    evaluation per pass."""

    name = "torus-solve"
    classes = gen.TORUS_CLASSES
    reference = (fft_kernel, 0.02, ("kron_n512",))
    # the short classes run several times a pass, so their medians are
    # taken over as many samples as fit beside the long ones
    repeats = {"chain4_n128": 2, "const_n256": 3, "ymh_n512": 3}

    def setup(self, seed: int, root: str) -> None:
        self.cases = gen.torus_round(seed)
        const = next(c for c in self.cases if c.name == "const_n256")
        qf.solve_vortex(const.system)

    def run_pass(self, rec: Recorder) -> None:
        for case in self.cases:
            for _ in range(self.repeats.get(case.name, 1)):
                self._run(rec, case)

    def _run(self, rec: Recorder, case) -> None:
        rec.attempted += 1
        try:
            if case.phi is not None:
                report, seconds = rec.call(case.name, qf.ymh_identity, case.system, case.state, case.phi)
            else:
                result, seconds = rec.call(case.name, qf.solve_vortex, case.system, tol=gen.VORTEX_TOL)
        except Exception as exc:  # NewtonStall included
            rec.fail(case.name, _error(exc))
            return
        rec.add(case.name, case.name, seconds)
        if case.phi is not None:
            if not report.satisfied:
                rec.fail(case.name, f"YMH identity mismatch {report.mismatch:.3e}")
            return
        residual = qf.vortex_residual(case.system, result.state)
        sup = max(float(np.abs(r).max()) for r in residual.values())
        if sup > gen.VORTEX_TOL:
            rec.fail(case.name, f"recomputed sup residual {sup:.3e} > {gen.VORTEX_TOL:g}")
        elif case.closed_form is not None:
            err = max(float(np.abs(result.state.u[v] - u).max()) for v, u in case.closed_form.items())
            if err > CLOSED_FORM_TOL:
                rec.fail(case.name, f"differs from the closed form by {err:.3e}")

    def named(self, rec: Recorder) -> dict:
        return {
            (c if c.startswith("ymh") else f"vortex_{c}") + "_s": (rec.seconds(c), "s")
            for c in self.classes
        }


class CliBatch:
    """One ``quiverforge batch`` call per command, in-process, on generated
    instances with closed-form outcomes and on the shipped ``instances/``."""

    name = "cli-batch"
    classes = gen.CLI_COMMANDS
    reference = (small_linalg_kernel, 0.01, ())
    min_passes = 2  # reports are compared byte for byte with the first pass

    def setup(self, seed: int, root: str) -> None:
        self.workdir = os.path.join(root, ".bench_out", f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.entries = gen.cli_manifests(seed, self.workdir, os.path.join(root, "instances"))
        self.first: dict[str, bytes] = {}
        warm = self.entries["check"][0]
        cli.main(["check", "--instance", warm.args["instance"], "--quiet"])

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_pass(self, rec: Recorder) -> None:
        for command, entries in self.entries.items():
            manifest = os.path.join(self.workdir, f"manifest-{command}.json")
            rec.attempted += len(entries)
            try:
                code, seconds = rec.call(command, cli.main, ["batch", "--manifest", manifest, "--jobs", "1"])
            except (Exception, SystemExit) as exc:  # argparse exits with SystemExit
                for e in entries:
                    rec.fail(os.path.basename(e.args["out"]), _error(exc))
                continue
            rec.add(command, command, seconds, len(entries))
            want = max(e.code for e in entries)
            if code != want:
                rec.fail(f"batch-{command}", f"exit code {code}, expected {want}")
            for e in entries:
                reason = self._check_entry(e)
                if reason:
                    rec.fail(os.path.basename(e.args["out"]), reason)

    def _check_entry(self, e) -> str | None:
        out = e.args["out"]
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return _error(exc)
        if self.first.setdefault(out, data) != data:
            return "report differs from the first pass"
        if e.key is not None:
            got = json.loads(data).get(e.key)
            return None if got == e.expected else f"{e.key} is {got!r}, expected {e.expected!r}"
        # vortex: a QVTX1 potential file; check it against the closed form
        # or, without one, recompute the residual of the instance's system
        system = qio.load_instance([e.args["instance"]]).system
        u = qio.read_potential_binary(out, sorted(system.quiver.vertices))
        if e.closed_form is not None:
            err = max(float(np.abs(u[v] - c).max()) for v, c in e.closed_form.items())
            return None if err <= CLOSED_FORM_TOL else f"differs from the closed form by {err:.3e}"
        residual = qf.vortex_residual(system, qf.PotentialState(u))
        sup = max(float(np.abs(r).max()) for r in residual.values())
        return None if sup <= gen.VORTEX_TOL else f"recomputed sup residual {sup:.3e}"

    def named(self, rec: Recorder) -> dict:
        return {"cli_entries_per_s": (rec.rate(*self.classes), "1/s")}


WORKLOADS = {w.name: w for w in (PointSweep, TorusSolve, CliBatch)}


def end_to_end(workload, rec: Recorder) -> dict:
    """Pooled and class-balanced throughput of one run."""
    rates = [rec.rate(c) for c in workload.classes]
    return {
        "ops_per_s": rec.rate(*workload.classes),
        "class_gmean_per_s": math.exp(sum(math.log(r) for r in rates) / len(rates)),
    }
