"""Spans around calls into sltosim's public functions, for the traced run.

The program is not changed.  While a traced op runs, each name listed in
``SPANS`` is replaced, in the module namespace that calls it, by a wrapper
that records a span (name, start, end, parent, op id) and, where a layer
does countable work, a count at the same boundary.  ``SpectralPropagator``
is replaced by a subclass so that its constructor and ``states`` are timed
separately.  Spans are kept in memory and written out when the run ends.

Per-layer metrics are per timed op: totals over the traced timed ops
divided by their number.  The matrix export runs only during set-up, so
its metrics (``SETUP_ONLY``) are per set-up instead.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import defaultdict

SETUP = "setup"

#: (module, attribute, span name): the calls the traced run times
SPANS = (
    ("engine", "StateVector", "linalg.StateVector"),
    ("engine", "DensityMatrix", "linalg.DensityMatrix"),
    ("thermal", "DensityMatrix", "linalg.DensityMatrix"),
    ("engine", "von_neumann_entropy", "linalg.von_neumann_entropy"),
    ("engine", "energy_uncertainty", "linalg.energy_uncertainty"),
    ("engine", "fubini_study_distance", "linalg.fubini_study_distance"),
    ("cli", "tensor_product", "linalg.tensor_product"),
    ("cli", "commutator_norm", "linalg.commutator_norm"),
    ("cli", "evolve_cycle", "engine.evolve_cycle"),
    ("optics", "evolve_cycle", "engine.evolve_cycle"),
    ("engine", "enumerate_blocks", "engine.enumerate_blocks"),
    ("cli", "evolution_operator", "engine.evolution_operator"),
    ("cli", "adiabatic_elimination_error", "optics.adiabatic_elimination_error"),
    ("optics", "build_full_hamiltonian", "optics.build_full_hamiltonian"),
    ("optics", "build_effective_hamiltonian", "optics.build_effective_hamiltonian"),
    ("cli", "run_optics_cycle", "optics.run_optics_cycle"),
    ("cli", "mc_optimize", "designer.mc_optimize"),
    ("cli", "design_cost", "designer.design_cost"),
    ("designer", "design_cost", "designer.design_cost"),
    ("cli", "fock_matrix_elements", "designer.fock_matrix_elements"),
    ("designer", "fock_matrix_elements", "designer.fock_matrix_elements"),
    ("cli", "truncation_for_tail", "thermal.truncation_for_tail"),
    ("optics", "truncation_for_tail", "thermal.truncation_for_tail"),
    ("cli", "gibbs_density", "thermal.gibbs_density"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "read_matrix_file", "cli.read_matrix_file"),
    ("cli", "write_matrix_file", "cli.write_matrix_file"),
    ("cli", "verify_slto", "cli.verify_slto"),
)

#: modules whose SpectralPropagator is replaced by the timed subclass
PROPAGATOR_USERS = ("engine", "optics")

#: (metric, aggregate, sources, unit).  Aggregates: "calls", "s" and "self_s"
#: of spans, "count" (sum of counts), "max" (largest count) and "ratio"
#: (first count over second), all per timed op unless in SETUP_ONLY.
PER_LAYER = (
    ("linalg.StateVector.calls", "calls", ("linalg.StateVector",), "count"),
    ("linalg.DensityMatrix.calls", "calls", ("linalg.DensityMatrix",), "count"),
    ("linalg.validate_s", "s", ("linalg.StateVector", "linalg.DensityMatrix"), "s"),
    ("linalg.von_neumann_entropy.s", "s", ("linalg.von_neumann_entropy",), "s"),
    ("linalg.energy_uncertainty.s", "s", ("linalg.energy_uncertainty",), "s"),
    ("linalg.fubini_study_distance.s", "s", ("linalg.fubini_study_distance",), "s"),
    ("linalg.SpectralPropagator.init_s", "s", ("linalg.SpectralPropagator.init",), "s"),
    ("linalg.SpectralPropagator.states_s", "s", ("linalg.SpectralPropagator.states",), "s"),
    ("linalg.states.amplitudes", "count", ("linalg.states.amplitudes",), "count"),
    ("linalg.tensor_product.s", "s", ("linalg.tensor_product",), "s"),
    ("linalg.commutator_norm.s", "s", ("linalg.commutator_norm",), "s"),
    ("engine.evolve_cycle.calls", "calls", ("engine.evolve_cycle",), "count"),
    ("engine.evolve_cycle.self_s", "self_s", ("engine.evolve_cycle",), "s"),
    ("engine.enumerate_blocks.s", "s", ("engine.enumerate_blocks",), "s"),
    ("engine.blocks", "count", ("engine.blocks",), "count"),
    ("engine.evolution_operator.s", "s", ("engine.evolution_operator",), "s"),
    ("engine.evolution_operator.dense_bytes", "count",
     ("engine.evolution_operator.dense_bytes",), "B"),
    ("optics.adiabatic_elimination_error.self_s", "self_s",
     ("optics.adiabatic_elimination_error",), "s"),
    ("optics.build_full_hamiltonian.s", "s", ("optics.build_full_hamiltonian",), "s"),
    ("optics.build_effective_hamiltonian.s", "s",
     ("optics.build_effective_hamiltonian",), "s"),
    ("optics.full_dim_max", "max", ("optics.full_dim",), "count"),
    ("optics.time_samples", "count", ("optics.time_samples",), "count"),
    ("optics.run_optics_cycle.s", "s", ("optics.run_optics_cycle",), "s"),
    ("designer.mc_optimize.self_s", "self_s", ("designer.mc_optimize",), "s"),
    ("designer.design_cost.calls", "calls", ("designer.design_cost",), "count"),
    ("designer.design_cost.s", "s", ("designer.design_cost",), "s"),
    ("designer.fock_matrix_elements.calls", "calls", ("designer.fock_matrix_elements",), "count"),
    ("designer.fock_matrix_elements.s", "s", ("designer.fock_matrix_elements",), "s"),
    ("designer.accept_ratio", "ratio", ("designer.accepted", "designer.proposals"), "ratio"),
    ("thermal.truncation_for_tail.s", "s", ("thermal.truncation_for_tail",), "s"),
    ("thermal.gibbs_density.s", "s", ("thermal.gibbs_density",), "s"),
    ("cli.run_experiment.calls", "calls", ("cli.run_experiment",), "count"),
    ("cli.run_experiment.self_s", "self_s", ("cli.run_experiment",), "s"),
    ("cli.report_bytes", "count", ("cli.report_bytes",), "B"),
    ("cli.read_matrix_file.s", "s", ("cli.read_matrix_file",), "s"),
    ("cli.read_matrix_file.bytes", "count", ("cli.read_matrix_file.bytes",), "B"),
    ("cli.verify_slto.self_s", "self_s", ("cli.verify_slto",), "s"),
    ("cli.write_matrix_file.s", "s", ("cli.write_matrix_file",), "s"),
    ("cli.checks_failed", "count", ("cli.checks_failed",), "count"),
)

#: metrics of work that only the set-up does (the matrix export)
SETUP_ONLY = frozenset({
    "engine.evolution_operator.s",
    "engine.evolution_operator.dense_bytes",
    "cli.write_matrix_file.s",
})


class Tracer:
    """In-memory spans and counts, each tagged with the op that caused it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or None, op]
        self.counts = []  # (op, name, value)
        self.op = SETUP
        self.optics_full_dim = 0
        self._stack = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.op, name, value))

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[index]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def per_layer_metrics(tracer: Tracer, n_ops: int, n_setups: int) -> dict[str, float]:
    """Aggregate the tracer's spans and counts into the PER_LAYER metrics."""
    totals = defaultdict(float)  # (phase, aggregate, source) -> value
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        phase = SETUP if span[4] == SETUP else "op"
        totals[phase, "calls", span[0]] += 1
        totals[phase, "s", span[0]] += span[2] - span[1]
        totals[phase, "self_s", span[0]] += self_s
    for op, name, value in tracer.counts:
        phase = SETUP if op == SETUP else "op"
        totals[phase, "count", name] += value
        totals[phase, "max", name] = max(totals[phase, "max", name], value)

    out = {}
    for metric, aggregate, sources, _ in PER_LAYER:
        phase, runs = (SETUP, n_setups) if metric in SETUP_ONLY else ("op", n_ops)
        if aggregate == "ratio":
            num, den = (totals[phase, "count", s] for s in sources)
            out[metric] = num / den if den else 0.0
        elif aggregate == "max":
            out[metric] = max(totals[phase, "max", s] for s in sources)
        else:
            out[metric] = sum(totals[phase, aggregate, s] for s in sources) / max(runs, 1)
    return out


# ---------------------------------------------------------------------------
# counts taken where the work happens
# ---------------------------------------------------------------------------

def _count_blocks(tracer, args, blocks):
    tracer.count("engine.blocks", len(blocks))


def _count_dense_bytes(tracer, args, u):
    tracer.count("engine.evolution_operator.dense_bytes", u.dim * u.dim * 16)


def _note_full_dim(tracer, args, h):
    tracer.optics_full_dim = h.dim
    tracer.count("optics.full_dim", h.dim)


def _count_proposals(tracer, args, result):
    trace = result[1]
    tracer.count("designer.proposals", len(trace) - 1)
    tracer.count("designer.accepted", int((trace[1:] != trace[:-1]).sum()))


def _count_read_bytes(tracer, args, result):
    tracer.count("cli.read_matrix_file.bytes", os.path.getsize(args[0]))


def _count_report_bytes(tracer, args, artifact):
    size = os.path.getsize(artifact.report_path)
    if artifact.series_path:
        size += os.path.getsize(artifact.series_path)
    tracer.count("cli.report_bytes", size)


COUNTERS = {
    "engine.enumerate_blocks": _count_blocks,
    "engine.evolution_operator": _count_dense_bytes,
    "optics.build_full_hamiltonian": _note_full_dim,
    "designer.mc_optimize": _count_proposals,
    "cli.read_matrix_file": _count_read_bytes,
    "cli.run_experiment": _count_report_bytes,
}


def _wrap(tracer: Tracer, fn, name: str):
    counter = COUNTERS.get(name)

    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            counter(tracer, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _traced_propagator(tracer: Tracer, base):
    class TracedSpectralPropagator(base):
        def __init__(self, h):
            index = tracer.open("linalg.SpectralPropagator.init")
            try:
                super().__init__(h)
            finally:
                tracer.close(index)

        def states(self, psi0, times):
            index = tracer.open("linalg.SpectralPropagator.states")
            try:
                amps = super().states(psi0, times)
            finally:
                tracer.close(index)
            tracer.count("linalg.states.amplitudes", amps.size)
            if self.h.dim == tracer.optics_full_dim:
                tracer.count("optics.time_samples", amps.shape[0])
            return amps

    return TracedSpectralPropagator


class Instrumentation:
    """Installs the traced replacements while a ``with`` block runs.

    Outside the block the modules hold their original objects, so untraced
    ops run the unmodified program.
    """

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self._swaps = []  # (module, attribute, original, replacement)
        for module_name, attr, span in SPANS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._swaps.append((module, attr, original, _wrap(tracer, original, span)))
        for module_name in PROPAGATOR_USERS:
            module = modules[module_name]
            original = module.SpectralPropagator
            self._swaps.append((module, "SpectralPropagator", original,
                                _traced_propagator(tracer, original)))

    def __call__(self, op_id):
        self.tracer.op = op_id
        return self

    def __enter__(self):
        for module, attr, _, replacement in self._swaps:
            setattr(module, attr, replacement)
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)
        return False
