"""Command-line experiment runner.

Subcommands map one-to-one onto the experiment kinds:

* ``abstract-cycle``  two-ladder engine cycle with all conservation checks
* ``optics-cycle``    cavity-QED effective cycle plus the final-state formula
* ``delta-sweep``     full-vs-effective model comparison over detunings
* ``design``          Monte Carlo fit of cavity intensity profiles
* ``verify-slto``     check an externally supplied unitary against the
                      conservation laws, the thermal fixed point and
                      unitarity, factor by factor (no embedded d x d
                      Hamiltonian).  Diagonal factors cost O(d^2) plus
                      the products per eigenspace and O(d^2) per row of
                      U that leaves its eigenspace; others add two
                      dense d^3 products

Each kind is declared once, as an ``ExperimentKind`` entry in ``KINDS``:
its runner, help line, series header and parameters.  The subcommand's
flags (``--`` plus the key with dashes), the keys a ``--config`` file or
a ``run_experiment`` caller may pass, the type each of their values must
have (``VALUE_KINDS``), and the ``series.csv`` header all come from that
entry.  Only ``design`` is random, so only it takes
``--seed``.

Every run writes ``report.json`` into the output directory (also on
physics failure, with the failing checks flagged); ``--series`` adds a
CSV time series, ``--json-report`` echoes the report to stdout.  A run
that stops on an error writes nothing.  Exit codes: 0 all checks pass,
1 a physics check failed, 2 bad usage or config, 3 I/O failure, 4 an
internal invariant failed (a bug, not bad input).

Matrix files, which ``verify-slto`` reads and ``abstract-cycle
--export-matrices`` writes, are described in ``bytescan``, which reads
and formats them; the checks of ``verify-slto`` are ``slto.verify_slto``.
``abstract-cycle --export-matrices`` refuses a dimension above
``engine.MAX_DENSE_DIM`` before its cycle runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import numbers
import os
import stat
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bytescan import ConfigError, matrix_lines, read_matrix_file
from .designer import (
    AnnealSchedule,
    DesignTargets,
    FockRows,
    PotentialAnsatz,
    design_cost,
    fit_rows,
    mc_optimize,
)
# unused here; bench/tracing.py patches it by name
from .designer import fock_matrix_elements
from .engine import (
    CompactEngineConfig,
    CycleReport,
    InvariantError,
    check_coupling,
    check_dense_cap,
    check_sector,
    evolution_operator,
    evolve_cycle,
)
from .linalg import HermiticityError, Operator
# unused here; bench/tracing.py patches these by name
from .linalg import commutator_norm, tensor_product
from .optics import (
    SAMPLES_PER_PERIOD,
    OpticsEngineConfig,
    adiabatic_elimination_error,
    run_optics_cycle,
    sweep_slopes,
    uniform_exchange_profile,
)
from .slto import verify_slto
# unused here; bench/tracing.py patches these by name
from .thermal import gibbs_density, truncation_for_tail

SCHEMA_VERSION = 1

#: series.csv rows formatted per write, so that a long series (a design
#: trace of up to 10^6 rows) is never held as one string
SERIES_CHUNK_ROWS = 4096

PASS_THRESHOLDS = {
    "carnot_efficiency": 1e-9,
    "cycle_duration": 1e-10,
    "max_power": 1e-10,
    "clausius": 1e-9,
    "commutator_energy": 1e-10,
    "commutator_weighted": 1e-10,
    "amplitudes": 1e-10,
    "final_state_formula": 1e-6,
}


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _replaceable(path) -> bool:
    """Whether a new file may take the place of what is at ``path``.

    Only a regular file, or a symlink straight to a regular file on the
    link's own file system or to nothing, is replaced.  A device, FIFO or
    socket, a link into another file system such as ``/proc/self/fd/1``,
    and a chain of links such as ``/dev/stdout`` -> ``/proc/self/fd/1``,
    are written through.
    """
    try:
        link = os.lstat(path)
    except FileNotFoundError:
        return False
    if not stat.S_ISLNK(link.st_mode):
        return stat.S_ISREG(link.st_mode)
    try:
        target = os.stat(path)
    except FileNotFoundError:
        return True
    hop = os.path.join(os.path.dirname(path), os.readlink(path))
    return (stat.S_ISREG(target.st_mode) and target.st_dev == link.st_dev
            and not os.path.islink(hop))


#: bytes of chunks gathered into one write: a matrix export's rows, a few kB
#: each, go out in a few writes rather than one system call a row
WRITE_BATCH_BYTES = 1 << 16

#: the flags of open(path, "w"), in binary mode where the platform has one
_NEW_FILE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _write_all(fd: int, data: bytes):
    """Write all of ``data`` to ``fd``, going on after a partial write (a pipe)."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _write_new(path, chunks: Iterable[str]):
    """Write the text ``chunks`` to ``path``, as a new file where it holds a file already.

    Every output goes through here.  A rerun replaces its old files rather
    than rewriting them in place: a hard link to the old file keeps the old
    bytes, and a symlink at ``path`` is replaced, not written through.  What
    ``_replaceable`` refuses, and a file in a directory that may not be
    written to, is truncated and written as it stands.  The file is opened
    as ``open(path, "w")`` opens it (mode 0o666 under the umask, not
    inherited), and the chunks, all ASCII with LF line ends, are written as
    their UTF-8 bytes without a text layer: small ones gathered up to
    WRITE_BATCH_BYTES, so that no more than that and one chunk is held.
    """
    if _replaceable(path):
        try:
            os.unlink(path)
        except OSError:
            pass
    fd = os.open(path, _NEW_FILE_FLAGS, 0o666)
    try:
        batch, size = [], 0
        for chunk in chunks:
            batch.append(chunk)
            size += len(chunk)
            if size >= WRITE_BATCH_BYTES:
                _write_all(fd, "".join(batch).encode())
                batch, size = [], 0
        if batch:
            _write_all(fd, "".join(batch).encode())
    finally:
        os.close(fd)


def _make_dir(path: Path):
    """Make the directory ``path`` and its parents, where it is missing.

    ``mkdir(exist_ok=True)`` raises and catches FileExistsError on every
    call; a run into an existing directory only looks.
    """
    if not os.path.isdir(path):
        path.mkdir(parents=True, exist_ok=True)


def write_matrix_file(path, entries: np.ndarray, layout: tuple[int, ...] | None = None):
    """Write the square matrix ``entries`` as a matrix file (see ``bytescan``)
    at ``path``, a batch of lines at a time, so the body is never held whole."""
    _write_new(path, matrix_lines(entries, layout))


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunArtifact:
    report_path: str
    series_path: str | None
    tool_version: str
    all_checks_passed: bool


def _check(value: float, threshold: float) -> dict:
    return {"value": float(value), "threshold": threshold, "passed": bool(value <= threshold)}


def _cycle_results(report: CycleReport) -> dict:
    return {
        "w_ext": report.w_ext,
        "q1": report.q1,
        "q2": report.q2,
        "q1_ensemble": report.q1_ensemble,
        "q2_ensemble": report.q2_ensemble,
        "eta": report.eta,
        "eta_carnot": 1.0 - report.beta1 / report.beta2,
        "tau": report.tau,
        "power": report.power,
        "clausius_residual": report.clausius_residual,
        "commutator_residual_energy": report.commutator_residual_energy,
        "commutator_residual_weighted": report.commutator_residual_weighted,
        "amplitude_residual": report.amplitude_residual,
        "success_weight": report.success_weight,
        "vacuum_weight": report.vacuum_weight,
        "boundary_weight": report.boundary_weight,
        "partition_function1": report.partition_function1,
        "partition_function2": report.partition_function2,
        "final_system_populations": [float(p) for p in report.final_system_populations],
        "entanglement_max": float(report.entanglement_trace.max()),
        "speed_mean": float(report.speed_trace.mean()),
    }


def _cycle_checks(report: CycleReport) -> dict:
    carnot = 1.0 - report.beta1 / report.beta2
    return {
        "carnot_efficiency": _check(abs(report.eta - carnot), PASS_THRESHOLDS["carnot_efficiency"]),
        "cycle_duration": _check(
            abs(report.tau - math.pi / (2 * report.g)), PASS_THRESHOLDS["cycle_duration"]
        ),
        "max_power": _check(
            abs(report.power - 2 * report.g * report.w_ext / math.pi),
            PASS_THRESHOLDS["max_power"],
        ),
        "clausius": _check(report.clausius_residual, PASS_THRESHOLDS["clausius"]),
        "commutator_energy": _check(
            report.commutator_residual_energy, PASS_THRESHOLDS["commutator_energy"]
        ),
        "commutator_weighted": _check(
            report.commutator_residual_weighted, PASS_THRESHOLDS["commutator_weighted"]
        ),
        "amplitudes": _check(report.amplitude_residual, PASS_THRESHOLDS["amplitudes"]),
    }


def _cycle_series(report: CycleReport) -> list[list]:
    # Python floats: run_experiment formats them twice as fast as np.float64
    # the columns of SERIES_HEADER; pop3 stays 0
    series = np.zeros((len(report.times), 9))
    series[:, 0] = report.times
    series[:, 1:3] = report.population_trace
    series[:, 4] = report.entanglement_trace
    series[:, 5] = report.bath1_energy_trace
    series[:, 6] = report.bath2_energy_trace
    series[:, 7] = report.residual_energy_trace
    series[:, 8] = report.residual_weighted_trace
    return series.tolist()


SERIES_HEADER = "t,pop1,pop2,pop3,S_ent,E_B1,E_B2,resid_energy,resid_weighted"


def run_abstract_cycle(params: dict, out_dir: Path,
                       sources: dict) -> tuple[dict, dict, list | None]:
    if params["beta1"] >= params["beta2"]:
        raise ConfigError("abstract-cycle needs beta1 < beta2")
    # every other key of the kind is a field of the config, which holds the defaults
    cfg = CompactEngineConfig(**{k: v for k, v in params.items() if k != "export_matrices"})
    export = params.get("export_matrices")
    if export:
        check_dense_cap(cfg)  # before the cycle runs
    report = evolve_cycle(cfg)
    if export:
        u_tau = evolution_operator(cfg, cfg.tau).entries
        target = Path(export)
        _make_dir(target)
        write_matrix_file(target / "u_tau.txt", u_tau, (cfg.n_max1 + 1, cfg.n_max2 + 1, 2))
        write_matrix_file(target / "h_bath1.txt", np.diag(cfg.omega1 * np.arange(cfg.n_max1 + 1)).astype(complex))
        write_matrix_file(target / "h_bath2.txt", np.diag(cfg.omega2 * np.arange(cfg.n_max2 + 1)).astype(complex))
        write_matrix_file(target / "h_system.txt", np.diag([cfg.a0, cfg.a1]).astype(complex))
    results = _cycle_results(report)
    results["config_used"] = {
        "beta1": cfg.beta1, "beta2": cfg.beta2, "omega1": cfg.omega1, "omega2": cfg.omega2,
        "g": cfg.g, "n_max1": cfg.n_max1, "n_max2": cfg.n_max2, "a0": cfg.a0, "a1": cfg.a1,
    }
    return results, _cycle_checks(report), _cycle_series(report)


def run_optics_cycle_cmd(params: dict, out_dir: Path,
                         sources: dict) -> tuple[dict, dict, list | None]:
    # every key but detuning, the config's delta, is a field of the config
    fields = {"g1": 2.0, "g2": 2.0, **params}
    delta = fields.pop("detuning", 80.0)
    if not math.isfinite(delta):  # the config would name its field delta
        raise ConfigError(f"detuning must be finite, got {delta}")
    cfg = OpticsEngineConfig(delta=delta, **fields)
    check_coupling(cfg.g, f"coupling g = g1*g2/detuning = {cfg.g1!r}*{cfg.g2!r}/{cfg.delta!r}")
    report = run_optics_cycle(cfg)
    results = _cycle_results(report)
    results["omega0"] = cfg.omega0
    results["delta"] = cfg.delta
    results["g"] = cfg.g
    corrected = report.corrected_final_populations
    expected = np.array([
        1.0 / report.partition_function1,
        1.0 - 1.0 / report.partition_function1,
    ])
    results["corrected_final_populations"] = [float(p) for p in corrected]
    results["final_state_expected"] = [float(p) for p in expected]
    checks = _cycle_checks(report)
    checks["final_state_formula"] = _check(
        float(np.abs(corrected - expected).max()), PASS_THRESHOLDS["final_state_formula"]
    )
    results["config_used"] = {
        "beta1": cfg.beta1, "beta2": cfg.beta2, "omega1": cfg.omega1, "omega2": cfg.omega2,
        "omega0": cfg.omega0, "g1": cfg.g1, "g2": cfg.g2,
        "delta": cfg.delta, "n_max1": cfg.n_max1, "n_max2": cfg.n_max2,
    }
    return results, checks, _cycle_series(report)


#: the smallest detuning ratio Delta/max(g1, g2) that delta-sweep accepts
SWEEP_MIN_RATIO = 5.0


def _slope_band(slope: float | None, low: float, high: float) -> dict:
    """A slope band check; a series without a slope (None) fails it."""
    return {"value": slope, "threshold": [low, high],
            "passed": slope is not None and low <= slope <= high}


def run_delta_sweep(params: dict, out_dir: Path,
                    sources: dict) -> tuple[dict, dict, list | None]:
    ratios = params.get("ratios", [20.0, 40.0, 80.0, 160.0])
    if not hasattr(ratios, "__len__") or len(ratios) < 2:
        raise ConfigError(f"ratios: need at least two sweep points, got {ratios!r}")
    if len(set(ratios)) < 2:
        raise ConfigError(f"ratios: need at least two distinct values, got {list(ratios)!r}")
    if not all(SWEEP_MIN_RATIO <= r < math.inf for r in ratios):
        raise ConfigError(f"ratios: need finite values of at least {SWEEP_MIN_RATIO:g}, "
                          f"got {list(ratios)!r}")
    block = tuple(params.get("block", (3, 1)))
    if len(block) != 2:
        raise ConfigError(f"block: need two integers n,m, got {list(block)!r}")
    g1 = params.get("g1", 0.5)
    g2 = params.get("g2", 0.5)
    # with no effective coupling there is no cycle, and no window to compare over
    if g1 * g2 == 0:
        raise ConfigError(f"{_source(sources, 'g1')} {g1!r}, {_source(sources, 'g2')} {g2!r}: "
                          "the sweep needs an effective coupling g1*g2/delta > 0, "
                          f"got g1*g2 = {g1 * g2!r}")
    deltas = [r * max(g1, g2) for r in ratios]
    # a coupling that is not finite is the config's to name
    if min(deltas) <= 0 or (math.inf in deltas and math.isfinite(g1) and math.isfinite(g2)):
        raise ConfigError(f"ratios: the detunings ratio*max(g1, g2) = {deltas!r} must be "
                          f"finite and positive, with g1 = {g1!r} and g2 = {g2!r}")
    # no ladder temperature or frequency enters the probe sector's evolution;
    # these fix only the cutoffs that a null n_max derives
    cfg = OpticsEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0, g1=g1, g2=g2, delta=min(deltas),
                             n_max1=params.get("n_max1", 4), n_max2=params.get("n_max2", 4),
                             min_detuning_ratio=SWEEP_MIN_RATIO)
    _named(f"block (cutoffs n_max1 = {cfg.n_max1}, n_max2 = {cfg.n_max2})",
           check_sector, cfg, *block)
    # the sweep refuses a detuning, which the caller gave as its ratio
    points = _named("ratios", adiabatic_elimination_error,
                    cfg, uniform_exchange_profile(cfg), deltas, initial_block=block)
    dev_slope, leak_slope = sweep_slopes(points)
    devs = [p.population_deviation for p in points]
    monotone = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    # the sample cap can leave the fastest oscillation under-resolved
    density = min(p.samples_per_period for p in points)
    results = {
        "points": [dict(vars(p)) for p in points],
        "deviation_slope": dev_slope,
        "leak_slope": leak_slope,
        "monotone_decreasing": monotone,
        "initial_block": list(block),
        "config_used": {"g1": g1, "g2": g2, "ratios": list(ratios)},
    }
    checks = {
        "deviation_monotone": _check(not monotone, 0.5),
        "deviation_slope_band": _slope_band(dev_slope, -1.4, -0.6),
        "leak_slope_band": _slope_band(leak_slope, -2.5, -1.5),
        "sampling_density": {"value": density, "threshold": SAMPLES_PER_PERIOD,
                             "passed": density >= SAMPLES_PER_PERIOD},
    }
    series = [[p.delta, p.ratio, p.population_deviation, p.leak_max] for p in points]
    return results, checks, series


def design_document(
    best: PotentialAnsatz,
    targets: DesignTargets,
    schedule: AnnealSchedule,
    initial_cost: float,
    best_cost: float,
    rows: FockRows | None = None,
) -> dict:
    """The design file of a fit, as ``design --design-in`` reads it back.

    ``rows`` are the fit's ``fit_rows``, built here when not given.
    """
    rows = fit_rows(best, targets) if rows is None else rows
    achieved = rows.tables(best.flat()[None])[0]
    return {
        "schema_version": SCHEMA_VERSION,
        "ansatz": {
            "v_degrees": [int(d) for d in best.v_degrees],
            "v_coeffs": [float(c) for c in best.v_coeffs],
            "b_degrees": [int(d) for d in best.b_degrees],
            "b_coeffs": [float(c) for c in best.b_coeffs],
        },
        "targets": {
            "f": [float(v) for v in targets.f_target],
            "theta": [float(v) for v in targets.theta_target],
            "q": targets.q, "n_work": targets.n_work,
        },
        "schedule": dataclasses.asdict(schedule),
        "result": {
            "initial_cost": float(initial_cost), "best_cost": float(best_cost),
            "f_achieved": achieved[: rows.n_f].tolist(),
            "theta_achieved": achieved[rows.n_f :].tolist(),
        },
    }


#: a design file's optional scalar entries: (section, entry, the key of the flag or
#: --config entry that sets the same field and overrides the entry, its VALUE_KINDS type)
DESIGN_SCALARS = (("targets", "q", "q", float), ("targets", "n_work", None, int),
                  ("schedule", "seed", "seed", int), ("schedule", "iterations", "iterations", int),
                  ("schedule", "proposal_scale", "proposal_scale", float),
                  ("schedule", "mc_temperature", "temperature", float))


def _source(sources: dict, key: str) -> str:
    """How a refusal names the input ``key``: as ``sources`` gives it (a --config
    file and its key), else by its flag."""
    return sources.get(key) or f"--{key.replace('_', '-')}"


def _named(name: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a refusal (ValueError) as a ConfigError led by ``name``."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{name}: {err}") from err


def run_design(params: dict, out_dir: Path, sources: dict) -> tuple[dict, dict, Iterable[list]]:
    # each input as (value, what its refusal names); a flag or --config key
    # overrides the design-file entry that sets the same field
    given = {key: (value, f"{_source(sources, key)} {value!r}") for key, value in params.items()}
    if params.get("design_in"):
        path = targets_from = params["design_in"]
        if "amplitude" in given:
            raise ConfigError(f"{given['amplitude'][1]}: --design-in {path} holds the targets")
        try:
            spec = json.loads(Path(path).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read design file {path}: {err}") from err
        if not isinstance(spec, dict):
            raise ConfigError(f"{path}: design file must hold a JSON object")
        _validate_keys(spec, {"ansatz", "targets", "schedule", "result", "schema_version"},
                       "design file")
        for section, entry in (("ansatz", "v_coeffs"), ("ansatz", "b_coeffs"),
                               ("targets", "f"), ("targets", "theta")):
            if not isinstance(spec.get(section), dict) or entry not in spec[section]:
                raise ConfigError(f"{path}: design file lacks {section}.{entry}")
        for section, entry, key, kind in DESIGN_SCALARS:
            entries, (accepts, what) = spec.get(section, {}), VALUE_KINDS[kind]
            name = f"{path}: design file {section}"
            if not isinstance(entries, dict):
                raise ConfigError(f"{name} must be an object, got {entries!r}")
            if entry in entries and not accepts(entries[entry]):
                raise ConfigError(f"{name}.{entry} must be {what}, got {entries[entry]!r}")
            if entry in entries:
                given.setdefault(key or entry, (entries[entry], f"{name}.{entry}"))
        ansatz, tables = spec["ansatz"], spec["targets"]
        ansatz0 = _named(path, PotentialAnsatz, np.array(ansatz["v_coeffs"]),
                         np.array(ansatz["b_coeffs"]))
        targets = _named(path, DesignTargets, np.array(tables["f"]), np.array(tables["theta"]),
                         n_work=given.get("n_work", (0,))[0])
        if params.get("n_fit", targets.n_fit) != targets.n_fit:
            raise ConfigError(f"n_fit {params['n_fit']} disagrees with the {targets.n_fit} "
                              f"target entries in {path}")
    else:
        ansatz0 = PotentialAnsatz.zeros()
        amplitude, n_fit = params.get("amplitude", 0.0125), params.get("n_fit", 6)
        # the amplitude alone on a one-entry table first, so that a refusal of
        # the full table is the fault of n_fit
        targets_from = given.get("amplitude", (None, "amplitude"))[1]
        _named(targets_from, DesignTargets.inverse_intensity, amplitude, 1)
        targets = _named(given.get("n_fit", (None, "n_fit"))[1],
                         DesignTargets.inverse_intensity, amplitude, n_fit)
    # one field at a time, so that a refusal names the input it refused
    schedule = AnnealSchedule(iterations=20000)
    for section, entry, key, kind in DESIGN_SCALARS:
        if key in given and section == "targets":
            targets = _named(given[key][1], dataclasses.replace, targets, **{entry: given[key][0]})
        elif key in given:
            schedule = _named(given[key][1], dataclasses.replace, schedule,
                              **{entry: kind(given[key][0])})
    rows = fit_rows(ansatz0, targets)
    best, trace = _named(targets_from, mc_optimize, ansatz0, targets, schedule, rows)
    best_cost = design_cost(best, targets, rows)
    design = design_document(best, targets, schedule, trace[0], best_cost, rows)
    results = {
        **design["result"],
        "iterations": schedule.iterations,
        "seed": schedule.seed,
        "v_coeffs": design["ansatz"]["v_coeffs"],
        "b_coeffs": design["ansatz"]["b_coeffs"],
        "f_target": design["targets"]["f"],
        "theta_target": design["targets"]["theta"],
    }
    running_min = np.minimum.accumulate(trace)
    checks = {
        "trace_running_min_nonincreasing": _check(np.max(np.diff(running_min)), 0.0),
        # the walk scores its trace in stacks of proposals and best_cost is
        # scored alone, so this holds with threshold 0.0 only while
        # design_cost gives a row the same bits in any stack
        # (TestDesignCommand::test_best_cost_equals_trace_minimum)
        "cost_not_increased": {
            "value": float(best_cost - trace.min()), "threshold": 0.0,
            "passed": bool(best_cost <= trace.min()),
        },
    }
    out_path = Path(params.get("design_out") or out_dir / "design.json")
    _make_dir(out_path.parent)
    _write_new(out_path, (json.dumps(design, indent=2, sort_keys=True), "\n"))
    results["design_path"] = str(out_path)
    # (iteration, cost) rows of Python floats, built a chunk at a time and
    # only if run_experiment writes series.csv
    series = itertools.chain.from_iterable(
        enumerate(trace[start : start + SERIES_CHUNK_ROWS].tolist(), start)
        for start in range(0, trace.size, SERIES_CHUNK_ROWS)
    )
    return results, checks, series


def _hermitian_file(params: dict, sources: dict, key: str) -> Operator:
    """The Hermitian operator in the matrix file ``params[key]``, named by its source if not."""
    entries, _ = read_matrix_file(params[key])
    try:
        return Operator(entries, hermitian_hint=True)
    except HermiticityError as err:
        raise ConfigError(f"{_source(sources, key)} {params[key]}: {err}") from err


def run_verify_slto(params: dict, out_dir: Path,
                    sources: dict) -> tuple[dict, dict, list | None]:
    u_entries, layout = read_matrix_file(params["unitary"])
    h1, h2, hs = (_hermitian_file(params, sources, key) for key in ("bath1", "bath2", "system"))
    if layout is not None and (h1.dim, h2.dim, hs.dim) != tuple(layout):
        raise ConfigError(f"factor files {(h1.dim, h2.dim, hs.dim)} disagree "
                          f"with the unitary layout {layout}")
    w_system = None
    if params.get("weighted_system"):
        w_system = _hermitian_file(params, sources, "weighted_system")
        if w_system.dim != hs.dim:
            raise ConfigError(f"{params['weighted_system']}: weighted system term has dim "
                              f"{w_system.dim}, the system Hamiltonian {params['system']} "
                              f"has dim {hs.dim}")
    # the parsed array has no other holder, so it is handed over, not copied
    check = verify_slto(Operator(u_entries, copy=False), h1, h2, hs, params["beta1"],
                        params["beta2"], w_system=w_system,
                        names=(_source(sources, "beta1"), _source(sources, "beta2"),
                               f"{_source(sources, 'unitary')} {params['unitary']}"))
    results = dataclasses.asdict(check)
    results["passed"] = check.passed
    checks = {
        "commutator_energy": _check(check.residual_energy, check.threshold),
        "commutator_weighted": _check(check.residual_weighted, check.threshold),
        "block_diagonality": _check(check.off_block_max, check.threshold),
        "semi_gibbs_fixed_point": _check(check.fixed_point_residual, check.threshold),
        "unitarity": _check(check.unitarity_residual, check.threshold),
    }
    return results, checks, None


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _row_lines(rows: Iterable, n_columns: int) -> Iterator[str]:
    """series.csv lines of numeric rows, each value as %.17g (an int, the
    design iteration, prints as str() prints it), as one string per
    SERIES_CHUNK_ROWS rows, formatted by one %."""
    row_format = ",".join(["%.17g"] * n_columns) + "\n"
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, SERIES_CHUNK_ROWS)):
        yield (row_format * len(chunk)) % tuple(itertools.chain.from_iterable(chunk))


def _trace_lines(rows: Iterable, n_columns: int) -> Iterator[str]:
    """``_row_lines`` of (iteration, cost) rows, formatting each run of
    equal costs once: a walk's trace repeats its cost until the next
    accepted move.  A zero is formatted on every row, since 0.0 == -0.0
    but the two print differently."""
    rows = iter(rows)
    last = text = None
    while True:
        lines = []
        for i, cost in itertools.islice(rows, SERIES_CHUNK_ROWS):
            if cost != last or not cost:
                last, text = cost, "%.17g\n" % cost
            lines.append(f"{i},{text}")
        if not lines:
            return
        yield "".join(lines)


@dataclass(frozen=True)
class ExperimentKind:
    """Everything the CLI knows about one experiment kind.

    ``params`` maps each accepted parameter key to the argparse type of
    its flag ``--key-with-dashes``; ``required`` names the keys every run
    must end up with, from flags, a ``--config`` file or the API caller.
    The runner takes the parameters, the output directory and the
    ``sources`` of ``run_experiment``, which its refusals name inputs by.
    ``series_header`` is the first line of ``series.csv`` (``None`` when
    the kind writes no series).  The runner's series rows are iterated
    once, and only when ``series.csv`` is written, by ``series_lines``
    (given the rows and the header's column count), which yields the
    file's lines one SERIES_CHUNK_ROWS chunk at a time.
    """

    runner: Callable[[dict, Path, dict], tuple[dict, dict, Iterable[list] | None]]
    help: str
    series_header: str | None
    params: dict[str, Callable[[str], object]]
    required: frozenset[str] = frozenset()
    series_lines: Callable[[Iterable, int], Iterator[str]] = _row_lines


KINDS = {
    "abstract-cycle": ExperimentKind(
        run_abstract_cycle, "two-ladder engine cycle", SERIES_HEADER,
        {"beta1": float, "beta2": float, "omega1": float, "g": float,
         "n_max1": int, "n_max2": int, "a0": float, "tail_delta": float,
         "export_matrices": str},
        required=frozenset({"beta1", "beta2", "omega1", "g"}),
    ),
    "optics-cycle": ExperimentKind(
        run_optics_cycle_cmd, "cavity engine effective cycle", SERIES_HEADER,
        {"beta1": float, "beta2": float, "omega1": float, "g1": float, "g2": float,
         "detuning": float, "n_max1": int, "n_max2": int, "tail_delta": float},
        required=frozenset({"beta1", "beta2", "omega1"}),
    ),
    "delta-sweep": ExperimentKind(
        run_delta_sweep, "full vs effective model over detunings",
        "delta,ratio,population_deviation,leak_max",
        {"g1": float, "g2": float, "ratios": _float_list, "n_max1": int, "n_max2": int,
         "block": _int_list},
    ),
    "design": ExperimentKind(
        run_design, "fit cavity intensity profiles", "iteration,cost",
        {"iterations": int, "proposal_scale": float, "temperature": float, "seed": int,
         "n_fit": int, "q": float, "amplitude": float, "design_in": str, "design_out": str},
        series_lines=_trace_lines,
    ),
    "verify-slto": ExperimentKind(
        run_verify_slto, "verify an external unitary", None,
        {"unitary": str, "bath1": str, "bath2": str, "system": str, "weighted_system": str,
         "beta1": float, "beta2": float},
        required=frozenset({"unitary", "bath1", "bath2", "system", "beta1", "beta2"}),
    ),
}

#: help lines of the flags that need more than their name
PARAM_HELP = {
    "export_matrices": "directory for U(tau) and Hamiltonian matrix files",
    "ratios": "comma-separated detuning ratios",
    "block": "probe sector n,m",
}


def _validate_keys(mapping: dict, allowed: Iterable[str], source: str):
    unknown = set(mapping).difference(allowed)
    if unknown:
        raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


#: per flag type of ``ExperimentKind.params``: what a value must be, and its name
VALUE_KINDS = {
    float: (_is_number, "a number"),
    int: (_is_integer, "an integer"),
    str: (lambda v: isinstance(v, str), "a path string"),
    _float_list: (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
                  "a list of numbers"),
    _int_list: (lambda v: isinstance(v, (list, tuple)) and all(map(_is_integer, v)),
                "a list of integers"),
}

#: keys whose null the runners give a meaning: a cutoff derived from the Gibbs
#: tail, an optional path left out, and sweep ratios refused by the sweep itself
NULLABLE = frozenset({"n_max1", "n_max2", "export_matrices", "weighted_system",
                      "design_in", "design_out", "ratios"})


def _validate_values(params: dict, spec: ExperimentKind, kind: str):
    """Refuse a value that is not of its key's declared type, before anything runs."""
    for key, value in params.items():
        accepts, what = VALUE_KINDS[spec.params[key]]
        if not (accepts(value) or (value is None and key in NULLABLE)):
            raise ConfigError(f"{kind}: {key} must be {what}, got {value!r}")


def run_experiment(
    kind: str,
    params: dict,
    out_dir,
    write_series: bool = False,
    sources: dict[str, str] | None = None,
) -> RunArtifact:
    """Execute one experiment and write its report (and optional series).

    ``sources`` maps a parameter key to how a refusal names where its value
    came from, as ``main`` gives a --config entry; any other key is named by
    its flag.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    spec = KINDS[kind]
    _validate_keys(params, spec.params, kind)
    _validate_values(params, spec, kind)
    missing = spec.required.difference(params)
    if missing:
        raise ConfigError(f"{kind}: missing required keys {sorted(missing)}")
    out_dir = Path(out_dir)
    started = time.perf_counter()
    results, checks, series = spec.runner(params, out_dir, sources or {})
    wall = time.perf_counter() - started
    _make_dir(out_dir)
    all_passed = all(c["passed"] for c in checks.values())
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "sltosim",
        "tool_version": __version__,
        "kind": kind,
        "config": params,
        "results": results,
        "checks": checks,
        "all_checks_passed": all_passed,
        "wall_clock_seconds": wall,
    }
    report_path = out_dir / "report.json"
    # np.float64 subclasses float; other numpy scalars and arrays go through tolist()
    _write_new(report_path, (json.dumps(report, indent=2, sort_keys=True,
                                        default=lambda o: o.tolist()), "\n"))
    series_path = None
    if write_series and series is not None:
        series_path = out_dir / "series.csv"
        lines = spec.series_lines(series, spec.series_header.count(",") + 1)
        _write_new(series_path, itertools.chain((spec.series_header + "\n",), lines))
    return RunArtifact(
        report_path=str(report_path),
        series_path=str(series_path) if series_path else None,
        tool_version=__version__,
        all_checks_passed=all_passed,
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with experiment parameters")
    p.add_argument("--out", default="out", help="output directory (default: out)")
    p.add_argument("--json-report", action="store_true", help="echo the report to stdout")
    p.add_argument("--series", action="store_true", help="also write series.csv")
    p.add_argument("--no-color", action="store_true", help="disable colored check output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sltosim",
        description="One-step quantum heat-engine cycles: simulate and verify.",
    )
    parser.add_argument("--version", action="version", version=f"sltosim {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, spec in KINDS.items():
        p = sub.add_parser(kind, help=spec.help)
        for key, parse in spec.params.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=parse,
                           help=PARAM_HELP.get(key))
        _add_common(p)
    return parser


def _merge_params(args: argparse.Namespace) -> tuple[dict, dict]:
    """The run's parameters, from the --config file and then the flags, and
    the sources of ``run_experiment``: the config file and key of each value
    that came from it."""
    allowed = KINDS[args.kind].params
    params, sources = {}, {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from err
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        kind = loaded.pop("kind", None)
        if kind is not None and kind != args.kind:
            raise ConfigError(f"config kind {kind!r} does not match subcommand {args.kind!r}")
        _validate_keys(loaded, allowed, args.config)
        params.update(loaded)
        sources = {key: f"{args.config}: {key}" for key in loaded}
    for key in allowed:
        value = getattr(args, key)
        if value is not None:
            params[key] = value
            sources.pop(key, None)
    return params, sources


def _use_color(no_color_flag: bool) -> bool:
    return not no_color_flag and not os.environ.get("NO_COLOR") and sys.stdout.isatty()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params, sources = _merge_params(args)
        artifact = run_experiment(args.kind, params, args.out, write_series=args.series,
                                  sources=sources)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InvariantError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3

    report = json.loads(Path(artifact.report_path).read_text())
    color = _use_color(args.no_color)
    for name, check in sorted(report["checks"].items()):
        tag = "PASS" if check["passed"] else "FAIL"
        if color:
            tag = f"\033[32m{tag}\033[0m" if check["passed"] else f"\033[31m{tag}\033[0m"
        print(f"[{tag}] {name}: value={check['value']!r} threshold={check['threshold']!r}")
    print(f"report: {artifact.report_path}")
    if artifact.series_path:
        print(f"series: {artifact.series_path}")
    if args.json_report:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if artifact.all_checks_passed else 1


if __name__ == "__main__":
    sys.exit(main())
