"""Command-line experiment runner.

Subcommands map one-to-one onto the experiment kinds:

* ``abstract-cycle``  two-ladder engine cycle with all conservation checks
* ``optics-cycle``    cavity-QED effective cycle plus the final-state formula
* ``delta-sweep``     full-vs-effective model comparison over detunings
* ``design``          Monte Carlo fit of cavity intensity profiles
* ``verify-slto``     check an externally supplied unitary against the
                      conservation laws, the thermal fixed point and
                      unitarity, factor by factor (no embedded d x d
                      Hamiltonian; two d^3 products)

Each kind is declared once, as an ``ExperimentKind`` entry in ``KINDS``:
its runner, help line, series header and parameters.  The subcommand's
flags (``--`` plus the key with dashes), the keys a ``--config`` file or
a ``run_experiment`` caller may pass, and the ``series.csv`` header all
come from that entry.  Only ``design`` is random, so only it takes
``--seed``.

Every run writes ``report.json`` into the output directory (also on
physics failure, with the failing checks flagged); ``--series`` adds a
CSV time series, ``--json-report`` echoes the report to stdout.  A run
that stops on an error writes nothing.  Exit codes: 0 all checks pass,
1 a physics check failed, 2 bad usage or config, 3 I/O failure, 4 an
internal invariant failed (a bug, not bad input).

Matrix files are plain text: the first line holds the matrix dimension
followed optionally by the tensor-factor dimensions; each following
line is one row of complex entries like ``0.5-0.25j`` (lower-case ``j``),
all parsed by one ``np.loadtxt`` call.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .designer import (
    AnnealSchedule,
    DesignTargets,
    PotentialAnsatz,
    design_cost,
    fock_matrix_elements,
    mc_optimize,
)
from .engine import (
    CompactEngineConfig,
    CycleReport,
    InvariantError,
    evolution_operator,
    evolve_cycle,
)
from .linalg import Operator, ShapeError, max_abs
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
from .thermal import gibbs_density
# unused here; bench/tracing.py patches it by name
from .thermal import truncation_for_tail

SCHEMA_VERSION = 1

PASS_THRESHOLDS = {
    "carnot_efficiency": 1e-9,
    "cycle_duration": 1e-10,
    "max_power": 1e-10,
    "clausius": 1e-9,
    "commutator_energy": 1e-10,
    "commutator_weighted": 1e-10,
    "amplitudes": 1e-10,
    "final_state_formula": 1e-6,
    "verify_slto": 1e-9,
}


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# matrix file interchange
# ---------------------------------------------------------------------------

def write_matrix_file(path, entries: np.ndarray, layout: tuple[int, ...] | None = None):
    entries = np.ascontiguousarray(entries, dtype=np.complex128)
    dim = entries.shape[0]
    # one format per row over its interleaved (real, imag) Python floats
    row_format = " ".join(["%.17g%+.17gj"] * dim) + "\n"
    with open(path, "w") as fh:
        fh.write(" ".join(str(d) for d in (dim, *(layout or ()))) + "\n")
        fh.writelines(row_format % tuple(row.tolist()) for row in entries.view(np.float64))


def _row_problem(rows: list[str], dim: int) -> str:
    """The first row of a matrix file that is ragged or does not parse."""
    for i, line in enumerate(rows):
        count = len(line.split())
        if count != dim:
            return f"row {i} has {count} entries"
        try:
            np.loadtxt([line], dtype=np.complex128, comments=None)
        except ValueError:
            return f"unparsable entry in row {i}"
    return f"rows do not form a {dim}x{dim} matrix"


def read_matrix_file(path) -> tuple[np.ndarray, tuple[int, ...] | None]:
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ConfigError(f"{path}: empty matrix file")
    header = text[0].split()
    try:
        dims = [int(tok) for tok in header]
    except ValueError as err:
        raise ConfigError(f"{path}: bad header {text[0]!r}") from err
    if min(dims) < 1:  # the dimension and every layout factor
        raise ConfigError(f"{path}: bad header {text[0]!r}")
    dim, layout = dims[0], tuple(dims[1:]) or None
    if len(text) != dim + 1:
        raise ConfigError(f"{path}: expected {dim} rows, found {len(text) - 1}")
    rows = text[1:]
    try:
        entries = np.loadtxt(rows, dtype=np.complex128, ndmin=2, comments=None)
    except ValueError:
        entries = None
    if entries is None or entries.shape != (dim, dim):  # loadtxt skips blank rows
        raise ConfigError(f"{path}: {_row_problem(rows, dim)}")
    if layout is not None and int(np.prod(layout)) != dim:
        raise ConfigError(f"{path}: layout {layout} does not multiply to {dim}")
    bad_rows = np.flatnonzero(~np.isfinite(entries).all(axis=1))
    if bad_rows.size:
        raise ConfigError(f"{path}: non-finite entry in row {bad_rows[0]}")
    return entries, layout


# ---------------------------------------------------------------------------
# semi-local thermal operation verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SltoCheckReport:
    residual_energy: float
    residual_weighted: float
    off_block_max: float
    fixed_point_residual: float
    unitarity_residual: float
    threshold: float = PASS_THRESHOLDS["verify_slto"]

    @property
    def passed(self) -> bool:
        return (
            self.residual_energy <= self.threshold
            and self.residual_weighted <= self.threshold
            and self.off_block_max <= self.threshold
            and self.fixed_point_residual <= self.threshold
            and self.unitarity_residual <= self.threshold
        )


def _apply_factor(m: np.ndarray, a: np.ndarray, dims: tuple[int, ...], k: int) -> np.ndarray:
    """(I x .. x a x .. x I) @ m, with ``a`` on tensor factor ``k`` of m's rows.

    The row index of ``m`` splits into ``dims``; the factors before ``k``
    become a leading batch of one matmul, so the cost is d^2 * dims[k].
    """
    lead = math.prod(dims[:k])
    return np.matmul(a, m.reshape(lead, dims[k], -1)).reshape(m.shape)


def verify_slto(
    u: Operator,
    h_bath1: Operator,
    h_bath2: Operator,
    h_system: Operator,
    beta1: float,
    beta2: float,
    w_system: Operator | None = None,
) -> SltoCheckReport:
    """Check the defining properties of a semi-local thermal operation.

    Residuals reported: commutator with the total energy, commutator with
    the weighted energy beta1 H_B1 + beta2 H_B2 (+ an optional weighted
    system term), the largest Frobenius norm of a block of U between two
    different total-energy eigenspaces, the invariance defect of the
    semi-Gibbs product state gibbs(beta1) x gibbs(beta2) x exp(-W_S)/Z,
    and the unitarity defect max |U^dag U - I|.

    Every energy operator is a Kronecker sum of the (bath1, bath2, system)
    factors, so it is applied factor by factor to the rows of U (A U) or
    of U^T (U A = (A^T U^T)^T) and never embedded: O(d^2 (d1 + d2 + ds))
    work plus two d^3 products, U gamma U^dag and U^dag U.  The
    commutators are measured in the input basis, the off-block mass in
    the product basis of the factor eigenvectors.
    """
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if not math.isfinite(beta):
            raise ConfigError(f"{name} must be finite, got {beta}")
    d1, d2, ds = dims = (h_bath1.dim, h_bath2.dim, h_system.dim)
    if d1 * d2 * ds != u.dim:
        raise ShapeError(
            f"factors {dims} do not multiply to the unitary dim {u.dim}"
        )
    if w_system is not None and w_system.dim != ds:
        raise ShapeError(f"weighted system term has dim {w_system.dim}, system has {ds}")
    factors = (h_bath1.entries, h_bath2.entries, h_system.entries)
    u_t = np.ascontiguousarray(u.entries.T)

    # [U, A]^T = (U A)^T - (A U)^T for every factor term A; each energy
    # commutator is a weighted sum of these
    terms = [(a, k) for k, a in enumerate(factors)]
    if w_system is not None:
        terms.append((w_system.entries, 2))
    brackets = [
        _apply_factor(u_t, a.T, dims, k) - _apply_factor(u.entries, a, dims, k).T
        for a, k in terms
    ]
    residual_energy = max_abs(brackets[0] + brackets[1] + brackets[2])
    weighted = beta1 * brackets[0] + beta2 * brackets[1]
    if w_system is not None:
        weighted += brackets[3]
    residual_weighted = max_abs(weighted)
    del brackets, weighted  # free them before the two d^3 products below

    # off-block mass of U between different total-energy eigenspaces, read
    # in the product basis V = V1 x V2 x VS of the factor eigenvectors
    spectra = [np.linalg.eigh(a) for a in factors]
    m = u.entries
    for k, (_, v) in enumerate(spectra):
        m = _apply_factor(m, v.conj().T, dims, k)
    m = np.ascontiguousarray(m.T)
    for k, (_, v) in enumerate(spectra):
        m = _apply_factor(m, v.T, dims, k)  # (V^dag U V)^T
    e1, e2, es = (e for e, _ in spectra)
    eigvals = (e1[:, None, None] + e2[None, :, None] + es[None, None, :]).ravel()
    # eigenspaces: runs of sorted eigenvalues whose neighbours differ by <= 1e-8.
    # A block's Frobenius norm does not depend on the basis chosen inside a
    # degenerate eigenspace; the transpose only swaps which block is which.
    order = np.argsort(eigvals, kind="stable")
    starts = np.flatnonzero(np.diff(eigvals[order], prepend=-np.inf) > 1e-8)
    blocks = np.add.reduceat((m.real**2 + m.imag**2)[np.ix_(order, order)], starts, axis=0)
    blocks = np.add.reduceat(blocks, starts, axis=1)
    np.fill_diagonal(blocks, 0.0)
    off_block = math.sqrt(blocks.max())

    if w_system is None:
        sigma_s = np.eye(ds, dtype=np.complex128) / ds
    else:
        sigma_s = gibbs_density(w_system, 1.0).entries
    gammas = (gibbs_density(h_bath1, beta1).entries,
              gibbs_density(h_bath2, beta2).entries, sigma_s)
    u_gamma_t = u_t
    for k, g in enumerate(gammas):
        u_gamma_t = _apply_factor(u_gamma_t, g.T, dims, k)
    u_dag = u.entries.conj().T
    moved = (u_gamma_t.T @ u_dag).reshape(d1 * d2, ds, d1 * d2, ds)
    # gamma = (g1 x g2) x sigma_s, indexed (baths, system, baths, system)
    moved -= np.kron(gammas[0], gammas[1])[:, None, :, None] * sigma_s[None, :, None, :]
    fixed_point = max_abs(moved)

    gram = u_dag @ u.entries
    gram.flat[:: u.dim + 1] -= 1.0
    unitarity = max_abs(gram)

    return SltoCheckReport(
        residual_energy=residual_energy,
        residual_weighted=residual_weighted,
        off_block_max=off_block,
        fixed_point_residual=fixed_point,
        unitarity_residual=unitarity,
    )


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
        "entanglement_max": float(np.max(report.entanglement_trace)),
        "speed_mean": float(np.mean(report.speed_trace)),
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
    pops = report.population_trace
    return np.column_stack([
        report.times, pops[:, 0], pops[:, 1], np.zeros(len(report.times)),
        report.entanglement_trace,
        report.bath1_energy_trace, report.bath2_energy_trace,
        report.residual_energy_trace, report.residual_weighted_trace,
    ]).tolist()


SERIES_HEADER = "t,pop1,pop2,pop3,S_ent,E_B1,E_B2,resid_energy,resid_weighted"


def run_abstract_cycle(params: dict, out_dir: Path) -> tuple[dict, dict, list | None]:
    if params["beta1"] >= params["beta2"]:
        raise ConfigError("abstract-cycle needs beta1 < beta2")
    cfg = CompactEngineConfig(
        beta1=params["beta1"], beta2=params["beta2"], omega1=params["omega1"], g=params["g"],
        n_max1=params.get("n_max1"), n_max2=params.get("n_max2"), a0=params.get("a0", 0.0),
        tail_delta=params.get("tail_delta", 1e-6),
    )
    report = evolve_cycle(cfg)
    if params.get("export_matrices"):
        u_tau = evolution_operator(cfg, cfg.tau).entries  # checks the dense cap first
        target = Path(params["export_matrices"])
        target.mkdir(parents=True, exist_ok=True)
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


def run_optics_cycle_cmd(params: dict, out_dir: Path) -> tuple[dict, dict, list | None]:
    cfg = OpticsEngineConfig(
        beta1=params["beta1"],
        beta2=params["beta2"],
        omega1=params["omega1"],
        g1=params.get("g1", 2.0),
        g2=params.get("g2", 2.0),
        delta=params.get("detuning", 80.0),
        n_max1=params.get("n_max1"),
        n_max2=params.get("n_max2"),
        min_detuning_ratio=params.get("min_ratio", 20.0),
        tail_delta=params.get("tail_delta", 1e-6),
    )
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
        float(np.max(np.abs(corrected - expected))), PASS_THRESHOLDS["final_state_formula"]
    )
    results["config_used"] = {
        "beta1": cfg.beta1, "beta2": cfg.beta2, "omega1": cfg.omega1, "omega2": cfg.omega2,
        "omega0": cfg.omega0, "g1": cfg.g1, "g2": cfg.g2,
        "delta": cfg.delta, "n_max1": cfg.n_max1, "n_max2": cfg.n_max2,
    }
    return results, checks, _cycle_series(report)


def _slope_band(slope: float | None, low: float, high: float) -> dict:
    """A slope band check; a series without a slope (None) fails it."""
    return {"value": slope, "threshold": [low, high],
            "passed": slope is not None and low <= slope <= high}


def run_delta_sweep(params: dict, out_dir: Path) -> tuple[dict, dict, list | None]:
    ratios = params.get("ratios") or [20.0, 40.0, 80.0, 160.0]
    g1 = params.get("g1", 0.5)
    g2 = params.get("g2", 0.5)
    cfg = OpticsEngineConfig(
        beta1=params.get("beta1", 0.5),
        beta2=params.get("beta2", 1.0),
        omega1=params.get("omega1", 2.0),
        g1=g1,
        g2=g2,
        delta=min(ratios) * max(g1, g2),
        n_max1=params.get("n_max1", 4),
        n_max2=params.get("n_max2", 4),
        min_detuning_ratio=5.0,
    )
    block = tuple(params.get("block", (3, 1)))
    deltas = [r * max(g1, g2) for r in ratios]
    points = adiabatic_elimination_error(
        cfg, uniform_exchange_profile(cfg), deltas, initial_block=block
    )
    dev_slope, leak_slope = sweep_slopes(points)
    devs = [p.population_deviation for p in points]
    monotone = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    # the sample cap can leave the fastest oscillation under-resolved
    density = min(p.samples_per_period for p in points)
    results = {
        "points": [dataclasses.asdict(p) for p in points],
        "deviation_slope": dev_slope,
        "leak_slope": leak_slope,
        "monotone_decreasing": monotone,
        "initial_block": list(block),
        "config_used": {"g1": g1, "g2": g2, "ratios": list(ratios)},
    }
    checks = {
        "deviation_monotone": {"value": float(not monotone), "threshold": 0.5,
                               "passed": monotone},
        "deviation_slope_band": _slope_band(dev_slope, -1.4, -0.6),
        "leak_slope_band": _slope_band(leak_slope, -2.5, -1.5),
        "sampling_density": {"value": density, "threshold": SAMPLES_PER_PERIOD,
                             "passed": density >= SAMPLES_PER_PERIOD},
    }
    series = [[p.delta, p.ratio, p.population_deviation, p.leak_max] for p in points]
    return results, checks, series


def _design_entry(spec: dict, section: str, key: str, path):
    """spec[section][key] of a design file; a missing entry is a ConfigError."""
    try:
        return spec[section][key]
    except (KeyError, TypeError) as err:
        raise ConfigError(f"{path}: design file lacks {section}.{key}") from err


def run_design(params: dict, out_dir: Path) -> tuple[dict, dict, list | None]:
    q = params.get("q", 4.0)
    if params.get("design_in"):
        path = params["design_in"]
        spec = json.loads(Path(path).read_text())
        _validate_keys(
            spec, {"ansatz", "targets", "schedule", "result", "schema_version"},
            "design file",
        )
        ansatz0 = PotentialAnsatz(
            np.array(_design_entry(spec, "ansatz", "v_coeffs", path)),
            np.array(_design_entry(spec, "ansatz", "b_coeffs", path)),
        )
        targets = DesignTargets(
            np.array(_design_entry(spec, "targets", "f", path)),
            np.array(_design_entry(spec, "targets", "theta", path)),
            q=spec["targets"].get("q", q), n_work=spec["targets"].get("n_work", 0),
        )
        if params.get("n_fit", targets.n_fit) != targets.n_fit:
            raise ConfigError(
                f"n_fit {params['n_fit']} disagrees with the {targets.n_fit} target "
                f"entries in {path}"
            )
        sched_in = spec.get("schedule", {})
    else:
        amplitude = params.get("amplitude", 0.0125)
        targets = DesignTargets.inverse_intensity(amplitude, params.get("n_fit", 6), q=q)
        ansatz0 = PotentialAnsatz.zeros()
        sched_in = {}
    schedule = AnnealSchedule(
        iterations=int(params.get("iterations", sched_in.get("iterations", 20000))),
        proposal_scale=float(params.get("proposal_scale", sched_in.get("proposal_scale", 0.2))),
        mc_temperature=float(params.get("temperature", sched_in.get("mc_temperature", 0.0))),
        seed=int(params.get("seed", sched_in.get("seed", 0))),
    )
    best, trace = mc_optimize(ansatz0, targets, schedule)
    best_cost = design_cost(best, targets)
    f_act, theta_act = fock_matrix_elements(best, targets.n_work)
    fit = slice(1, targets.n_fit + 1)
    results = {
        "initial_cost": float(trace[0]),
        "best_cost": float(best_cost),
        "iterations": schedule.iterations,
        "seed": schedule.seed,
        "v_coeffs": [float(c) for c in best.v_coeffs],
        "b_coeffs": [float(c) for c in best.b_coeffs],
        "f_achieved": [float(v) for v in f_act[fit]],
        "theta_achieved": [float(v) for v in theta_act[fit]],
        "f_target": [float(v) for v in targets.f_target],
        "theta_target": [float(v) for v in targets.theta_target],
    }
    running_min = np.minimum.accumulate(trace)
    checks = {
        "trace_running_min_nonincreasing": {
            "value": float(np.max(np.diff(running_min))), "threshold": 0.0,
            "passed": bool(np.all(np.diff(running_min) <= 0.0)),
        },
        "cost_not_increased": {
            "value": float(best_cost - trace[0]), "threshold": 0.0,
            "passed": bool(best_cost <= trace[0]),
        },
    }
    design_out = {
        "schema_version": SCHEMA_VERSION,
        "ansatz": {
            "v_degrees": [int(d) for d in best.v_degrees],
            "v_coeffs": results["v_coeffs"],
            "b_degrees": [int(d) for d in best.b_degrees],
            "b_coeffs": results["b_coeffs"],
        },
        "targets": {
            "f": results["f_target"], "theta": results["theta_target"],
            "q": targets.q, "n_work": targets.n_work,
        },
        "schedule": dataclasses.asdict(schedule),
        "result": {
            "initial_cost": results["initial_cost"], "best_cost": results["best_cost"],
            "f_achieved": results["f_achieved"], "theta_achieved": results["theta_achieved"],
        },
    }
    out_path = Path(params.get("design_out") or out_dir / "design.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(design_out, indent=2, sort_keys=True) + "\n")
    results["design_path"] = str(out_path)
    series = [[i, float(c)] for i, c in enumerate(trace)]
    return results, checks, series


def run_verify_slto(params: dict, out_dir: Path) -> tuple[dict, dict, list | None]:
    u_entries, layout = read_matrix_file(params["unitary"])
    h1, _ = read_matrix_file(params["bath1"])
    h2, _ = read_matrix_file(params["bath2"])
    hs, _ = read_matrix_file(params["system"])
    if layout is not None:
        if (h1.shape[0], h2.shape[0], hs.shape[0]) != tuple(layout):
            raise ConfigError(
                f"factor files {(h1.shape[0], h2.shape[0], hs.shape[0])} disagree "
                f"with the unitary layout {layout}"
            )
    w_system = None
    if params.get("weighted_system"):
        ws, _ = read_matrix_file(params["weighted_system"])
        if ws.shape[0] != hs.shape[0]:
            raise ConfigError(
                f"{params['weighted_system']}: weighted system term has dim {ws.shape[0]}, "
                f"the system Hamiltonian {params['system']} has dim {hs.shape[0]}"
            )
        w_system = Operator(ws, hermitian_hint=True)
    check = verify_slto(
        Operator(u_entries),
        Operator(h1, hermitian_hint=True),
        Operator(h2, hermitian_hint=True),
        Operator(hs, hermitian_hint=True),
        params["beta1"],
        params["beta2"],
        w_system=w_system,
    )
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


@dataclass(frozen=True)
class ExperimentKind:
    """Everything the CLI knows about one experiment kind.

    ``params`` maps each accepted parameter key to the argparse type of
    its flag ``--key-with-dashes``; ``required`` names the keys every run
    must end up with, from flags, a ``--config`` file or the API caller.
    ``series_header`` is the first line of ``series.csv`` (``None`` when
    the kind writes no series).
    """

    runner: Callable[[dict, Path], tuple[dict, dict, list | None]]
    help: str
    series_header: str | None
    params: dict[str, Callable[[str], object]]
    required: frozenset[str] = frozenset()


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
         "detuning": float, "n_max1": int, "n_max2": int, "tail_delta": float,
         "min_ratio": float},
        required=frozenset({"beta1", "beta2", "omega1"}),
    ),
    "delta-sweep": ExperimentKind(
        run_delta_sweep, "full vs effective model over detunings",
        "delta,ratio,population_deviation,leak_max",
        {"beta1": float, "beta2": float, "omega1": float, "g1": float, "g2": float,
         "ratios": _float_list, "n_max1": int, "n_max2": int, "block": _int_list},
    ),
    "design": ExperimentKind(
        run_design, "fit cavity intensity profiles", "iteration,cost",
        {"iterations": int, "proposal_scale": float, "temperature": float, "seed": int,
         "n_fit": int, "q": float, "amplitude": float, "design_in": str, "design_out": str},
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


def run_experiment(
    kind: str,
    params: dict,
    out_dir,
    write_series: bool = False,
) -> RunArtifact:
    """Execute one experiment and write its report (and optional series)."""
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    spec = KINDS[kind]
    _validate_keys(params, spec.params, kind)
    missing = spec.required.difference(params)
    if missing:
        raise ConfigError(f"{kind}: missing required keys {sorted(missing)}")
    out_dir = Path(out_dir)
    started = time.perf_counter()
    results, checks, series = spec.runner(params, out_dir)
    wall = time.perf_counter() - started
    out_dir.mkdir(parents=True, exist_ok=True)
    all_passed = all(c["passed"] for c in checks.values())
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "sltosim",
        "tool_version": __version__,
        "kind": kind,
        "config": _jsonable(params),
        "results": _jsonable(results),
        "checks": _jsonable(checks),
        "all_checks_passed": all_passed,
        "wall_clock_seconds": wall,
    }
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    series_path = None
    if write_series and series is not None:
        series_path = out_dir / "series.csv"
        # %.17g writes an int (the design iteration) as str() does
        row_format = ",".join(["%.17g"] * (spec.series_header.count(",") + 1)) + "\n"
        with open(series_path, "w") as fh:
            fh.write(spec.series_header + "\n")
            fh.write("".join([row_format % tuple(row) for row in series]))
    return RunArtifact(
        report_path=str(report_path),
        series_path=str(series_path) if series_path else None,
        tool_version=__version__,
        all_checks_passed=all_passed,
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


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


def _merge_params(args: argparse.Namespace) -> dict:
    allowed = KINDS[args.kind].params
    params = {}
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
    for key in allowed:
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    return params


def _use_color(no_color_flag: bool) -> bool:
    return not no_color_flag and not os.environ.get("NO_COLOR") and sys.stdout.isatty()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = _merge_params(args)
        artifact = run_experiment(args.kind, params, args.out, write_series=args.series)
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
