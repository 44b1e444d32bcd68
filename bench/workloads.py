"""Seeded inputs and independent output checks for the benchmark workloads.

A workload is a list of rounds and a round is a list of ops.  The timed
phase replays all rounds in order, pass after pass, so every input runs
the same number of times.  The parameters that drive cost sit on fixed
grids that every seed shares: the cycle cutoffs, the sweep cutoffs and
largest ratios (with a small seeded jitter), the design fit sizes and
iteration count, and the SLTO matrix cutoffs and perturbed share.  The seed
draws the physics (temperatures, frequencies, couplings, probe sectors, MC
seeds, perturbations), so two seeds give inputs of nearly equal cost, and
the run-to-run spread comes from the program and the machine rather than
from the draw.

The checks recompute the headline numbers from the op's own inputs and
never take the report's word for them; the report's own PASS/FAIL verdicts
are counted separately and are not part of the benchmark's verdict.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: distinct rounds per workload, chosen so that one pass over all of them
#: takes at most about 0.8 s and a 25-s run replays every input 30 times or
#: more.  The ops are kept short (5-150 ms) for the same reason: the
#: benchmark takes each input's fastest run, and a short op more often runs
#: whole inside one of the host's fast spells.
ROUNDS = {"cycle-grid": 2, "detuning-sweep": 1, "design-fit": 1, "slto-verify": 1}

#: tail mass the program uses to derive cutoffs when none is given
TAIL_DELTA = 1e-6

#: the ladder couplings held fixed by the detuning sweep (g1 = g2)
SWEEP_G = 0.5

#: probe sectors (n, m) of the detuning sweep; all fit cutoff 4 and avoid the
#: regularized vacuum transition (n >= 2, m >= 1)
BALANCED_SECTORS = ((2, 1), (3, 2), (4, 3))  # n = m + 1: second-order decay
GENERIC_SECTORS = ((3, 1), (4, 2), (4, 1))  # keep the level-shift residual

#: (cutoff, largest ratio, probe kind) of the sweeps in every round.  The
#: sample count grows with the square of the ratio and the propagation cost
#: with the square of the dimension, so the larger cutoffs get the smaller
#: ratios and the ops cost within a factor of about two of each other, at
#: 4e3 to 8e3 time samples for the largest ratio.  An odd number of cells
#: puts the median op inside one cell's cluster of times.
SWEEP_CELLS = (
    (4, 60.0, "balanced"), (4, 50.0, "generic"),
    (5, 55.0, "generic"), (5, 45.0, "balanced"),
    (6, 45.0, "balanced"),
)

#: factor between the ratios of one sweep: top / s^2, top / s, top
SWEEP_SPACING = 1.5

#: cycle cutoffs: 8 values per round spread evenly over 4..40.  Op i of
#: round r takes value R i + r (R rounds) for n_max1, and the fixed
#: permutations below for n_max2 and the optics cutoff, so every round spans
#: the range and pairs small with large cutoffs (dimension 50 to 3362) the
#: same way for every seed.
CYCLE_N2_SLOT = (2, 5, 0, 3, 6, 1, 4, 7)
CYCLE_OPTICS_SLOT = (3, 0, 5, 2, 7, 4, 1, 6)
_CYCLE_VALUES = len(CYCLE_N2_SLOT) * ROUNDS["cycle-grid"]
CYCLE_CUTOFFS = tuple(4 + round(36 * k / (_CYCLE_VALUES - 1)) for k in range(_CYCLE_VALUES))

#: Monte Carlo iterations of every design fit
DESIGN_ITERATIONS = 500

#: Fock cutoffs (n_max1 = n_max2) of the exported SLTO matrix sets, dimension
#: 162, 242 and 288; an odd number puts the median op inside the middle set
SLTO_CUTOFFS = (8, 10, 11)


@dataclass(frozen=True)
class Op:
    """One experiment: what the program receives, its size, and what to check."""

    kind: str
    params: dict
    size: dict
    expect: dict


def log_between(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _temperatures(u_beta: float, u_eta: float) -> tuple[float, float]:
    beta2 = log_between(0.5, 2.0, u_beta)
    return beta2 * (1.0 - (0.1 + 0.8 * u_eta)), beta2


# ---------------------------------------------------------------------------
# input generators: each returns the rounds of one workload
# ---------------------------------------------------------------------------

def cycle_grid(rng: random.Random, work_dir: Path, cli) -> list[list[Op]]:
    """Short abstract- and optics-cycle experiments over the whole parameter box."""
    per_kind, rounds = len(CYCLE_N2_SLOT), ROUNDS["cycle-grid"]
    out = []
    for r in range(rounds):
        ops = []
        for i in range(per_kind):
            beta1, beta2 = _temperatures(rng.random(), rng.random())
            omega1 = log_between(0.5, 4.0, rng.random())
            g = log_between(0.01, 1.0, rng.random())
            n1 = CYCLE_CUTOFFS[rounds * i + r]
            n2 = CYCLE_CUTOFFS[rounds * CYCLE_N2_SLOT[i] + r]
            ops.append(Op(
                kind="abstract-cycle",
                params={"beta1": beta1, "beta2": beta2, "omega1": omega1, "g": g,
                        "n_max1": n1, "n_max2": n2},
                size={"n_max1": n1, "n_max2": n2, "dim": 2 * (n1 + 1) * (n2 + 1)},
                expect={"beta1": beta1, "beta2": beta2, "g": g,
                        "w": omega1 - beta1 * omega1 / beta2},
            ))
            # the program derives both cutoffs from beta*omega; aim them at 4..40
            beta1, beta2 = _temperatures(rng.random(), rng.random())
            cutoff = CYCLE_CUTOFFS[rounds * CYCLE_OPTICS_SLOT[i] + r]
            omega1 = -math.log(TAIL_DELTA) / (cutoff + 0.5) / beta1
            ratio = 25.0 + 55.0 * rng.random()
            leg = g * ratio  # g1 = g2 = leg at detuning ratio*leg gives g
            ops.append(Op(
                kind="optics-cycle",
                params={"beta1": beta1, "beta2": beta2, "omega1": omega1,
                        "g1": leg, "g2": leg, "detuning": ratio * leg},
                size={"n_max1": cutoff, "n_max2": cutoff,
                      "dim": 2 * (cutoff + 1) ** 2},
                expect={"beta1": beta1, "beta2": beta2, "g": leg * leg / (ratio * leg),
                        "w": omega1 - beta1 * omega1 / beta2},
            ))
        out.append(ops)
    return out


def detuning_sweep(rng: random.Random, work_dir: Path, cli) -> list[list[Op]]:
    """Full-versus-effective sweeps: 3 ratios in 20..60 per op, cutoffs 4..6."""
    out = []
    for _ in range(ROUNDS["detuning-sweep"]):
        ops = []
        for cutoff, top, kind in SWEEP_CELLS:
            # ratios top/s^2 (1 + s e), top/s (1 - e), top with 0 <= e <= 3.5%:
            # they stay at least 1.37x apart, so the deviation must fall
            # strictly, and their sum is fixed, so the jitter barely moves
            # the number of time samples
            s, e = SWEEP_SPACING, 0.035 * rng.random()
            ratios = [top / s**2 * (1 + s * e), top / s * (1 - e), top]
            block = rng.choice(BALANCED_SECTORS if kind == "balanced" else GENERIC_SECTORS)
            ops.append(Op(
                kind="delta-sweep",
                params={"ratios": ratios, "g1": SWEEP_G, "g2": SWEEP_G,
                        "n_max1": cutoff, "n_max2": cutoff, "block": list(block)},
                size={"n_max1": cutoff, "n_max2": cutoff, "full_dim": 3 * (cutoff + 1) ** 2,
                      "ratio_max": ratios[-1]},
                expect={"ratios": ratios},
            ))
        out.append(ops)
    return out


def design_fit(rng: random.Random, work_dir: Path, cli) -> list[list[Op]]:
    """Monte Carlo profile fits, n_fit 4..8, 500 iterations each."""
    amplitude = 0.0125
    iterations = DESIGN_ITERATIONS
    out = []
    for _ in range(ROUNDS["design-fit"]):
        ops = []
        for n_fit in range(4, 9):
            ops.append(Op(
                kind="design",
                params={"iterations": iterations, "n_fit": n_fit, "amplitude": amplitude,
                        "seed": rng.randrange(2**31)},
                size={"n_fit": n_fit, "iterations": iterations},
                expect={"n_fit": n_fit, "amplitude": amplitude, "q": 4.0},
            ))
        out.append(ops)
    return out


def slto_verify(rng: random.Random, work_dir: Path, cli) -> list[list[Op]]:
    """Export engine unitaries, perturb copies off-block, and verify both kinds.

    The export goes through the program's own ``abstract-cycle`` with
    ``export_matrices``; the perturbed copy rotates two basis states of
    different total energy into each other, which keeps it unitary but
    breaks energy conservation, so the verifier must reject it.
    """
    sets = []
    for cutoff in SLTO_CUTOFFS:
        beta1, beta2 = _temperatures(rng.random(), rng.random())
        omega1 = log_between(0.5, 3.0, rng.random())
        omega2 = beta1 * omega1 / beta2
        target = work_dir / f"slto-{cutoff}"
        cli.run_experiment(
            "abstract-cycle",
            {"beta1": beta1, "beta2": beta2, "omega1": omega1,
             "g": log_between(0.05, 1.0, rng.random()),
             "n_max1": cutoff, "n_max2": cutoff, "export_matrices": str(target)},
            target / "out",
        )
        u, layout = cli.read_matrix_file(target / "u_tau.txt")
        energy = np.array([n * omega1 + m * omega2 + s * (omega1 - omega2)
                           for n in range(cutoff + 1) for m in range(cutoff + 1)
                           for s in (0, 1)])
        while True:
            i, j = rng.sample(range(u.shape[0]), 2)
            if abs(energy[i] - energy[j]) > 1e-6:
                break
        angle = log_between(1e-6, 1e-2, rng.random())
        c, s = math.cos(angle), math.sin(angle)
        rotated = u.copy()
        rotated[i], rotated[j] = c * u[i] - s * u[j], s * u[i] + c * u[j]
        cli.write_matrix_file(target / "u_perturbed.txt", rotated, layout)
        sets.append((cutoff, target, beta1, beta2))

    # every round visits each set twice, once with the genuine and once with
    # the perturbed unitary, in a seeded order
    out = []
    for _ in range(ROUNDS["slto-verify"]):
        ops = []
        visits = [(entry, bad) for entry in sets for bad in (False, True)]
        rng.shuffle(visits)
        for (cutoff, target, beta1, beta2), bad in visits:
            ops.append(Op(
                kind="verify-slto",
                params={"unitary": str(target / ("u_perturbed.txt" if bad else "u_tau.txt")),
                        "bath1": str(target / "h_bath1.txt"),
                        "bath2": str(target / "h_bath2.txt"),
                        "system": str(target / "h_system.txt"),
                        "beta1": beta1, "beta2": beta2},
                size={"n_max1": cutoff, "n_max2": cutoff, "dim": 2 * (cutoff + 1) ** 2},
                expect={"passes": not bad},
            ))
        out.append(ops)
    return out


WORKLOADS = {
    "cycle-grid": cycle_grid,
    "detuning-sweep": detuning_sweep,
    "design-fit": design_fit,
    "slto-verify": slto_verify,
}


def make_rounds(workload: str, seed: int, work_dir: Path, cli) -> list[list[Op]]:
    """The seeded rounds of one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    work_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](rng, work_dir, cli)


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------

def _close(value, expected: float, tol: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - expected) <= tol


def _check_cycle(op: Op, results: dict) -> list[str]:
    e = op.expect
    eta = 1.0 - e["beta1"] / e["beta2"]
    power = 2.0 * e["g"] * e["w"] / math.pi
    problems = []
    if not _close(results["eta"], eta, 1e-9):
        problems.append(f"eta {results['eta']!r} differs from 1 - beta1/beta2 = {eta!r}")
    if not _close(results["power"], power, 1e-10):
        problems.append(f"power {results['power']!r} differs from 2gW/pi = {power!r}")
    return problems


def fit_slope(x: list[float], y: list[float]) -> float:
    """Least-squares slope of y against x."""
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return (sum((a - mx) * (b - my) for a, b in zip(x, y))
            / sum((a - mx) ** 2 for a in x))


def _check_sweep(op: Op, results: dict) -> list[str]:
    points = results["points"]
    ratios = [p["ratio"] for p in points]
    if len(points) != len(op.expect["ratios"]) or not all(
        _close(r, want, 1e-9 * want) for r, want in zip(ratios, op.expect["ratios"])
    ):
        return [f"sweep ratios {ratios} differ from the requested {op.expect['ratios']}"]
    problems = []
    for key in ("population_deviation", "leak_max"):
        values = [p[key] for p in points]
        if not all(isinstance(v, float) and 0.0 < v < 1.0 for v in values):
            problems.append(f"{key} {values} not all finite and inside (0, 1)")
        elif not all(a > b for a, b in zip(values, values[1:])):
            problems.append(f"{key} {values} does not decrease strictly in the ratio")
    if problems:
        return problems
    slope = fit_slope([math.log(p["delta"]) for p in points],
                      [math.log(p["leak_max"]) for p in points])
    if not -2.5 <= slope <= -1.5:
        problems.append(f"leak slope {slope:.4f} outside [-2.5, -1.5]")
    return problems


def fock_tables(v_coeffs, b_coeffs, n_fit: int) -> tuple[np.ndarray, np.ndarray]:
    """f(n) = <n|V(X)|n> and theta(n) = <n|b(X)|n+1>/sqrt(n+1) for n = 1..n_fit.

    V is even (slot i holds the y^(2i+2) coefficient) and b odd (slot i
    holds y^(2i+1)).  The workspace is large enough that no reported
    element touches its edge, so every entry is exact.
    """
    degree = max(2 * len(v_coeffs), 2 * len(b_coeffs) - 1)
    dim = n_fit + degree + 3
    x = np.diag(np.sqrt(np.arange(1, dim) / 2.0), 1)
    x = x + x.T
    v = sum(c * np.linalg.matrix_power(x, 2 * i + 2) for i, c in enumerate(v_coeffs))
    b = sum(c * np.linalg.matrix_power(x, 2 * i + 1) for i, c in enumerate(b_coeffs))
    n = np.arange(1, n_fit + 1)
    return np.diag(v)[n], b[n, n + 1] / np.sqrt(n + 1)


def _check_design(op: Op, results: dict) -> list[str]:
    e = op.expect
    n = np.arange(1, e["n_fit"] + 1, dtype=float)
    f_target, theta_target = e["amplitude"] / n, 1.0 / np.sqrt(n)

    def cost(f, theta):
        return (math.sqrt(float(np.sum((f - f_target) ** 2)))
                + float(np.sum(np.abs(theta - theta_target) ** e["q"])) ** (1.0 / e["q"]))

    f, theta = fock_tables(results["v_coeffs"], results["b_coeffs"], e["n_fit"])
    best = cost(f, theta)
    initial = cost(np.zeros_like(n), np.zeros_like(n))
    problems = []
    if not _close(results["best_cost"], best, 1e-9 * max(1.0, best)):
        problems.append(f"best_cost {results['best_cost']!r} but the coefficients cost {best!r}")
    if not _close(results["initial_cost"], initial, 1e-9 * max(1.0, initial)):
        problems.append(f"initial_cost {results['initial_cost']!r}, expected {initial!r}")
    if not results["best_cost"] <= results["initial_cost"]:
        problems.append("best_cost exceeds initial_cost")
    return problems


def _check_slto(op: Op, results: dict) -> list[str]:
    want = op.expect["passes"]
    if results["passed"] is not want:
        return [f"verify-slto passed={results['passed']!r} on a "
                f"{'genuine' if want else 'perturbed'} unitary"]
    return []


CHECKS = {
    "abstract-cycle": _check_cycle,
    "optics-cycle": _check_cycle,
    "delta-sweep": _check_sweep,
    "design": _check_design,
    "verify-slto": _check_slto,
}


def check(op: Op, report: dict) -> list[str]:
    """Problems with one op's report, judged against the op's own inputs."""
    if report.get("kind") != op.kind:
        return [f"report kind {report.get('kind')!r}, expected {op.kind!r}"]
    return CHECKS[op.kind](op, report["results"])


def report_failures(report: dict) -> int:
    """How many of the report's own checks printed FAIL."""
    return sum(not c["passed"] for c in report["checks"].values())
