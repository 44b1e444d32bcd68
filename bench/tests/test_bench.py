"""Tests of the benchmark itself: seeded inputs, output checks, span arithmetic.

Run from the repository root:  python -m pytest bench/tests -q
"""

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sltosim import cli  # noqa: E402


class ReportingCli:
    """Stands in for sltosim.cli: returns a fixed report for every op."""

    def __init__(self, report):
        self.report = report

    def run_experiment(self, kind, params, out_dir, write_series=False):
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "report.json"
        path.write_text(json.dumps(self.report))
        return SimpleNamespace(report_path=str(path), series_path=None)


def first_op(workload, work_dir):
    return workloads.make_rounds(workload, 7, work_dir, cli)[0][0]


def run_with(report, op, tmp_path):
    runner = run.Runner(ReportingCli(report), workloads, tmp_path / "out")
    runner.run(op)
    return runner.failed / runner.attempted


@pytest.mark.parametrize("workload", ["cycle-grid", "detuning-sweep", "design-fit"])
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a = workloads.make_rounds(workload, 11, tmp_path / "a", cli)
    b = workloads.make_rounds(workload, 11, tmp_path / "b", cli)
    c = workloads.make_rounds(workload, 12, tmp_path / "c", cli)
    assert a == b
    assert a != c


def test_same_seed_gives_identical_matrix_files(tmp_path):
    a = workloads.make_rounds("slto-verify", 3, tmp_path / "a", cli)
    b = workloads.make_rounds("slto-verify", 3, tmp_path / "b", cli)
    strip = [[(op.size, op.expect, Path(op.params["unitary"]).relative_to(tmp_path / "a"))
              for op in ops] for ops in a]
    assert strip == [[(op.size, op.expect, Path(op.params["unitary"]).relative_to(tmp_path / "b"))
                      for op in ops] for ops in b]
    for path in (tmp_path / "a").rglob("*.txt"):
        assert path.read_bytes() == (tmp_path / "b" / path.relative_to(tmp_path / "a")).read_bytes()


def test_inputs_stay_in_the_documented_ranges(tmp_path):
    for op in (op for ops in workloads.make_rounds("cycle-grid", 5, tmp_path, cli) for op in ops):
        assert 0.01 <= op.expect["g"] <= 1.0
        assert 4 <= op.size["n_max1"] <= 40 and 4 <= op.size["n_max2"] <= 40
        assert op.expect["beta1"] < op.expect["beta2"]
    for op in (op for ops in workloads.make_rounds("detuning-sweep", 5, tmp_path, cli)
               for op in ops):
        ratios = op.params["ratios"]
        assert 20 <= ratios[0] and ratios[-1] <= 160
        assert all(b > 1.15 * a for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("workload", ["cycle-grid", "detuning-sweep", "design-fit"])
def test_input_sizes_do_not_depend_on_the_seed(workload, tmp_path):
    def sizes(seed):
        return [[op.size for op in ops]
                for ops in workloads.make_rounds(workload, seed, tmp_path / str(seed), cli)]
    assert sizes(1) == sizes(2)


def test_cycle_with_eta_off_by_1e_6_is_a_failure(tmp_path):
    op = first_op("cycle-grid", tmp_path)
    artifact = cli.run_experiment(op.kind, op.params, tmp_path / "real")
    report = json.loads(Path(artifact.report_path).read_text())
    assert run_with(report, op, tmp_path) == 0.0
    corrupted = copy.deepcopy(report)
    corrupted["results"]["eta"] += 1e-6
    assert run_with(corrupted, op, tmp_path) == 1.0
    corrupted = copy.deepcopy(report)
    corrupted["results"]["power"] += 1e-9
    assert run_with(corrupted, op, tmp_path) == 1.0


def test_perturbed_unitary_reported_as_passing_is_a_failure(tmp_path):
    op = workloads.Op(kind="verify-slto", params={}, size={}, expect={"passes": False})
    report = {"kind": "verify-slto", "results": {"passed": True}, "checks": {}}
    assert run_with(report, op, tmp_path) == 1.0
    report["results"]["passed"] = False
    assert run_with(report, op, tmp_path) == 0.0


def test_sweep_that_stops_decreasing_is_a_failure(tmp_path):
    op = workloads.Op(kind="delta-sweep", params={}, size={}, expect={"ratios": [20.0, 40.0, 80.0]})
    points = [{"delta": r / 2, "ratio": r, "population_deviation": d, "leak_max": 0.01 * (20 / r) ** 2}
              for r, d in ((20.0, 0.01), (40.0, 0.005), (80.0, 0.003))]
    report = {"kind": "delta-sweep", "results": {"points": points},
              "checks": {"deviation_slope_band": {"passed": False}}}
    assert run_with(report, op, tmp_path) == 0.0
    points[2]["population_deviation"] = 0.006
    assert run_with(report, op, tmp_path) == 1.0


def test_design_cost_that_does_not_match_its_coefficients_is_a_failure(tmp_path):
    op = first_op("design-fit", tmp_path)
    params = dict(op.params, iterations=200)
    artifact = cli.run_experiment(op.kind, params, tmp_path / "real")
    report = json.loads(Path(artifact.report_path).read_text())
    assert run_with(report, op, tmp_path) == 0.0
    report["results"]["v_coeffs"][0] += 1e-4
    assert run_with(report, op, tmp_path) == 1.0


def test_an_op_that_raises_is_a_failure(tmp_path):
    op = first_op("cycle-grid", tmp_path)
    broken = workloads.Op(op.kind, dict(op.params, beta1=op.params["beta2"] * 2), op.size, op.expect)
    runner = run.Runner(cli, workloads, tmp_path / "out")
    assert runner.run(broken) == (None, 0)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.x", 1.5, 2.0, 1, 0],
        ["b", 3.5, 6.0, 0, 0],  # overlaps a: the union 1..6 is covered once
        ["c", 9.0, 12.0, 0, 0],  # runs past its parent: only 9..10 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 0.5, 0.5, 2.5, 3.0])


def test_per_layer_metrics_are_per_op_and_per_setup():
    clock = iter([0.0, 1.0, 10.0, 12.0, 13.0, 14.0, 20.0, 21.0, 25.0, 30.0])
    tracer = tracing.Tracer(clock=clock.__next__)
    tracer.op = tracing.SETUP
    index = tracer.open("cli.write_matrix_file")
    tracer.close(index)
    for op in (0, 1):
        tracer.op = op
        outer = tracer.open("cli.run_experiment")
        inner = tracer.open("cli.verify_slto")
        tracer.close(inner)
        tracer.close(outer)
        tracer.count("cli.checks_failed", op)
    tracer.count("designer.accepted", 1)
    tracer.count("designer.proposals", 4)
    metrics = tracing.per_layer_metrics(tracer, n_ops=2, n_setups=1)
    assert metrics["cli.write_matrix_file.s"] == 1.0
    assert metrics["cli.run_experiment.calls"] == 1.0
    assert metrics["cli.run_experiment.self_s"] == pytest.approx(((4 - 1) + (10 - 4)) / 2)
    assert metrics["cli.checks_failed"] == 0.5
    assert metrics["designer.accept_ratio"] == 0.25


def test_traced_run_restores_the_program(tmp_path):
    tracer = tracing.Tracer()
    from sltosim import designer, engine, optics, thermal
    modules = {"cli": cli, "designer": designer, "engine": engine,
               "optics": optics, "thermal": thermal}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracing.SPANS}
    with tracing.Instrumentation(tracer, modules)(op_id=0):
        assert cli.evolve_cycle is not before["cli", "evolve_cycle"]
        cli.run_experiment("abstract-cycle", {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0,
                                              "g": 0.5, "n_max1": 4, "n_max2": 4},
                           tmp_path)
    assert {(m, a): getattr(modules[m], a) for m, a, _ in tracing.SPANS} == before
    names = {span[0] for span in tracer.spans}
    assert {"cli.run_experiment", "engine.evolve_cycle", "linalg.StateVector",
            "linalg.SpectralPropagator.states"} <= names
    metrics = tracing.per_layer_metrics(tracer, n_ops=1, n_setups=1)
    assert metrics["engine.blocks"] == 25
    assert metrics["linalg.states.amplitudes"] == 101 * 2


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(100)]
    assert run.tail(values) == (89.0, 90.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_metric_names_match_the_benchmark_definition():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == (
        [name for name, _, _, _ in tracing.PER_LAYER] + ["trace_overhead_frac"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
