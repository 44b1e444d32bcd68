import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltosim import designer
from sltosim.designer import (
    DRAW_CHUNK,
    MAX_ITERATIONS,
    PROPOSAL_BATCH,
    AnnealSchedule,
    DesignTargets,
    PotentialAnsatz,
    _coefficient_sensitivities,
    design_cost,
    fit_rows,
    fock_matrix_elements,
    mc_optimize,
    position_operator,
)


def quartic_generator() -> PotentialAnsatz:
    # V(y) = y^2 + 0.1 y^4, b(y) = y inside the default family
    return PotentialAnsatz(np.array([1.0, 0.1, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))


def dense_tables(ansatz: PotentialAnsatz, n_work: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables read off the dense operators V(X) = sum c X^d and b(X)."""
    dim = n_work + 1
    x = np.diag(np.sqrt(np.arange(1, dim) / 2.0), 1)
    x = x + x.T
    v = sum((c * np.linalg.matrix_power(x, d)
             for d, c in zip(ansatz.v_degrees, ansatz.v_coeffs)), np.zeros_like(x))
    b = sum((c * np.linalg.matrix_power(x, d)
             for d, c in zip(ansatz.b_degrees, ansatz.b_coeffs)), np.zeros_like(x))
    j = np.arange(n_work - ansatz.b_degrees[-1])
    return np.diag(v)[: n_work - ansatz.v_degrees[-1] + 1], b[j, j + 1] / np.sqrt(j + 1)


def unit_kick_sensitivities(ansatz0: PotentialAnsatz, targets: DesignTargets) -> np.ndarray:
    """Norm of the fit-window tables of each unit coefficient vector."""
    n_fit = targets.n_fit
    size = ansatz0.flat().size
    sens = np.empty(size)
    for k in range(size):
        unit = np.zeros(size)
        unit[k] = 1.0
        f, th = fock_matrix_elements(ansatz0.with_flat(unit), targets.n_work)
        sens[k] = math.sqrt(
            float(np.sum(f[1 : n_fit + 1] ** 2) + np.sum(th[1 : n_fit + 1] ** 2))
        )
    return np.maximum(sens, 1e-30)


def reference_cost(ansatz: PotentialAnsatz, targets: DesignTargets) -> float:
    """The design cost of one ansatz in Python floats, from its full tables."""
    f, theta = fock_matrix_elements(ansatz, targets.n_work)
    fit = slice(1, targets.n_fit + 1)
    df = f[fit] - targets.f_target
    dth = theta[fit] - targets.theta_target
    th_sum = float((np.abs(dth) ** targets.q).sum())
    return math.sqrt(float((df**2).sum())) + th_sum ** (1.0 / targets.q)


def reference_walk(ansatz0: PotentialAnsatz, targets: DesignTargets, schedule: AnnealSchedule,
                   draws: collections.Counter | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The mc_optimize walk one proposal at a time, scoring each with reference_cost.

    Each kind of draw takes one value at a time from its own stream spawned
    from the seed: "k" the coefficient index, "z" the step and "u" the
    accept test, which only an uphill proposal at a positive temperature
    takes.  ``draws``, when given, counts the values of each stream."""
    rng_k, rng_z, rng_u = (np.random.default_rng(stream)
                           for stream in np.random.SeedSequence(schedule.seed).spawn(3))
    draws = collections.Counter() if draws is None else draws
    sens = unit_kick_sensitivities(ansatz0, targets)
    coeffs = ansatz0.flat()
    current = reference_cost(ansatz0, targets)
    best_coeffs, best_cost = coeffs.copy(), current
    trace = [current]
    for _ in range(schedule.iterations):
        k = int(rng_k.integers(coeffs.size))
        step = rng_z.normal(0.0, schedule.proposal_scale * current / sens[k])
        draws.update("kz")
        proposal = coeffs.copy()
        proposal[k] += step
        cost = reference_cost(ansatz0.with_flat(proposal), targets)
        dc = cost - current
        draws["u"] += not dc < 0 and schedule.mc_temperature > 0
        if dc < 0 or (schedule.mc_temperature > 0
                      and rng_u.random() < math.exp(-dc / schedule.mc_temperature)):
            coeffs, current = proposal, cost
            if cost < best_cost:
                best_cost, best_coeffs = cost, proposal.copy()
        trace.append(current)
    return best_coeffs, np.array(trace)


class TestFockMatrixElements:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("extra", [0, 5, 17])
    def test_matches_dense_operator_sum(self, seed, extra):
        rng = np.random.default_rng(seed)
        ansatz = PotentialAnsatz(rng.normal(size=rng.integers(1, 6)),
                                 rng.normal(size=rng.integers(1, 6)))
        n_work = ansatz.max_degree + 2 + extra
        f, theta = fock_matrix_elements(ansatz, n_work)
        f_dense, theta_dense = dense_tables(ansatz, n_work)
        assert f.shape == f_dense.shape and theta.shape == theta_dense.shape
        # rounding scale per entry: the tables with every term made positive
        f_abs, theta_abs = dense_tables(
            PotentialAnsatz(np.abs(ansatz.v_coeffs), np.abs(ansatz.b_coeffs)), n_work
        )
        assert np.all(np.abs(f - f_dense) <= 1e-13 * f_abs)
        assert np.all(np.abs(theta - theta_dense) <= 1e-13 * theta_abs)

    def test_harmonic_diagonal(self):
        # V(y) = y^2 has <n|V|n> = n + 1/2 exactly
        ansatz = PotentialAnsatz(np.array([1.0]), np.array([1.0]))
        f, _ = fock_matrix_elements(ansatz, 20)
        n = np.arange(f.size)
        assert np.max(np.abs(f - (n + 0.5))) <= 1e-12

    def test_linear_mode_function(self):
        # b(y) = y has <n-1|b|n> = sqrt(n/2), so theta(j) = 1/sqrt(2)
        ansatz = PotentialAnsatz(np.array([1.0]), np.array([1.0]))
        _, theta = fock_matrix_elements(ansatz, 20)
        assert np.max(np.abs(theta - 1 / math.sqrt(2))) <= 1e-12

    def test_zero_coefficients(self):
        ansatz = PotentialAnsatz(np.zeros(3), np.zeros(2))
        f, theta = fock_matrix_elements(ansatz, 15)
        assert np.max(np.abs(f)) == 0.0
        assert np.max(np.abs(theta)) == 0.0

    def test_tiny_workspace_rejected(self):
        with pytest.raises(ValueError):
            fock_matrix_elements(quartic_generator(), 5)

    def test_reported_entries_are_cutoff_independent(self):
        ansatz = quartic_generator()
        f_small, th_small = fock_matrix_elements(ansatz, 18)
        f_large, th_large = fock_matrix_elements(ansatz, 40)
        n = f_small.size
        assert np.max(np.abs(f_small - f_large[:n])) <= 1e-12
        m = th_small.size
        assert np.max(np.abs(th_small - th_large[:m])) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, None])
    def test_tables_are_degree_ordered_sums_from_zero(self, seed):
        """Each entry is, to the bit, the Python-float sum from 0.0 of c_d times
        the entry of X^d (the powers taken as X @ X @ ...), in degree order,
        theta divided after the sum; signed-zero coefficients included (seed
        None: every term of an f entry is -0.0, and the sum is still +0.0)."""
        if seed is None:
            v, b = np.full(4, -0.0), np.array([-1.0, -0.5, -0.25, -2.0])
        else:
            rng = np.random.default_rng(seed)
            v = rng.normal(size=4) * rng.integers(0, 2, size=4)
            b = rng.normal(size=4) * rng.integers(0, 2, size=4)
            v[v == 0.0] = -0.0
        ansatz = PotentialAnsatz(v, b)
        n_work = 20
        f, theta = fock_matrix_elements(ansatz, n_work)
        x = position_operator(n_work + 1)
        powers, power = {}, np.eye(n_work + 1)
        for degree in range(1, ansatz.max_degree + 1):
            power = power @ x
            powers[degree] = power
        f_ref, theta_ref = [], []
        for n in range(f.size):
            total = 0.0
            for d, c in zip(ansatz.v_degrees.tolist(), ansatz.v_coeffs.tolist()):
                total += c * float(powers[d][n, n])
            f_ref.append(total)
        for j in range(theta.size):
            total = 0.0
            for d, c in zip(ansatz.b_degrees.tolist(), ansatz.b_coeffs.tolist()):
                total += c * float(powers[d][j, j + 1])
            theta_ref.append(total / math.sqrt(j + 1))
        assert np.array_equal(f, f_ref) and np.array_equal(np.signbit(f), np.signbit(f_ref))
        assert np.array_equal(theta, theta_ref)
        assert np.array_equal(np.signbit(theta), np.signbit(theta_ref))

    def test_position_operator_ladder(self):
        x = position_operator(6)
        assert abs(x[0, 1] - math.sqrt(0.5)) <= 1e-15
        assert abs(x[4, 5] - math.sqrt(2.5)) <= 1e-15
        assert np.max(np.abs(x - x.T)) == 0.0


class TestDesignCost:
    def test_exact_match_is_zero(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        assert design_cost(gen, targets) == 0.0

    def test_single_f_offset(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        shifted = DesignTargets(
            targets.f_target + np.array([0, 0, 3.0, 0, 0, 0]),
            targets.theta_target, q=targets.q, n_work=targets.n_work,
        )
        assert abs(design_cost(gen, shifted) - 3.0) <= 1e-12

    def test_two_theta_offsets_in_quartic_norm(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6, q=4.0)
        shifted = DesignTargets(
            targets.f_target,
            targets.theta_target + np.array([1.0, 1.0, 0, 0, 0, 0]),
            q=4.0, n_work=targets.n_work,
        )
        assert abs(design_cost(gen, shifted) - 2.0 ** 0.25) <= 1e-12

    def test_equals_python_float_reference(self):
        # np.power takes about one Lq root in twenty 1 ulp away from Python's pow
        rng = np.random.default_rng(3)
        for n_fit in range(4, 12):
            targets = DesignTargets.inverse_intensity(0.0125, n_fit)
            for _ in range(25):
                ansatz = PotentialAnsatz(rng.normal(size=4) * 0.01, rng.normal(size=4))
                assert design_cost(ansatz, targets) == reference_cost(ansatz, targets)

    def test_norm_order_must_exceed_two(self):
        with pytest.raises(ValueError):
            DesignTargets(np.ones(4), np.ones(4), q=2.0)

    @pytest.mark.parametrize("f, theta, q", [
        ([1.0, math.nan, 1.0, 1.0], np.ones(4), 4.0),
        (np.ones(4), [1.0, 1.0, math.inf, 1.0], 4.0),
        (np.ones(4), np.ones(4), math.inf),
        (np.ones(4), np.ones(4), math.nan),
    ])
    def test_non_finite_targets_rejected(self, f, theta, q):
        with pytest.raises(ValueError, match="must be finite"):
            DesignTargets(np.array(f), np.array(theta), q=q)

    @given(st.integers(0, 10**6), st.floats(0.05, 0.5))
    @settings(max_examples=20, deadline=None)
    def test_cost_positive_away_from_match(self, seed, eps):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=5)
        rng = np.random.default_rng(seed)
        bumped = gen.flat()
        bumped[rng.integers(bumped.size)] += eps
        assert design_cost(gen.with_flat(bumped), targets) > 0.0


class TestPotentialAnsatz:
    @pytest.mark.parametrize("v, b", [
        ([1.0, math.inf], [0.0]), ([0.0], [-math.inf, 1.0]), ([math.nan], [0.0]),
    ])
    def test_non_finite_coefficients_rejected(self, v, b):
        with pytest.raises(ValueError, match="ansatz coefficients must be finite"):
            PotentialAnsatz(np.array(v), np.array(b))


class TestParity:
    def test_flipping_mode_function_flips_theta_only(self):
        gen = quartic_generator()
        flipped = PotentialAnsatz(gen.v_coeffs, -gen.b_coeffs)
        f0, th0 = fock_matrix_elements(gen, 20)
        f1, th1 = fock_matrix_elements(flipped, 20)
        assert np.array_equal(f0, f1)
        assert np.array_equal(th0, -th1)

    def test_potential_untouched_by_mode_function(self):
        gen = quartic_generator()
        other = PotentialAnsatz(gen.v_coeffs, np.array([0.3, -0.2, 0.1, 0.05]))
        f0, _ = fock_matrix_elements(gen, 22)
        f1, _ = fock_matrix_elements(other, 22)
        assert np.array_equal(f0, f1)


class TestMcOptimize:
    @pytest.mark.parametrize("field", ["proposal_scale", "mc_temperature"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_schedule_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            AnnealSchedule(iterations=10, **{field: value})

    @pytest.mark.parametrize("seed", [-1, None, 1.5, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # a seed of None would draw fresh entropy, and equal schedules would differ
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
            AnnealSchedule(iterations=10, seed=seed)
        assert AnnealSchedule(iterations=10, seed=np.int64(2**40)).seed == 2**40

    def test_iteration_cap(self):
        assert AnnealSchedule(iterations=MAX_ITERATIONS).iterations == MAX_ITERATIONS
        with pytest.raises(ValueError, match=f"iterations must be in 1..{MAX_ITERATIONS}"):
            AnnealSchedule(iterations=MAX_ITERATIONS + 1)

    def test_fixed_point_start(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        best, trace = mc_optimize(gen, targets, AnnealSchedule(iterations=300, seed=5))
        assert np.all(trace == 0.0)
        assert design_cost(best, targets) == 0.0

    def test_greedy_trace_is_monotone(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        start = gen.with_flat(gen.flat() * 1.1)
        _, trace = mc_optimize(start, targets, AnnealSchedule(iterations=2000, seed=1))
        assert np.all(np.diff(trace) <= 0.0)

    def test_recovery_beats_coarse_threshold(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=6)
        start = gen.with_flat(gen.flat() * 1.1)
        c0 = design_cost(start, targets)
        best, _ = mc_optimize(start, targets, AnnealSchedule(iterations=4000, seed=0))
        assert design_cost(best, targets) < 0.1 * c0

    def test_identical_seeds_identical_traces(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=5)
        start = gen.with_flat(gen.flat() * 1.1)
        sched = AnnealSchedule(iterations=1500, seed=42)
        _, t1 = mc_optimize(start, targets, sched)
        _, t2 = mc_optimize(start, targets, sched)
        assert np.array_equal(t1, t2)

    def test_different_seeds_differ(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=5)
        start = gen.with_flat(gen.flat() * 1.1)
        _, t1 = mc_optimize(start, targets, AnnealSchedule(iterations=1500, seed=1))
        _, t2 = mc_optimize(start, targets, AnnealSchedule(iterations=1500, seed=2))
        assert not np.array_equal(t1, t2)

    def test_running_minimum_nonincreasing_with_temperature(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=5)
        start = gen.with_flat(gen.flat() * 1.2)
        _, trace = mc_optimize(
            start, targets,
            AnnealSchedule(iterations=3000, mc_temperature=0.01, seed=9),
        )
        running = np.minimum.accumulate(trace)
        assert np.all(np.diff(running) <= 0.0)
        # a positive temperature admits uphill moves
        assert np.any(np.diff(trace) > 0.0)

    def test_best_cost_never_above_trace_minimum(self):
        gen = quartic_generator()
        targets = DesignTargets.from_ansatz(gen, n_fit=5)
        start = gen.with_flat(gen.flat() * 1.3)
        best, trace = mc_optimize(
            start, targets, AnnealSchedule(iterations=2000, mc_temperature=0.05, seed=4)
        )
        assert design_cost(best, targets) <= np.min(trace) + 1e-15


class TestLinearTables:
    """mc_optimize scores proposals from table rows built once per fit."""

    @staticmethod
    def fits():
        gen = quartic_generator()
        return [
            (PotentialAnsatz.zeros(), DesignTargets.inverse_intensity(0.0125, 6)),
            (gen.with_flat(gen.flat() * 1.1), DesignTargets.from_ansatz(gen, n_fit=9)),
        ]

    @pytest.mark.parametrize("fit", [0, 1])
    def test_sensitivities_are_unit_kick_norms(self, fit):
        ansatz0, targets = self.fits()[fit]
        assert np.array_equal(
            _coefficient_sensitivities(fit_rows(ansatz0, targets)),
            unit_kick_sensitivities(ansatz0, targets),
        )

    @pytest.mark.parametrize("fit", [0, 1])
    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("temperature", [0.0, 0.01])
    def test_walk_equals_design_cost_reference(self, fit, seed, temperature):
        ansatz0, targets = self.fits()[fit]
        schedule = AnnealSchedule(iterations=400, mc_temperature=temperature, seed=seed)
        best, trace = mc_optimize(ansatz0, targets, schedule)
        ref_best, ref_trace = reference_walk(ansatz0, targets, schedule)
        assert np.array_equal(trace, ref_trace)
        assert np.array_equal(best.flat(), ref_best)


class TestBatchedWalk:
    """mc_optimize scores PROPOSAL_BATCH proposals at a time and walks as
    reference_walk does, one proposal at a time."""

    @staticmethod
    def fit():
        gen = quartic_generator()
        return gen.with_flat(gen.flat() * 1.1), DesignTargets.from_ansatz(gen, n_fit=6)

    @staticmethod
    def assert_reference_walk(ansatz0, targets, schedule):
        best, trace = mc_optimize(ansatz0, targets, schedule)
        ref_best, ref_trace = reference_walk(ansatz0, targets, schedule)
        assert np.array_equal(trace, ref_trace)
        assert np.array_equal(best.flat(), ref_best)

    @pytest.mark.parametrize("iterations", [
        1, PROPOSAL_BATCH - 1, PROPOSAL_BATCH, PROPOSAL_BATCH + 1, 2 * PROPOSAL_BATCH + 1,
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_walk_lengths_at_batch_edges(self, iterations, seed):
        self.assert_reference_walk(*self.fit(), AnnealSchedule(iterations=iterations, seed=seed))

    @pytest.mark.parametrize("iterations", [
        DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK + 1,
    ])
    @pytest.mark.parametrize("temperature", [0.0, 0.01])
    def test_walk_lengths_at_draw_chunk_edges(self, iterations, temperature):
        self.assert_reference_walk(*self.fit(), AnnealSchedule(
            iterations=iterations, mc_temperature=temperature, seed=5))

    @pytest.mark.parametrize("iterations", [1, DRAW_CHUNK - 1, DRAW_CHUNK + 1])
    @pytest.mark.parametrize("temperature", [0.0, 0.01])
    def test_each_stream_delivers_its_own_draws(self, iterations, temperature, monkeypatch):
        """The index and step streams each deliver one value per iteration, and
        the accept stream one per uphill test of the reference walk, none at
        zero temperature."""
        schedule = AnnealSchedule(iterations=iterations, mc_temperature=temperature)
        expected = collections.Counter()
        reference_walk(*self.fit(), schedule, expected)
        assert expected["k"] == expected["z"] == iterations
        if temperature == 0:
            assert expected["u"] == 0
        elif iterations > 1:
            assert 0 < expected["u"] < iterations  # some proposals went downhill
        make_rng, delivered = np.random.default_rng, []

        class Counted:
            """A generator that counts the values each of its methods delivers."""

            def __init__(self, seed):
                self.rng, self.counts = make_rng(seed), collections.Counter()
                delivered.append(self.counts)

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    values = getattr(self.rng, name)(*args, **kwargs)
                    self.counts[name] += np.size(values)
                    return values
                return draw

        monkeypatch.setattr(np.random, "default_rng", Counted)
        mc_optimize(*self.fit(), schedule)
        assert delivered == [collections.Counter(integers=iterations),
                             collections.Counter(standard_normal=iterations),
                             collections.Counter(random=expected["u"])]

    @pytest.mark.parametrize("chunk", [1, 3, 16, 256])
    @pytest.mark.parametrize("batch", [1, 3, 16, 256])
    @pytest.mark.parametrize("temperature", [0.0, 0.01])
    def test_walk_does_not_depend_on_chunking(self, chunk, batch, temperature, monkeypatch):
        ansatz0, targets = self.fit()
        schedule = AnnealSchedule(iterations=600, mc_temperature=temperature, seed=3)
        best, trace = mc_optimize(ansatz0, targets, schedule)
        monkeypatch.setattr(designer, "DRAW_CHUNK", chunk)
        monkeypatch.setattr(designer, "PROPOSAL_BATCH", batch)
        other_best, other_trace = mc_optimize(ansatz0, targets, schedule)
        assert np.array_equal(other_trace, trace)
        assert np.array_equal(other_best.flat(), best.flat())

    @pytest.mark.parametrize("slot", [1, PROPOSAL_BATCH])
    def test_first_acceptance_on_batch_edge(self, slot):
        # slot 1 carries the rest of the batch's draws into the next batch,
        # the last slot carries none
        ansatz0, targets = self.fit()

        def first_acceptance(seed):
            _, trace = mc_optimize(ansatz0, targets, AnnealSchedule(slot, seed=seed))
            moves = np.flatnonzero(trace[1:] != trace[:-1])
            return int(moves[0]) + 1 if moves.size else None

        seed = next(s for s in range(5000) if first_acceptance(s) == slot)
        self.assert_reference_walk(
            ansatz0, targets, AnnealSchedule(iterations=4 * PROPOSAL_BATCH, seed=seed)
        )

    def test_long_walk(self):
        self.assert_reference_walk(*self.fit(), AnnealSchedule(iterations=5000, seed=11))

    def test_memory_is_the_trace(self):
        ansatz0, targets = self.fit()
        tracemalloc.start()
        try:
            _, trace = mc_optimize(ansatz0, targets, AnnealSchedule(iterations=100_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= trace.nbytes + 64 * 1024


class TestWorkspaceGuards:
    @staticmethod
    def short_of_fit_range():
        # degree 8 fits in n_work = 10, but f then stops at n = 2 < n_fit
        return PotentialAnsatz.zeros(), DesignTargets.inverse_intensity(0.0125, 6, n_work=10)

    @staticmethod
    def too_small_for_degree():
        return (PotentialAnsatz.zeros(v_degree=12),
                DesignTargets.inverse_intensity(0.0125, 6, n_work=12))

    @pytest.mark.parametrize("case, message", [
        ("short_of_fit_range", "cannot reach fit index 6"),
        ("too_small_for_degree", "workspace cutoff 12 too small for degree 12"),
    ])
    def test_design_cost_rejects(self, case, message):
        ansatz, targets = getattr(self, case)()
        with pytest.raises(ValueError, match=message):
            design_cost(ansatz, targets)

    @pytest.mark.parametrize("case, message", [
        ("short_of_fit_range", "cannot reach fit index 6"),
        ("too_small_for_degree", "workspace cutoff 12 too small for degree 12"),
    ])
    def test_mc_optimize_rejects_before_drawing(self, case, message, monkeypatch):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"drew {name} before checking the workspace")

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
        ansatz, targets = getattr(self, case)()
        with pytest.raises(ValueError, match=message):
            mc_optimize(ansatz, targets, AnnealSchedule(iterations=10))

    @pytest.mark.parametrize("v_coeffs, amplitude, cost", [
        ([0.0, 0.0, 0.0, 0.0], 1e200, "inf"),  # the f mismatch squared overflows
        ([1e308, -1e308, 0.0, 0.0], 0.0125, "nan"),  # f(2) sums inf and -inf
    ])
    def test_non_finite_initial_cost_rejected_before_drawing(self, v_coeffs, amplitude, cost,
                                                             monkeypatch):
        def no_draws(seed=None):
            raise AssertionError("made a generator before checking the initial cost")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        ansatz = PotentialAnsatz(np.array(v_coeffs), np.zeros(4))
        targets = DesignTargets.inverse_intensity(amplitude, 6)
        with pytest.raises(ValueError, match=f"initial design cost is {cost}"):
            mc_optimize(ansatz, targets, AnnealSchedule(iterations=10))

    def test_overflowing_proposals_are_rejected_without_a_warning(self):
        # every proposal's mismatch overflows, scores inf or NaN and is refused
        targets = DesignTargets.inverse_intensity(0.0125, 6)
        schedule = AnnealSchedule(iterations=50, proposal_scale=1e308, seed=0)
        best, trace = mc_optimize(PotentialAnsatz.zeros(), targets, schedule)
        assert np.all(trace == trace[0]) and math.isfinite(trace[0])
        assert np.array_equal(best.flat(), PotentialAnsatz.zeros().flat())

    def test_overflowing_design_cost_is_nan_without_a_warning(self):
        ansatz = PotentialAnsatz(np.array([1e308, -1e308, 0.0, 0.0]), np.zeros(4))
        assert math.isnan(design_cost(ansatz, DesignTargets.inverse_intensity(0.0125, 6)))

    def test_workspace_cap_checked_before_any_row(self, monkeypatch):
        monkeypatch.setattr(designer, "MAX_N_WORK", 20)
        built = []
        monkeypatch.setattr(designer, "position_operator",
                            lambda dim: built.append(dim) or position_operator(dim))
        gen = quartic_generator()
        assert DesignTargets.from_ansatz(gen, n_fit=10).n_work == 20
        assert DesignTargets.inverse_intensity(0.0125, 10).n_work == 20
        built.clear()
        for make in (lambda: DesignTargets.from_ansatz(gen, n_fit=11),
                     lambda: DesignTargets.inverse_intensity(0.0125, 11),
                     lambda: DesignTargets(np.ones(6), np.ones(6), n_work=21)):
            with pytest.raises(ValueError, match="workspace cutoff 21 above the cap 20"):
                make()
        assert not built

