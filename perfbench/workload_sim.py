"""The reliability workload: serial STAIR MTTDL scenario cells.

Cells alternate between a direct Monte Carlo cell and a rare-event cell
at the paper's §7 operating point.  Each cell takes its own seed from
the workload seed, and each estimate must lie within five of its own
standard errors of the §7 analytic MTTDL.  No store code runs here.
Each cell's wall time is scaled by speed probes taken every few
milliseconds while it runs (see :mod:`speed`).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import repro.scenario.runner as runner
from repro.codes.registry import parse_code_spec
from repro.scenario.spec import ScenarioSpec
from repro.sim.lifetimes import ExponentialLifetime

from layers import Tracer
from results import Result
from speed import timed_call

CODE = "stair(n=8,r=16,m=2,e=(1,1,2))"
ARRAYS = 13
#: Direct Monte Carlo: short-lived devices so 2,000 cluster lifetimes
#: finish in a fraction of a second.
MONTECARLO = {"lifetime": {"mttf_hours": 20_000.0},
              "repair": {"repair_hours": 200.0},
              "estimator": {"mode": "montecarlo", "trials": 2000}}
#: Rare-event at the §7 point.  The unreachable precision target makes
#: every cell run exactly ``rare_max_cycles`` cycles, so cells do equal
#: work and the cycle count is exact.
RARE = {"lifetime": {"mttf_hours": 500_000.0},
        "repair": {"repair_hours": 17.8},
        "estimator": {"mode": "rare", "rare_target_rel_se": 1e-9,
                      "rare_max_cycles": 60_000}}
#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 5
#: Cell pairs in each phase of the traced run.
TRACED_PAIRS = 4
#: Tail percentile: >= 10 cells beyond it even when a 30 s run
#: completes only ~65 cells of each kind.
TAIL_PCT = 80.0
#: Allowed distance of an estimate from the analytic MTTDL.
MAX_STANDARD_ERRORS = 5.0


def cell_spec(kind: dict, seed: int) -> ScenarioSpec:
    estimator = dict(kind["estimator"], seed=seed)
    return ScenarioSpec.from_dict({
        "version": 1, "code": {"spec": CODE}, "fleet": {"arrays": ARRAYS},
        "lifetime": kind["lifetime"], "repair": kind["repair"],
        "estimator": estimator})


def setup() -> None:
    """Build and validate both cell kinds' specs and the code."""
    for kind in (MONTECARLO, RARE):
        cell_spec(kind, 0).validate()
    parse_code_spec(CODE)


def setup_seconds(import_s: float) -> float:
    """``setup_s``: imports plus the median scaled set-up."""
    return import_s + statistics.median(
        timed_call(setup)[1] for _ in range(SETUPS))


class Cells:
    """Runs cells and checks each estimate against the analytic value."""

    def __init__(self, seed: int, result: Result) -> None:
        self._seeds = np.random.SeedSequence(seed)
        self.result = result
        #: Scaled and raw wall time of each cell, by kind.
        self.ms = {"montecarlo": [], "rare": []}
        self.raw_ms = {"montecarlo": [], "rare": []}
        self.seconds = {"montecarlo": 0.0, "rare": 0.0}
        self.trials = 0
        self.cycles = 0
        self.estimates: list[float] = []

    def next_seed(self) -> int:
        return int(self._seeds.spawn(1)[0].generate_state(1)[0])

    def run(self, kind: dict, seed: int, tracer: Tracer | None = None):
        name = kind["estimator"]["mode"]
        spec = cell_spec(kind, seed)
        call = runner.run_scenario
        if tracer is not None:
            call = tracer.wrap_sync(call, "scenario.run_scenario")
        self.result.attempted += 1
        try:
            outcome, elapsed, raw = timed_call(call, spec)
        except Exception as exc:  # noqa: BLE001 - counted as a failed cell
            self.result.fail(f"{name} cell seed {seed}: {exc!r}")
            return
        self.ms[name].append(elapsed * 1e3)
        self.raw_ms[name].append(raw * 1e3)
        self.seconds[name] += elapsed
        estimate = outcome.result
        self.estimates.append(estimate.mttdl_hours)
        if name == "montecarlo":
            self.trials += estimate.trials
        else:
            self.cycles += estimate.cycles
        distance = abs(estimate.mttdl_hours - outcome.analytic)
        if outcome.engine != name or \
                distance > MAX_STANDARD_ERRORS * estimate.mttdl_std_error:
            self.result.fail(
                f"{name} cell seed {seed}: engine {outcome.engine}, "
                f"estimate {estimate.mttdl_hours:.6g} h vs analytic "
                f"{outcome.analytic:.6g} h, SE {estimate.mttdl_std_error:.3g}")

    def pair(self, seeds: tuple[int, int], tracer: Tracer | None = None):
        self.run(MONTECARLO, seeds[0], tracer)
        self.run(RARE, seeds[1], tracer)


def stored_bytes_per_user_byte() -> float:
    """Storage overhead of the simulated code's layout."""
    code = parse_code_spec(CODE)
    return code.n * code.r / code.num_data_symbols


def run_timed(name: str, seed: int, seconds: float,
              import_s: float) -> Result:
    result = Result(name)
    setup_s = setup_seconds(import_s)
    cells = Cells(seed, result)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        cells.pair((cells.next_seed(), cells.next_seed()))
    result.sim_metrics(cells, setup_s, TAIL_PCT,
                       stored_bytes_per_user_byte())
    return result


def install(tracer: Tracer) -> None:
    tracer.patch(runner, "simulate_cluster_lifetimes", "sim.montecarlo")
    tracer.patch(runner, "rare_event_code_mttdl", "sim.rare")
    tracer.patch(ExponentialLifetime, "sample", "sim.sample")


def run_traced(name: str, seed: int, trace_path=None,
               pairs: int = TRACED_PAIRS) -> Result:
    result = Result(name)
    cells = Cells(seed, result)
    seeds = [(cells.next_seed(), cells.next_seed()) for _ in range(pairs)]
    tracer = Tracer()
    reference = Cells(seed, result)
    # Traced and untraced pairs alternate so that drift in machine
    # speed does not land on one side of the overhead ratio.
    for pair in seeds:
        install(tracer)
        try:
            cells.pair(pair, tracer)
        finally:
            tracer.unpatch()
        reference.pair(pair)
    # Equal seeds must give bit-identical estimates and cycle counts.
    if (reference.estimates != cells.estimates
            or reference.cycles != cells.cycles
            or reference.trials != cells.trials):
        result.fail("traced and untraced cells with equal seeds disagree")

    duration, self_s = tracer.totals()
    total = sum(cells.seconds.values())
    untraced = sum(reference.seconds.values())
    sample_s = tracer.under("sim.montecarlo", "sim.sample")
    layer = {
        "scenario.overhead_ms_per_cell":
            self_s.get("scenario.run_scenario", 0.0) / (2 * pairs) * 1e3,
        "sim.sample_ms_per_cell": sample_s / pairs * 1e3,
        "sim.race_ms_per_cell":
            (duration.get("sim.montecarlo", 0.0) - sample_s) / pairs * 1e3,
        "sim.rare_ms_per_cell": duration.get("sim.rare", 0.0) / pairs * 1e3,
        "sim.rare_cycles_per_cell": reference.cycles / pairs,
        "sim.lifetimes_per_s":
            reference.trials / reference.seconds["montecarlo"],
        "sim.rare_cycles_per_s":
            reference.cycles / reference.seconds["rare"],
        "trace.slowdown": total / untraced,
    }
    result.layer_metrics(layer)
    if trace_path is not None:
        tracer.dump(trace_path)
    return result
