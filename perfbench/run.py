"""The repository's benchmark: three workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload store-4k-zipf --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in a process of its own.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics of a timed run,
with ``--trace 1`` the per-layer metrics of a separate traced run.  The
lines before it print every metric with its unit, sample count and
description, the raw wall-time value beside each scaled time, the
failed/attempted operations, and a machine fingerprint.  The exit code
is non-zero when any operation failed or any output was wrong.

Workloads (why each one):

* ``store-4k-zipf`` -- ``rs(n=6,r=4,m=2)`` with 256-byte symbols, so a
  4 KiB object is one stripe; 4,000 objects preloaded, a healthy
  in-process cluster, 90 % gets / 10 % overwrites over Zipf(0.99) keys
  from 1 closed-loop asyncio client (``workload_store.Client`` gives
  the measurements that ruled out two).  Every operation pays the store's
  per-operation costs (cluster decisions, node mirrors, event-loop
  callbacks, codec glue); the GF kernels are ~6 % of operation time
  under cProfile.  Control-plane work shows here, kernel work barely.
* ``store-80k-degraded`` -- ``stair(n=8,r=4,m=2,e=(1,1,2))`` with
  4 KiB symbols (one symbol is one sector), so an 80 KiB object is
  exactly one stripe; 64 objects (~8 MB of chunks); node 0 crashed
  before the timed phase and never repaired during it, so every get
  decodes through the STAIR decoder and every put runs the STAIR
  encoder and writes 7 of 8 chunks; 50 % gets / 50 % overwrites over
  uniform keys from 1 client.  Work in ``repro.gf`` and the STAIR
  encoders/decoder (``repro.core``) shows here.  The traced run also
  times repair cycles (crash node 0, ``repair_once`` until it returns
  0, ``flush``): the repair bandwidth is the MTTR input of §7.
  Objects stay small: over ten 30 s runs, 1 MiB objects spread far
  beyond any allowed bound (ops/s 16.6-31.9; put p50 quartile spread
  0.46 of the median), as their large GF gathers tracked the host's
  memory contention.  One client, because with two
  a get queued behind the other client's put moved the get median
  between 37 and 61 ms from run to run.
* ``sim-stair-mttdl`` -- serial ``run_scenario`` cells of
  ``stair(n=8,r=16,m=2,e=(1,1,2))`` over 13 arrays, alternating a direct
  Monte Carlo cell (MTTF 20,000 h, repair 200 h, 2,000 trials) and a
  rare-event cell at the §7 point (MTTF 500,000 h, repair 17.8 h,
  exactly 60,000 cycles, so cells do equal work).  The reliability
  half of the paper; it runs no store code, so a store or kernel change
  must leave it unchanged, and a change to ``repro.sim`` or
  ``repro.scenario`` shows only here.

End-to-end metrics are listed in ``results.END_TO_END``.  Every
workload reports every one of them, so the two operation kinds are
named ``op_a`` (get on the stores, Monte Carlo cell on the simulator)
and ``op_b`` (put, rare-event cell).  Tails are p99 on the stores and
p80 on the simulator (~70 cells of each kind a run), the highest
percentile with at least ten samples beyond it.  ``setup_s`` is the
median time to import the workload's modules in five fresh
interpreters plus the median of several complete set-ups (code,
cluster, preload, crash), not one process-start-to-first-operation
interval: a single such interval spread too widely to compare.

Every end-to-end time is scaled to a reference machine speed by the
probes of :mod:`speed`; its docstring gives the reason and the method.

Which end-to-end metric each per-layer metric should move:

* ``gf.*`` (``mul_ms_per_op``: the table gather; ``plane_ms_per_op``:
  stacking and XOR reduce; ``bytes_per_user_byte``) -- ``op_a``/``op_b``
  p50 on ``store-80k-degraded`` and the repair rate; nothing on
  ``store-4k-zipf``;
* ``codes.*`` (encode/decode self time, ``mult_xor_per_stripe``, the
  paper's cost unit) -- the ``store-80k-degraded`` p50s;
* ``codec.*`` -- the p50s on both store workloads;
* ``cluster.put_self_ms``, ``submit_self_ms``, ``data_wait_ms_per_op``
  -- ``ops_per_s`` and the p50s on ``store-4k-zipf``;
  ``lock_wait_ms_per_op`` (the uncontended acquire cost) -- the same;
  ``lock_contended_ratio`` reads 0, as no workload runs two clients;
  ``read_amplification`` -- ``op_a_p50_ms`` on
  ``store-80k-degraded``; ``repair_*`` -- the repair rate;
* ``node.calls_per_op``, ``loop.callbacks_per_op``,
  ``loop.tasks_per_op`` -- ``ops_per_s`` and ``op_a_p50_ms`` on
  ``store-4k-zipf``;
* ``scenario.overhead_ms_per_cell`` -- both simulator latencies;
  ``sim.sample_ms_per_cell`` and ``sim.race_ms_per_cell`` --
  ``op_a`` on the simulator; ``sim.rare_*`` -- ``op_b`` there;
* ``client.ms_per_op`` -- the benchmark's own cost, outside all timers.

The count metrics (``loop.*``, ``node.calls_per_op``,
``codes.mult_xor_per_stripe``, ``gf.bytes_per_user_byte``,
``cluster.read_amplification`` and ``stored_bytes_per_user_byte``) are
exact: the traced run measures them twice on fresh set-ups with the
same seed and fails on any difference.  ``trace.slowdown`` is the
tracing overhead: traced over untraced time for the same amount of
work.

Out of scope: the ``process`` backend and ``repro.store.rpc`` (every
code needs >= 3 node subprocesses, more than the 2 cores here, so the
benchmark would measure the scheduler), the multiprocessing sweep pool
(same reason) and the event engine.

Noise measured on the 2-core development machine shaped the design:
a numpy gather loop varied with a CV of 13.7 % over 2 s windows and
7.5 % over 10 s windows, so no workload is a single sample (one 6.4 s
sweep per run was too noisy to bound); p99.9 tails varied 1.5-2.9 ms
(gets) and 2.5-7.9 ms (puts) between equal runs of ``store-4k-zipf``,
so tails stop at p99; two clients on a degraded STAIR store made the
get median bimodal.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STORE_WORKLOADS = ("store-4k-zipf", "store-80k-degraded")
SIM_WORKLOAD = "sim-stair-mttdl"
WORKLOADS = STORE_WORKLOADS + (SIM_WORKLOAD,)
#: Fresh interpreters whose import time ``setup_s`` takes the median of.
IMPORT_SAMPLES = 5


def import_seconds(module: str) -> float:
    """Median scaled time to import a workload module in a fresh
    interpreter."""
    probe = ("import sys; sys.path[:0] = sys.argv[1:]; import speed; "
             f"print(speed.import_seconds({module!r}))")
    samples = [
        float(subprocess.run(
            [sys.executable, "-c", probe, str(ROOT / "src"), str(HERE)],
            capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_SAMPLES)]
    return statistics.median(samples)


def fingerprint() -> dict:
    """Machine metadata printed with every result (not a metric)."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # Fixed calibration loop: GF(2^8)-style table gathers over 1 MiB.
    rng = np.random.default_rng(0)
    table = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
    data = rng.integers(0, 256, size=1 << 20, dtype=np.uint8)
    start = time.perf_counter()
    for c in range(16):
        table[c][data]
    calibration_ms = (time.perf_counter() - start) * 1e3
    probe_us = statistics.median(speed.probe() for _ in range(1000)) * 1e6
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "calibration_ms": round(calibration_ms, 3),
            "probe_us": round(probe_us, 3)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> bool:
    # Benchmark the source tree beside this directory, never an
    # installed copy.
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    if name == SIM_WORKLOAD:
        import workload_sim as workload
    else:
        import workload_store as workload
    if trace:
        path = Path.cwd() / ".perfbench" / f"spans-{name}-seed{seed}.jsonl"
        result = workload.run_traced(name, seed, path)
    else:
        result = workload.run_timed(name, seed, seconds,
                                    import_seconds(workload.__name__))
    return result.emit(trace, fingerprint())


def run_all(seed: int, seconds: float, trace: bool) -> bool:
    """Run every workload, one process each, one after another."""
    correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        ok = proc.returncode == 0 and bool(lines) \
            and json.loads(lines[-1]).get("correct") is True
        correct = correct and ok
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        ok = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        ok = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
