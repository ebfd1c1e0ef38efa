"""Metric definitions, the per-run result and its printed form.

Every workload reports every metric, so that two commits can be
compared on each (workload, metric) pair.  Where a metric's meaning
differs by workload, its description says what it is on each.
Per-layer metrics of a layer a workload never enters read 0.

Every end-to-end time (latencies, ``ops_per_s``, ``setup_s``) is a
wall time scaled to the reference speed of :mod:`speed`; the printed
lines give the raw wall-time values beside them.  Per-layer times are
raw wall times, except the simulator rates, which divide by scaled cell
times.
"""

from __future__ import annotations

import json
import math
import resource
import statistics

from repro.store.report import percentile

#: name -> (unit, description) of the end-to-end metrics (``--trace 0``).
END_TO_END = {
    "ops_per_s": ("1/s", "completed client get/put per second of the timed "
                  "phase (store-*), run_scenario cells per second of "
                  "cell time (sim)"),
    "op_a_p50_ms": ("ms", "median latency of a get (store-*) or a "
                    "montecarlo cell (sim)"),
    "op_a_tail_ms": ("ms", "tail latency of a get (store-*) or a "
                     "montecarlo cell (sim)"),
    "op_b_p50_ms": ("ms", "median latency of a settled put (store-*) or a "
                    "rare-event cell (sim)"),
    "op_b_tail_ms": ("ms", "tail latency of a settled put (store-*) or a "
                     "rare-event cell (sim)"),
    "stored_bytes_per_user_byte": ("B/B", "node bytes per live object "
                                   "byte at the end (store-*), the "
                                   "simulated code's layout (sim)"),
    "setup_s": ("s", "import time plus the median of several set-ups"),
    "peak_rss_mb": ("MB", "peak resident memory of the process"),
}

#: name -> (unit, description) of the per-layer metrics (``--trace 1``).
PER_LAYER = {
    "gf.mul_ms_per_op": ("ms", "GField.mul_rows + mul_gather per op"),
    "gf.plane_ms_per_op": ("ms", "self time of RegionOps plane kernels "
                           "per op"),
    "gf.bytes_per_user_byte": ("B/B", "OperationCounter.bytes_processed "
                               "per user byte"),
    "codes.encode_ms_per_put": ("ms", "StripeCode.encode self time per "
                                "put"),
    "codes.decode_ms_per_get": ("ms", "StripeCode.decode self time per "
                                "get"),
    "codes.mult_xor_per_stripe": ("count", "Mult_XORs per encoded or "
                                  "decoded stripe"),
    "codec.encode_self_ms_per_put": ("ms", "ObjectCodec.encode_object self "
                                     "time per put"),
    "codec.assemble_ms_per_get": ("ms", "extract_payload + decode_stripe "
                                  "self time per get"),
    "cluster.put_self_ms": ("ms", "StoreCluster.put self wall time per "
                            "put, waits included"),
    "cluster.submit_self_ms": ("ms", "StoreCluster.get_submit self wall "
                               "time per get, waits included"),
    "cluster.lock_wait_ms_per_op": ("ms", "KeyShards.lock wait per op"),
    "cluster.lock_contended_ratio": ("ratio", "lock acquisitions that "
                                     "found the key locked"),
    "cluster.data_wait_ms_per_op": ("ms", "decision to data()/settled() "
                                    "done, per op"),
    "cluster.read_amplification": ("B/B", "node bytes fetched per user "
                                   "byte read"),
    "cluster.repair_ms_per_stripe": ("ms", "repair_once wall time per "
                                     "rebuilt stripe, traced"),
    "cluster.repair_stripes": ("count", "stripes rebuilt per repair cycle"),
    "cluster.repair_mb_per_s": ("MB/s", "median over untraced repair "
                                "cycles of rebuilt chunk bytes per second"),
    "node.calls_per_op": ("count", "put_chunk + fetch_chunk calls per op"),
    "loop.callbacks_per_op": ("count", "event-loop call_soon per op"),
    "loop.tasks_per_op": ("count", "event-loop create_task per op"),
    "scenario.overhead_ms_per_cell": ("ms", "run_scenario self time per "
                                      "cell"),
    "sim.sample_ms_per_cell": ("ms", "LifetimeModel.sample per montecarlo "
                               "cell"),
    "sim.race_ms_per_cell": ("ms", "rest of simulate_cluster_lifetimes "
                             "per montecarlo cell"),
    "sim.rare_ms_per_cell": ("ms", "rare_event_code_mttdl per rare cell"),
    "sim.rare_cycles_per_cell": ("count", "regenerative cycles per rare "
                                 "cell"),
    "sim.lifetimes_per_s": ("1/s", "untraced montecarlo lifetimes per "
                            "scaled second"),
    "sim.rare_cycles_per_s": ("1/s", "untraced rare-event cycles per "
                              "scaled second"),
    "client.ms_per_op": ("ms", "benchmark payload generation and "
                         "verification per op"),
    "trace.slowdown": ("x", "traced over untraced time for equal work"),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Result:
    """Outcome of one workload run: failures, metrics and notes."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        #: metric -> sample count / percentile note printed beside it.
        self.notes: dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def absorb(self, client) -> None:
        """Add a store client's attempted and failed operations."""
        self.attempted += client.attempted
        self.failed += client.failed
        for message in client.errors:
            if len(self.errors) < 10:
                self.errors.append(message)

    def _latencies(self, prefix: str, samples: list[float],
                   raw: list[float], tail_pct: float) -> None:
        if not samples:
            self.fail(f"no {prefix} samples")
            return
        self.metrics[f"{prefix}_p50_ms"] = statistics.median(samples)
        self.metrics[f"{prefix}_tail_ms"] = percentile(samples, tail_pct)
        beyond = len(samples) - math.ceil(tail_pct / 100 * len(samples))
        self.notes[f"{prefix}_p50_ms"] = (
            f"n={len(samples)}, raw {statistics.median(raw):.4g}")
        self.notes[f"{prefix}_tail_ms"] = (
            f"p{tail_pct:g}, n={len(samples)}, {beyond} beyond, "
            f"raw {percentile(raw, tail_pct):.4g}")

    def _rate(self, count: int, what: str, busy: float, raw: float) -> None:
        """``ops_per_s`` over the scaled and the raw busy time."""
        self.metrics["ops_per_s"] = count / busy
        self.notes["ops_per_s"] = (f"{count} {what} in {raw:.2f} s, "
                                   f"raw {count / raw:.5g}")

    def store_metrics(self, cfg, client, start: float, end: float,
                      setup_s: float, stored: float) -> None:
        ops = len(client.get_ms) + len(client.put_ms)
        speed = client.speed
        self._rate(ops, "ops", speed.scaled_elapsed(start, end),
                   end - start - speed.spent)
        self._latencies("op_a", client.get_ms, client.get_raw_ms,
                        cfg.tail_pct)
        self._latencies("op_b", client.put_ms, client.put_raw_ms,
                        cfg.tail_pct)
        self.metrics["stored_bytes_per_user_byte"] = stored
        self.metrics["setup_s"] = setup_s
        self.notes["setup_s"] = f"median of {cfg.setups} set-ups"
        self.metrics["peak_rss_mb"] = peak_rss_mb()

    def sim_metrics(self, cells, setup_s: float, tail_pct: float,
                    stored: float) -> None:
        count = len(cells.ms["montecarlo"]) + len(cells.ms["rare"])
        raw = sum(map(sum, cells.raw_ms.values())) / 1e3
        self._rate(count, "cells", sum(cells.seconds.values()), raw)
        for prefix, kind in (("op_a", "montecarlo"), ("op_b", "rare")):
            self._latencies(prefix, cells.ms[kind], cells.raw_ms[kind],
                            tail_pct)
        self.metrics["stored_bytes_per_user_byte"] = stored
        self.metrics["setup_s"] = setup_s
        self.metrics["peak_rss_mb"] = peak_rss_mb()

    def layer_metrics(self, values: dict[str, float]) -> None:
        self.metrics.update(values)

    def emit(self, trace: bool, fingerprint: dict) -> bool:
        """Print the human-readable lines and the final JSON line.

        Returns whether the run is correct.
        """
        table = PER_LAYER if trace else END_TO_END
        metrics = {name: value for name, value in self.metrics.items()
                   if name in table}
        for name in table:
            if name not in metrics:
                # A layer the workload never enters did no work.
                metrics[name] = 0.0
        correct = self.failed == 0 and self.attempted > 0
        print(f"# workload {self.workload}  trace={int(trace)}  "
              f"attempted={self.attempted}  failed={self.failed}")
        print("# fingerprint " + json.dumps(fingerprint, sort_keys=True))
        for message in self.errors:
            print(f"# FAILED: {message}")
        for name, (unit, description) in table.items():
            note = self.notes.get(name, "")
            print(f"{name:32s} {metrics[name]:14.6g} {unit:6s} "
                  f"{note:28s} {description}")
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                        for name in table},
        }))
        return correct
