"""The two object-store workloads: healthy 4 KiB Zipf serving and
degraded 80 KiB STAIR serving with repair.

Both drive :class:`repro.store.cluster.StoreCluster` on the in-process
backend through its public API.  The benchmark draws every key and
payload from the workload seed and checks every byte a get returns
against the payload the put it observes wrote.  Each operation's wall
time is scaled by the machine-speed probe run just before it (see
:mod:`speed`).
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.codes.base import StripeCode
from repro.codes.registry import parse_code_spec
from repro.gf.field import GField
from repro.gf.regions import RegionOps
from repro.store.cluster import KeyShards, StoreCluster
from repro.store.codec import ObjectCodec
from repro.store.node import StoreNode

import layers
from layers import CountingLoop, Tracer
from results import Result
from speed import Speed, sampling

#: Operations drawn from the seeded stream per refill.
_CHUNK = 4096


@dataclass(frozen=True)
class StoreConfig:
    code: str
    symbol_bytes: int
    objects: int
    object_bytes: int
    read_fraction: float
    zipf_alpha: float
    #: Node crashed after the preload and kept down for the timed phase.
    crash_node: int | None
    #: Percentile reported as the tail: the highest with >= 10 samples
    #: beyond it at the workload's usual operation count.
    tail_pct: float
    #: Set-ups per timed run; ``setup_s`` reports their median.
    setups: int
    #: Client operations in each traced counting phase.
    traced_ops: int
    #: Untraced repair cycles in the traced run (crash workloads only).
    repair_cycles: int


CONFIGS = {
    "store-4k-zipf": StoreConfig(
        code="rs(n=6,r=4,m=2)", symbol_bytes=256, objects=4000,
        object_bytes=4096, read_fraction=0.9, zipf_alpha=0.99,
        crash_node=None, tail_pct=99.0, setups=3, traced_ops=4000,
        repair_cycles=0),
    "store-80k-degraded": StoreConfig(
        code="stair(n=8,r=4,m=2,e=(1,1,2))", symbol_bytes=4096,
        objects=64, object_bytes=20 * 4096, read_fraction=0.5,
        zipf_alpha=0.0, crash_node=0, tail_pct=99.0, setups=3,
        traced_ops=400, repair_cycles=5),
}


def key_name(index: int) -> str:
    return f"obj-{index:06d}"


class OpStream:
    """The seeded operation stream: ``(is_get, key, payload_seed)``."""

    def __init__(self, cfg: StoreConfig, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 1])
        ranks = np.arange(1, cfg.objects + 1, dtype=float)
        weights = ranks ** -cfg.zipf_alpha
        self._cdf = np.cumsum(weights / weights.sum())
        self._read_fraction = cfg.read_fraction
        self._buffer: list[tuple[bool, str, int]] = []

    def _refill(self) -> None:
        keys = np.searchsorted(self._cdf, self._rng.random(_CHUNK),
                               side="right")
        keys = np.minimum(keys, len(self._cdf) - 1)
        reads = self._rng.random(_CHUNK) < self._read_fraction
        seeds = self._rng.integers(0, 2 ** 63, size=_CHUNK)
        self._buffer = [(bool(r), key_name(int(k)), int(s))
                        for r, k, s in zip(reads, keys, seeds)][::-1]

    def next(self) -> tuple[bool, str, int]:
        if not self._buffer:
            self._refill()
        return self._buffer.pop()


class Client:
    """The closed-loop client: one op stream, one expectation map.

    One client, so that an operation's latency is its own work: with
    two client on ``store-4k-zipf``, a get that waited on the other
    client's put formed the tail, and over ten runs the quartile spread
    of both p99s reached 0.24-0.25 of the median, and that of the put
    median 0.14.

    ``expected[key]`` is the payload of the last put whose placement was
    decided.  A put records it as soon as ``put`` returns and a get reads
    it as soon as ``get_submit`` returns.
    """

    def __init__(self, cluster: StoreCluster, cfg: StoreConfig,
                 stream: OpStream, expected: dict[str, bytes]) -> None:
        self.cluster = cluster
        self.cfg = cfg
        self.stream = stream
        self.expected = expected
        #: Latencies scaled by the probe run just before each op.
        self.get_ms: list[float] = []
        self.put_ms: list[float] = []
        self.get_raw_ms: list[float] = []
        self.put_raw_ms: list[float] = []
        self.speed = Speed()
        self.data_wait_s = 0.0
        self.client_s = 0.0
        self.bytes_user = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    async def one(self, op_id: int) -> None:
        is_get, key, payload_seed = self.stream.next()
        layers.OP.set(op_id)
        self.attempted += 1
        scale = self.speed.sample()
        c0 = time.perf_counter()
        payload = None if is_get else np.random.default_rng(
            payload_seed).bytes(self.cfg.object_bytes)
        t0 = time.perf_counter()
        self.client_s += t0 - c0
        try:
            if is_get:
                ticket = await self.cluster.get_submit(key)
                want = self.expected[key]
                t1 = time.perf_counter()
                data = await ticket.data()
            else:
                ticket = await self.cluster.put(key, payload)
                self.expected[key] = payload
                t1 = time.perf_counter()
                await ticket.settled()
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            self._fail(f"{'get' if is_get else 'put'} {key}: {exc!r}")
            return
        t2 = time.perf_counter()
        self.data_wait_s += t2 - t1
        raw_ms = (t2 - t0) * 1e3
        (self.get_raw_ms if is_get else self.put_raw_ms).append(raw_ms)
        (self.get_ms if is_get else self.put_ms).append(raw_ms * scale)
        self.bytes_user += self.cfg.object_bytes
        if is_get:
            ok = data == want
            self.client_s += time.perf_counter() - t2
            if not ok:
                self._fail(f"get {key}: bytes differ from the last put")

    async def run(self, *, until: float | None = None,
                  ops: int | None = None) -> None:
        """Run until a deadline or for a fixed op count."""
        issued = 0
        while until is None or time.perf_counter() < until:
            if ops is not None and issued >= ops:
                return
            issued += 1
            await self.one(issued)


async def setup(cfg: StoreConfig, seed: int):
    """Build the cluster, preload every object, crash the chosen node."""
    cluster = StoreCluster(parse_code_spec(cfg.code),
                           symbol_bytes=cfg.symbol_bytes)
    rng = np.random.default_rng([seed, 0])
    expected: dict[str, bytes] = {}
    for index in range(cfg.objects):
        payload = rng.bytes(cfg.object_bytes)
        await cluster.put(key_name(index), payload)
        expected[key_name(index)] = payload
    await cluster.flush()
    if cfg.crash_node is not None:
        cluster.crash_node(cfg.crash_node)
    return cluster, expected


async def repair_cycle(cluster: StoreCluster, node: int) -> tuple[int, float]:
    """Crash ``node``, repair until clean, flush: ``(stripes, seconds)``."""
    cluster.crash_node(node)
    start = time.perf_counter()
    stripes = 0
    while repaired := await cluster.repair_once():
        stripes += repaired
    await cluster.flush()
    return stripes, time.perf_counter() - start


async def restore_redundancy(cluster: StoreCluster) -> None:
    """Repair until a pass finds nothing to do, then flush."""
    while await cluster.repair_once():
        pass
    await cluster.flush()


async def gate(cluster: StoreCluster, expected: dict[str, bytes],
               result: Result) -> None:
    """End-of-run store checks, outside every timer.

    Restores redundancy, then crashes as many data nodes as the code
    has parity-only columns and reads every live object back byte for
    byte: such a read decodes from every parity column, so wrong parity
    fails it.  Then repairs and checks that redundancy is restored and
    the control and data planes agree.
    """
    await restore_redundancy(cluster)
    data_columns = cluster.codec.data_columns
    for node in data_columns[:cluster.code.n - len(data_columns)]:
        cluster.crash_node(node)
    for key, want in expected.items():
        result.attempted += 1
        try:
            data = await cluster.get(key)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            result.fail(f"degraded read-back {key}: {exc!r}")
            continue
        if data != want:
            result.fail(f"degraded read-back {key}: bytes differ")
    await restore_redundancy(cluster)
    if not cluster.fully_redundant():
        result.fail("cluster is not fully redundant after repair")
    for mismatch in await cluster.audit_data_plane():
        result.fail(f"audit: {mismatch}")
    for error in cluster.dataplane_errors():
        result.fail(f"data plane: {error!r}")


def stored_bytes_per_user_byte(cluster: StoreCluster) -> float:
    stored = sum(node.mirror_stat()[1] for node in cluster.nodes)
    live = sum(meta.size for _, meta in cluster.shards.items())
    return stored / live


# ---------------------------------------------------------------------- #
# Timed run
# ---------------------------------------------------------------------- #
async def _timed_setup(cfg: StoreConfig, seed: int):
    """One set-up: ``(cluster, expected, scaled seconds)``."""
    speed = Speed()
    start = time.perf_counter()
    with sampling(speed):
        cluster, expected = await setup(cfg, seed)
    return cluster, expected, speed.scaled_elapsed(start,
                                                   time.perf_counter())


async def _timed(cfg: StoreConfig, seed: int, seconds: float,
                 import_s: float, result: Result) -> None:
    cluster, expected, setup_s = await _timed_setup(cfg, seed)
    setup_times = [setup_s]
    client = Client(cluster, cfg, OpStream(cfg, seed), expected)
    start = time.perf_counter()
    await client.run(until=start + seconds)
    end = time.perf_counter()
    await cluster.flush()
    await gate(cluster, expected, result)
    result.absorb(client)
    stored = stored_bytes_per_user_byte(cluster)
    await cluster.aclose()
    # The other set-ups run after the timed phase, so that the garbage
    # of discarded clusters is not collected inside it.
    for _ in range(cfg.setups - 1):
        spare, _, setup_s = await _timed_setup(cfg, seed)
        setup_times.append(setup_s)
        await spare.aclose()
    setup_s = import_s + statistics.median(setup_times)
    result.store_metrics(cfg, client, start, end, setup_s, stored)


def run_timed(name: str, seed: int, seconds: float, import_s: float,
              cfg: StoreConfig | None = None) -> Result:
    cfg = cfg or CONFIGS[name]
    result = Result(name)
    asyncio.run(_timed(cfg, seed, seconds, import_s, result))
    return result


# ---------------------------------------------------------------------- #
# Traced run
# ---------------------------------------------------------------------- #
def install(tracer: Tracer, code: StripeCode) -> None:
    """Wrap each layer boundary the per-layer metrics are read from."""
    tracer.patch(GField, "mul_rows", "gf.mul_rows")
    tracer.patch(GField, "mul_gather", "gf.mul_gather")
    for attr in ("matrix_vector_plane", "matrix_vector_planes",
                 "linear_combination"):
        tracer.patch(RegionOps, attr, f"gf.{attr}")
    tracer.patch(type(code), "encode", "codes.encode")
    tracer.patch(type(code), "decode", "codes.decode")
    for attr in ("encode_object", "extract_payload", "decode_stripe",
                 "rebuild_columns"):
        tracer.patch(ObjectCodec, attr, f"codec.{attr}")
    for attr in ("put", "get_submit", "repair_once"):
        tracer.patch(StoreCluster, attr, f"cluster.{attr}", "async")
    tracer.patch(KeyShards, "lock", "cluster.lock", "lock")
    for attr in ("put_chunk", "fetch_chunk"):
        tracer.patch(StoreNode, attr, f"node.{attr}", "async")


def _counter_snapshot(cluster: StoreCluster) -> tuple[int, int]:
    counter = cluster.code.counter
    return counter.total(), counter.bytes_processed


def _read_bytes(cluster: StoreCluster) -> tuple[int, int]:
    report = cluster.report
    return (report.bytes_read_nodes_healthy
            + report.bytes_read_nodes_degraded, report.bytes_read_user)


async def _traced_phase(cfg: StoreConfig, seed: int):
    """Set up, then run ``traced_ops`` client ops with every wrapper on.

    Returns the cluster, the client, the tracer, the exact counts and
    the phase's scaled wall time.
    """
    loop = asyncio.get_running_loop()
    cluster, expected = await setup(cfg, seed)
    client = Client(cluster, cfg, OpStream(cfg, seed), expected)
    tracer = Tracer()
    install(tracer, cluster.code)
    ops0, bytes0 = _counter_snapshot(cluster)
    read0, user0 = _read_bytes(cluster)
    callbacks0, tasks0 = loop.callbacks, loop.tasks
    start = time.perf_counter()
    try:
        await client.run(ops=cfg.traced_ops)
        await cluster.flush()
    finally:
        tracer.unpatch()
    elapsed = client.speed.scaled_elapsed(start, time.perf_counter())
    ops1, bytes1 = _counter_snapshot(cluster)
    read1, user1 = _read_bytes(cluster)
    n = cfg.traced_ops
    stripes = (tracer.calls.get("codes.encode", 0)
               + tracer.calls.get("codes.decode", 0))
    counts = {
        "loop.callbacks_per_op": (loop.callbacks - callbacks0) / n,
        "loop.tasks_per_op": (loop.tasks - tasks0) / n,
        "node.calls_per_op": (tracer.calls.get("node.put_chunk", 0)
                              + tracer.calls.get("node.fetch_chunk", 0)) / n,
        "codes.mult_xor_per_stripe": ((ops1 - ops0) / stripes
                                      if stripes else 0.0),
        "gf.bytes_per_user_byte": (bytes1 - bytes0) / client.bytes_user,
        "cluster.read_amplification": ((read1 - read0) / (user1 - user0)
                                       if user1 > user0 else 0.0),
        "stored_bytes_per_user_byte": stored_bytes_per_user_byte(cluster),
    }
    return cluster, client, tracer, counts, elapsed


async def _traced(cfg: StoreConfig, seed: int, result: Result,
                  trace_path) -> None:
    cluster_a, client_a, tracer, counts, traced_s = \
        await _traced_phase(cfg, seed)
    await gate(cluster_a, client_a.expected, result)
    result.absorb(client_a)
    await cluster_a.aclose()
    # The exact counts must repeat on a fresh set-up with the same seed.
    cluster, client_b, _, counts_b, _ = await _traced_phase(cfg, seed)
    result.absorb(client_b)
    for key, value in counts.items():
        if counts_b[key] != value:
            result.fail(f"count {key} differs between equal-seed phases: "
                        f"{value!r} vs {counts_b[key]!r}")
    # Untraced reference for the tracing overhead: the next ops of the
    # same stream on the same cluster.
    reference = Client(cluster, cfg, client_b.stream, client_b.expected)
    start = time.perf_counter()
    await reference.run(ops=cfg.traced_ops)
    await cluster.flush()
    untraced_s = reference.speed.scaled_elapsed(start, time.perf_counter())
    result.absorb(reference)

    repair_mb_per_s, repair_ms_per_stripe, repair_stripes = 0.0, 0.0, 0.0
    if cfg.crash_node is not None:
        rates = []
        for _ in range(cfg.repair_cycles):
            stripes, seconds = await repair_cycle(cluster, cfg.crash_node)
            rates.append(stripes * cluster.codec.chunk_bytes / seconds / 1e6)
            repair_stripes = float(stripes)
        repair_mb_per_s = statistics.median(rates)
        repair_tracer = Tracer()
        install(repair_tracer, cluster.code)
        try:
            stripes, _ = await repair_cycle(cluster, cfg.crash_node)
        finally:
            repair_tracer.unpatch()
        if stripes != repair_stripes:
            result.fail(f"repair rebuilt {stripes} stripes, earlier cycles "
                        f"{repair_stripes:.0f}")
        repair_s = repair_tracer.totals()[0].get("cluster.repair_once", 0.0)
        repair_ms_per_stripe = repair_s / stripes * 1e3
    await gate(cluster, reference.expected, result)
    await cluster.aclose()

    duration, self_s = tracer.totals()
    n = cfg.traced_ops
    puts = max(len(client_a.put_ms), 1)
    gets = max(len(client_a.get_ms), 1)
    acquisitions = max(tracer.calls.get("cluster.lock", 0), 1)
    per_op = lambda seconds: seconds / n * 1e3  # noqa: E731
    layer = {
        "gf.mul_ms_per_op": per_op(duration.get("gf.mul_rows", 0.0)
                                   + duration.get("gf.mul_gather", 0.0)),
        "gf.plane_ms_per_op": per_op(
            self_s.get("gf.matrix_vector_plane", 0.0)
            + self_s.get("gf.matrix_vector_planes", 0.0)
            + self_s.get("gf.linear_combination", 0.0)),
        "codes.encode_ms_per_put": self_s.get("codes.encode", 0.0)
        / puts * 1e3,
        "codes.decode_ms_per_get": self_s.get("codes.decode", 0.0)
        / gets * 1e3,
        "codec.encode_self_ms_per_put":
            self_s.get("codec.encode_object", 0.0) / puts * 1e3,
        "codec.assemble_ms_per_get":
            (self_s.get("codec.extract_payload", 0.0)
             + self_s.get("codec.decode_stripe", 0.0)) / gets * 1e3,
        "cluster.put_self_ms": self_s.get("cluster.put", 0.0) / puts * 1e3,
        "cluster.submit_self_ms":
            self_s.get("cluster.get_submit", 0.0) / gets * 1e3,
        "cluster.lock_wait_ms_per_op": per_op(sum(tracer.lock_waits)),
        "cluster.lock_contended_ratio": tracer.lock_contended / acquisitions,
        "cluster.data_wait_ms_per_op": per_op(client_a.data_wait_s),
        "cluster.repair_ms_per_stripe": repair_ms_per_stripe,
        "cluster.repair_stripes": repair_stripes,
        "cluster.repair_mb_per_s": repair_mb_per_s,
        "client.ms_per_op": per_op(client_a.client_s),
        "trace.slowdown": traced_s / untraced_s,
    }
    # ``stored_bytes_per_user_byte`` is checked above but reported only
    # by the timed run.
    layer.update(counts)
    result.layer_metrics(layer)
    if trace_path is not None:
        tracer.dump(trace_path)


def run_traced(name: str, seed: int, trace_path=None,
               cfg: StoreConfig | None = None) -> Result:
    cfg = cfg or CONFIGS[name]
    result = Result(name)
    with asyncio.Runner(loop_factory=CountingLoop) as runner:
        runner.run(_traced(cfg, seed, result, trace_path))
    return result
