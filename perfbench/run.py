"""End-to-end benchmark of the pyrdf2vec_ray pipeline: one closed-loop client
driving the library's public API in one Ray session of ``nproc`` logical
CPUs (``nproc`` honours ``OMP_NUM_THREADS``).

    python3 perfbench/run.py --workload docs-heavy --seed 1 --seconds 40 --trace 0

Workloads, metrics and the layer → end-to-end map are described in
``perfbench/README.md``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Each earlier line of standard output is one run's record:
its ``run_s`` beside the two host canaries.  Everything else (Ray's logs
included) goes to standard error.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("docs-heavy", "walk-heavy", "kg-query")

# span name → per-layer time metric; the part before the first "." of the
# metric names the layer, as in "<layer>.failed"
LAYER_TIME = {
    "stages.extract": "extract.s",
    "stages.link": "link.s",
    "shuffle.dedup": "shuffle.dedup_s",
    "state.sharded_graph": "sharded_graph.build_s",
    "walkers.prepare": "walkers.prepare_s",
    "walkers.walk": "walkers.walk_s",
    "embedders_dist.fit": "embedders_dist.fit_s",
    "sink": "sink.s",
    "sources.tpch_kg": "tpch_kg.s",
    "ops.bgp": "bgp.s",
    "stages.wl": "wl.s",
}
LAYER_COUNTS = {
    "extract.rows_out": "count", "link.rows_out": "count",
    "link.hit_ratio": "ratio",
    "shuffle.dedup_rows_in": "count", "shuffle.dedup_rows_out": "count",
    "shuffle.dedup_keep_ratio": "ratio",
    "sharded_graph.triples": "count", "sharded_graph.parquet_bytes": "bytes",
    "walkers.roots": "count", "walkers.walks": "count",
    "walkers.tokens": "count", "walkers.walks_per_s": "1/s",
    "embedders_dist.vocab": "count", "embedders_dist.token_epochs": "count",
    "embedders_dist.tokens_per_s": "1/s",
    "sink.rows": "count", "sink.bytes": "bytes",
    "tpch_kg.rows": "count", "bgp.rows_out": "count", "wl.labels": "count",
}
LAYERS = sorted({m.split(".")[0] for m in LAYER_TIME.values()})
TRACE = {"trace.run_s": "s", "trace.base_run_s": "s",
         "trace.overhead_s": "s", "trace.self_coverage": "ratio"}
PER_LAYER = {**{m: "s" for m in LAYER_TIME.values()}, **LAYER_COUNTS,
             **{f"{layer}.failed": "count" for layer in LAYERS}, **TRACE}
END_TO_END = {"run_s": "s", "rows_per_s": "rows/s", "setup_s": "s",
              "driver_peak_rss_mb": "MB"}


class Tracer:
    """Spans of one traced run, kept in memory: name, start, end, parent
    and run id.  Written out as JSONL when the benchmark ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"run_id": self.run_id, "id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "ok": False}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
            rec["ok"] = True
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


# ---- host state ---------------------------------------------------------------

# bench.py's two host canaries and the share of CPU time the hypervisor
# stole during the run, recorded beside each run to tell noise of the
# shared host from a regression; none is a metric

def host_canary_ms() -> float:
    """Eight chained 512x512 matmuls, best of three, in milliseconds."""
    import numpy as np

    m = np.random.RandomState(0).rand(512, 512)
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(8):
            m = m @ m % 1.0
        best = min(best, time.perf_counter() - t)
    return best * 1000


def host_fault_ms_per_64mb() -> float:
    """First-touch page-fault cost of a fresh 64 MB array, best of three,
    in milliseconds."""
    import numpy as np

    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        a = np.zeros(8 << 20, np.float64)
        a[::512] = 1.0
        best = min(best, time.perf_counter() - t)
        del a
    return best * 1000


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of all CPUs since boot."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def reset_peak_rss() -> None:
    """Start the next run's peak from what the runs before it really keep:
    collect garbage and hand freed heap back to the OS, then reset VmHWM."""
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def descendants() -> set[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry))
    out, todo = set(), [os.getpid()]
    while todo:
        for c in children.get(todo.pop(), []):
            out.add(c)
            todo.append(c)
    return out


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# ---- Ray session ----------------------------------------------------------------

def ray_temp_dir() -> str:
    # Ray's unix sockets live under its temp dir and must fit in 107 bytes;
    # the session name and socket file take about 62 of them
    inside = os.path.join(WORK, "ray")
    return inside if len(inside) + 62 <= 107 else "/tmp/ray"


def init_ray() -> None:
    import ray
    from ray.data import DataContext

    ncpu = int(subprocess.run(["nproc"], capture_output=True, text=True,
                              check=True).stdout)
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=400 << 20, _temp_dir=ray_temp_dir())
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # as in bench.py: tie read fan-out to the session's CPUs instead of
    # splitting small files into 200 fixed-overhead read tasks
    ctx.read_op_min_num_blocks = ncpu


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    pids = descendants()
    ray.shutdown()
    deadline = time.monotonic() + 15
    while any(alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in pids:
        if alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    for p in pids:
        try:
            os.waitpid(p, 0)
        except ChildProcessError:
            pass


# ---- runs -------------------------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int, scale: str, out):
        import workloads as wl

        self.wl = wl
        self.workload = workload
        self.out = out
        # generated in a child process, so that this process starts every
        # set-up the same whether or not the inputs were cached
        for sc, sd in ((scale, seed), ("tiny", 0)):
            subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                            WORK, workload, sc, str(sd)], check=True)
        self.inp = wl.load_inputs(WORK, workload, scale, seed)
        self.warm = wl.load_inputs(WORK, workload, "tiny", 0)
        self.first_counts: dict[str, dict] = {}
        self.records: list[dict] = []
        self.tracers: list[Tracer] = []
        self.failed_layers = dict.fromkeys(LAYERS, 0)
        self.runs = itertools.count()

    def one_run(self, inp, traced: bool) -> dict | None:
        """One closed-loop run in its own scratch dir (TMPDIR of this
        process included), deleted afterwards.  Returns its record, or
        None when the run raised or failed an output check."""
        run_id = f"{self.workload}-{os.getpid()}-{next(self.runs)}"
        run_dir = os.path.join(WORK, "runs", run_id)
        os.makedirs(f"{run_dir}/tmp")
        tempfile.tempdir = f"{run_dir}/tmp"
        tr = Tracer(run_id) if traced else None
        rec = {"run_id": run_id, "traced": traced,
               "host_canary_ms": host_canary_ms(),
               "host_fault_ms_per_64mb": host_fault_ms_per_64mb()}
        try:
            reset_peak_rss()
            ticks = cpu_ticks()
            t0 = time.perf_counter()
            if tr is None:
                out = self.wl.run(inp, run_dir)
            else:
                with tr.span(self.workload) as root:
                    out = self.wl.run(inp, run_dir, tr)
                root["host_canary_ms"] = rec["host_canary_ms"]
                root["host_fault_ms_per_64mb"] = rec["host_fault_ms_per_64mb"]
            rec["run_s"] = time.perf_counter() - t0
            stolen, total = (b - a for a, b in zip(ticks, cpu_ticks()))
            rec["host_steal_frac"] = stolen / max(total, 1)
            rec["driver_peak_rss_mb"] = peak_rss_mb()
            rec["counts"] = self.wl.check_outputs(inp, out, run_dir)
            self.wl.check_repeat(self.first_counts.setdefault(inp.dir, {}),
                                 rec["counts"])
            del out
            return rec
        except Exception:
            traceback.print_exc()
            return None
        finally:
            if tr is not None:
                self.tracers.append(tr)
                for s in tr.spans:
                    if not s["ok"] and s["name"] in LAYER_TIME:
                        self.failed_layers[LAYER_TIME[s["name"]].split(".")[0]] += 1
            tempfile.tempdir = None
            shutil.rmtree(run_dir, ignore_errors=True)

    def setup(self) -> float:
        """ray.init plus one warm-up pass on the workload's tiny inputs."""
        t0 = time.perf_counter()
        init_ray()
        if self.one_run(self.warm, traced=False) is None:
            raise RuntimeError("warm-up run failed")
        return time.perf_counter() - t0

    def measure(self, seconds: float, trace: bool) -> tuple[int, int]:
        """Closed loop: the next run starts when the last one ends, and
        only if a run as long as the last one still ends within
        ``seconds``.  With tracing, plain and traced runs alternate.  Two
        good runs, one of each kind with tracing, are made even past the
        window (at most four attempts), so that the walk and token counts
        are always compared across runs."""
        attempted = failed = good = 0
        kinds: set[bool] = set()
        need = 2 if trace else 1
        start = time.perf_counter()
        while True:
            traced = trace and attempted % 2 == 1
            attempted += 1
            t0 = time.perf_counter()
            rec = self.one_run(self.inp, traced)
            took = time.perf_counter() - t0
            line = {"run": attempted, "traced": traced, "ok": rec is not None}
            if rec is None:
                failed += 1
            else:
                good += 1
                kinds.add(traced)
                self.records.append(rec)
                line.update({k: rec[k] for k in
                             ("run_s", "host_canary_ms", "host_fault_ms_per_64mb",
                              "host_steal_frac", "driver_peak_rss_mb")})
            print(json.dumps(line), file=self.out, flush=True)
            if len(kinds) < need or good < 2:
                if attempted >= 4:
                    break
            elif time.perf_counter() - start + took > seconds:
                break
        return attempted, failed

    def end_to_end(self, setup_s: float) -> dict:
        plain = [r for r in self.records if not r["traced"]]
        med = lambda k: statistics.median(r[k] for r in plain)  # noqa: E731
        return {"run_s": med("run_s"),
                "rows_per_s": statistics.median(
                    self.inp.rows / r["run_s"] for r in plain),
                "setup_s": setup_s,
                "driver_peak_rss_mb": med("driver_peak_rss_mb")}

    def per_layer(self) -> dict:
        traced = [r for r in self.records if r["traced"]]
        plain = [r for r in self.records if not r["traced"]]
        ok_tracers = [t for t in self.tracers
                      if any(r["run_id"] == t.run_id for r in traced)]
        vals = dict.fromkeys(PER_LAYER, 0.0)
        times: dict[str, list[float]] = {}
        coverage = []
        for t in ok_tracers:
            own = t.self_times()
            root = t.spans[0]
            total = root["end"] - root["start"]
            layer_s = sum(own[s["id"]] for s in t.spans[1:])
            coverage.append(layer_s / total)
            for s in t.spans[1:]:
                times.setdefault(LAYER_TIME[s["name"]], []).append(own[s["id"]])
        for m, xs in times.items():
            vals[m] = statistics.median(xs)
        for k in traced[-1]["counts"]:
            vals[k] = statistics.median(r["counts"][k] for r in traced)
        div = lambda a, b: vals[a] / vals[b] if vals[b] else 0.0  # noqa: E731
        vals["link.hit_ratio"] = div("link.rows_out", "extract.rows_out")
        vals["shuffle.dedup_keep_ratio"] = div("shuffle.dedup_rows_out",
                                               "shuffle.dedup_rows_in")
        vals["walkers.walks_per_s"] = div("walkers.walks", "walkers.walk_s")
        vals["embedders_dist.tokens_per_s"] = div(
            "embedders_dist.token_epochs", "embedders_dist.fit_s")
        for layer, n in self.failed_layers.items():
            vals[f"{layer}.failed"] = n
        vals["trace.run_s"] = statistics.median(r["run_s"] for r in traced)
        vals["trace.base_run_s"] = statistics.median(r["run_s"] for r in plain)
        vals["trace.overhead_s"] = vals["trace.run_s"] - vals["trace.base_run_s"]
        vals["trace.self_coverage"] = statistics.median(coverage)
        return vals

    def write_trace(self) -> str:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        path = os.path.join(WORK, "traces", f"{self.workload}-{os.getpid()}.jsonl")
        with open(path, "w") as f:
            for t in self.tracers:
                for s in t.spans:
                    f.write(json.dumps(s) + "\n")
        return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the smoke test")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "pyrdf2vec_ray")):
        print(f"perfbench: no pyrdf2vec_ray package under {ROOT}",
              file=sys.stderr)
        return 2

    # the metrics stream is a private copy of stdout; fd 1 (Ray's and
    # every child's stdout) goes to stderr
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, HERE, os.environ.get("PYTHONPATH")) if p)
    sys.path[:0] = [ROOT, HERE]

    bench = Bench(args.workload, args.seed, args.scale, out)
    try:
        setup_s = bench.setup()
        attempted, failed = bench.measure(args.seconds, bool(args.trace))
    finally:
        stop_ray()
        if bench.tracers:
            print(f"perfbench: spans in {bench.write_trace()}", file=sys.stderr)
    if {r["traced"] for r in bench.records} != {False, bool(args.trace)}:
        return 1    # no good run of some kind: nothing to report
    metrics = bench.per_layer() if args.trace else bench.end_to_end(setup_s)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
