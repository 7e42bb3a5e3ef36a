"""Benchmark of the crawl/extract engine: one workload, closed loop.

    python3 perfbench/run.py --workload crawl_wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. One process runs one workload: it builds
the seeded inputs (cached under ``perfbench/_work``, untimed), starts a
fresh local Ray session with ``num_cpus`` = ``nproc``, runs one untimed
warm-up iteration, then runs one crawl (or one featurize scan) at a time
until ``--seconds`` have passed, checking every output against an
independent reference.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up
time, the CPU seconds of the whole Ray session per iteration and the
throughput per CPU second, and peak memory. ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics: span
times around the engine's public layer calls, the engine's own counters,
per-process CPU and peak RSS from ``/proc``, and wall-clock figures.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a human summary goes to stderr.
See perfbench/README.md for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import check, procstat  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

MIN_ITERS = 2               # closed-loop iterations even past --seconds
MAX_LOOP_S = 120.0          # hard stop for the closed loop, whatever --seconds
OBJECT_STORE_BYTES = 512 << 20


def _perf() -> float:
    return time.perf_counter()


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else nullcontext()


def num_cpus() -> int:
    return int(subprocess.check_output(["nproc"]))


# --- inputs -------------------------------------------------------------

def prepare_inputs(w, seed: int) -> str:
    """Corpus + reference for (workload, seed), built by a child process
    and cached; returns the input directory."""
    cache = os.path.join(WORK, "inputs")
    d = os.path.join(cache, w.input_key(seed))
    if not os.path.exists(os.path.join(d, "DONE")):
        os.makedirs(cache, exist_ok=True)
        subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"),
                        "--workload", w.to_json(), "--seed", str(seed),
                        "--out", d],
                       stdout=sys.stderr, check=True, timeout=150)
    return d


def run_check(kind: str, out: str, ref: str) -> list[str]:
    """Differences found by check.py, run in a child process."""
    p = subprocess.run([sys.executable, os.path.join(HERE, "check.py"),
                        kind, out, ref], capture_output=True, text=True,
                       timeout=150)
    if p.returncode != 0:
        return [f"check.py exited {p.returncode}: {p.stderr[-500:]}"]
    return json.loads(p.stdout.splitlines()[-1])


class Checker:
    """Checks the output of every iteration. The full check (``run_check``)
    runs only for an output whose digest no earlier full check has passed:
    an output identical to one that passed is correct too, and the full
    check costs a child process and seconds per iteration."""

    def __init__(self) -> None:
        self.good: set[str] = set()

    def __call__(self, digest: str, full) -> list[str]:
        if digest in self.good:
            return []
        diffs = full()
        if not diffs:
            self.good.add(digest)
        return diffs


# --- Ray session --------------------------------------------------------

def start_ray(cpus: int) -> float:
    import ray

    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    t0 = _perf()
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR",
             object_store_memory=OBJECT_STORE_BYTES)
    dt = _perf() - t0
    from scrapy_ray.util import quiet_ray_data

    quiet_ray_data()
    return dt


def stop_ray() -> list[int]:
    """Shut the session down and wait until every process it started has
    exited; returns pids that had to be killed."""
    import ray

    snap = procstat.snapshot()
    pids = {pid: start for pid, (_, _, start, _) in snap.items()
            if pid != os.getpid()}
    ray.shutdown()
    return procstat.reap(pids)


def _warm_imports() -> int:
    import scrapy_ray.stages.features  # noqa: F401
    import scrapy_ray.stages.fetch  # noqa: F401
    import scrapy_ray.stages.parse  # noqa: F401
    return os.getpid()


def warm_task_workers(cpus: int) -> None:
    import ray

    task = ray.remote(_warm_imports)
    ray.get([task.remote() for _ in range(2 * cpus)])


# --- crawl workloads ----------------------------------------------------

def _fetch_counts(counts, args, out) -> None:
    counts["fetch.urls_requested"] += len(args[1])
    counts["fetch.pages"] += out[2]
    counts["fetch.items_out"] += len(out[0])
    counts["fetch.links_out"] += len(out[1])


def _emit_counts(counts, args, out) -> None:
    counts["frontier.rows_emitted"] += len(out)


def crawl_targets() -> list:
    from scrapy_ray.pipelines import crawl as crawl_mod
    from scrapy_ray.state.frontier import ShardedFrontier
    from scrapy_ray.state.urlseen import ShardedUrlSeen

    return [
        (crawl_mod.CrawlEngine, "run_wave", "crawl.run_wave", None),
        (crawl_mod.CrawlEngine, "seed", "crawl.seed", None),
        (crawl_mod, "fetch_parse_wave", "fetch.fetch_parse_wave", _fetch_counts),
        (ShardedUrlSeen, "check_mask", "urlseen.check_mask", None),
        (ShardedUrlSeen, "filter_new", "urlseen.filter_new", None),
        (ShardedFrontier, "next_wave", "frontier.next_wave", None),
        (ShardedFrontier, "merge_wave", "frontier.merge_wave", _emit_counts),
        (ShardedFrontier, "end_wave_async", "frontier.end_wave_async", None),
        (ShardedFrontier, "push", "frontier.push", None),
        (ShardedFrontier, "earliest_ready_wave", "frontier.earliest_ready_wave",
         None),
    ]


def _teardown(eng) -> None:
    import ray

    if eng._sink_pool is not None:
        eng._sink_pool.shutdown(wait=True)
    for actor in eng.urlseen.shards + eng.frontier.shards:
        ray.kill(actor, no_restart=True)


def crawl_once(w, corpus: str, ref_dir: str, run_dir: str,
               tracer: Tracer | None, checker: Checker) -> dict:
    import pyarrow as pa

    from scrapy_ray.pipelines.crawl import CrawlEngine

    ckpt = os.path.join(run_dir, "ckpt")
    result_dir = os.path.join(run_dir, "result")
    for d in (ckpt, result_dir):
        shutil.rmtree(d, ignore_errors=True)
    t0 = _perf()
    eng = CrawlEngine(corpus, w.crawl_config(ckpt))
    try:
        eng.warm()
        t1 = _perf()
        before = procstat.snapshot()
        procstat.reset_hwm(before)
        waves = []
        with ExitStack() as stack:
            if tracer:
                stack.enter_context(tracer.patched(crawl_targets()))
            t2 = _perf()
            with _span(tracer, "bench.run"):
                eng.seed()
                while True:
                    a = _perf()
                    if not eng.run_wave():
                        break
                    waves.append(_perf() - a)
                with _span(tracer, "crawl.drain"):
                    eng._drain_sinks()
            t3 = _perf()
        after = procstat.snapshot()
        fstats = eng.frontier.stats()
        ustats = eng.urlseen.stats()
        cpu = procstat.cpu_delta(before, after)
        rec = {
            "setup_s": t1 - t0, "run_s": t3 - t2, "wave_s": waves,
            "cpu": cpu, "cpu_s": sum(cpu.values()),
            "pages": eng.pages_fetched,
            "urls_seen": sum(s["n_seen"] for s in ustats),
            "urls_filtered": sum(s["n_filtered"] for s in ustats),
            "rows_pushed": sum(s["pushed"] for s in fstats),
            "robots_denied": sum(s["robots_denied"] for s in fstats),
            "phase": dict(eng.phase_times),
            "hwm": procstat.hwm_mb(after),
        }
        result = eng.result()
    finally:
        _teardown(eng)

    def full_check() -> list[str]:
        check.save_crawl_result(result, result_dir)
        return run_check("crawl", result_dir, ref_dir)

    rec["diffs"] = checker(check.crawl_digest(result), full_check)
    del result
    pa.default_memory_pool().release_unused()
    return rec


# --- featurize workload -------------------------------------------------

def _op_counts(counts, args, out) -> None:
    """Ray Data per-operator wall and UDF times of the dataset just
    written (read through Ray Data's private stats API; absent -> 0)."""
    ds = getattr(args[0], "_write_ds", None) or args[0]
    try:
        todo = [ds._get_stats_summary()]
    except AttributeError:
        return
    while todo:
        summary = todo.pop()
        todo.extend(summary.parents)
        for op in summary.operators_stats:
            key = ("features.read_op_s" if op.operator_name.startswith("Read")
                   else "features.map_op_s")
            counts[key] += op.wall_time.get("sum", 0.0)
            counts["features.udf_s"] += (op.udf_time or {}).get("sum", 0.0)


def featurize_targets() -> list:
    import ray.data

    from scrapy_ray.stages import features

    return [
        (features, "featurize_corpus", "features.featurize_corpus", None),
        (ray.data.Dataset, "write_parquet", "features.write_parquet",
         _op_counts),
    ]


def featurize_once(corpus: str, corpus_rows: int, run_dir: str,
                   tracer: Tracer | None, checker: Checker) -> dict:
    from scrapy_ray.stages import features

    out = os.path.join(run_dir, "features")
    shutil.rmtree(out, ignore_errors=True)
    before = procstat.snapshot()
    procstat.reset_hwm(before)
    with ExitStack() as stack:
        if tracer:
            stack.enter_context(tracer.patched(featurize_targets()))
        t0 = _perf()
        with _span(tracer, "bench.run"):
            n = features.featurize_corpus(corpus, out)
        t1 = _perf()
    after = procstat.snapshot()
    cpu = procstat.cpu_delta(before, after)
    diffs = checker(check.featurize_digest(out),
                    lambda: run_check("featurize", out, str(corpus_rows)))
    if n != corpus_rows:
        diffs.append(f"featurize_corpus returned {n}, corpus has {corpus_rows}")
    return {"setup_s": 0.0, "run_s": t1 - t0, "wave_s": [t1 - t0],
            "cpu": cpu, "cpu_s": sum(cpu.values()),
            "pages": n, "urls_seen": n, "phase": {},
            "hwm": procstat.hwm_mb(after), "diffs": diffs}


# --- closed loop --------------------------------------------------------

def closed_loop(step, seconds: float, trace: bool) -> tuple:
    """Run ``step(tracer_or_None)`` one at a time until ``seconds`` have
    passed (the last iteration finishes) and at least MIN_ITERS ran.
    With ``trace``, odd iterations are traced and the loop ends on a
    traced one. Returns (records, tracer)."""
    tracer = Tracer() if trace else None
    need = 2 * MIN_ITERS if trace else MIN_ITERS
    recs: list[dict] = []
    t_start = _perf()
    fails_in_row = 0
    while True:
        traced = trace and len(recs) % 2 == 1
        try:
            rec = step(tracer if traced else None)
        except Exception:   # one failed iteration is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            rec = {"diffs": ["raised: " + traceback.format_exc(limit=1)]}
        rec["traced"] = traced
        recs.append(rec)
        if rec["diffs"]:
            print(f"perfbench: iteration {len(recs)} FAILED: {rec['diffs']}",
                  file=sys.stderr)
        fails_in_row = fails_in_row + 1 if "run_s" not in rec else 0
        elapsed = _perf() - t_start
        if fails_in_row >= 2 or elapsed > MAX_LOOP_S:
            break
        if (len(recs) >= need and not (trace and len(recs) % 2)
                and elapsed >= seconds):
            break
    return recs, tracer


# --- metrics ------------------------------------------------------------

def _pct(values: list[float], q: int) -> float:
    """q-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(recs: list[dict], base_setup_s: float) -> dict[str, float]:
    """Gated metrics. Work is timed in CPU seconds of the whole session
    (driver, shards, task workers, Ray system), not wall seconds: on a
    shared VM the wall time of the same crawl swings by a third with the
    hypervisor's steal time, which CPU time does not count."""
    ok = [r for r in recs if "run_s" in r and not r["traced"]]
    if not ok:
        return {}
    return {
        "setup_s": base_setup_s + statistics.median(r["setup_s"] for r in ok),
        "cpu_s": statistics.median(r["cpu_s"] for r in ok),
        "pages_per_cpu_s": statistics.median(r["pages"] / r["cpu_s"]
                                             for r in ok),
        "frontier_urls_per_cpu_s": statistics.median(r["urls_seen"] / r["cpu_s"]
                                                     for r in ok),
        "peak_rss_mb": max(sum(r["hwm"][g] for g in procstat.RSS_GROUPS)
                           for r in ok),
    }


def wall(recs: list[dict]) -> dict[str, float]:
    """Wall-clock figures of untraced iterations: what a user waits for,
    reported as per-layer (ungated) metrics because steal time dominates
    their spread from one run to the next."""
    waves_ms = [s * 1000.0 for r in recs for s in r["wave_s"]]
    return {
        "wall.run_s": statistics.median(r["run_s"] for r in recs),
        "wall.pages_per_s": statistics.median(r["pages"] / r["run_s"]
                                              for r in recs),
        "wall.frontier_urls_per_s": statistics.median(
            r["urls_seen"] / r["run_s"] for r in recs),
        "wall.wave_ms_p50": statistics.median(waves_ms),
        "wall.wave_ms_p90": _pct(waves_ms, 90),
    }


def per_layer(w, recs: list[dict], tracer: Tracer) -> dict[str, float]:
    traced = [r for r in recs if "run_s" in r and r["traced"]]
    plain = [r for r in recs if "run_s" in r and not r["traced"]]
    if not traced or not plain:
        return {}
    n = len(traced)
    summ = tracer.summary()
    c = tracer.counts

    def tot(name: str) -> float:
        return summ.get(name, {}).get("total_s", 0.0) / n

    def own(name: str) -> float:
        return summ.get(name, {}).get("self_s", 0.0) / n

    def calls(name: str) -> float:
        return summ.get(name, {}).get("calls", 0) / n

    def mean(key) -> float:
        return sum(key(r) for r in traced) / n

    def layer_self(prefix: str) -> float:
        return sum(s["self_s"] for k, s in summ.items()
                   if k.startswith(prefix)) / n

    fetch_calls = calls("fetch.fetch_parse_wave")
    crawl = w.kind == "crawl"
    cand = mean(lambda r: r["urls_seen"] + r["urls_filtered"]) if crawl else 0.0
    fresh = mean(lambda r: r["urls_seen"]) if crawl else 0.0
    m = {
        "fetch.call_s": tot("fetch.fetch_parse_wave"),
        "fetch.calls": fetch_calls,
        "fetch.ms_per_call": (1000.0 * tot("fetch.fetch_parse_wave") / fetch_calls
                              if fetch_calls else 0.0),
        "fetch.pages_per_call": (c["fetch.pages"] / n / fetch_calls
                                 if fetch_calls else 0.0),
        "fetch.hit_ratio": (c["fetch.pages"] / c["fetch.urls_requested"]
                            if c["fetch.urls_requested"] else 0.0),
        "fetch.items_out": c["fetch.items_out"] / n,
        "fetch.links_out": c["fetch.links_out"] / n,
        "fetch.self_s": layer_self("fetch."),
        "urlseen.check_mask_s": tot("urlseen.check_mask"),
        "urlseen.check_mask_calls": calls("urlseen.check_mask"),
        "urlseen.filter_new_s": tot("urlseen.filter_new"),
        "urlseen.filter_new_calls": calls("urlseen.filter_new"),
        "urlseen.candidates": cand,
        "urlseen.fresh": fresh,
        "urlseen.fresh_ratio": fresh / cand if cand else 0.0,
        "urlseen.self_s": layer_self("urlseen."),
        "frontier.next_wave_s": tot("frontier.next_wave"),
        "frontier.merge_wave_s": tot("frontier.merge_wave"),
        "frontier.end_wave_async_s": tot("frontier.end_wave_async"),
        "frontier.push_s": tot("frontier.push"),
        "frontier.rows_emitted": c["frontier.rows_emitted"] / n,
        "frontier.rows_pushed": mean(lambda r: r["rows_pushed"]) if crawl else 0.0,
        "frontier.robots_denied": (mean(lambda r: r["robots_denied"])
                                   if crawl else 0.0),
        "frontier.self_s": layer_self("frontier."),
        "crawl.run_wave_s": tot("crawl.run_wave"),
        "crawl.waves": mean(lambda r: len(r["wave_s"])) if crawl else 0.0,
        "crawl.self_s": own("crawl.run_wave"),
        "crawl.seed_self_s": own("crawl.seed"),
        "crawl.drain_s": tot("crawl.drain"),
        "features.call_s": tot("features.featurize_corpus"),
        "features.self_s": layer_self("features."),
        "features.read_op_s": c["features.read_op_s"] / n,
        "features.map_op_s": c["features.map_op_s"] / n,
        "features.udf_s": c["features.udf_s"] / n,
    }
    for k in ("next_wave", "fetch_parse", "link_filter", "urlseen",
              "frontier_push", "sink", "checkpoint", "push_wait"):
        m[f"phase.{k}_s"] = mean(lambda r: r["phase"].get(k, 0.0))
    for g in procstat.GROUPS:
        m[f"cpu.{g}_s"] = mean(lambda r: r["cpu"][g])
    for g in procstat.RSS_GROUPS:
        m[f"rss.{g}_mb"] = max(r["hwm"][g] for r in traced)
    run_traced = mean(lambda r: r["run_s"])
    run_plain = sum(r["run_s"] for r in plain) / len(plain)
    layers = sum(layer_self(p) for p in ("fetch.", "urlseen.", "frontier.",
                                         "crawl.", "features."))
    m.update(wall(plain))
    m.update({
        "trace.run_s": run_traced,
        "trace.untraced_run_s": run_plain,
        "trace.overhead_s": run_traced - run_plain,
        "trace.self_sum_s": layers,
        "trace.unattributed_s": own("bench.run"),
        "trace.spans": len(tracer.spans) / n,
    })
    return m


# --- main ---------------------------------------------------------------

def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def _check_declared(metrics: dict, declared: dict) -> None:
    if metrics and set(metrics) != set(declared):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(declared))}")


def run(w, seed: int, seconds: float, trace: bool) -> dict:
    """Run workload ``w`` (a ``Workload``); returns the result object."""
    import scrapy_ray  # noqa: F401  (fail fast when the program is absent)

    declared = load_declared()
    cpus = num_cpus()
    print("perfbench: " + json.dumps(w.record(seed, cpus)), file=sys.stderr)
    inputs = prepare_inputs(w, seed)
    corpus = os.path.join(inputs, "corpus")
    with open(os.path.join(inputs, "meta.json")) as fh:
        meta = json.load(fh)
    run_dir = os.path.join(WORK, "run", w.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    checker = Checker()
    ray_init_s = start_ray(cpus)
    try:
        t0 = _perf()
        warm_task_workers(cpus)
        if w.kind == "crawl":
            ref_dir = os.path.join(inputs, "reference")

            def step(tracer):
                return crawl_once(w, corpus, ref_dir, run_dir, tracer,
                                  checker)
        else:
            def step(tracer):
                return featurize_once(corpus, meta["corpus_rows"], run_dir,
                                      tracer, checker)
        # one untimed iteration: the first of a session runs slower, and
        # once its output passed the full check, later identical outputs
        # are checked by digest
        step(None)
        warm_s = _perf() - t0
        recs, tracer = closed_loop(step, seconds, trace)
    finally:
        killed = stop_ray()
        shutil.rmtree(run_dir, ignore_errors=True)
    if killed:
        print(f"perfbench: killed {len(killed)} leftover processes",
              file=sys.stderr)

    failed = sum(1 for r in recs if r["diffs"])
    e2e = end_to_end(recs, ray_init_s + warm_s)
    _check_declared(e2e, declared["end_to_end"])
    if trace:
        layers = per_layer(w, recs, tracer)
        _check_declared(layers, declared["per_layer"])
    metrics, units = (layers, declared["per_layer"]) if trace else (
        e2e, declared["end_to_end"])
    summary = {"workload": w.name, "seed": seed, "num_cpus": cpus,
               "ray_init_s": ray_init_s, "warm_s": warm_s,
               "iterations": len(recs), "failed_frac": failed / len(recs),
               "run_s": [r.get("run_s") for r in recs],
               "cpu_s": [r.get("cpu_s") for r in recs],
               "end_to_end": e2e}
    print("perfbench: " + json.dumps(summary), file=sys.stderr)
    return {"correct": failed == 0 and bool(metrics), "attempted": len(recs),
            "failed": failed,
            "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                        for k, u in units.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    result = run(WORKLOADS[a.workload], a.seed, a.seconds, bool(a.trace))
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
