"""Ray-free probe of one frontier partition (state/frontier.py FrontierShard)
over three corpus shapes that no perfbench workload has.

- many hosts: ``--hosts N --cap C`` pushes one row per host 4 times, then
  drains until the partition is empty (one wave with cap >= 4, four with
  cap 1). Prints the CPU time of the pushes and of the drain.
- deep queues: ``--deep HxR --waves W --per-wave P`` fills H hosts with R
  rows each, then runs W waves under politeness (download_delay 1, so every
  host emits one row per wave), pushing P new rows before each drain.
  Prints the CPU time of the fill and the mean ms per wave.
- sparse waves over many known hosts: ``--sparse H --waves W --per-wave P``
  gives H hosts one row each and drains them, then runs W waves that each
  push P rows to random known hosts and drain. Prints the CPU time of the
  fill and the mean ms per wave: the per-wave cost of the known-host count.

All print ``ru_maxrss`` growth over the run in MiB and the Arrow bytes of
the rows pushed. Times are ``time.process_time`` of this one process.

Run from the repository root:
    python scripts/probe_frontier.py --hosts 100000 --cap 8
    python scripts/probe_frontier.py --deep 10x10000 --waves 50 --per-wave 20
    python scripts/probe_frontier.py --sparse 100000 --waves 20 --per-wave 100
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np
import pandas  # noqa: F401  (pyarrow's first to_numpy imports it: keep it out of the timings)
import pyarrow as pa

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from scrapy_ray import schemas  # noqa: E402
from scrapy_ray.config import CrawlConfig  # noqa: E402
from scrapy_ray.state.frontier import FrontierShard  # noqa: E402


def _rows(host_idx: np.ndarray, seq0: int, rng: np.random.Generator) -> pa.Table:
    n = len(host_idx)
    seq = np.arange(seq0, seq0 + n, dtype=np.int64)
    hosts = [f"h{int(h):07d}.example" for h in host_idx]
    return pa.table({
        "url": [f"https://{h}/p{int(s)}" for h, s in zip(hosts, seq)],
        "host": hosts,
        "url_hash": pa.array(seq.astype(np.uint64)),
        "depth": pa.array(np.ones(n, dtype=np.int32)),
        "priority": pa.array(rng.integers(-2, 3, n).astype(np.int32)),
        "seq": pa.array(seq),
        "dont_filter": pa.array(np.zeros(n, dtype=bool)),
        "retries": pa.array(np.zeros(n, dtype=np.int32)),
        "redirects": pa.array(np.zeros(n, dtype=np.int32)),
    }, schema=schemas.FRONTIER)


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def many_hosts(n_hosts: int, cap: int) -> dict:
    rng = np.random.default_rng(0)
    pushes = [_rows(np.arange(n_hosts), k * n_hosts, rng) for k in range(4)]
    f = FrontierShard(0, CrawlConfig(per_domain_cap=cap))
    rss0 = _maxrss_mib()
    t0 = time.process_time()
    for t in pushes:
        f.push(t)
    t1 = time.process_time()
    wave, emitted = 0, 0
    while f.size():
        emitted += len(f.next_wave(wave))
        wave += 1
    t2 = time.process_time()
    assert emitted == 4 * n_hosts
    return {"shape": "many_hosts", "hosts": n_hosts, "cap": cap,
            "push_s": round(t1 - t0, 3), "drain_s": round(t2 - t1, 3),
            "push_drain_s": round(t2 - t0, 3), "waves": wave,
            "rss_growth_mib": round(_maxrss_mib() - rss0, 1),
            "rows_mib": round(sum(t.nbytes for t in pushes) / 2**20, 1)}


def deep_queues(n_hosts: int, n_rows: int, waves: int, per_wave: int) -> dict:
    rng = np.random.default_rng(0)
    fill = _rows(np.repeat(np.arange(n_hosts), n_rows), 0, rng)
    seq0 = len(fill)
    adds = []
    for _ in range(waves):
        adds.append(_rows(rng.integers(0, n_hosts, per_wave), seq0, rng))
        seq0 += per_wave
    f = FrontierShard(0, CrawlConfig(download_delay=1.0))
    rss0 = _maxrss_mib()
    t0 = time.process_time()
    f.push(fill)
    f.next_wave(0)
    t1 = time.process_time()
    emitted = 0
    for w, t in enumerate(adds, start=1):
        f.push(t)
        emitted += len(f.next_wave(w))
    t2 = time.process_time()
    assert emitted == waves * n_hosts
    return {"shape": "deep_queues", "hosts": n_hosts, "rows_per_host": n_rows,
            "waves": waves, "per_wave": per_wave,
            "fill_s": round(t1 - t0, 3),
            "ms_per_wave": round(1000 * (t2 - t1) / waves, 2),
            "rss_growth_mib": round(_maxrss_mib() - rss0, 1),
            "rows_mib": round((fill.nbytes + sum(t.nbytes for t in adds)) / 2**20, 1)}


def sparse_waves(n_hosts: int, waves: int, per_wave: int) -> dict:
    rng = np.random.default_rng(0)
    fill = _rows(np.arange(n_hosts), 0, rng)
    adds = [_rows(rng.integers(0, n_hosts, per_wave), n_hosts + w * per_wave, rng)
            for w in range(waves)]
    f = FrontierShard(0, CrawlConfig(per_domain_cap=per_wave))
    rss0 = _maxrss_mib()
    t0 = time.process_time()
    f.push(fill)
    f.next_wave(0)
    t1 = time.process_time()
    emitted = 0
    for w, t in enumerate(adds, start=1):
        f.push(t)
        emitted += len(f.next_wave(w))
    t2 = time.process_time()
    assert emitted == waves * per_wave and f.size() == 0
    return {"shape": "sparse_waves", "hosts": n_hosts, "waves": waves,
            "per_wave": per_wave, "fill_s": round(t1 - t0, 3),
            "ms_per_wave": round(1000 * (t2 - t1) / waves, 2),
            "rss_growth_mib": round(_maxrss_mib() - rss0, 1),
            "rows_mib": round((fill.nbytes + sum(t.nbytes for t in adds)) / 2**20, 1)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--hosts", type=int, help="many-host shape: host count")
    ap.add_argument("--cap", type=int, default=8, help="per_domain_cap")
    ap.add_argument("--deep", help="deep-queue shape: HOSTSxROWS, e.g. 10x10000")
    ap.add_argument("--sparse", type=int, help="sparse-wave shape: known-host count")
    ap.add_argument("--waves", type=int, default=50)
    ap.add_argument("--per-wave", type=int, default=20)
    a = ap.parse_args()
    if [a.hosts, a.deep, a.sparse].count(None) != 2:
        ap.error("give exactly one of --hosts, --deep and --sparse")
    if a.hosts is not None:
        out = many_hosts(a.hosts, a.cap)
    elif a.sparse is not None:
        out = sparse_waves(a.sparse, a.waves, a.per_wave)
    else:
        h, r = (int(x) for x in a.deep.split("x"))
        out = deep_queues(h, r, a.waves, a.per_wave)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
