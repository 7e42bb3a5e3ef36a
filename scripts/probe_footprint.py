"""Memory footprint of every process of a crawl or featurize session.

Starts a fresh local Ray session, runs ``--iters`` crawls (``crawl_wide``)
or featurize scans (``featurize``) with the engine directly, on the corpus
perfbench's workload of that name generates for ``--seed``, then prints one
JSON line per process of the session: the driver and every ``ray::``
process (task workers, ``CrawlShard`` actors, Ray Data's own actors).
Each line has the title, VmRSS and VmHWM, RssAnon/RssFile/RssShmem (MiB,
from ``/proc/<pid>/status``) and the Rss of each mapping group from
``/proc/<pid>/smaps``: a file under site-packages counts under its
top-level package (``polars``, ``pyarrow``, ``pandas``, ...), any other
file under its basename, and anonymous memory under ``[heap]``,
``[anon]`` or ``[stack]``. The last line sums VmRSS and VmHWM over the
printed processes. It only reads ``/proc``; ungated.

The crawl driver here imports what the engine imports and no more:
unlike perfbench, it does not import ``ray.data`` to quiet its logs.

Run from the repository root:
    python scripts/probe_footprint.py --workload crawl_wide --seed 601 --iters 3
    python scripts/probe_footprint.py --workload featurize --seed 601 --iters 3
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, ROOT)

from perfbench.procstat import session_pids  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

_SITE = re.compile(r"/(?:site|dist)-packages/([^/]+)")


def _read(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return fh.read().decode(errors="replace")
    except OSError:       # the process exited between listing and reading
        return ""


def _group_of(name: str) -> str:
    if not name:
        return "[anon]"
    if name.startswith("["):
        return "[stack]" if name.startswith("[stack") else name
    m = _SITE.search(name)
    if m:
        return m.group(1).split(".")[0]
    return os.path.basename(name.split(" (deleted)")[0])


def footprint(pid: int, top: int) -> dict | None:
    status = _read(f"/proc/{pid}/status")
    if not status:
        return None
    kb = {k: int(v.split()[0]) for k, v in
          (line.split(":", 1) for line in status.splitlines())
          if k in ("VmRSS", "VmHWM", "RssAnon", "RssFile", "RssShmem")}
    groups: dict[str, int] = {}
    name = ""
    for line in _read(f"/proc/{pid}/smaps").splitlines():
        head = line.split(None, 5)
        if "-" in head[0] and len(head) >= 5:      # a mapping's header line
            name = head[5].strip() if len(head) == 6 else ""
        elif head[0] == "Rss:":
            groups[_group_of(name)] = groups.get(_group_of(name), 0) + int(head[1])
    ranked = sorted(groups.items(), key=lambda kv: -kv[1])
    mib = {g: round(v / 1024, 1) for g, v in ranked[:top]}
    mib["(rest)"] = round(sum(v for _, v in ranked[top:]) / 1024, 1)
    title = _read(f"/proc/{pid}/cmdline").replace("\0", " ").split()
    return {"pid": pid, "title": "driver" if pid == os.getpid() else (title or ["?"])[0],
            **{k.lower() + "_mb": round(v / 1024, 1) for k, v in kb.items()},
            "rss_by_mapping_mb": mib}


def corpus_for(w, seed: int, work: str) -> str:
    """The workload's corpus, generated once into ``work`` by a child
    process: generating hashes urls, which would load polars here."""
    d = os.path.join(work, w.input_key(seed))
    if not os.path.exists(os.path.join(d, "DONE")):
        shutil.rmtree(d, ignore_errors=True)
        code = ("import sys; from perfbench.workloads import WORKLOADS; "
                "from scrapy_ray.sources.corpus import generate_corpus; "
                "generate_corpus(sys.argv[1], WORKLOADS[sys.argv[2]].corpus_spec("
                "int(sys.argv[3])), use_ray=False)")
        subprocess.run([sys.executable, "-c", code, os.path.join(d, "corpus"),
                        w.name, str(seed)], cwd=ROOT, check=True)
        open(os.path.join(d, "DONE"), "w").close()
    return os.path.join(d, "corpus")


def run_crawls(w, corpus: str, iters: int):
    """``iters`` crawls; the last engine is returned with its shard actors
    alive, so they are in the footprint."""
    import ray

    from scrapy_ray.pipelines.crawl import CrawlEngine

    eng = None
    for _ in range(iters):
        if eng is not None:
            for actor in eng.shards.actors:
                ray.kill(actor, no_restart=True)
        eng = CrawlEngine(corpus, w.crawl_config())
        eng.warm()
        eng.seed()
        while eng.run_wave():
            pass
        print(f"crawl: {eng.pages_fetched} pages", file=sys.stderr)
    return eng


def run_scans(corpus: str, iters: int, work: str) -> None:
    from scrapy_ray.stages.features import featurize_corpus
    from scrapy_ray.util import quiet_ray_data

    quiet_ray_data()
    out = os.path.join(work, "features")
    for _ in range(iters):
        shutil.rmtree(out, ignore_errors=True)
        print(f"featurize: {featurize_corpus(corpus, out)} rows", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=601)
    ap.add_argument("--iters", type=int, default=3)
    ap.add_argument("--cpus", type=int, default=int(subprocess.check_output(["nproc"])))
    ap.add_argument("--top", type=int, default=12, help="mapping groups shown per process")
    ap.add_argument("--work", default=os.path.join(tempfile.gettempdir(), "scrapy_ray_probe"),
                    help="corpus cache and scratch output")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    corpus = corpus_for(w, args.seed, args.work)

    import ray

    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(ROOT), os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR",
             object_store_memory=512 << 20)
    eng = None
    try:
        if w.kind == "crawl":
            eng = run_crawls(w, corpus, args.iters)
        else:
            run_scans(corpus, args.iters, args.work)
        rows = [r for r in (footprint(pid, args.top) for pid in sorted(session_pids()))
                if r and (r["title"] == "driver" or r["title"].startswith("ray::"))]
        for r in rows:
            print(json.dumps(r))
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "iters": args.iters, "processes": len(rows),
                          "vmrss_mb": round(sum(r["vmrss_mb"] for r in rows), 1),
                          "vmhwm_mb": round(sum(r["vmhwm_mb"] for r in rows), 1)}))
    finally:
        if eng is not None:
            for actor in eng.shards.actors:
                ray.kill(actor, no_restart=True)
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
