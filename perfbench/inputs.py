"""Untimed input preparation: the corpus and its reference output.

Run as a child process of the benchmark (``python3 perfbench/inputs.py
--workload <Workload as JSON> --seed N --out DIR``) so that corpus
generation and the reference crawl never touch the measured process's
memory high-water mark.
Inputs are cached under DIR and written atomically (``DONE`` last), so a
later run with the same workload and seed reuses them.

Reference per workload kind:

- crawl: ``pipelines.simulator.simulate_crawl`` on the same corpus and
  config — crawl order, URL-seen set and items, as parquet.
- featurize: the corpus row count; the per-page ground truth is the
  generator's own ``sources.corpus.detail_fields`` (see check.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def prepare(workload, seed: int, out: str) -> None:
    import pyarrow.parquet as pq

    from scrapy_ray.sources.corpus import corpus_paths, generate_corpus

    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    corpus = os.path.join(tmp, "corpus")
    generate_corpus(corpus, workload.corpus_spec(seed), use_ray=False)
    meta = {"corpus_rows": sum(
        pq.read_metadata(os.path.join(d, f)).num_rows
        for d in corpus_paths(corpus)["pages"].values()
        for f in os.listdir(d) if f.endswith(".parquet"))}
    if workload.kind == "crawl":
        from scrapy_ray.pipelines.simulator import simulate_crawl

        sim = simulate_crawl(corpus, workload.crawl_config())
        ref = os.path.join(tmp, "reference")
        os.makedirs(ref)
        pq.write_table(sim.crawl_order, os.path.join(ref, "crawl_order.parquet"))
        pq.write_table(sim.url_seen, os.path.join(ref, "url_seen.parquet"))
        pq.write_table(sim.items, os.path.join(ref, "items.parquet"))
        meta["sim_metrics"] = sim.metrics
    with open(os.path.join(tmp, "meta.json"), "w") as fh:
        json.dump(meta, fh)
    with open(os.path.join(tmp, "DONE"), "w") as fh:
        fh.write("ok\n")
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)


def main(argv: list[str] | None = None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.dirname(here))
    from perfbench.workloads import Workload

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="Workload as JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args(argv)
    prepare(Workload.from_json(a.workload), a.seed, a.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
