"""Workload definitions for the crawl/extract benchmark.

Each workload is a deterministic ``CorpusSpec`` (its ``seed`` comes from the
benchmark's ``--seed`` argument) plus, for crawls, the ``CrawlConfig`` the
engine runs with. The program under test only ever receives the generated
corpus directory. ``why`` is the one-line reason recorded in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

# Bumped whenever input generation or the reference changes, so cached
# inputs from an older definition are never reused.
INPUT_VERSION = 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "crawl" | "featurize"
    why: str
    spec: dict                     # CorpusSpec kwargs, without ``seed``
    cfg: dict = field(default_factory=dict)   # CrawlConfig kwargs (crawls)

    def corpus_spec(self, seed: int):
        from scrapy_ray.sources.corpus import CorpusSpec

        return CorpusSpec(seed=int(seed), **self.spec)

    def crawl_config(self, checkpoint_dir: str | None = None):
        from scrapy_ray.config import CrawlConfig

        return CrawlConfig(checkpoint_dir=checkpoint_dir, **self.cfg)

    def input_key(self, seed: int) -> str:
        """Cache key of the generated inputs: changes with the seed and with
        anything that shapes the corpus or the reference output."""
        blob = json.dumps({"v": INPUT_VERSION, "kind": self.kind,
                           "spec": self.spec, "cfg": self.cfg},
                          sort_keys=True).encode()
        return f"{self.name}-s{int(seed)}-{hashlib.sha1(blob).hexdigest()[:10]}"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        return cls(**json.loads(text))

    def record(self, seed: int, num_cpus: int) -> dict:
        """Everything needed to reproduce a run of this workload."""
        out = {"workload": self.name, "why": self.why, "num_cpus": num_cpus,
               "corpus_spec": asdict(self.corpus_spec(seed))}
        if self.kind == "crawl":
            out["crawl_config"] = {k: v for k, v in
                                   asdict(self.crawl_config()).items()
                                   if k != "checkpoint_dir"}
        return out


WORKLOADS: dict[str, Workload] = {w.name: w for w in [
    Workload(
        name="crawl_wide",
        kind="crawl",
        why=("1000 hosts, politeness off: a few waves of thousands of URLs "
             "where fetch-join + parse dominate; moves with kernel/fetch "
             "gains, bypasses per-wave overhead"),
        spec=dict(n_hosts=1000, total_pages=20_000, page_size=100,
                  n_buckets=16, max_details_per_host=400),
        cfg=dict(n_filter_shards=2, n_frontier_shards=2,
                 per_domain_cap=1 << 20, respect_crawl_delay=False,
                 checkpoint_every=1_000_000),
    ),
    Workload(
        name="featurize",
        kind="featurize",
        why=("whole-corpus Ray Data scan read_pages -> featurize -> "
             "write_parquet: same parse/extract kernels, no frontier or "
             "URL-seen state; a wave-loop change must leave it unchanged"),
        spec=dict(n_hosts=200, total_pages=5_000, page_size=50,
                  n_buckets=8, max_details_per_host=2000),
    ),
]}

