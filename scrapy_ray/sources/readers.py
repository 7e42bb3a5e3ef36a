"""Readers over the corpus layout (SURVEY.md §2.1 S1–S4).

``read_pages`` prunes at the read: columns are explicit and bucket files can
be restricted, so a 2-column transform never loads html bytes it doesn't use.
It is the only reader that builds a Dataset, so it alone imports ``ray.data``
(in its body): the crawl driver reads seeds and robots without loading it.
"""

from __future__ import annotations

from collections.abc import Sequence

import pyarrow.parquet as pq

from scrapy_ray.sources.corpus import corpus_paths


def read_pages(root: str, columns: Sequence[str] | None = None,
               buckets: Sequence[int] | None = None, **kwargs) -> "ray.data.Dataset":
    import glob
    import os

    import ray.data

    by_bucket = corpus_paths(root)["pages"]
    if buckets is not None:
        keep = {int(b) for b in buckets}
        dirs = [p for b, p in sorted(by_bucket.items()) if b in keep]
    else:
        dirs = [p for _, p in sorted(by_bucket.items())]
    # ray.data.read_parquet expands a single directory but not a list of
    # directories — pass the files explicitly
    paths = [f for d in dirs for f in sorted(glob.glob(os.path.join(d, "*.parquet")))]
    return ray.data.read_parquet(paths, columns=list(columns) if columns else None, **kwargs)


def read_seeds(root: str) -> list[dict]:
    """Seed list is tiny ([S:Spider.start_urls]) — read driver-side."""
    return pq.read_table(corpus_paths(root)["seeds"]).to_pylist()


def read_deltafetch_urls(path: str) -> list[str]:
    """URLs that yielded items in a previous crawl (DeltaFetch state,
    [S:scrapy-plugins/scrapy-deltafetch]): ``path`` is that crawl's items
    parquet — a single file or a directory of wave partitions. Item URLs
    are already canonical (the engine canonicalizes before fetch), tiny
    relative to the corpus, and read driver-side like seeds."""
    import glob
    import os

    files = ([path] if os.path.isfile(path) else
             sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)))
    out: list[str] = []
    seen: set[str] = set()
    for f in files:
        for u in pq.read_table(f, columns=["url"])["url"].to_pylist():
            if u not in seen:
                seen.add(u)
                out.append(u)
    return out


def read_robots(root: str) -> dict[str, str]:
    """host -> robots.txt body; small per-host table, broadcast to frontier shards."""
    t = pq.read_table(corpus_paths(root)["robots"])
    return dict(zip(t["host"].to_pylist(), t["body"].to_pylist()))
