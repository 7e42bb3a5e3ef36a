"""Spider contracts — the ``scrapy check`` analogue
([S:scrapy/contracts/__init__.py @url / @returns / @scrapes docstring
annotations, scrapy/commands/check.py]).

A contract declares what parsing ONE corpus page must yield: an item-count
range (``@returns items lo hi``), a followed-link-count range (``@returns
requests lo hi``), and fields that must come back non-empty (``@scrapes``).
``check_contracts`` fetches the page bytes from the bucketed corpus the
same way the engine's fetch-join does (url_hash bucket pruning, no full
scan) and runs them through the SAME fused ``parse_page_batch`` the wave
loop uses — registry snapshot, rules, handlers and all — so a green check
certifies the real extraction path, not a test double.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


@dataclass(frozen=True)
class Contract:
    url: str
    items: tuple = (0, None)      # (lo, hi) extracted items; hi None = no cap
    links: tuple = (0, None)      # (lo, hi) emitted links after rules
    scrapes: tuple = ()           # fields that must be present AND non-empty


CONTRACTS: list[Contract] = []


def contract(url: str, items: tuple = (0, None), links: tuple = (0, None),
             scrapes: tuple = ()) -> Contract:
    """Register a contract (module import time, like Scrapy docstrings)."""
    c = Contract(url, tuple(items), tuple(links), tuple(scrapes))
    CONTRACTS.append(c)
    return c


def _page_row(corpus_root: str, url: str) -> pa.Table | None:
    """One page's (url, html, status) row via bucket-pruned lookup."""
    from scrapy_ray.functions.hashing import hash64_one
    from scrapy_ray.sources.corpus import corpus_paths

    with open(os.path.join(corpus_root, "meta.json")) as fh:
        n_buckets = json.load(fh)["spec"]["n_buckets"]
    b = hash64_one(url) % n_buckets
    path = corpus_paths(corpus_root)["pages"].get(int(b))
    if path is None:
        return None
    t = pq.read_table(path, columns=["url", "html", "status"],
                      filters=pc.field("url") == url)
    return t if len(t) else None


def _in_range(n: int, lo_hi: tuple) -> bool:
    lo, hi = lo_hi
    return n >= lo and (hi is None or n <= hi)


def check_contracts(corpus_root: str,
                    contracts: list[Contract] | None = None) -> list[dict]:
    """Run every contract; returns one result dict per contract with
    ``ok`` plus the observed counts/fields (the CLI prints these and exits
    non-zero on any failure, like ``scrapy check``). Uses the process-local
    registry (handlers/routes/rules), mirroring a driver-side engine run."""
    from scrapy_ray.stages.parse import parse_page_batch

    results = []
    for c in (CONTRACTS if contracts is None else contracts):
        row = _page_row(corpus_root, c.url)
        if row is None:
            results.append({"url": c.url, "ok": False,
                            "error": "page not in corpus"})
            continue
        t = row.append_column("seq", pa.array([0], pa.int64()))
        t = t.append_column("depth", pa.array([0], pa.int32()))
        items, links, _ = parse_page_batch(t)
        missing = []
        empty = []
        for f in c.scrapes:
            if f not in items.column_names:
                missing.append(f)
            elif len(items) == 0 or items[f][0].as_py() in (None, "", []):
                empty.append(f)
        ok = (_in_range(len(items), c.items) and _in_range(len(links), c.links)
              and not missing and not empty)
        res = {"url": c.url, "ok": ok,
               "n_items": len(items), "n_links": len(links)}
        if missing:
            res["missing_fields"] = missing
        if empty:
            res["empty_fields"] = empty
        results.append(res)
    return results
