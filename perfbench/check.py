"""Output checks. Each returns a list of differences; empty means correct.

The benchmark runs them in a child process, so the measured driver never
holds the reference tables or the Python copies the comparison makes:

    python3 perfbench/check.py crawl RESULT_DIR REFERENCE_DIR
    python3 perfbench/check.py featurize OUT_DIR CORPUS_ROWS

prints the list of differences as JSON on its last line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
from types import SimpleNamespace

import pyarrow as pa
import pyarrow.parquet as pq

_CRAWL_TABLES = ("crawl_order", "url_seen", "items")


def load_reference(ref_dir: str) -> dict[str, pa.Table]:
    return {name: pq.read_table(os.path.join(ref_dir, f"{name}.parquet"))
            for name in _CRAWL_TABLES}


def save_crawl_result(result, out_dir: str) -> None:
    """Write a ``CrawlResult``'s tables in the reference's layout."""
    os.makedirs(out_dir, exist_ok=True)
    for name in _CRAWL_TABLES:
        pq.write_table(getattr(result, name),
                       os.path.join(out_dir, f"{name}.parquet"))


def crawl_diffs(result, ref: dict[str, pa.Table]) -> list[str]:
    """Engine ``CrawlResult`` vs the simulator's reference tables: the same
    crawl order (seq, wave, url), the same URL-seen set and byte-identical
    items (compared in url order)."""
    diffs = []
    a, b = result.crawl_order, ref["crawl_order"]
    if a.to_pydict() != b.to_pydict():
        diffs.append(f"crawl_order differs ({len(a)} rows vs {len(b)} in the "
                     f"reference)")
    sa = set(zip(result.url_seen["url_hash"].to_pylist(),
                 result.url_seen["url"].to_pylist()))
    sb = set(zip(ref["url_seen"]["url_hash"].to_pylist(),
                 ref["url_seen"]["url"].to_pylist()))
    if sa != sb:
        diffs.append(f"url_seen differs ({len(sa - sb)} extra, "
                     f"{len(sb - sa)} missing)")
    ia = result.items.sort_by("url")
    ib = ref["items"].sort_by("url")
    if not ia.equals(ib):
        diffs.append(f"items differ ({len(ia)} rows vs {len(ib)} in the "
                     f"reference)")
    return diffs


def _read_sink(out_dir: str, columns: list[str] | None = None) -> pa.Table:
    files = sorted(f for f in os.listdir(out_dir) if f.endswith(".parquet"))
    return pa.concat_tables([pq.read_table(os.path.join(out_dir, f),
                                           columns=columns) for f in files])


def _digest(tables: list[pa.Table]) -> str:
    h = hashlib.sha256()
    for t in tables:
        for name in t.column_names:
            h.update(name.encode())
            h.update(repr(t[name].to_pylist()).encode())
    return h.hexdigest()


def crawl_digest(result) -> str:
    """Digest of what ``crawl_diffs`` compares: equal digests, equal
    crawl order, URL-seen set and items."""
    seen = result.url_seen.select(["url_hash", "url"]).sort_by(
        [("url_hash", "ascending"), ("url", "ascending")])
    return _digest([result.crawl_order, seen, result.items.sort_by("url")])


def featurize_digest(out_dir: str) -> str:
    """Digest of a featurize sink's rows, in url order."""
    return _digest([_read_sink(out_dir).sort_by("url")])


_DETAIL = re.compile(r"^https://h(\d+)\.example\.com/(hotel|restaurant)/(\d+)$")


def _same(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


def featurize_diffs(out_dir: str, corpus_rows: int) -> list[str]:
    """The featurize sink must hold one row per corpus page, and every
    detail page's name, rating and price must equal the generator's ground
    truth ``detail_fields``."""
    from scrapy_ray.sources.corpus import detail_fields

    t = _read_sink(out_dir, ["url", "name", "rating", "price_value"])
    diffs = []
    if len(t) != corpus_rows:
        diffs.append(f"featurize wrote {len(t)} rows, corpus has {corpus_rows}")
    n_detail = n_bad = 0
    first_bad = None
    for url, name, rating, price in zip(*(t[c].to_pylist() for c in
                                          ("url", "name", "rating",
                                           "price_value"))):
        m = _DETAIL.match(url)
        if m is None:
            continue
        n_detail += 1
        host_idx, detail_id = int(m.group(1)), int(m.group(3))
        f = detail_fields(host_idx, f"h{m.group(1)}.example.com", detail_id)
        if not (name == f["name"] and _same(rating, float(f["rating"]))
                and _same(price, float(f["price"].lstrip("$")))):
            n_bad += 1
            first_bad = first_bad or url
    if n_detail == 0:
        diffs.append("featurize output holds no detail pages")
    if n_bad:
        diffs.append(f"{n_bad} detail pages differ from the generator's "
                     f"fields (first: {first_bad})")
    return diffs


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))))
    kind, out, ref = argv
    if kind == "crawl":
        diffs = crawl_diffs(SimpleNamespace(**load_reference(out)),
                            load_reference(ref))
    else:
        diffs = featurize_diffs(out, int(ref))
    print(json.dumps(diffs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
