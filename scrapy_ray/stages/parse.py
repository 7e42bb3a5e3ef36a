"""Fused parse stage (SURVEY.md §3.1 step 3–4), run inside each fetch task
(``stages/fetch.py``) on the pages it just joined.

Input: fetched page batches with frontier carry-through columns
(url, html, status, depth, priority, seq, callback). Output: ONE row per
fetched page with

- item columns (nullable; detail pages yield exactly one item [B:north_star]);
- link list-columns ``link_url/link_host/link_hash`` sharing offsets —
  already absolutized + canonicalized + hashed *inside the task*, so the
  driver only flattens offsets (numpy) and never touches html bytes.

The per-page Python loop does extraction, joining and canonicalization; the
vector kernels (host extraction, hashing) run once per batch over the flat
list of every page's links.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from scrapy_ray import schemas
from scrapy_ray.functions.hashing import hash64
from scrapy_ray.functions.htmlx import (base_url, extract_detail,
                                        extract_links, visible_text)
from scrapy_ray.functions.textnorm import parse_price, parse_rating
from scrapy_ray.functions.urlnorm import canonicalize_urls, hosts_of, urljoin_many
from scrapy_ray.stages.extract import _KIND, classify_callback

PARSED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("seq", pa.int64()),
        ("depth", pa.int32()),
        ("status_ok", pa.bool_()),
        ("item_ok", pa.bool_()),
        ("item_type", pa.string()),
        ("name", pa.string()),
        ("address", pa.string()),
        ("rating", pa.float64()),
        ("price", pa.string()),
        ("price_value", pa.float64()),
        ("review_count", pa.int64()),
        ("reviews", pa.list_(pa.string())),
        ("extracted_text", pa.string()),
        ("link_url", pa.list_(pa.string())),
        ("link_host", pa.list_(pa.string())),
        ("link_hash", pa.list_(pa.uint64())),
    ]
)


def _item_from_handler(item: dict | None, cb: str, html: bytes) -> tuple[bool, dict]:
    """Normalize a custom handler's item dict onto the ITEMS-schema fields
    (shared by engine and simulator so custom extraction stays mirrored)."""
    if item is None:
        return False, {}
    out = {
        "item_type": item.get("item_type", cb),
        "name": item.get("name"),
        "address": item.get("address"),
        "rating": item.get("rating"),
        "price": item.get("price"),
        "price_value": item.get("price_value"),
        "review_count": item.get("review_count"),
        "reviews": item.get("reviews"),
        "extracted_text": (item["extracted_text"] if "extracted_text" in item
                           else visible_text(html)),
    }
    return True, out


def parse_page_batch(t: pa.Table, handlers: dict | None = None,
                     routes: list | None = None,
                     allowed_statuses: tuple = (),
                     rules: list | None = None) -> pa.Table:
    """``handlers``/``routes``/``rules``: the driver's registry snapshot
    (shipped into worker tasks by the engine — see registry.py). None = use
    the process-local registry (driver-side standalone pipelines, simulator
    parity). ``rules`` = CrawlSpider Rule parity (registry.CrawlRule):
    a page matching a follow=False rule emits no links; extracted links
    must match some rule or they are dropped here, before hashing."""
    from scrapy_ray.functions.compress import decompress_batch
    from scrapy_ray.registry import match_rule

    if handlers is None:
        from scrapy_ray.registry import PAGE_HANDLERS
        handlers = PAGE_HANDLERS
    if rules is None:
        from scrapy_ray.registry import CRAWL_RULES
        rules = CRAWL_RULES

    n = len(t)
    urls = t["url"].to_pylist()
    htmls = decompress_batch(t["html"].to_pylist())  # M11: magic-sniffed
    seqs = t["seq"].to_pylist()
    depths = t["depth"].to_pylist()
    status = t["status"].to_pylist() if "status" in t.column_names else [200] * n
    cbs = (classify_callback(urls, routes=routes, rules=rules)
           if (handlers or rules) else [None] * n)
    allowed = frozenset(allowed_statuses)

    cols: dict[str, list] = {k: [] for k in PARSED_SCHEMA.names[:-3]}
    flat_links: list[str] = []      # every page's links, in page order
    offsets = [0]                   # page i's links: flat_links[offsets[i]:offsets[i+1]]
    for url, html, seq, depth, st, cb in zip(urls, htmls, seqs, depths, status, cbs):
        # M10 + HttpError pass-through ([S:httperror.py handle_httpstatus_list])
        ok = 200 <= st < 300 or st in allowed
        handler = handlers.get(cb) if (handlers and cb is not None) else None
        if handler is not None:
            res = (handler(url, html) or {}) if ok else {}
            item_ok, item = _item_from_handler(res.get("item"), cb, html)
            raw = res.get("links", [])
            links = canonicalize_urls(urljoin_many(base_url(url, html), raw)) if (ok and raw) else []
            cols["item_type"].append(item.get("item_type") if item_ok else None)
            cols["name"].append(item.get("name") if item_ok else None)
            cols["address"].append(item.get("address") if item_ok else None)
            cols["rating"].append(item.get("rating") if item_ok else None)
            cols["price"].append(item.get("price") if item_ok else None)
            cols["price_value"].append(item.get("price_value") if item_ok else None)
            cols["review_count"].append(item.get("review_count") if item_ok else None)
            cols["reviews"].append(item.get("reviews") if item_ok else None)
            cols["extracted_text"].append(item.get("extracted_text") if item_ok else None)
        else:
            m = _KIND.match(url)
            kind = m.group(1) if m else ""
            item_ok = False
            d = None
            if ok and kind in ("hotel", "restaurant"):
                d = extract_detail(html)
                item_ok = d["name"] is not None
            cols["item_type"].append(kind if item_ok else None)
            cols["name"].append(d["name"] if item_ok else None)
            cols["address"].append(d["address"] if item_ok else None)
            cols["rating"].append(parse_rating(d["rating"]) if item_ok else None)
            cols["price"].append(d["price"] if item_ok else None)
            cols["price_value"].append(parse_price(d["price"]) if item_ok else None)
            cols["review_count"].append(d["review_count"] if item_ok else None)
            cols["reviews"].append(d["reviews"] if item_ok else None)
            cols["extracted_text"].append(visible_text(html) if item_ok else None)
            links = canonicalize_urls(urljoin_many(base_url(url, html), extract_links(html))) if ok else []
        if rules and links:
            pr = match_rule(url, rules)
            if pr is not None and not pr.follow:
                links = []          # callback-only rule: parse, don't follow
            else:
                links = [u for u in links if match_rule(u, rules) is not None]
        cols["url"].append(url)
        cols["seq"].append(seq)
        cols["depth"].append(depth)
        cols["status_ok"].append(ok)
        cols["item_ok"].append(item_ok)
        flat_links.extend(links)
        offsets.append(len(flat_links))
    # host + hash once per batch; the three list columns share one offsets array
    off = pa.array(offsets, type=pa.int32())
    link_cols = {
        "link_url": pa.array(flat_links, type=pa.string()),
        "link_host": pa.array(hosts_of(flat_links), type=pa.string()),
        "link_hash": pa.array(hash64(flat_links) if flat_links else [], type=pa.uint64()),
    }
    for name, values in link_cols.items():
        cols[name] = pa.ListArray.from_arrays(off, values)
    return pa.table(cols, schema=PARSED_SCHEMA)


def split_items(parsed: pa.Table) -> pa.Table:
    """Parsed page rows -> ITEMS table."""
    hit = parsed.filter(parsed["item_ok"])
    return pa.table(
        {name: hit[name] for name in
         ("url", "item_type", "name", "address", "rating", "price",
          "price_value", "review_count", "reviews", "extracted_text")},
        schema=schemas.ITEMS,
    )


def split_links(parsed: pa.Table, routes: list | None = None,
                rules: list | None = None) -> pa.Table:
    """Parsed page rows -> flattened LINKS table in canonical
    (parent_seq, link_idx) order (pages arrive in any order; caller sorts)."""
    lu = parsed["link_url"].combine_chunks()
    if len(lu) == 0 or len(pc.list_flatten(lu)) == 0:
        return schemas.LINKS.empty_table()
    parent = pc.list_parent_indices(lu).to_numpy(zero_copy_only=False)
    flat_url = pc.list_flatten(lu)
    flat_host = pc.list_flatten(parsed["link_host"].combine_chunks())
    flat_hash = pc.list_flatten(parsed["link_hash"].combine_chunks())
    lengths = pc.list_value_length(lu).to_numpy(zero_copy_only=False).astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    link_idx = (np.arange(len(flat_url), dtype=np.int64) - starts[parent]).astype(np.int32)
    parent_seq = parsed["seq"].to_numpy(zero_copy_only=False)[parent]
    parent_depth = parsed["depth"].to_numpy(zero_copy_only=False)[parent]
    parent_url = pc.take(parsed["url"], pa.array(parent))
    from scrapy_ray.stages.extract import classify_callback

    return pa.table(
        {
            "url": flat_url,
            "host": flat_host,
            "url_hash": flat_hash,
            "depth": pa.array((parent_depth + 1).astype(np.int32)),
            "priority": pa.array(np.zeros(len(flat_url), dtype=np.int32)),
            "parent_url": parent_url,
            "parent_seq": pa.array(parent_seq),
            "link_idx": pa.array(link_idx),
            "callback": pa.array(classify_callback(flat_url.to_pylist(),
                                                   routes=routes, rules=rules),
                                 type=pa.string()),
        },
        schema=schemas.LINKS,
    )
