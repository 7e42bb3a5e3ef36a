"""Fused parse stage (SURVEY.md §3.1 step 3–4), run inside each fetch task
(``stages/fetch.py``) on the pages it just joined.

Input: fetched page batches with frontier carry-through columns
(url, html, status, depth, seq). A page's parse stage is derived from its
URL here (``classify_callback`` when handlers or rules are registered, the
built-in listing/detail pattern otherwise); frontier rows carry no tag.
Output (``Parsed``): the batch's two engine tables and one count —

- ``items`` (``schemas.ITEMS``): one row per page that yields an item
  (detail pages yield exactly one [B:north_star]), in page order;
- ``links`` (``schemas.LINKS``): every page's links in (page, link_idx)
  order, already absolutized + canonicalized + hashed *inside the task*,
  so the driver never touches html bytes;
- ``n_not_ok``: the pages that fail the status check.

The per-page Python loop does extraction, joining and canonicalization; the
vector kernels (host extraction, hashing) run once per batch over the flat
list of every page's links.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa

from scrapy_ray import schemas
from scrapy_ray.functions.hashing import hash64
from scrapy_ray.functions.htmlx import (base_url, extract_detail,
                                        extract_links, visible_text)
from scrapy_ray.functions.textnorm import parse_price, parse_rating
from scrapy_ray.functions.urlnorm import canonicalize_urls, hosts_of, urljoin_many
from scrapy_ray.stages.extract import _KIND, classify_callback


class Parsed(NamedTuple):
    """One parsed batch (see the module docstring)."""

    items: pa.Table                  # schemas.ITEMS
    links: pa.Table                  # schemas.LINKS
    n_not_ok: int


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
                     rules: list | None = None) -> Parsed:
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
    status = t["status"].to_pylist() if "status" in t.column_names else [200] * n
    cbs = (classify_callback(urls, routes=routes, rules=rules)
           if (handlers or rules) else [None] * n)
    allowed = frozenset(allowed_statuses)

    item_rows: list[tuple] = []     # ITEMS rows, in page order
    flat_links: list[str] = []      # every page's links, in page order
    n_links: list[int] = []         # page i's link count
    n_not_ok = 0
    for url, html, st, cb in zip(urls, htmls, status, cbs):
        # M10 + HttpError pass-through ([S:httperror.py handle_httpstatus_list])
        ok = 200 <= st < 300 or st in allowed
        n_not_ok += not ok
        item = None
        handler = handlers.get(cb) if (handlers and cb is not None) else None
        if handler is not None:
            res = (handler(url, html) or {}) if ok else {}
            item_ok, d = _item_from_handler(res.get("item"), cb, html)
            if item_ok:
                item = tuple(d.values())    # ITEMS field order, url aside
            raw = res.get("links", [])
            links = canonicalize_urls(urljoin_many(base_url(url, html), raw)) if (ok and raw) else []
        else:
            m = _KIND.match(url)
            kind = m.group(1) if m else ""
            if ok and kind in ("hotel", "restaurant"):
                d = extract_detail(html)
                if d["name"] is not None:
                    item = (kind, d["name"], d["address"], parse_rating(d["rating"]),
                            d["price"], parse_price(d["price"]), d["review_count"],
                            d["reviews"], visible_text(html))
            links = canonicalize_urls(urljoin_many(base_url(url, html), extract_links(html))) if ok else []
        if item is not None:
            item_rows.append((url, *item))
        if rules and links:
            pr = match_rule(url, rules)
            if pr is not None and not pr.follow:
                links = []          # callback-only rule: parse, don't follow
            else:
                links = [u for u in links if match_rule(u, rules) is not None]
        flat_links.extend(links)
        n_links.append(len(links))
    items = (pa.table([pa.array(col, type=f.type) for col, f
                       in zip(zip(*item_rows), schemas.ITEMS)], schema=schemas.ITEMS)
             if item_rows else schemas.ITEMS.empty_table())
    if not flat_links:
        return Parsed(items, schemas.LINKS.empty_table(), n_not_ok)
    # host + hash once per batch; page i's links are one run of flat_links
    counts = np.asarray(n_links, dtype=np.int64)
    page = np.repeat(np.arange(n), counts)
    link_idx = np.arange(len(flat_links)) - (np.cumsum(counts) - counts)[page]
    links = pa.table({
        "url": pa.array(flat_links, type=pa.string()),
        "host": pa.array(hosts_of(flat_links), type=pa.string()),
        "url_hash": pa.array(hash64(flat_links), type=pa.uint64()),
        "depth": t["depth"].to_numpy(zero_copy_only=False)[page] + 1,
        "priority": np.zeros(len(flat_links), dtype=np.int32),
        "parent_seq": t["seq"].to_numpy(zero_copy_only=False)[page],
        "link_idx": link_idx,
    }, schema=schemas.LINKS)
    return Parsed(items, links, n_not_ok)
