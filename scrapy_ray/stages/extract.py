"""Parse/extract stages (SURVEY.md §2.2 M1–M3, M6).

The reference's spider callbacks (``parse`` on listing pages, ``parse_detail``
on detail pages [B:north_star]) become *named parse stages* over Arrow
batches: pure functions of the ``html`` bytes, batch in / batch out, run via
``map_batches(..., batch_format="pyarrow")``. Extraction is deterministic —
``extracted_text`` is byte-identical per url across engine, simulator, and
golden files [B:input_hint].
"""

from __future__ import annotations

import re

import pyarrow as pa

from scrapy_ray import schemas
from scrapy_ray.functions.htmlx import (base_url, extract_detail,
                                        extract_listing, visible_text)
from scrapy_ray.functions.textnorm import parse_price, parse_rating

_KIND = re.compile(r"https?://[^/]+/(listing|hotel|restaurant)/")


def classify_callback(urls: list[str], routes=None, rules=None) -> list[str]:
    """URL pattern -> parse-stage tag (the reference routes via Rule/callback;
    here the tag is derived from the URL wherever a page is parsed, and
    frontier rows carry none).

    CrawlSpider rules (``registry.crawl_rule``) take precedence: a URL whose
    first matching rule carries a tag gets that tag. Then custom
    ``registry.url_route`` patterns (registration order, first match wins);
    ``routes``/``rules`` override the global registry — Ray worker tasks
    receive the driver's snapshot this way (worker processes never see
    driver-side registrations)."""
    if routes is None:
        from scrapy_ray.registry import URL_ROUTES
        routes = URL_ROUTES
    if rules is None:
        from scrapy_ray.registry import CRAWL_RULES
        rules = CRAWL_RULES
    out = []
    for u in urls:
        tag = None
        if rules:
            from scrapy_ray.registry import match_rule
            r = match_rule(u, rules)
            if r is not None and r.tag is not None:
                tag = r.tag
        if tag is None:
            for pat, t in routes:
                if pat.match(u):
                    tag = t
                    break
        if tag is None:
            m = _KIND.match(u)
            tag = "parse_listing" if (m and m.group(1) == "listing") else "parse_detail"
        out.append(tag)
    return out


def extract_items_batch(t: pa.Table) -> pa.Table:
    """Detail pages in the batch -> full item rows (schema ITEMS).

    Non-detail rows pass through silently empty (the wave loop feeds mixed
    batches). Mirrors the reference detail callback's item pipeline: name,
    address, rating, price, review fields + normalizers [B:north_star].
    """
    urls = t["url"].to_pylist()
    htmls = t["html"].to_pylist()
    cbs = t["callback"].to_pylist() if "callback" in t.column_names else classify_callback(urls)

    cols: dict[str, list] = {k: [] for k in schemas.ITEMS.names}
    for url, html, cb in zip(urls, htmls, cbs):
        if cb != "parse_detail":
            continue
        d = extract_detail(html)
        if d["name"] is None:  # not a detail template (e.g. dangling 404 body)
            continue
        m = _KIND.match(url)
        cols["url"].append(url)
        cols["item_type"].append(m.group(1) if m else "hotel")
        cols["name"].append(d["name"])
        cols["address"].append(d["address"])
        cols["rating"].append(parse_rating(d["rating"]))
        cols["price"].append(d["price"])
        cols["price_value"].append(parse_price(d["price"]))
        cols["review_count"].append(d["review_count"])
        cols["reviews"].append(d["reviews"])
        cols["extracted_text"].append(visible_text(html))
    return pa.table(cols, schema=schemas.ITEMS)


def extract_listing_cards_batch(t: pa.Table) -> pa.Table:
    """Listing pages -> one row per item card (schema LISTING_ITEMS) — the
    listing-extractor half of M2, exposed as its own queryable stage."""
    from scrapy_ray.functions.urlnorm import urljoin_many

    urls = t["url"].to_pylist()
    htmls = t["html"].to_pylist()
    cbs = t["callback"].to_pylist() if "callback" in t.column_names else classify_callback(urls)

    cols: dict[str, list] = {k: [] for k in schemas.LISTING_ITEMS.names}
    for url, html, cb in zip(urls, htmls, cbs):
        if cb != "parse_listing":
            continue
        li = extract_listing(html)
        hrefs = urljoin_many(base_url(url, html), [c["detail_href"] for c in li["cards"]])
        for c, href in zip(li["cards"], hrefs):
            cols["url"].append(url)
            cols["detail_url"].append(href)
            cols["name"].append(c["name"])
            cols["rating"].append(parse_rating(c["rating"]))
            cols["price"].append(c["price"])
    return pa.table(cols, schema=schemas.LISTING_ITEMS)
