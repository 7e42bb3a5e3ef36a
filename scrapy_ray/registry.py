"""User-extension surface (SURVEY.md §2.10) — the Scrapy hook points
re-expressed as composable Arrow batch-function chains:

| Scrapy hook                                  | Ours                        |
|----------------------------------------------|-----------------------------|
| Spider.parse_* callbacks                     | @parse_stage registry       |
| Item pipelines (process_item/DropItem)       | item_pipelines chain        |
| Spider middlewares (filter/augment output)   | link_middlewares chain      |
| CrawlSpider Rule(LinkExtractor, cb, follow)  | crawl_rule registry         |

A parse stage is ``fn(pa.Table) -> pa.Table`` over fetched-page batches,
registered under the callback tag carried on frontier rows. Item pipelines
and link middlewares are ``fn(pa.Table) -> pa.Table`` applied in order; a
pipeline drops rows by filtering them out (DropItem ≙ filter), and both run
inside the engine's batch path — never per row.

Custom page types crawl through the ENGINE via ``@page_handler`` (round 2,
VERDICT item 2): register a per-page pure function + a URL route pattern,
and the fused wave parser dispatches matching pages to it — on Ray WORKERS,
not just the driver (CrawlEngine snapshots the registry at construction and
ships it into the per-chunk parse tasks via one ``ray.put``). The
reference-semantics simulator consults the same registry, so the
engine≡simulator equality tests extend to custom page types.

``@parse_stage`` (batch-level fn) remains for standalone Dataset pipelines
(`read_pages(...).map_batches(PARSE_STAGES[tag])`).
"""

from __future__ import annotations

import re
from collections.abc import Callable

import pyarrow as pa

BatchFn = Callable[[pa.Table], pa.Table]

PARSE_STAGES: dict[str, BatchFn] = {}

# Engine-fused per-page handlers: tag -> fn(url: str, html: bytes) -> dict
# with optional keys {"item": dict|None, "links": list[str]}. The item dict
# may set any ITEMS-schema field (name, address, rating, price, price_value,
# review_count, reviews, extracted_text, item_type); links are raw hrefs —
# absolutization/canonicalization/hashing stay centralized in the engine.
PAGE_HANDLERS: dict[str, Callable[[str, bytes], dict]] = {}

# URL routing, checked before the built-in listing/detail classifier:
# first match wins, in registration order.
URL_ROUTES: list[tuple[re.Pattern, str]] = []


def url_route(pattern: str, tag: str) -> None:
    """Route URLs matching ``pattern`` to the parse stage ``tag`` (the
    reference's CrawlSpider Rule ≙ LinkExtractor+callback)."""
    URL_ROUTES.append((re.compile(pattern), tag))


class CrawlRule:
    """CrawlSpider ``Rule(LinkExtractor(allow, deny), callback, follow)``
    parity [S:scrapy/spiders/crawl.py Rule, scrapy/linkextractors
    LxmlLinkExtractor allow/deny]: declarative link routing. When any rule
    is registered, every extracted link must match a rule (first match
    wins, ``re.search`` semantics like LinkExtractor) or it is dropped at
    extraction; a matched link's frontier row is tagged with the rule's
    ``tag`` (None = the default URL-kind classifier); pages whose URL
    matches a ``follow=False`` rule are parsed for items but emit NO links
    (Scrapy: callback-only rules don't follow by default). Seeds and
    redirect targets that match no rule keep default behavior — mirroring
    RedirectMiddleware re-issuing requests outside rule filtering."""

    __slots__ = ("allow", "deny", "tag", "follow")

    def __init__(self, allow: str | None, deny: str | None,
                 tag: str | None, follow: bool):
        self.allow = re.compile(allow) if allow is not None else None
        self.deny = re.compile(deny) if deny is not None else None
        self.tag = tag
        self.follow = follow

    def matches(self, url: str) -> bool:
        if self.allow is not None and self.allow.search(url) is None:
            return False
        return self.deny is None or self.deny.search(url) is None


CRAWL_RULES: list[CrawlRule] = []


def crawl_rule(allow: str | None = None, deny: str | None = None,
               tag: str | None = None, follow: bool = True) -> CrawlRule:
    """Register a CrawlSpider-style rule (see CrawlRule). Rules are checked
    in registration order; the engine snapshots them at construction and
    ships them to workers with the rest of the registry."""
    r = CrawlRule(allow, deny, tag, follow)
    CRAWL_RULES.append(r)
    return r


def match_rule(url: str, rules: list[CrawlRule]) -> CrawlRule | None:
    """First matching rule, or None (Scrapy: first Rule whose LinkExtractor
    yields the link wins; the per-page ``seen`` dedup makes it first-match)."""
    for r in rules:
        if r.matches(url):
            return r
    return None


def page_handler(tag: str, url_pattern: str | None = None):
    """Register an engine-fused per-page handler (and optionally its URL
    route). The handler must be a deterministic pure function of
    (url, html) — the byte-identical-extraction invariant applies."""

    def deco(fn: Callable[[str, bytes], dict]):
        PAGE_HANDLERS[tag] = fn
        if url_pattern is not None:
            url_route(url_pattern, tag)
        return fn

    return deco


def parse_stage(name: str) -> Callable[[BatchFn], BatchFn]:
    """Register a named parse stage (``callback`` tag on frontier rows)."""

    def deco(fn: BatchFn) -> BatchFn:
        PARSE_STAGES[name] = fn
        return fn

    return deco


def parse_one(html: bytes, stage: str = "parse_detail",
              url: str = "https://debug.local/x") -> dict:
    """Selector-debug helper (SURVEY §3.3, the ``scrapy shell`` analogue):
    run ONE page's bytes through a registered parse stage and return the
    single extracted row as a plain dict — no Ray, no Dataset. Links (when
    the stage emits them) come back under ``"links"``."""
    if stage not in PARSE_STAGES:
        raise KeyError(f"unknown parse stage {stage!r}; registered: "
                       f"{sorted(PARSE_STAGES)}")
    t = pa.table({"url": pa.array([url], pa.string()),
                  "html": pa.array([html], pa.binary()),
                  "callback": pa.array([stage], pa.string())})
    out = PARSE_STAGES[stage](t)
    return out.to_pylist()[0] if len(out) else {}


def apply_chain(chain: list[BatchFn] | tuple[BatchFn, ...], t: pa.Table) -> pa.Table:
    for fn in chain:
        t = fn(t)
    return t


def _register_builtins() -> None:
    from scrapy_ray.stages.extract import extract_items_batch, extract_listing_cards_batch

    PARSE_STAGES.setdefault("parse_detail", extract_items_batch)
    PARSE_STAGES.setdefault("parse_listing", extract_listing_cards_batch)


_register_builtins()
