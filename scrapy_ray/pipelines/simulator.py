"""Reference-semantics crawl simulator (SURVEY.md §5.2.2) — golden truth.

A deliberately boring, single-process, single-data-structure reimplementation
of the scheduler semantics the distributed engine must reproduce: priority
desc + FIFO-seq tiebreak ([S:scrapy/pqueues.py ScrapyPriorityQueue]),
fingerprint dedup at schedule time ([S:scrapy/dupefilters.py RFPDupeFilter]),
per-host politeness budget in virtual wave time ([S:scrapy/core/downloader
Slot] -> config.CrawlConfig semantics), robots gating
([S:scrapy/downloadermiddlewares/robotstxt.py]).

It shares only the *leaf* kernels with the engine (canonicalize, hash,
extract, robots parse — all pure functions pinned by their own unit goldens)
and none of the distributed machinery: no shards, no actors, no Arrow buses.
If the engine's cross-shard merge, politeness clocks, or anti-join ordering
drift, `tests/test_crawl_e2e.py` catches it against this.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from urllib.parse import urljoin

import pyarrow as pa
import pyarrow.parquet as pq

from scrapy_ray import schemas
from scrapy_ray.config import CrawlConfig
from scrapy_ray.functions.compress import maybe_decompress
from scrapy_ray.functions.hashing import hash64_one
from scrapy_ray.functions.htmlx import (base_url, extract_detail,
                                        extract_links, visible_text)
from scrapy_ray.functions.textnorm import parse_price, parse_rating
from scrapy_ray.functions.urlnorm import canonicalize_url, host_of
from scrapy_ray.sources.corpus import corpus_paths
from scrapy_ray.stages.extract import _KIND
from scrapy_ray.state.frontier import _NEVER, _path_of
from scrapy_ray.state.robots import ALLOW_ALL, parse_robots


@dataclass
class SimResult:
    items: pa.Table
    crawl_order: pa.Table
    url_seen: pa.Table
    metrics: dict = field(default_factory=dict)


def simulate_crawl(corpus_root: str, cfg: CrawlConfig | None = None,
                   seeds: list[dict] | None = None) -> SimResult:
    cfg = cfg or CrawlConfig()
    paths = corpus_paths(corpus_root)
    pages = pa.concat_tables([pq.read_table(p)
                              for _, p in sorted(paths["pages"].items())])
    page_of = {u: i for i, u in enumerate(pages["url"].to_pylist())}
    # M11 mirror: the engine's fused parse decompresses bodies
    # (parse_page_batch -> decompress_batch) — the simulator must see the
    # same bytes or an ingested gzip corpus silently diverges.
    htmls = [maybe_decompress(h) for h in pages["html"].to_pylist()]
    statuses = pages["status"].to_pylist()
    locations = (pages["location"].to_pylist() if "location" in pages.column_names
                 else [""] * len(pages))
    robots = {}
    if cfg.obey_robots:
        rt = pq.read_table(paths["robots"])
        robots = {h: parse_robots(b, cfg.user_agent)
                  for h, b in zip(rt["host"].to_pylist(), rt["body"].to_pylist())}
    if seeds is None:
        seeds = pq.read_table(paths["seeds"]).to_pylist()

    seen: dict[int, str] = {}
    if cfg.deltafetch_items:
        # DeltaFetch mirror (see CrawlConfig.deltafetch_items / engine seed())
        from scrapy_ray.sources.readers import read_deltafetch_urls

        for u in read_deltafetch_urls(cfg.deltafetch_items):
            seen[hash64_one(u)] = u
    queues: dict[str, list] = defaultdict(list)
    last_emit: dict[str, int] = {}
    at_delay: dict[str, float] = {}   # F4 mirror (see config.py)
    sessions: dict[str, int] = {}     # F6 mirror (see CrawlConfig.cookies)
    session_log: list[tuple[int, int]] = []
    next_seq = 0
    n_robots_denied = 0

    def rules(host):
        return robots.get(host, ALLOW_ALL)

    def delay(host):
        robots_d = rules(host).crawl_delay if cfg.respect_crawl_delay else 0.0
        at_d = at_delay.get(host, cfg.at_start_delay) if cfg.autothrottle else 0.0
        return max(cfg.download_delay, robots_d, at_d)

    def prefilter(cands: list[dict]) -> list[dict]:
        out = []
        for c in cands:
            if len(c["url"]) > cfg.url_length_limit:       # M8
                continue
            if cfg.allowed_domains:                        # M7
                hh = c["host"]
                if not any(hh == d or hh.endswith("." + d) for d in cfg.allowed_domains):
                    continue
            if cfg.depth_limit and c["depth"] > cfg.depth_limit:  # M9
                continue
            if cfg.depth_priority:
                c = dict(c, priority=c["priority"] + c["depth"] * cfg.depth_priority)
            out.append(c)
        return out

    # Dedup records URLs *before* the robots gate but *after* M7/M8/M9 —
    # mirror of the engine's ordering (filter_links -> urlseen.filter_new ->
    # frontier.push): seq is assigned to every dedup survivor (robots-denied
    # rows consume a seq but never enqueue, exactly as in the engine).
    def schedule2(cands: list[dict], filters: bool = True) -> None:
        nonlocal next_seq, n_robots_denied
        fresh = []
        for c in (prefilter(cands) if filters else cands):
            h = hash64_one(c["url"])
            if h in seen:
                continue
            seen[h] = c["url"]
            fresh.append(c)
        for c in fresh:
            c = dict(c, seq=next_seq)
            next_seq += 1
            host = c["host"]
            if cfg.obey_robots and not rules(host).is_allowed(_path_of(c["url"])):
                n_robots_denied += 1
                continue
            heapq.heappush(queues[host], (-c["priority"], c["seq"], c))

    # seed
    seed_cands = []
    for i, s in enumerate(seeds):
        u = canonicalize_url(s["url"])
        seed_cands.append({"url": u, "host": host_of(u), "depth": 0,
                           "priority": int(s.get("priority", 0))})
    schedule2(seed_cands, filters=False)  # engine seeds skip M7/M8/M9 too

    order_rows: list[tuple[int, int, str]] = []
    items_cols: dict[str, list] = {k: [] for k in schemas.ITEMS.names}
    pages_fetched = 0
    maxsize_dropped = 0
    maxsize_warned = 0
    error_count = 0
    items_count = 0
    depth_stats: dict[int, int] = {}
    wave_idx = 0

    while True:
        if (cfg.max_pages and pages_fetched >= cfg.max_pages) or \
           (cfg.max_items and items_count >= cfg.max_items) or \
           (cfg.max_errors and error_count >= cfg.max_errors) or \
           (cfg.max_waves and wave_idx >= cfg.max_waves):
            break
        # emit wave
        emitted: list[dict] = []
        for host in list(queues):
            q = queues[host]
            if not q:
                del queues[host]
                continue
            d = delay(host)
            last = last_emit.get(host, _NEVER)
            ready = last + cfg.waves_per_emit(d, cfg.delay_jitter(host, last))
            if wave_idx < ready:
                continue
            cap = 1 if d > 0 else cfg.per_domain_cap
            for _ in range(min(cap, len(q))):
                emitted.append(heapq.heappop(q)[2])
            last_emit[host] = wave_idx
            if not q:
                del queues[host]
        if not emitted:
            ready_waves = [
                last_emit.get(h, _NEVER)
                + cfg.waves_per_emit(delay(h), cfg.delay_jitter(
                    h, last_emit.get(h, _NEVER)))
                for h, q in queues.items() if q]
            if not ready_waves:
                break
            wave_idx = max(wave_idx + 1, min(ready_waves))
            continue

        emitted.sort(key=lambda c: (-c["priority"], c["seq"]))
        if cfg.max_wave_urls and len(emitted) > cfg.max_wave_urls:
            # CONCURRENT_REQUESTS mirror: tail re-enters with original seq;
            # last_emit stands (the host got its slot this wave)
            for c in emitted[cfg.max_wave_urls:]:
                heapq.heappush(queues[c["host"]],
                               (-c["priority"], c["seq"], c))
            emitted = emitted[:cfg.max_wave_urls]
        for c in emitted:
            order_rows.append((c["seq"], wave_idx, c["url"]))
            depth_stats[c["depth"]] = depth_stats.get(c["depth"], 0) + 1
            if cfg.cookies:   # F6: the token this request carried
                session_log.append((c["seq"], sessions.get(c["host"], 0)))

        # fetch + parse in seq order (canonical link order = parent seq asc,
        # document order — matches engine's (parent_seq, link_idx) sort).
        # Custom @page_handler stages dispatch through the SAME registry the
        # engine ships to its workers (registry.py) — the mirror rule.
        from scrapy_ray.registry import CRAWL_RULES, PAGE_HANDLERS, match_rule
        from scrapy_ray.stages.extract import classify_callback
        from scrapy_ray.stages.parse import _item_from_handler

        cands: list[dict] = []
        retry_cands: list[dict] = []                 # [S:retry.py] mirror
        redirect_cands: list[dict] = []              # [S:redirect.py] mirror
        wave_host_bytes: dict[str, list[int]] = {}   # host -> [n, nbytes] (F4)
        sess_wave: dict[str, int] = {}               # F6 mirror: last wins
        for c in sorted(emitted, key=lambda c: c["seq"]):
            i = page_of.get(c["url"])
            if i is None:
                continue                     # dangling link -> fetch miss
            # DOWNLOAD_MAXSIZE mirror ([S:http11.py _ResponseReader], raw
            # stored bytes): an aborted body never reaches ANY middleware —
            # not the autothrottle sampler, not redirect/retry, not parse,
            # and it does not count as fetched.
            if cfg.download_maxsize or cfg.download_warnsize:
                raw_len = len(pages["html"][i].as_py())
                if cfg.download_warnsize and raw_len > cfg.download_warnsize:
                    maxsize_warned += 1
                if cfg.download_maxsize and raw_len > cfg.download_maxsize:
                    maxsize_dropped += 1
                    continue
            if cfg.autothrottle:
                st = wave_host_bytes.setdefault(c["host"], [0, 0])
                st[0] += 1
                st[1] += len(pages["html"][i].as_py())
            pages_fetched += 1
            if cfg.cookies:
                # F6 mirror: every FETCHED response (incl. diverted) rotates
                # the host session; seq-order loop makes overwrite = max seq
                sess_wave[c["host"]] = int(hash64_one(c["url"]))
            if not (200 <= statuses[i] < 300):   # M10
                if (cfg.redirect_max and statuses[i] in cfg.redirect_codes
                        and locations[i]
                        and c.get("redirects", 0) < cfg.redirect_max):
                    tu = canonicalize_url(urljoin(c["url"], locations[i]))
                    redirect_cands.append({"url": tu, "host": host_of(tu),
                                           "depth": c["depth"],
                                           "priority": c["priority"],
                                           "redirects": c.get("redirects", 0) + 1})
                    continue
                elif (cfg.retry_max and statuses[i] in cfg.retry_codes
                        and c.get("retries", 0) < cfg.retry_max):
                    retry_cands.append(c)
                    continue
                elif statuses[i] not in cfg.handle_httpstatus_list:
                    # error response: fell through every middleware
                    # (CLOSESPIDER_ERRORCOUNT mirror)
                    error_count += 1
                    continue
                # else: HttpError pass-through ([S:httperror.py
                # handle_httpstatus_list]) — parse like a 2xx
            html = htmls[i]
            # meta-refresh mirror ([S:redirect.py MetaRefreshMiddleware]):
            # a followable refresh REPLACES the response — no parse.
            # 2xx-only: the engine's _meta_refresh_split gates on status,
            # so an allowed-through error page never refresh-redirects.
            if cfg.metarefresh and cfg.redirect_max \
                    and 200 <= statuses[i] < 300 \
                    and c.get("redirects", 0) < cfg.redirect_max:
                from scrapy_ray.functions.htmlx import base_url as _b
                from scrapy_ray.functions.htmlx import meta_refresh
                mr = meta_refresh(html)
                if mr is not None and mr[0] <= cfg.metarefresh_maxdelay:
                    tu = canonicalize_url(urljoin(_b(c["url"], html), mr[1]))
                    redirect_cands.append({"url": tu, "host": host_of(tu),
                                           "depth": c["depth"],
                                           "priority": c["priority"],
                                           "redirects": c.get("redirects", 0) + 1})
                    continue
            cb = (classify_callback([c["url"]])[0]
                  if (PAGE_HANDLERS or CRAWL_RULES) else None)
            handler = PAGE_HANDLERS.get(cb) if cb is not None else None
            if handler is not None:
                res = handler(c["url"], html) or {}
                item_ok, item = _item_from_handler(res.get("item"), cb, html)
                if item_ok:
                    items_count += 1
                    items_cols["url"].append(c["url"])
                    for k in ("item_type", "name", "address", "rating", "price",
                              "price_value", "review_count", "reviews",
                              "extracted_text"):
                        items_cols[k].append(item.get(k))
                raw_links = res.get("links", [])
            else:
                m = _KIND.match(c["url"])
                kind = m.group(1) if m else ""
                if kind in ("hotel", "restaurant"):
                    d = extract_detail(html)
                    if d["name"] is not None:
                        items_count += 1
                        items_cols["url"].append(c["url"])
                        items_cols["item_type"].append(kind)
                        items_cols["name"].append(d["name"])
                        items_cols["address"].append(d["address"])
                        items_cols["rating"].append(parse_rating(d["rating"]))
                        items_cols["price"].append(d["price"])
                        items_cols["price_value"].append(parse_price(d["price"]))
                        items_cols["review_count"].append(d["review_count"])
                        items_cols["reviews"].append(d["reviews"])
                        items_cols["extracted_text"].append(visible_text(html))
                raw_links = extract_links(html)
            # CrawlSpider rules mirror (registry.CrawlRule): a page matching
            # a follow=False rule emits nothing; a link must match some rule
            # (checked on the CANONICAL url, same as the engine's parse).
            if CRAWL_RULES and raw_links:
                pr = match_rule(c["url"], CRAWL_RULES)
                if pr is not None and not pr.follow:
                    raw_links = []
            # stdlib urljoin, not the engine's fast-path urljoin_many: the
            # oracle stays independent of the kernel it checks
            base = base_url(c["url"], html)
            for href in raw_links:
                cu = canonicalize_url(urljoin(base, href))
                if CRAWL_RULES and match_rule(cu, CRAWL_RULES) is None:
                    continue
                cands.append({"url": cu, "host": host_of(cu),
                              "depth": c["depth"] + 1, "priority": 0})
        if cfg.autothrottle:
            # same smoothing as FrontierShard.update_throttle
            for h, (n_r, nb) in wave_host_bytes.items():
                lat = nb / n_r / cfg.at_bytes_per_sec
                prev = at_delay.get(h, cfg.at_start_delay)
                new = (prev + lat / cfg.at_target_concurrency) / 2.0
                at_delay[h] = min(max(new, cfg.download_delay), cfg.at_max_delay)
        if cfg.cookies:
            sessions.update(sess_wave)   # F6: applied before the next wave
        schedule2(cands)
        # redirect targets take seqs AFTER this wave's fresh links and
        # BEFORE its retries; normal dedup, NO spider-middleware filters
        # (engine mirror — config.py contract)
        schedule2(redirect_cands, filters=False)
        # retries take seqs AFTER this wave's fresh links, original-seq
        # order, dupefilter bypassed, priority lowered (engine mirror)
        for c in retry_cands:
            nc = dict(c, seq=next_seq,
                      priority=c["priority"] + cfg.retry_priority_adjust,
                      retries=c.get("retries", 0) + 1)
            next_seq += 1
            heapq.heappush(queues[nc["host"]], (-nc["priority"], nc["seq"], nc))
        wave_idx += 1

    order_rows_s = order_rows  # already in emission order per wave
    order = pa.table(
        {"seq": [r[0] for r in order_rows_s],
         "wave": pa.array([r[1] for r in order_rows_s], type=pa.int32()),
         "url": [r[2] for r in order_rows_s]},
        schema=schemas.CRAWL_ORDER,
    )
    seen_t = pa.table(
        {"url_hash": pa.array(list(seen.keys()), type=pa.uint64()),
         "url": pa.array(list(seen.values()), type=pa.string())},
        schema=schemas.URL_SEEN,
    )
    return SimResult(
        items=pa.table(items_cols, schema=schemas.ITEMS),
        crawl_order=order,
        url_seen=seen_t,
        metrics={"pages_fetched": pages_fetched, "items": items_count,
                 "scheduled": len(order_rows), "url_seen": len(seen),
                 "robots_denied": n_robots_denied, "waves": wave_idx,
                 "maxsize_dropped": maxsize_dropped,
                 "maxsize_warned": maxsize_warned,
                 "error_responses": error_count,
                 "depth_stats": {str(k): v for k, v
                                 in sorted(depth_stats.items())},
                 **({"sessions": {h: int(t) for h, t
                                  in sorted(sessions.items())},
                     "session_log": sorted(session_log)}
                    if cfg.cookies else {})},
    )
