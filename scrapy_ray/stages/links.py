"""Vectorized request filters (SURVEY.md §2.2 M7–M9), applied inside the
fetch tasks to the candidate links that ``stages/parse.py`` emits (already
absolutized, canonicalized (M5 [S:w3lib/url.py]) and hashed):

- offsite   (M7 [S:scrapy/spidermiddlewares/offsite.py])   host suffix-match
- urllength (M8 [S:scrapy/spidermiddlewares/urllength.py]) <= 2083
- depth     (M9 [S:scrapy/spidermiddlewares/depth.py])     depth <= limit,
  priority adjusted by ``depth * depth_priority``

Dedup against the URL-seen filter is NOT here — that is the stateful anti-join
against the filter shards (state/urlseen.py, SURVEY §2.4 J4).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from scrapy_ray.config import CrawlConfig


def filter_params(cfg: CrawlConfig) -> tuple:
    """Picklable M7/M8/M9 parameter pack — lets the per-chunk fetch tasks
    run the filter in-task (wide-wave scaling: the driver link chain is
    O(links), measured ~1.9 s/run on the 1M-page bench at every CPU level;
    BENCH/BASELINE.md run N). Per-row pure, so task-side pre-sort filtering
    yields the identical surviving set."""
    return (cfg.url_length_limit, tuple(cfg.allowed_domains or ()),
            cfg.depth_limit, cfg.depth_priority)


def filter_links_p(t: pa.Table, p: tuple) -> pa.Table:
    """Vectorized M7/M8/M9 predicates + depth-based priority adjust,
    parameterized by a ``filter_params`` pack (usable inside Ray tasks)."""
    url_length_limit, allowed_domains, depth_limit, depth_priority = p
    if len(t) == 0:
        return t
    mask = pc.less_equal(pc.utf8_length(t["url"]), url_length_limit)  # M8
    if allowed_domains:  # M7: host == domain or endswith "."+domain
        ok = pc.is_in(t["host"], value_set=pa.array(list(allowed_domains)))
        for dom in allowed_domains:
            ok = pc.or_(ok, pc.ends_with(t["host"], pattern="." + dom))
        mask = pc.and_(mask, ok)
    if depth_limit > 0:  # M9
        mask = pc.and_(mask, pc.less_equal(t["depth"], depth_limit))
    t = t.filter(mask)
    if depth_priority:
        pri = pc.add(t["priority"], pc.multiply(t["depth"], depth_priority))
        t = t.set_column(t.schema.get_field_index("priority"), "priority",
                         pc.cast(pri, pa.int32()))
    return t


def filter_links(t: pa.Table, cfg: CrawlConfig) -> pa.Table:
    """Vectorized M7/M8/M9 predicates + depth-based priority adjust."""
    return filter_links_p(t, filter_params(cfg))
