"""Fixed pyarrow schemas per logical table (SURVEY.md §1).

The reference (Scrapy) is schema-free Python objects ([S:scrapy/item.py]); we
invert that: every table has an explicit Arrow schema, nothing is inferred.
``pages`` is exactly the driver-mandated input shape [B:input_hint].

``to_ipc``/``from_ipc`` are the one wire format for tables that cross the
engine's Ray boundaries (the fetch task, every CrawlShard RPC).
"""

from __future__ import annotations

import pyarrow as pa

# The input table of Common-Crawl-style web pages [B:input_hint].
PAGES = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# Sidecar columns the synthetic corpus also carries (FIXTURES.md §1): derivable,
# not part of the contract schema.
PAGES_FULL = pa.schema(
    list(PAGES)
    + [
        ("host", pa.string()),
        ("status", pa.int16()),
        ("location", pa.string()),   # 3xx redirect target ("" otherwise)
        ("url_hash", pa.uint64()),
        ("bucket", pa.int32()),
    ]
)

# One row of the frontier = one Scrapy Request ([S:scrapy/http/request]).
# The row carries no callback tag and no referer: the parse stage is derived
# from the URL when the page is parsed (stages/parse.py), and nothing reads a
# parent url. A fetch task requeues a request (retry, redirect, meta refresh)
# as a row of this schema too, the way Scrapy's middlewares hand the
# scheduler a copy of the Request (stages/fetch.py).
FRONTIER = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("url_hash", pa.uint64()),
        ("depth", pa.int32()),
        ("priority", pa.int32()),
        ("seq", pa.int64()),
        ("dont_filter", pa.bool_()),
        ("retries", pa.int32()),    # retry middleware attempt count
        ("redirects", pa.int32()),  # redirect middleware hop count
    ]
)

# Extracted hotel/restaurant item [B:north_star]: name, address, rating,
# price, review fields; ``extracted_text`` carries the byte-identical
# per-url invariant [B:input_hint].
ITEMS = pa.schema(
    [
        ("url", pa.string()),
        ("item_type", pa.string()),     # "hotel" | "restaurant"
        ("name", pa.string()),
        ("address", pa.string()),
        ("rating", pa.float64()),
        ("price", pa.string()),
        ("price_value", pa.float64()),
        ("review_count", pa.int64()),
        ("reviews", pa.list_(pa.string())),
        ("extracted_text", pa.string()),
    ]
)

# Listing-card partial items (from listing pages) before detail enrichment.
LISTING_ITEMS = pa.schema(
    [
        ("url", pa.string()),           # listing page url
        ("detail_url", pa.string()),
        ("name", pa.string()),
        ("rating", pa.float64()),
        ("price", pa.string()),
    ]
)

SEEDS = pa.schema([("url", pa.string()), ("priority", pa.int32())])

ROBOTS = pa.schema([("host", pa.string()), ("body", pa.string())])

# Candidate links emitted by parse stages, pre-dedup (SURVEY §2.2 M4).
# (parent_seq, link_idx) is the canonical enqueue order: the driver sorts the
# link stream by it before dedup + seq assignment, which is what makes the
# cross-shard crawl ordering deterministic (SURVEY §7.4.1). It is also the
# link-middleware input (registry.py): a middleware that needs the parent page
# keys it by ``parent_seq``.
LINKS = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("url_hash", pa.uint64()),
        ("depth", pa.int32()),
        ("priority", pa.int32()),
        ("parent_seq", pa.int64()),
        ("link_idx", pa.int32()),
    ]
)

CRAWL_ORDER = pa.schema([("seq", pa.int64()), ("wave", pa.int32()), ("url", pa.string())])

URL_SEEN = pa.schema([("url_hash", pa.uint64()), ("url", pa.string())])

# Per-host feedback of fetched responses, for the frontier shard that owns
# the host: ``n`` responses of ``nbytes`` body bytes (AutoThrottle, F4) and
# the ``token`` (url_hash) of the max-``seq`` response (cookies, F6).
HOSTS = pa.schema([("host", pa.string()), ("n", pa.int64()),
                   ("nbytes", pa.int64()), ("seq", pa.int64()),
                   ("token", pa.uint64())])


def reduce_hosts(t: pa.Table) -> pa.Table:
    """One HOSTS row per host of ``t``, sorted by host: ``n`` and ``nbytes``
    summed, ``seq`` and ``token`` from the max-seq row. Associative, so a
    fetch task reduces its rows and the owning shard reduces the tasks'
    partials; the ordered aggregation (use_threads=False) makes "last" of
    the (host, seq)-sorted rows each host's max-seq row."""
    g = (t.sort_by([("host", "ascending"), ("seq", "ascending")])
         .group_by("host", use_threads=False)
         .aggregate([("n", "sum"), ("nbytes", "sum"), ("seq", "last"),
                     ("token", "last")]))
    return pa.table([g["host"], g["n_sum"], g["nbytes_sum"], g["seq_last"],
                     g["token_last"]], schema=HOSTS)


def to_ipc(table: pa.Table) -> pa.Buffer:
    """``table`` as one Arrow IPC stream buffer: the wire format at the
    engine's Ray boundaries (the ``_fetch_parse`` task and every CrawlShard
    RPC). IPC writes only a slice's own rows (a pickled sliced table ships
    its whole parent buffers, ARROW-10739), and reading it back loads
    neither ``ray.air`` nor ``ray.data``, which Ray's own ``pa.Table``
    serializer imports in every receiving process."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue()


def from_ipc(x):
    """Inverse of ``to_ipc``; anything that is not a buffer (a table,
    None) passes through unchanged."""
    if isinstance(x, pa.Buffer):
        return pa.ipc.open_stream(x).read_all()
    return x
