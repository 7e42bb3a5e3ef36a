"""Fetch stage = partition-pruned join of a frontier wave against the pages
corpus (SURVEY.md §2.1 S2, §2.4 J1), fused with the parse and the
items/links splits.

The reference downloads over HTTP ([S:scrapy/core/downloader/handlers/
http11.py]); per the north rule, pages come from a Parquet corpus bucketed by
``url_hash % n_buckets``, so a wave only reads the bucket files its URLs can
live in. The per-wave join is a repeated *small indexed lookup*, so it runs
as raw Ray tasks, one per chunk of the wave (a task may span buckets): the
documented exception that drops below Ray Data (SURVEY §7.4.3), because
per-wave ``read_parquet`` Dataset construction costs seconds of fragment
sampling where a task costs ~ms. Whole-corpus scans stay on Ray Data
(``sources.readers.read_pages``, ``stages/features.py``).

Everything fixed for a crawl (corpus layout, middleware settings, registry
snapshot, cluster size) is one ``FetchPlan``, put in the object store once;
each task returns one ``FetchResult``. The slice argument and the result's
tables cross the task boundary as Arrow IPC buffers (``schemas.to_ipc`` /
``from_ipc``): a slice ships only its own rows, and no process loads Ray's
``pa.Table`` serializer (``ray.air``/``ray.data``). Per-host aggregates are
Arrow ``group_by``; the fetch path calls no pandas. Neither html nor
per-page list columns ever reach the driver.

The downloader middlewares (retry, redirect, meta refresh) send a request
back as a FRONTIER row that keeps the original request's seq
(``_requeue_rows``): the same format the frontier stores, so the wave loop
deduplicates and numbers these rows in one pass with the parsed links.

At 100 TB the same shape holds: buckets are directories of row-grouped
Parquet and the wave's bucket set prunes the read. Nothing here
materializes the corpus.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from scrapy_ray import schemas

HOST_STATS_SCHEMA = pa.schema([("host", pa.string()), ("n", pa.int64()),
                               ("nbytes", pa.int64())])

# F6 cookies analogue: per-host session update emitted by each fetch task —
# (host, seq of the task's last-fetched row for the host, hash64(its url))
SESSION_SCHEMA = pa.schema([("host", pa.string()), ("seq", pa.int64()),
                            ("token", pa.uint64())])


def _session_updates(t: pa.Table) -> pa.Table:
    """F6 ([S:cookies.py] analogue): this task's per-host session
    contribution — the max-seq fetched row per host sets the token to
    hash64(url), like a server rotating a session cookie per hit. Runs on
    the joined (page x wave) table at the pages_fetched count point
    (after the maxsize gate, before status diversion), so EVERY response
    refreshes the jar, exactly as Set-Cookie applies to redirects too."""
    from scrapy_ray.functions.hashing import hash64

    if len(t) == 0:
        return SESSION_SCHEMA.empty_table()
    seqs = t["seq"].to_numpy(zero_copy_only=False).astype(np.int64)
    hosts = np.asarray(t["host"].to_pylist(), dtype=object)
    idx = np.lexsort((seqs, hosts))
    hs = hosts[idx]
    last = np.r_[hs[1:] != hs[:-1], True]
    sel = idx[last]
    urls_all = t["url"].to_pylist()
    urls = [urls_all[i] for i in sel]
    return pa.table({"host": pa.array(list(hs[last]), type=pa.string()),
                     "seq": pa.array(seqs[sel], type=pa.int64()),
                     "token": pa.array(hash64(urls), type=pa.uint64())},
                    schema=SESSION_SCHEMA)


_REQUEUE_RESET = {"parent_url": "", "dont_filter": False, "retries": 0,
                  "redirects": 0}


def _requeue_rows(hit: pa.Table, **cols) -> pa.Table:
    """FRONTIER rows that requeue the fetched requests ``hit``: a copy of
    each request, as Scrapy's downloader middlewares hand the scheduler a
    copy of the Request. ``cols`` holds the columns the middleware changes.
    url, host, url_hash, depth, priority, callback and seq copy the original
    (seq stays the ORIGINAL request's seq: the wave loop orders requeued
    rows by it and then numbers them); parent_url, dont_filter, retries and
    redirects start at "", False and 0."""
    for f in schemas.FRONTIER:
        if f.name not in cols:
            cols[f.name] = (pa.repeat(pa.scalar(_REQUEUE_RESET[f.name], f.type),
                                      len(hit))
                            if f.name in _REQUEUE_RESET else hit[f.name])
    return pa.table(cols, schema=schemas.FRONTIER)


def _retry_rows(t: pa.Table, retry_codes: tuple, retry_max: int,
                priority_adjust: int) -> pa.Table:
    """Fetched rows whose status is retryable and attempt budget remains ->
    requeue rows with the priority adjusted, the attempt count + 1 and the
    dupefilter bypassed ([S:scrapy/downloadermiddlewares/retry.py]). Runs
    in-task on the joined (page x wave) table."""
    m = pc.and_(pc.is_in(t["status"], value_set=pa.array(list(retry_codes),
                                                         type=t["status"].type)),
                pc.less(t["retries"], retry_max))
    hit = t.filter(m)
    return _requeue_rows(
        hit, priority=pc.add(hit["priority"], pa.scalar(priority_adjust, pa.int32())),
        dont_filter=pa.repeat(pa.scalar(True), len(hit)),
        retries=pc.add(hit["retries"], pa.scalar(1, pa.int32())))


def _redirect_target_rows(hit: pa.Table, targets: list[str]) -> pa.Table:
    """Requeue rows at the TARGET urls of the redirected rows ``hit``
    ([S:scrapy/downloadermiddlewares/redirect.py]): canonicalized and hashed
    here in-task, callback cleared, hop count + 1; depth, priority and the
    original seq carry over (Scrapy copies the request)."""
    from scrapy_ray.functions.hashing import hash64
    from scrapy_ray.functions.urlnorm import canonicalize_urls, hosts_of

    targets = canonicalize_urls(targets)
    return _requeue_rows(
        hit, url=pa.array(targets, type=pa.string()),
        host=pa.array(hosts_of(targets), type=pa.string()),
        url_hash=pa.array(hash64(targets), type=pa.uint64()),
        callback=pa.repeat(pa.scalar(""), len(hit)),
        redirects=pc.add(hit["redirects"], pa.scalar(1, pa.int32())))


def _redirect_rows(t: pa.Table, redirect_codes: tuple, redirect_max: int) -> pa.Table:
    """3xx rows with a Location and hop budget left -> requeue rows at the
    urljoined Location. Runs on the joined (page x wave) table; a corpus
    without a location column never redirects."""
    if "location" not in t.column_names:
        return schemas.FRONTIER.empty_table()
    m = pc.and_(pc.and_(
        pc.is_in(t["status"], value_set=pa.array(list(redirect_codes),
                                                 type=t["status"].type)),
        pc.not_equal(t["location"], "")),
        pc.less(t["redirects"], redirect_max))
    hit = t.filter(m)
    if len(hit) == 0:
        return schemas.FRONTIER.empty_table()
    from urllib.parse import urljoin
    return _redirect_target_rows(hit, [urljoin(b, loc) for b, loc in
                                       zip(hit["url"].to_pylist(),
                                           hit["location"].to_pylist())])


def _meta_refresh_split(t: pa.Table, maxdelay: float,
                        redirect_max: int) -> tuple[pa.Table, pa.Table]:
    """Meta-refresh middleware ([S:scrapy/downloadermiddlewares/redirect.py
    MetaRefreshMiddleware]): 2xx rows whose html carries a followable
    ``<meta http-equiv=refresh>`` (delay <= maxdelay, hop budget left) are
    DIVERTED — returned as requeue rows at the target url and removed
    from the parse stream (Scrapy replaces the response before the spider
    sees it). Negative path is one vectorized substring sniff over the
    binary html column, so corpora without refresh tags pay ~memchr."""
    from scrapy_ray.functions.htmlx import base_url, meta_refresh

    status = t["status"].to_numpy(zero_copy_only=False)
    red = t["redirects"].to_numpy(zero_copy_only=False)
    cand = (status >= 200) & (status < 300) & (red < redirect_max)
    if cand.any():
        sniff = pc.match_substring(t["html"], "http-equiv",
                                   ignore_case=True) \
            .to_numpy(zero_copy_only=False)
        cand &= sniff.astype(bool)
    if not cand.any():
        return schemas.FRONTIER.empty_table(), t
    idx = np.flatnonzero(cand)
    hit = t.take(pa.array(idx))
    urls = hit["url"].to_pylist()
    htmls = hit["html"].to_pylist()
    follow_i, raw_targets = [], []
    from urllib.parse import urljoin
    for k, (u, h) in enumerate(zip(urls, htmls)):
        mr = meta_refresh(h)
        if mr is None or mr[0] > maxdelay:
            continue        # absent or too-slow refresh: page parses normally
        follow_i.append(k)
        raw_targets.append(urljoin(base_url(u, h), mr[1]))
    if not follow_i:
        return schemas.FRONTIER.empty_table(), t
    rows = _redirect_target_rows(hit.take(pa.array(follow_i)), raw_targets)
    keep = np.ones(len(t), dtype=bool)
    keep[idx[np.asarray(follow_i, dtype=np.int64)]] = False
    return rows, t.filter(pa.array(keep))


def _maxsize_split(t: pa.Table, maxsize: int, warnsize: int) -> tuple:
    """DOWNLOAD_MAXSIZE / DOWNLOAD_WARNSIZE gate ([S:http11.py
    _ResponseReader]): oversized bodies abort BEFORE any downloader
    middleware sees them — applied to the raw stored bytes ahead of the
    frontier join, host stats, retry/redirect/meta-refresh splits and the
    parse. warnsize counts every body over the threshold (dropped ones
    included — Scrapy warns while streaming, before it knows the final
    size). Returns (kept_table, n_dropped, n_warned)."""
    ln = pc.binary_length(t["html"])
    n_warn = 0
    if warnsize:
        n_warn = int(pc.sum(pc.greater(ln, warnsize)).as_py() or 0)
    if not maxsize:
        return t, 0, n_warn
    keep = pc.less_equal(ln, maxsize)
    n_drop = len(t) - int(pc.sum(keep).as_py() or 0)
    return (t.filter(keep) if n_drop else t), n_drop, n_warn


def _host_stats(t: pa.Table) -> pa.Table:
    """Per-host (responses, body bytes) partial for this task's fetched rows,
    sorted by host — the deterministic virtual-latency signal for
    AutoThrottle (F4)."""
    from scrapy_ray.functions.urlnorm import hosts_of

    g = pa.table({
        "host": pa.array(hosts_of(t["url"].to_pylist()), type=pa.string()),
        "nbytes": pc.binary_length(t["html"]).cast(pa.int64()),
    }).group_by("host").aggregate([("nbytes", "count"), ("nbytes", "sum")]) \
        .sort_by("host")
    return pa.table([g["host"], g["nbytes_count"], g["nbytes_sum"]],
                    schema=HOST_STATS_SCHEMA)


def _schema_names(path: str) -> list[str]:
    """Column names of a bucket path (file OR hive dir) via one footer read."""
    import pyarrow.parquet as pq

    p = path
    if os.path.isdir(p):
        fs = sorted(f for f in os.listdir(p) if f.endswith(".parquet"))
        if not fs:
            return []
        p = os.path.join(p, fs[0])
    return pq.read_schema(p).names


def _cap_arrow_threads() -> None:
    """Each fetch-parse task is a num_cpus=1 Ray task, but Arrow's global
    thread pools default to os.cpu_count() — so N concurrent tasks spawn
    N×cores decode threads (thrash), and a '1-CPU' session secretly uses
    the whole box (breaks scaling measurements). One thread per task is the
    honest per-core sizing."""
    if pa.cpu_count() != 1:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)


@dataclass(frozen=True)
class FetchPlan:
    """Everything a crawl's fetch tasks need that is fixed for the whole
    crawl: the corpus is immutable input, the cluster size and the config
    do not change. Built once per engine (``build``) and put in the object
    store once (``ref``); every task of every wave reads that one object.
    A middleware whose tuple is None does not run."""

    paths: dict[int, str]            # bucket id -> bucket dir (corpus_paths)
    n_buckets: int
    cpus: int                        # cluster CPUs; sets the task chunk
    registry: tuple                  # (PAGE_HANDLERS, URL_ROUTES, CRAWL_RULES)
    want_stats: bool                 # AutoThrottle per-host stats (F4)
    retry: tuple | None              # (retry_codes, retry_max, priority adjust)
    redirect: tuple | None           # (redirect_codes, redirect_max)
    metarefresh: tuple | None        # (maxdelay, redirect_max)
    maxsize: tuple | None            # (download_maxsize, download_warnsize)
    allowed_statuses: tuple          # handle_httpstatus_list
    want_sessions: bool              # cookies analogue (F6)
    link_filter: tuple | None        # in-task M7/M8/M9 pack (filter_params)

    @classmethod
    def build(cls, corpus_root: str, cfg, n_buckets: int | None = None,
              link_filter: tuple | None = None) -> "FetchPlan":
        """Resolve the plan for ``cfg`` over the corpus at ``corpus_root``
        with one meta.json read. A middleware the corpus can never trigger
        is switched off here: no location column means no 3xx redirect
        (``has_redirects``; a meta.json without the key costs one bucket
        footer read), and ``has_metarefresh: false`` means no refresh tags
        (a corpus without the key keeps the ~memchr html sniff).

        ``link_filter``: the engine passes a ``filter_params`` pack iff no
        link middlewares are registered — those must see the unfiltered
        stream."""
        from scrapy_ray.registry import CRAWL_RULES, PAGE_HANDLERS, URL_ROUTES
        from scrapy_ray.sources.corpus import corpus_paths

        meta_path = os.path.join(corpus_root, "meta.json")
        meta = {}
        if os.path.exists(meta_path):
            with open(meta_path) as fh:
                meta = json.load(fh)
        paths = corpus_paths(corpus_root)["pages"]
        has_redirects = meta.get("has_redirects")
        if has_redirects is None:
            has_redirects = any("location" in _schema_names(p)
                                for p in list(paths.values())[:1])
        has_metarefresh = bool(meta.get("has_metarefresh", True))
        redirect_on = bool(cfg.redirect_max)
        return cls(
            paths=paths,
            n_buckets=int(n_buckets if n_buckets is not None
                          else meta["spec"]["n_buckets"]),
            cpus=max(1, int(ray.cluster_resources().get("CPU", 8))),
            # worker processes never see driver-side registrations, so the
            # tasks read this snapshot (registry.py, SURVEY §2.10)
            registry=(dict(PAGE_HANDLERS), list(URL_ROUTES), list(CRAWL_RULES)),
            want_stats=cfg.autothrottle,
            retry=((cfg.retry_codes, cfg.retry_max, cfg.retry_priority_adjust)
                   if cfg.retry_max else None),
            redirect=((cfg.redirect_codes, cfg.redirect_max)
                      if redirect_on and has_redirects else None),
            metarefresh=((cfg.metarefresh_maxdelay, cfg.redirect_max)
                         if redirect_on and cfg.metarefresh and has_metarefresh
                         else None),
            maxsize=((cfg.download_maxsize, cfg.download_warnsize)
                     if (cfg.download_maxsize or cfg.download_warnsize)
                     else None),
            allowed_statuses=tuple(cfg.handle_httpstatus_list),
            want_sessions=cfg.cookies,
            link_filter=link_filter)

    @functools.cached_property
    def ref(self) -> "ray.ObjectRef":
        """This plan in the object store, put on first use. Ray dereferences
        it when passed as a task argument, so tasks receive the plan."""
        return ray.put(self)


class FetchResult(NamedTuple):
    """One fetch task's output; ``fetch_parse_wave`` merges a wave's task
    results, field by field, into one. items, links and n_fetched stay the
    first three fields: tracers read them by position. ``requeue`` holds
    the requests the downloader middlewares send back to the frontier
    (retries, 3xx redirect and meta-refresh targets) as FRONTIER rows
    that keep the original request's seq."""

    items: pa.Table
    links: pa.Table                  # unsorted across tasks
    n_fetched: int
    host_stats: pa.Table             # HOST_STATS_SCHEMA
    requeue: pa.Table                # FRONTIER, unsorted across tasks
    n_maxsize_drop: int
    n_maxsize_warn: int
    n_err: int                       # CLOSESPIDER_ERRORCOUNT input
    sessions: pa.Table               # SESSION_SCHEMA

    @classmethod
    def empty(cls) -> "FetchResult":
        return cls(schemas.ITEMS.empty_table(), schemas.LINKS.empty_table(), 0,
                   HOST_STATS_SCHEMA.empty_table(),
                   schemas.FRONTIER.empty_table(), 0, 0, 0,
                   SESSION_SCHEMA.empty_table())

    def to_ipc(self) -> "FetchResult":
        """This result with every table as an IPC buffer: the task's wire
        form, which ``merge`` reads."""
        return self._replace(**{k: schemas.to_ipc(v) for k, v
                                in self._asdict().items()
                                if isinstance(v, pa.Table)})

    @classmethod
    def merge(cls, parts: list["FetchResult"]) -> "FetchResult":
        """Counts sum; tables concatenate their non-empty parts."""
        out = []
        for i, empty in enumerate(cls.empty()):
            col = [p[i] for p in parts]
            if isinstance(empty, pa.Table):
                tables = [t for t in map(schemas.from_ipc, col) if len(t)]
                out.append(pa.concat_tables(tables) if tables else empty)
            else:
                out.append(sum(col))
        return cls(*out)


@ray.remote
def _fetch_parse(sub: pa.Buffer, plan: FetchPlan) -> FetchResult:
    """The fetch task: one wave slice in, one result out, both with their
    tables as IPC buffers (``schemas.to_ipc``). ``plan`` arrives
    dereferenced from ``FetchPlan.ref``."""
    return _fetch_parse_slice(schemas.from_ipc(sub), plan).to_ipc()


def _fetch_parse_slice(sub: pa.Table, plan: FetchPlan) -> FetchResult:
    """Fetch, parse and split one (bucket, url)-sorted wave slice: read
    each bucket's contiguous run once with an ``url IN (...)`` parquet
    filter (row-group pruning — bucket files are written url-sorted; a
    bucket missing from ``plan.paths`` is a fetch miss), join the frontier
    carry columns in-task (arrow hash join), then run the
    downloader-middleware splits, the fused parse AND the items/links
    splits once over all the slice's pages."""
    import pyarrow.parquet as pq

    from scrapy_ray.stages.parse import parse_page_batch, split_items, split_links

    _cap_arrow_threads()
    handlers, routes, rules = plan.registry
    # the plan keeps redirect set only for a corpus with a location column
    cols = ["url", "html", "status"] + (["location"] if plan.redirect else [])
    buckets = sub["url_hash"].to_numpy(zero_copy_only=False) \
        % np.uint64(plan.n_buckets)
    ubs, starts = np.unique(buckets, return_index=True)
    bounds = np.append(starts, len(sub))
    reads = [pq.read_table(plan.paths[int(b)], columns=cols,
                           filters=pc.field("url").isin(
                               sub["url"].slice(lo, hi - lo)))
             for b, lo, hi in zip(ubs, bounds[:-1], bounds[1:])
             if int(b) in plan.paths]
    if not reads:
        return FetchResult.empty()
    t = pa.concat_tables(reads)
    nd = nw = 0
    if plan.maxsize is not None and len(t):
        t, nd, nw = _maxsize_split(t, *plan.maxsize)
    if len(t) == 0:
        return FetchResult.empty()._replace(n_maxsize_drop=nd, n_maxsize_warn=nw)
    stats = _host_stats(t) if plan.want_stats else HOST_STATS_SCHEMA.empty_table()
    t = t.join(sub, keys="url", join_type="inner")
    n_fetched = len(t)    # BEFORE the meta-refresh split removes rows — a
                          # diverted interstitial is still a fetched page
                          # (simulator counts at the same point)
    sess = (_session_updates(t) if plan.want_sessions
            else SESSION_SCHEMA.empty_table())
    requeue = []
    if plan.retry is not None:
        requeue.append(_retry_rows(t, *plan.retry))
    if plan.redirect is not None:
        requeue.append(_redirect_rows(t, *plan.redirect))
    n_diverted = sum(map(len, requeue))
    if plan.metarefresh is not None:
        mr, t = _meta_refresh_split(t, *plan.metarefresh)
        requeue.append(mr)
    requeue = [r for r in requeue if len(r)]
    requeue = (pa.concat_tables(requeue) if requeue
               else schemas.FRONTIER.empty_table())
    parsed = parse_page_batch(t, handlers=handlers, routes=routes,
                              allowed_statuses=plan.allowed_statuses, rules=rules)
    # error responses = fetched, non-2xx, fell through every middleware
    # (CLOSESPIDER_ERRORCOUNT input; diverted redirect/retry rows excluded)
    n_err = len(parsed) - int(pc.sum(parsed["status_ok"]).as_py() or 0) \
        - n_diverted
    links = split_links(parsed, routes=routes, rules=rules)
    if plan.link_filter is not None and len(links):
        # M7/M8/M9 in-task: shrinks the O(links) driver chain AND the
        # task->driver payload; per-row pure, so the surviving set is
        # identical to the driver-side path
        from scrapy_ray.stages.links import filter_links_p

        links = filter_links_p(links, plan.link_filter)
    return FetchResult(split_items(parsed), links, n_fetched, stats, requeue,
                       nd, nw, n_err, sess)


def fetch_parse_wave(plan: FetchPlan, wave: pa.Table) -> FetchResult:
    """Fetch, parse and split one wave (FRONTIER rows): one ``_fetch_parse``
    task per chunk of the (bucket, url)-sorted wave; a task may span
    buckets. Misses (dangling links, never-written buckets) produce no row
    — the reference's 404 path. The caller applies the canonical
    (parent_seq, link_idx) sort to the merged links."""
    hashes = wave["url_hash"].to_numpy(zero_copy_only=False)
    bucket_of = (hashes % np.uint64(plan.n_buckets)).astype(np.int64)
    # Fully columnar dispatch: sort the wave by (bucket, url) ONCE, then
    # ship zero-copy Arrow slices — the driver builds no per-url python
    # structures. A slice covers few buckets, each a contiguous url range,
    # so the isin filter prunes row groups (bucket files are url-sorted).
    sub_cols = wave.select(["url", "host", "url_hash", "depth",
                            "priority", "seq", "callback", "retries",
                            "redirects"])
    tmp = sub_cols.append_column("bucket", pa.array(bucket_of))
    idx = pc.sort_indices(tmp, sort_keys=[("bucket", "ascending"),
                                          ("url", "ascending")])
    sub_sorted = sub_cols.take(idx)
    # Task granularity (re-tuned round 5: per-task dispatch, argument and
    # result transfer dominate at engine speed). The chunk alone sets the
    # task count, so a slice may span buckets: ~2 task waves per CPU,
    # clamped to [256, 4096] so tiny waves stay balanced and huge waves
    # stay bounded.
    n = len(sub_sorted)
    n_tasks = -(-n // min(4096, max(256, n // (2 * plan.cpus))))
    cuts = np.arange(n_tasks + 1) * n // max(1, n_tasks)
    pending = [_fetch_parse.remote(schemas.to_ipc(sub_sorted.slice(lo, hi - lo)),
                                   plan.ref)
               for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist())]
    # consume incrementally: driver-side deserialization overlaps with
    # still-running tasks instead of waiting for the full barrier
    parts: list[FetchResult] = []
    while pending:
        done, pending = ray.wait(pending, num_returns=min(16, len(pending)))
        parts.extend(ray.get(done))
    return FetchResult.merge(parts)
