"""The wave-loop crawl engine (SURVEY.md §3.1) — Scrapy's engine loop
([S:scrapy/core/engine.py]) re-expressed as bounded Ray Data waves.

Each wave:

1. ``frontier.next_wave(w)`` — every shard emits its politeness-budgeted
   batch; driver k-way merges by (priority desc, seq asc). This merged order
   IS the crawl-ordering contract the goldens check [B:north_rule].
2. ``fetch_parse_wave(plan, wave)`` — partition-pruned join of the wave
   against the Parquet pages corpus, with the downloader middlewares, the
   fused parse AND the items/links splits running inside the per-chunk
   raw Ray tasks (stages/fetch.py). The crawl-constant ``FetchPlan`` is
   built once per engine; the driver receives one ``FetchResult`` of
   compact tables, never html.
3. items: optional item-pipeline chain -> per-wave partitioned Parquet sink
   (resumable layout — one directory per wave).
4. candidates, all FRONTIER rows: the links in canonical (parent_seq,
   link_idx) order after the optional link-middleware chain and the
   vectorized M7/M8/M9 filters, then the fetch tasks' ``requeue`` rows
   (redirect targets, then retries, each by original seq) -> ``_schedule``:
   one batched anti-join against the URL-seen partitions (url_hash
   routing; retries skip it) and consecutive seqs -> ONE ``end_wave`` RPC
   per shard actor, routed by hash(host): for each partition it hosts,
   the slices of the new rows and of the fetch tasks' per-host feedback
   (``FetchResult.hosts``, one ``schemas.HOSTS`` partial per task, which
   the shard reduces before its session and AutoThrottle updates), then
   push to its frontier partitions and drain the next wave.
5. every ``checkpoint_every`` waves: that same ``end_wave`` RPC has each
   shard actor checkpoint all of its partitions (queue / clocks, exact
   set or Bloom filter) atomically, and the driver writes a manifest with
   per-wave lineage + metrics — a killed run resumes at the last complete
   wave exactly [B:north_rule].

Shard state lives in one ``ShardPool`` (state/shard.py), sized to the
cluster's CPUs: URL-seen partition *i* and frontier partition *i* share a
CrawlShard actor, and an actor may host several partition indices;
``self.urlseen`` and ``self.frontier`` are routing views over it.

Library code: no ray.init() here — the caller owns the session.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from scrapy_ray import schemas
from scrapy_ray.config import CrawlConfig
from scrapy_ray.functions.hashing import hash64
from scrapy_ray.functions.urlnorm import canonicalize_urls, hosts_of
from scrapy_ray.sources.readers import (read_deltafetch_urls, read_robots,
                                        read_seeds)
from scrapy_ray.stages.fetch import FetchPlan, fetch_parse_wave
from scrapy_ray.stages.links import filter_links, filter_params
from scrapy_ray.state.errors import StaleShardError
from scrapy_ray.state.shard import ShardPool


@dataclass
class CrawlResult:
    items: pa.Table
    crawl_order: pa.Table          # (seq, wave, url) in fetch-schedule order
    url_seen: pa.Table             # (url_hash, url)
    metrics: dict = field(default_factory=dict)


def _links_to_frontier(links: pa.Table) -> pa.Table:
    """LINKS -> FRONTIER candidates; seq holds the parent's seq until the
    wave loop numbers the survivors (CrawlEngine._schedule)."""
    n = len(links)
    return pa.table(
        {
            "url": links["url"],
            "host": links["host"],
            "url_hash": links["url_hash"],
            "depth": links["depth"],
            "priority": links["priority"],
            "seq": links["parent_seq"],
            "dont_filter": pa.array(np.zeros(n, dtype=bool)),
            "retries": pa.array(np.zeros(n, dtype=np.int32)),
            "redirects": pa.array(np.zeros(n, dtype=np.int32)),
        },
        schema=schemas.FRONTIER,
    )


def _sink_write(ckpt: str, wave: int, items: pa.Table, order: pa.Table) -> int:
    """Per-wave items/order parquet write, run on the engine's background
    writer thread (round 4: the encode+write was ~0.4 s/run of driver
    serial time on the 1M bench — BENCH/BASELINE.md run N). A THREAD, not a
    Ray task: shipping the tables through the object store costs more in
    driver-side serialization than the write itself (measured: sink phase
    0.38 s -> ~1.0 s as a num_cpus=0 task), while pq.write_table releases
    the GIL and overlaps the driver's ray.wait idle during the next wave's
    fetch. Write-then-rename makes the part file atomic: a kill mid-write
    can never leave a torn part.parquet, so the resume cleanup in
    try_resume() only ever sees whole files."""
    for sub, t in (("items", items), ("order", order)):
        d = os.path.join(ckpt, sub, f"wave={wave}")
        os.makedirs(d, exist_ok=True)
        tmp = os.path.join(d, ".part.parquet.tmp")
        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(d, "part.parquet"))
    return wave


def seeds_to_links(seeds: list[dict]) -> pa.Table:
    """Seed list -> candidate-link table (depth 0, canonical order = list
    order). Seeds flow through the same dedup path as discovered links —
    a deliberate, documented simplification of Scrapy's dont_filter=True on
    start_requests ([S:scrapy/spiders/__init__.py]): it keeps the URL-seen
    set exactly equal to "everything ever scheduled"."""
    urls = canonicalize_urls([s["url"] for s in seeds])
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "host": pa.array(hosts_of(urls), type=pa.string()),
            "url_hash": pa.array(hash64(urls) if urls else [], type=pa.uint64()),
            "depth": pa.array(np.zeros(n, dtype=np.int32)),
            "priority": pa.array([int(s.get("priority", 0)) for s in seeds], type=pa.int32()),
            "parent_seq": pa.array(np.full(n, -1, dtype=np.int64)),
            "link_idx": pa.array(np.arange(n, dtype=np.int32)),
        },
        schema=schemas.LINKS,
    )


class CrawlEngine:
    def __init__(self, corpus_root: str, cfg: CrawlConfig, n_buckets: int | None = None,
                 item_pipelines: tuple = (), link_middlewares: tuple = (),
                 metrics=None):
        """``item_pipelines`` / ``link_middlewares``: user-extension chains of
        pa.Table -> pa.Table batch fns (registry.py, SURVEY §2.10) applied to
        extracted items before the sink and to candidate links before the
        M7–M9 filters. ``metrics``: optional MetricsActor handle (F7)."""
        self.root = corpus_root
        self.cfg = cfg
        self.item_pipelines = tuple(item_pipelines)
        self.link_middlewares = tuple(link_middlewares)
        self.metrics = metrics
        self.ckpt = cfg.checkpoint_dir
        # With no link middlewares the M7/M8/M9 filter runs in-task (per-row
        # pure → identical surviving set), so the driver link chain and the
        # task→driver payload shrink with the filter selectivity — the
        # O(links) wide-wave serial term (BENCH/BASELINE.md run N). The plan
        # also snapshots the user-extension registry (registry.py).
        self.fetch_plan = FetchPlan.build(
            corpus_root, cfg, n_buckets=n_buckets,
            link_filter=None if self.link_middlewares else filter_params(cfg))
        self.shards = ShardPool(cfg, read_robots(corpus_root) if cfg.obey_robots else None)
        self.urlseen, self.frontier = self.shards.urlseen, self.shards.frontier
        self._reset_run_state()
        self._sink_futs: list = []    # pending per-wave _sink_write futures
        self._sink_pool = None        # lazy single writer thread (_sink)
        self._seeds: list[dict] | None = None
        # (wave_idx, [per-shard end_wave futures]) submitted at the END of the
        # previous wave so shard drains overlap driver sink/metrics work —
        # the round-4 attack on the per-wave serial floor (VERDICT item 2)
        self._prefetch: tuple[int, list] | None = None
        from collections import defaultdict as _dd

        self.phase_times: dict[str, float] = _dd(float)  # driver-side wave phases

    def _reset_run_state(self) -> None:
        """Driver-side run state of a crawl at wave 0: the counters and
        lineage persisted in the manifest (state.json), the in-memory sink
        and the F6 session log."""
        self.wave_idx = 0
        self.next_seq = 0
        self.pages_fetched = 0
        self.maxsize_dropped = 0
        self.maxsize_warned = 0
        self.error_count = 0
        self.items_count = 0
        self.depth_stats: dict[int, int] = {}   # DEPTH_STATS ([S:depth.py])
        self.lineage: list[dict] = []
        self._mem_items: list[pa.Table] = []
        self._mem_order: list[pa.Table] = []
        self.session_log: list[tuple[int, int]] = []   # F6: (seq, token)

    # --- checkpoint plumbing (SURVEY §4.2) ---
    # Round-2 rework (ADVICE high): a checkpoint is a VERSIONED directory
    # ``ckpt/v=<wave>/`` holding every shard segment + state.json, COMMITTED
    # by atomically replacing the single pointer file ``manifest.json``.
    # A SIGKILL anywhere before the pointer swap leaves the previous
    # committed version fully intact (the old bug: shard files and manifest
    # written sequentially into one flat dir — a mid-group kill mixed
    # wave-k urlseen state with a wave-(k-1) manifest, so resume silently
    # skipped already-'seen' subtrees).
    def _manifest_path(self) -> str:
        return os.path.join(self.ckpt, "manifest.json")

    def checkpoint(self) -> None:
        if not self.ckpt:
            return
        if self._prefetch is not None:
            # a pending prefetched next_wave has already drained shard rows
            # that only exist in driver futures — a checkpoint now would
            # lose them on resume. run_wave() manages its own checkpoints;
            # the public method is for wave boundaries (loop end).
            raise RuntimeError("checkpoint() while a wave prefetch is "
                               "pending — call only at loop boundaries")
        vdir = os.path.join(self.ckpt, f"v={self.wave_idx}")
        os.makedirs(vdir, exist_ok=True)
        self._commit_checkpoint(vdir, self.shards.checkpoint_async(vdir))

    def _commit_checkpoint(self, vdir: str, shard_futs: list) -> None:
        """Make v=<wave_idx> the committed checkpoint once every sink file
        and every shard segment in ``shard_futs`` is durable."""
        self._drain_sinks()   # every lineage-referenced sink file durable
        ray.get(shard_futs)   # every shard segment durable
        stmp = os.path.join(vdir, "state.json.tmp")
        with open(stmp, "w") as fh:
            json.dump({"wave_idx": self.wave_idx, "next_seq": self.next_seq,
                       "pages_fetched": self.pages_fetched, "items_count": self.items_count,
                       "maxsize_dropped": self.maxsize_dropped,
                       "maxsize_warned": self.maxsize_warned,
                       "error_count": self.error_count,
                       "depth_stats": self.depth_stats,
                       "lineage": self.lineage}, fh)
        os.replace(stmp, os.path.join(vdir, "state.json"))
        # commit point: pointer swap is the single atomic operation
        mtmp = self._manifest_path() + ".tmp"
        with open(mtmp, "w") as fh:
            json.dump({"version": self.wave_idx}, fh)
        os.replace(mtmp, self._manifest_path())
        # GC superseded versions (crash here leaves orphan dirs; resume
        # only ever reads the manifest-referenced one)
        import shutil

        for d in os.listdir(self.ckpt):
            if d.startswith("v=") and d != f"v={self.wave_idx}":
                shutil.rmtree(os.path.join(self.ckpt, d), ignore_errors=True)

    def try_resume(self) -> bool:
        """Reload shard state from the manifest-referenced checkpoint
        version; True if a committed checkpoint was found."""
        if not self.ckpt or not os.path.exists(self._manifest_path()):
            return False
        with open(self._manifest_path()) as fh:
            ptr = json.load(fh)
        vdir = os.path.join(self.ckpt, f"v={ptr['version']}")
        with open(os.path.join(vdir, "state.json")) as fh:
            m = json.load(fh)
        self.shards.restore(vdir)
        self.shards.stamp()
        self.wave_idx = m["wave_idx"]
        self.next_seq = m["next_seq"]
        self.pages_fetched = m["pages_fetched"]
        self.items_count = m["items_count"]
        # .get(): pre-maxsize checkpoints lack the keys (forward-compat read)
        self.maxsize_dropped = m.get("maxsize_dropped", 0)
        self.maxsize_warned = m.get("maxsize_warned", 0)
        self.error_count = m.get("error_count", 0)
        self.depth_stats = {int(k): int(v)
                            for k, v in m.get("depth_stats", {}).items()}
        self.lineage = m["lineage"]
        # drop sink partitions from any wave newer than the checkpoint (a
        # crash between sink write and commit): lineage lists completed waves.
        done = {e["wave"] for e in self.lineage}
        for sub in ("items", "order"):
            d = os.path.join(self.ckpt, sub)
            if os.path.isdir(d):
                for part in os.listdir(d):
                    if int(part.split("=")[1]) not in done:
                        import shutil
                        shutil.rmtree(os.path.join(d, part))
        return True

    def recover(self) -> None:
        """Driver-coordinated recovery after a shard actor death (F1/F2 are
        ``max_restarts>0`` so Ray revives them empty; the driver then
        restores EVERY shard from the last committed checkpoint so the pool
        is mutually consistent, and replays deterministically from there —
        in-flight wave state since the checkpoint is rolled back on all
        shards at once, never just the dead one). Without a checkpoint dir
        the crawl restarts from the seeds (state is all in the actors)."""
        import time

        import ray.exceptions

        # any pending prefetched wave references pre-failure shard state —
        # the restore below rolls every shard back, so the futures are stale
        self._prefetch = None
        # settle in-flight sink writes before the rollback cleanup: a
        # straggler completing AFTER try_resume() pruned not-in-lineage wave
        # dirs would resurrect a rolled-back wave's files (the replay would
        # overwrite them byte-identically, but the window is ugly). Failures
        # are ignored — the wave will be replayed anyway.
        for f in self._sink_futs:
            try:
                f.result()
            except Exception:
                pass
        self._sink_futs = []
        last = None
        for _ in range(20):  # restarting actors answer with
            try:             # ActorUnavailableError until they are back up
                if self.ckpt and os.path.exists(self._manifest_path()):
                    # NOT an assert: under `python -O` asserts are stripped
                    # and the restore side effect would silently be skipped
                    if not self.try_resume():
                        raise RuntimeError("checkpoint restore failed")
                    return
                # no committed checkpoint: full deterministic restart
                self.shards.reset()
                self._reset_run_state()
                self.seed(self._seeds)
                return
            except ray.exceptions.ActorUnavailableError as e:
                last = e
                time.sleep(0.5)
        raise last

    def warm(self) -> None:
        """Block until every shard actor is up and primed (ShardPool.warm).
        Process startup is environment cost, not crawl throughput — benches
        call this before the timed region, same as task-worker warmup."""
        self.shards.warm()

    def seed(self, seeds: list[dict] | None = None) -> None:
        self._seeds = seeds  # kept for checkpoint-less recovery (recover())
        self.shards.stamp()
        if self.cfg.deltafetch_items:
            # DeltaFetch: pre-mark item-producing URLs from the previous
            # crawl as seen BEFORE seeding — the dupefilter then drops them
            # like any revisit. Idempotent (check_and_add dedups), so a
            # checkpoint-less recover() replaying seed() is safe.
            prev = read_deltafetch_urls(self.cfg.deltafetch_items)
            if prev:
                self.urlseen.filter_new(pa.table({
                    "url": pa.array(prev, type=pa.string()),
                    "url_hash": pa.array(hash64(prev), type=pa.uint64()),
                }))
        cand = seeds_to_links(seeds if seeds is not None else read_seeds(self.root))
        self.frontier.push(self._schedule(_links_to_frontier(cand)))

    def _schedule(self, cand: pa.Table) -> pa.Table:
        """The one place candidates are deduplicated and numbered: FRONTIER
        ``cand`` rows, in schedule order, minus those the URL-seen set
        already holds, with consecutive seqs from ``next_seq``. Rows with
        ``dont_filter`` set (retries, [S:retry.py]) skip the URL-seen RPC;
        the others go out in ONE ``check_mask`` fan, where the first
        occurrence in ``cand`` order wins."""
        dont = cand["dont_filter"].to_numpy(zero_copy_only=False)
        keep = dont.copy()
        check = cand.filter(pa.array(~dont)) if dont.any() else cand
        if len(check):
            keep[~dont] = self.urlseen.check_mask(
                check["url_hash"].to_numpy(zero_copy_only=False),
                check["url"].combine_chunks())
        rows = cand.filter(pa.array(keep))
        n = len(rows)
        rows = rows.set_column(
            rows.schema.get_field_index("seq"), schemas.FRONTIER.field("seq"),
            pa.array(np.arange(self.next_seq, self.next_seq + n, dtype=np.int64)))
        self.next_seq += n
        return rows

    def _sink(self, wave: int, items: pa.Table, order: pa.Table) -> dict:
        entry = {"wave": wave, "n_scheduled": len(order), "n_items": len(items)}
        if self.ckpt:
            # submit-only: the atomic write overlaps the next wave on the
            # writer thread; futures are collected before any checkpoint
            # COMMIT (sink durability precedes the lineage that references
            # it) and before result()
            if self._sink_pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._sink_pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="sink-writer")
            self._sink_futs.append(self._sink_pool.submit(
                _sink_write, self.ckpt, wave, items, order))
        else:
            self._mem_items.append(items)
            self._mem_order.append(order)
        return entry

    def _drain_sinks(self) -> None:
        if self._sink_futs:
            for f in self._sink_futs:
                f.result()   # surface writer-thread errors here
            self._sink_futs = []

    def _should_stop(self) -> bool:
        """CloseSpider-style stop predicate (O2). Evaluated both at the top
        of run_wave and when deciding whether to prefetch the next wave at
        the END of a wave — both see identical counters, so a prefetch is
        issued iff the next run_wave will consume it."""
        cfg = self.cfg
        return bool((cfg.max_pages and self.pages_fetched >= cfg.max_pages) or
                    (cfg.max_items and self.items_count >= cfg.max_items) or
                    (cfg.max_errors and self.error_count >= cfg.max_errors) or
                    (cfg.max_waves and self.wave_idx >= cfg.max_waves))

    def run_wave(self) -> bool:
        """One wave; False when the crawl is finished."""
        import time as _time

        cfg = self.cfg
        if self._should_stop():
            return False
        _t0 = _time.perf_counter()
        if self._prefetch is not None:
            pf_idx, pf = self._prefetch
            self._prefetch = None
            if pf_idx != self.wave_idx:  # cannot happen by construction:
                # a drained-but-unconsumed wave would lose rows silently
                raise RuntimeError(f"stale wave prefetch {pf_idx} != "
                                   f"{self.wave_idx}")
            try:
                parts = self.shards.gather(pf)
            except Exception as e:
                # a non-checkpoint wave's end_wave error surfaces here, one
                # wave late; same exception type, so recovery still runs
                e.add_note(f"raised by the end_wave RPC of wave {pf_idx - 1}")
                raise
            wave = self.frontier.merge_wave(parts)
        else:
            wave = self.frontier.next_wave(self.wave_idx)
        self.phase_times["next_wave"] += _time.perf_counter() - _t0
        if len(wave) == 0:
            nxt = self.frontier.earliest_ready_wave()
            if nxt is None:
                return False          # frontier empty -> idle shutdown
            self.wave_idx = max(self.wave_idx + 1, nxt)
            return True
        order = pa.table({
            "seq": wave["seq"],
            "wave": pa.array(np.full(len(wave), self.wave_idx, dtype=np.int32)),
            "url": wave["url"],
        }, schema=schemas.CRAWL_ORDER)
        dvals, dcnts = np.unique(wave["depth"].to_numpy(zero_copy_only=False),
                                 return_counts=True)
        for dv, dc in zip(dvals, dcnts):
            self.depth_stats[int(dv)] = self.depth_stats.get(int(dv), 0) + int(dc)
        if cfg.cookies:
            # F6: record the Cookie-header analogue each request carried
            self.session_log.extend(zip(wave["seq"].to_pylist(),
                                        wave["session"].to_pylist()))

        # ONE distributed pass per wave: partition-pruned fetch-join + fused
        # parse straight to ITEMS and LINKS rows — no html reaches the driver
        # (stages/fetch.py fetch_parse_wave, stages/parse.py).
        _t0 = _time.perf_counter()
        fetched = fetch_parse_wave(self.fetch_plan, wave)
        items, links, n_fetched = fetched.items, fetched.links, fetched.n_fetched
        self.maxsize_dropped += fetched.n_maxsize_drop
        self.maxsize_warned += fetched.n_maxsize_warn
        self.error_count += fetched.n_err
        self._last_fetch_s = _time.perf_counter() - _t0
        self.phase_times["fetch_parse"] += self._last_fetch_s

        self.pages_fetched += n_fetched
        if self.item_pipelines:
            from scrapy_ray.registry import apply_chain

            items = apply_chain(self.item_pipelines, items)
        self.items_count += len(items)

        # Candidates in the deterministic contract order (config.py): fresh
        # links in (parent_seq, link_idx) order, then the requeued requests
        # sorted by (dont_filter, original seq), i.e. redirect targets, then
        # retries. Redirect targets pass the dupefilter but skip the
        # spider-middleware filters; retries skip both.
        cand = []
        if len(links):
            _t0 = _time.perf_counter()
            links = links.sort_by([("parent_seq", "ascending"), ("link_idx", "ascending")])
            if self.link_middlewares:
                from scrapy_ray.registry import apply_chain

                links = apply_chain(self.link_middlewares, links)
                links = filter_links(links, cfg)                 # M7/M8/M9
            # else: the filter already ran inside the fetch tasks
            # (FetchPlan.link_filter)
            cand.append(_links_to_frontier(links))
            self.phase_times["link_filter"] += _time.perf_counter() - _t0
        if len(fetched.requeue):
            cand.append(fetched.requeue.sort_by([("dont_filter", "ascending"),
                                                 ("seq", "ascending")]))
        _t0 = _time.perf_counter()
        all_rows = (self._schedule(pa.concat_tables(cand)) if cand
                    else schemas.FRONTIER.empty_table())
        self.phase_times["urlseen"] += _time.perf_counter() - _t0
        n_new = len(all_rows)

        # --- end-of-wave overlap: advance the wave index, then submit ONE
        # end_wave RPC per shard actor carrying, per hosted partition, its
        # slices of the new rows and of the fetch tasks' per-host feedback
        # (fetched.hosts, reduced shard-side) + the optional checkpoint
        # request (every partition's segments) + the next wave's drain request,
        # applied shard-side in the order sessions → throttle → push →
        # checkpoint → drain (the checkpoint captures pre-drain state). The
        # driver then does its sink/metrics work while the shards process.
        done_idx = self.wave_idx
        self.wave_idx += 1
        do_ckpt = bool(self.ckpt) and self.wave_idx % cfg.checkpoint_every == 0
        want_next = not self._should_stop()
        vdir = None
        if do_ckpt:
            vdir = os.path.join(self.ckpt, f"v={self.wave_idx}")
            os.makedirs(vdir, exist_ok=True)
        _t0 = _time.perf_counter()
        ew_futs = self.frontier.end_wave_async(
            all_rows, fetched.hosts, vdir, self.wave_idx if want_next else None)
        self.phase_times["frontier_push"] += _time.perf_counter() - _t0
        _t0 = _time.perf_counter()
        entry = self._sink(done_idx, items, order)
        self.phase_times["sink"] += _time.perf_counter() - _t0
        entry.update({"n_fetched": n_fetched, "n_new_links": n_new})
        self.lineage.append(entry)
        if self.metrics is not None:  # F7: one batched RPC per wave
            from collections import Counter

            self.metrics.record_wave.remote(
                {"pages_fetched": n_fetched, "items": len(items),
                 "new_links": n_new, "maxsize_dropped": fetched.n_maxsize_drop,
                 "maxsize_warned": fetched.n_maxsize_warn},
                dict(Counter(wave["host"].to_pylist())),
                {"wave_fetch_ms": [int(self._last_fetch_s * 1000)],
                 "wave_pages": [n_fetched]})
        if do_ckpt:
            # push + checkpoint segments (+ drain) complete on every shard
            # actor before the manifest commit
            _t0 = _time.perf_counter()
            self._commit_checkpoint(vdir, ew_futs)
            self.phase_times["checkpoint"] += _time.perf_counter() - _t0
        if want_next:
            self._prefetch = (self.wave_idx, ew_futs)
        elif ew_futs:
            _t0 = _time.perf_counter()
            ray.get(ew_futs)   # surface any shard error before the loop exits
            self.phase_times["push_wait"] += _time.perf_counter() - _t0
        return True

    def _collect(self, sub: str, schema: pa.Schema, mem: list[pa.Table]) -> pa.Table:
        if not self.ckpt:
            return pa.concat_tables(mem) if mem else schema.empty_table()
        d = os.path.join(self.ckpt, sub)
        if not os.path.isdir(d):
            return schema.empty_table()
        parts = sorted(os.listdir(d), key=lambda p: int(p.split("=")[1]))
        ts = [pq.read_table(os.path.join(d, p, "part.parquet")) for p in parts]
        return pa.concat_tables(ts) if ts else schema.empty_table()

    def result(self) -> CrawlResult:
        self._drain_sinks()   # all wave part files on disk before reading
        items = self._collect("items", schemas.ITEMS, self._mem_items)
        order = self._collect("order", schemas.CRAWL_ORDER, self._mem_order)
        if self.cfg.exact_urlseen:
            seen = self.urlseen.seen_table()
            n_seen = len(seen)
        else:  # Bloom-only mode: counts available, byte-exact set is not
            n_seen = sum(s["n_seen"] for s in self.urlseen.stats())
            seen = schemas.URL_SEEN.empty_table()
        fstats = self.frontier.stats()
        metrics = {
            "waves": len(self.lineage),
            "pages_fetched": self.pages_fetched,
            "items": self.items_count,
            "scheduled": int(len(order)),
            "url_seen": int(n_seen),
            "robots_denied": sum(s["robots_denied"] for s in fstats),
            "maxsize_dropped": self.maxsize_dropped,
            "maxsize_warned": self.maxsize_warned,
            "error_responses": self.error_count,
            "depth_stats": {str(k): v for k, v
                            in sorted(self.depth_stats.items())},
            "frontier_remaining": sum(s["queued"] for s in fstats),
            "phase_times": {k: round(v, 3) for k, v in self.phase_times.items()},
        }
        if self.cfg.cookies:
            # F6 observability: final per-host jar + the Cookie-header
            # analogue every scheduled request carried ((seq, token), seq
            # order). session_log is driver-side and not checkpointed — a
            # resumed run reports the post-resume slice only.
            metrics["sessions"] = {h: int(t) for h, t
                                   in sorted(self.frontier.sessions().items())}
            metrics["session_log"] = sorted(
                (int(s), int(t)) for s, t in self.session_log)
        return CrawlResult(items=items, crawl_order=order, url_seen=seen, metrics=metrics)


def run_crawl(corpus_root: str, cfg: CrawlConfig | None = None,
              seeds: list[dict] | None = None, resume: bool = False,
              max_recoveries: int = 3, on_wave=None, **engine_kwargs) -> CrawlResult:
    """Convenience one-shot crawl (the ``scrapy crawl`` equivalent, §3.1).

    Shard-actor deaths (node loss on a real cluster) surface as
    RayActorError / ActorUnavailableError on an in-flight RPC, or as
    StaleShardError from the epoch guard when Ray silently revived the actor
    empty. Either way the driver rolls the WHOLE pool back to the last
    committed checkpoint and replays — determinism makes the replayed waves
    byte-identical (tests/test_kill_resume.py::test_shard_kill_recovery).
    Result collection is inside the recovery loop too: a kill detected only
    at collection time triggers the same rollback + replay.

    ``on_wave(engine)``: optional hook after each completed wave (extensions
    surface §2.10; also how the kill tests inject faults into the REAL loop).
    """
    import ray.exceptions

    cfg = cfg or CrawlConfig()
    eng = CrawlEngine(corpus_root, cfg, **engine_kwargs)
    if not (resume and eng.try_resume()):
        eng.seed(seeds)
    recoveries = 0
    while True:
        try:
            while eng.run_wave():
                if on_wave is not None:
                    on_wave(eng)
            eng.checkpoint()
            return eng.result()
        except (ray.exceptions.RayActorError, ray.exceptions.ActorUnavailableError,
                StaleShardError):
            recoveries += 1
            if recoveries > max_recoveries:
                raise
            eng.recover()
