"""CrawlConfig — the one typed settings object (SURVEY.md §2.10).

Mirrors the Scrapy settings cascade the reference project relies on
([S:scrapy/settings/default_settings.py]): concurrency caps, download delay,
depth limit, close-spider limits — plus our engine's own knobs (shard counts,
wave caps, checkpoint dir).

Politeness semantics are *virtual-time* (wave-indexed), identical in the
engine and in the reference-semantics simulator (pipelines/simulator.py), so
crawl ordering and the final URL-seen set are bit-reproducible [B:north_rule]:

- each wave, a host may emit at most ``per_domain_cap`` URLs
  (CONCURRENT_REQUESTS_PER_DOMAIN=8 default [S:default_settings.py]);
- a host whose effective crawl delay is ``d`` (max of config delay and the
  robots.txt ``Crawl-delay``) may only emit on waves where
  ``wave_idx >= last_emit_wave + ceil(d / wave_period)``;
- robots ``Disallow`` rules gate enqueue ([S:downloadermiddlewares/robotstxt.py]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CrawlConfig:
    # politeness ([S:scrapy/settings/default_settings.py])
    per_domain_cap: int = 8          # CONCURRENT_REQUESTS_PER_DOMAIN
    max_wave_urls: int = 0           # CONCURRENT_REQUESTS analogue: global
                                     # cap on URLs per wave — the merged
                                     # wave truncates at the (priority desc,
                                     # seq) order and the tail requeues with
                                     # original seqs (host clocks stand;
                                     # SURVEY §4.2 backpressure knob). 0=off
    download_delay: float = 0.0      # DOWNLOAD_DELAY (seconds, virtual)
    randomize_download_delay: bool = False  # RANDOMIZE_DOWNLOAD_DELAY:
                                     # deterministic hash-jitter in
                                     # [0.5d, 1.5d) per emission (delay_jitter)
    wave_period: float = 1.0         # seconds of virtual time one wave represents
    obey_robots: bool = True         # ROBOTSTXT_OBEY (Disallow gating)
    user_agent: str = "*"            # USER_AGENT: selects the robots.txt
                                     # group per RFC 9309 (longest matching
                                     # agent token; '*' group fallback)
    respect_crawl_delay: bool = True  # robots Crawl-delay pacing; bench turns
                                      # this off to measure engine throughput,
                                      # not the virtual politeness clock

    # AutoThrottle (F4, [S:scrapy/extensions/throttle.py]): adaptive per-host
    # delay from observed latency. Corpus replay has no network latency, so
    # the engine uses a DETERMINISTIC virtual latency = response bytes /
    # at_bytes_per_sec (bigger pages ⇒ slower host ⇒ longer delay), updated
    # per wave with Scrapy's smoothing: target = latency / target_concurrency;
    # new = (prev + target) / 2, clamped to [download_delay, at_max_delay].
    # Mirrored exactly in the simulator (determinism rule).
    autothrottle: bool = False       # AUTOTHROTTLE_ENABLED
    at_start_delay: float = 1.0      # AUTOTHROTTLE_START_DELAY (virtual s)
    at_max_delay: float = 8.0        # AUTOTHROTTLE_MAX_DELAY
    at_target_concurrency: float = 4.0  # AUTOTHROTTLE_TARGET_CONCURRENCY
    at_bytes_per_sec: float = 1_000_000.0  # virtual bandwidth for the latency proxy

    # Retry middleware ([S:scrapy/downloadermiddlewares/retry.py]): fetches
    # with a retryable status are re-enqueued with lowered priority up to
    # retry_max times, bypassing the dupefilter (Scrapy copies the request
    # with dont_filter=True). Deterministic contract: a wave's retries are
    # assigned seqs AFTER that wave's fresh links and redirect targets,
    # ordered by original seq. A fetch task emits a retry as a FRONTIER row
    # with dont_filter set that keeps the original seq; the wave loop sorts
    # requeued rows by (dont_filter, seq) and numbers them after the links.
    retry_max: int = 0               # RETRY_TIMES (0 = middleware off)
    retry_priority_adjust: int = -1  # RETRY_PRIORITY_ADJUST
    retry_codes: tuple[int, ...] = (500, 502, 503, 504, 408, 429)

    # Redirect middleware ([S:scrapy/downloadermiddlewares/redirect.py]):
    # a 3xx fetch with a Location re-enqueues the TARGET url (same depth,
    # same priority — Scrapy copies the request) up to redirect_max hops.
    # Targets pass the dupefilter like any scheduled request but SKIP the
    # spider-middleware filters (M7/M8/M9 run on callback output, and a
    # downloader-level reschedule never reaches spider middlewares).
    # Deterministic contract: a wave's redirect targets take seqs AFTER the
    # wave's fresh links (in (parent_seq, link_idx) order) and BEFORE its
    # retries, ordered by original seq; fresh links and targets are
    # deduplicated in that order, first occurrence wins.
    redirect_max: int = 20           # REDIRECT_MAX_TIMES
    redirect_codes: tuple[int, ...] = (301, 302, 303, 307, 308)

    # Meta-refresh middleware ([S:scrapy/downloadermiddlewares/redirect.py
    # MetaRefreshMiddleware], on by default in Scrapy): a 2xx page whose
    # html carries <meta http-equiv=refresh content="N;url=..."> with
    # N <= metarefresh_maxdelay is NOT parsed — it reschedules the target
    # like a 3xx redirect (same hop counter, same seq contract). Requires
    # redirect_max > 0 (shared hop budget, as Scrapy shares redirect_times).
    metarefresh: bool = True         # METAREFRESH_ENABLED
    metarefresh_maxdelay: float = 100.0  # METAREFRESH_MAXDELAY

    # Response size limits ([S:scrapy/core/downloader/handlers/http11.py
    # _ResponseReader; DOWNLOAD_MAXSIZE / DOWNLOAD_WARNSIZE]): a body larger
    # than download_maxsize ABORTS the download — the response never reaches
    # any middleware (no redirect, no retry, no parse, not counted as
    # fetched; surfaces as the maxsize_dropped stat). warnsize only counts
    # (Scrapy logs a warning and keeps going). Sizes are RAW stored body
    # bytes (the transfer size), measured before decompression (M11).
    # 0 = off (Scrapy's default maxsize is 1 GiB — effectively off at
    # corpus-replay page sizes, so off keeps goldens byte-stable).
    download_maxsize: int = 0        # DOWNLOAD_MAXSIZE
    download_warnsize: int = 0       # DOWNLOAD_WARNSIZE

    # spider-middleware filters ([S:scrapy/spidermiddlewares/*])
    depth_limit: int = 0             # DEPTH_LIMIT, 0 = unlimited
    depth_priority: int = 0          # DEPTH_PRIORITY: priority += depth * this
    url_length_limit: int = 2083     # URLLENGTH_LIMIT
    allowed_domains: tuple[str, ...] = ()  # empty = allow all (offsite filter off)
    # HttpError pass-through ([S:scrapy/spidermiddlewares/httperror.py],
    # spider.handle_httpstatus_list): non-2xx statuses listed here reach
    # the parse callback as if OK (items + links extracted). Must be
    # disjoint from retry_codes/redirect_codes while those middlewares are
    # on — downloader middlewares act first in the reference, so an
    # overlapping code would be double-handled; __post_init__ raises instead.
    handle_httpstatus_list: tuple[int, ...] = ()

    # DeltaFetch ([S:scrapy-plugins/scrapy-deltafetch]): incremental
    # re-crawl — skip pages whose URL yielded an item in a previous crawl.
    # Points at that crawl's items output (a parquet file or a directory of
    # wave partitions); the URLs are pre-marked seen before seeding, so the
    # dupefilter drops them exactly like any revisit (listing/nav pages are
    # unaffected — they produce no items). Simulator-mirrored.
    deltafetch_items: str | None = None

    # F6 cookies analogue ([S:scrapy/downloadermiddlewares/cookies.py],
    # adapted for corpus replay): per-host session tokens managed inside the
    # frontier shard that owns the host (the "cookie jar" partitions with
    # the politeness/robots state). Every FETCHED response of a host — the
    # point where pages_fetched counts, after the maxsize gate, before
    # status diversion — "sets" the host session to hash64(response url);
    # within a wave the LAST response (max seq) wins, like a server rotating
    # a session cookie per hit. Requests emitted by later waves carry the
    # current token as a uint64 `session` column (0 = no session yet) — the
    # Cookie-header analogue, wave-granular because responses of wave k can
    # only influence requests of wave k+1 on a batch engine.
    # Simulator-mirrored; zero cost when off (no extra column, no RPCs).
    cookies: bool = False            # COOKIES_ENABLED

    # close-spider limits ([S:scrapy/extensions/closespider.py])
    max_pages: int = 0               # CLOSESPIDER_PAGECOUNT, 0 = unlimited
    max_items: int = 0               # CLOSESPIDER_ITEMCOUNT
    max_errors: int = 0              # CLOSESPIDER_ERRORCOUNT (adapted for
                                     # corpus replay: counts ERROR RESPONSES
                                     # that fall through every middleware —
                                     # non-2xx, not redirected, not retried,
                                     # not in handle_httpstatus_list)
    max_waves: int = 0               # engine-only safety valve
    # disk-backed frontier ([S:queuelib disk queues / JOBDIR]): when a
    # shard holds more than this many IN-MEMORY rows, whole cold hosts
    # spill to parquet and reload when their politeness clock readies them.
    # 0 = fully in-memory. Spilling is semantically invisible (e2e-pinned).
    frontier_max_rows: int = 0
    frontier_spill_dir: str | None = None   # default: a per-shard tempdir

    # engine layout
    n_filter_shards: int = 4         # URL-seen shards, key = url_hash % n
    n_frontier_shards: int = 4       # frontier shards, key = hash64(host) % n
    exact_urlseen: bool = True       # each URL-seen shard holds ONE structure:
                                     # True = the exact hash->url set (byte-exact
                                     # URL-seen output); False = a Bloom filter
                                     # alone, memory-bounded (the 10^10-URL path,
                                     # silently drops the ~0.8% of new URLs that
                                     # are false positives at 10 bits/key). A
                                     # checkpoint restores only in its own mode.
    bloom_bits_per_key: int = 10     # Bloom-only mode
    bloom_capacity: int = 1_000_000  # Bloom-only mode, per shard; at 1e10 URLs
                                     # total, shards scale out (SURVEY §2.3 F1)
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1        # checkpoint every k waves (when dir set)
    actor_scheduling: str | None = None  # shard-actor scheduling strategy:
                                     # "SPREAD" on a multi-node cluster so
                                     # frontier/urlseen shards distribute
                                     # across nodes (real inter-node RPC +
                                     # object transfer — bench --crawl-nodes);
                                     # None = Ray default (single-node local
                                     # mode is placement-indifferent)
    actor_resources: dict | None = None  # custom-resource requirement per
                                     # shard actor (e.g. {"crawl_node": 1e-3}
                                     # where only WORKER nodes advertise
                                     # crawl_node) — keeps num_cpus=0 shard
                                     # actors off the 0-CPU head node in the
                                     # multi-node bench so every shard RPC
                                     # genuinely crosses a node boundary

    def __post_init__(self) -> None:
        """Reject settings the engine cannot honour, naming them, before
        any actor or task starts."""
        for name in ("n_filter_shards", "n_frontier_shards", "per_domain_cap",
                     "checkpoint_every", "bloom_capacity", "bloom_bits_per_key"):
            # below 1: URL-seen would mark every URL seen, the frontier would
            # drop every push, a host would never emit (the crawl never
            # ends), a checkpoint period would be meaningless, a Bloom filter
            # would hold no bits
            if getattr(self, name) < 1:
                raise ValueError(f"CrawlConfig.{name} must be >= 1, "
                                 f"got {getattr(self, name)}")
        if self.max_wave_urls < 0:   # merge_wave slices the wave at it
            raise ValueError(f"CrawlConfig.max_wave_urls must be >= 0 (0 = off), "
                             f"got {self.max_wave_urls}")
        for name in ("wave_period", "at_target_concurrency", "at_bytes_per_sec"):
            # waves_per_emit, update_throttle and CrawlShard.end_wave divide
            # by these: a zero raises inside a shard actor, or gives every
            # throttled host an infinite latency that pins it at
            # at_max_delay; NaN fails too
            if not getattr(self, name) > 0:
                raise ValueError(f"CrawlConfig.{name} must be > 0, "
                                 f"got {getattr(self, name)}")
        if self.frontier_max_rows < 0:   # would spill every host on every push
            raise ValueError(f"CrawlConfig.frontier_max_rows must be >= 0 (0 = off), "
                             f"got {self.frontier_max_rows}")
        if self.handle_httpstatus_list:
            clash = set(self.handle_httpstatus_list) & (
                (set(self.retry_codes) if self.retry_max else set())
                | (set(self.redirect_codes) if self.redirect_max else set()))
            if clash:
                raise ValueError(
                    f"handle_httpstatus_list overlaps active retry/redirect "
                    f"codes {sorted(clash)} — downloader middlewares act first "
                    f"([S:httperror.py]); disable them for these codes instead")
        if self.retry_max and self.redirect_max:
            rr_clash = set(self.retry_codes) & set(self.redirect_codes)
            if rr_clash:
                # a row matching both diversions would be double-subtracted
                # from the per-task error count (stages/fetch.py n_err),
                # corrupting CLOSESPIDER_ERRORCOUNT accounting
                raise ValueError(
                    f"retry_codes and redirect_codes overlap on {sorted(rr_clash)}"
                    f" — a status can divert to only one middleware; make the "
                    f"code sets disjoint")

    def delay_jitter(self, host: str, last_wave: int) -> float:
        """RANDOMIZE_DOWNLOAD_DELAY parity ([S:scrapy/core/downloader
        Slot.download_delay = random.uniform(0.5*d, 1.5*d)]) — but
        DETERMINISTIC: a hash-derived uniform in [0.5, 1.5) keyed on
        (host, wave of the host's previous emission), so every emission
        draws fresh jitter and the engine and simulator draw identically."""
        if not self.randomize_download_delay:
            return 1.0
        import hashlib

        h = hashlib.blake2b(f"{host}|{last_wave}".encode(),
                            digest_size=8).digest()
        return 0.5 + (int.from_bytes(h, "big") % 1_000_000) / 1_000_000

    def waves_per_emit(self, crawl_delay: float, jitter: float = 1.0) -> int:
        """Host with effective delay d emits at most once per this many waves."""
        d = max(self.download_delay, crawl_delay) * jitter
        if d <= 0:
            return 1
        return max(1, math.ceil(d / self.wave_period))


@dataclass(frozen=True)
class Seed:
    url: str
    priority: int = 0


DEFAULT_CONFIG = CrawlConfig()
