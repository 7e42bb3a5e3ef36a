"""End-to-end: distributed engine vs reference-semantics simulator vs
checked-in goldens — crawl ordering, final URL-seen set, byte-identical
items (SURVEY.md §5.2.1/2/4/5, [B:north_rule])."""

from __future__ import annotations

import os
import shutil

import pyarrow.parquet as pq
import pytest

from scrapy_ray.config import CrawlConfig
from scrapy_ray.pipelines.crawl import CrawlEngine, run_crawl
from scrapy_ray.pipelines.simulator import simulate_crawl

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def _assert_equal(a, b):
    """a, b: objects with .crawl_order / .url_seen / .items."""
    assert a.crawl_order.to_pydict() == b.crawl_order.to_pydict(), "crawl ordering differs"
    sa = set(zip(a.url_seen["url_hash"].to_pylist(), a.url_seen["url"].to_pylist()))
    sb = set(zip(b.url_seen["url_hash"].to_pylist(), b.url_seen["url"].to_pylist()))
    assert sa == sb, "URL-seen set differs"
    ia = a.items.sort_by("url")
    ib = b.items.sort_by("url")
    assert ia.equals(ib), "items differ (byte-identical check)"


def test_engine_matches_simulator_default(ray_session, e2e_corpus):
    cfg = CrawlConfig(n_filter_shards=3, n_frontier_shards=3)
    sim = simulate_crawl(e2e_corpus, cfg)
    eng = run_crawl(e2e_corpus, cfg)
    assert sim.metrics["pages_fetched"] == eng.metrics["pages_fetched"]
    assert sim.metrics["robots_denied"] == eng.metrics["robots_denied"]
    assert eng.metrics["robots_denied"] > 0, "corpus must exercise robots Disallow"
    _assert_equal(sim, eng)


def test_engine_matches_simulator_politeness_and_depth(ray_session, e2e_corpus):
    """Variant config: global download delay + depth limit + depth-priority +
    offsite allowlist — exercises M7/M9, politeness clocks, priority adjust."""
    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=4, download_delay=1.0,
                      depth_limit=3, depth_priority=-1,
                      allowed_domains=("example.com",), max_pages=200)
    sim = simulate_crawl(e2e_corpus, cfg)
    eng = run_crawl(e2e_corpus, cfg)
    _assert_equal(sim, eng)


def test_engine_deterministic_across_runs(ray_session, e2e_corpus):
    cfg = CrawlConfig(n_filter_shards=3, n_frontier_shards=2, max_pages=150)
    a = run_crawl(e2e_corpus, cfg)
    b = run_crawl(e2e_corpus, cfg)
    _assert_equal(a, b)


def test_resume_equals_uninterrupted(ray_session, e2e_corpus, tmp_path):
    """Kill after wave k (checkpointed), resume in a fresh engine -> final
    items + URL-seen + ordering identical to an uninterrupted run."""
    base = CrawlConfig(n_filter_shards=2, n_frontier_shards=2)
    full = run_crawl(e2e_corpus, base)

    ck = str(tmp_path / "ckpt")
    cfg1 = CrawlConfig(n_filter_shards=2, n_frontier_shards=2,
                       checkpoint_dir=ck, checkpoint_every=1, max_waves=6)
    partial = run_crawl(e2e_corpus, cfg1)
    assert partial.metrics["waves"] <= 6 < full.metrics["waves"]

    cfg2 = CrawlConfig(n_filter_shards=2, n_frontier_shards=2,
                       checkpoint_dir=ck, checkpoint_every=1)
    resumed = run_crawl(e2e_corpus, cfg2, resume=True)
    _assert_equal(full, resumed)


def test_engine_matches_goldens(ray_session, e2e_corpus):
    """Pin against checked-in simulator goldens (regenerate:
    scripts/gen_goldens.py) — catches sim+engine drifting together."""
    order_p = os.path.join(GOLDEN_DIR, "crawl_order.parquet")
    if not os.path.exists(order_p):
        pytest.skip("goldens not generated")
    cfg = CrawlConfig(n_filter_shards=3, n_frontier_shards=3)
    eng = run_crawl(e2e_corpus, cfg)
    assert eng.crawl_order.to_pydict() == pq.read_table(order_p).to_pydict()
    seen_g = pq.read_table(os.path.join(GOLDEN_DIR, "url_seen.parquet"))
    assert set(eng.url_seen["url"].to_pylist()) == set(seen_g["url"].to_pylist())
    items_g = pq.read_table(os.path.join(GOLDEN_DIR, "items.parquet"))
    assert eng.items.sort_by("url").equals(items_g.sort_by("url"))


def test_fetch_parse_wave_matches_corpus_read(ray_session, e2e_corpus):
    """The raw-task fetch of the first wave fetches exactly the wave URLs an
    independent pyarrow.dataset read of the corpus finds, and every item
    comes from a wave URL."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from scrapy_ray.stages.fetch import fetch_parse_wave

    eng = CrawlEngine(e2e_corpus, CrawlConfig(n_filter_shards=2, n_frontier_shards=2))
    eng.seed()
    wave = eng.frontier.next_wave(0)
    wave_urls = set(wave["url"].to_pylist())
    pages = pads.dataset(os.path.join(e2e_corpus, "pages"), format="parquet",
                         partitioning="hive")
    found = pages.to_table(columns=["url"],
                           filter=pc.field("url").isin(list(wave_urls)))
    res = fetch_parse_wave(eng.fetch_plan, wave)
    assert res.n_fetched == len(set(found["url"].to_pylist())) > 0
    assert set(res.items["url"].to_pylist()) <= wave_urls


# --- fetch task granularity (stages/fetch.py) ------------------------------

@pytest.fixture(scope="module")
def fetch_wave_corpus(ray_session, tmp_path_factory) -> str:
    """~2.7k pages over 8 buckets, with 3xx redirects, meta-refresh
    interstitials and 404/500 pages: an all-pages wave is large enough that
    the chunk varies with the plan's CPU count."""
    from scrapy_ray.sources.corpus import CorpusSpec, generate_corpus

    root = str(tmp_path_factory.mktemp("fetch_wave") / "corpus")
    generate_corpus(root, CorpusSpec(n_hosts=10, total_pages=2000, seed=5,
                                     redirect_frac=0.2, metarefresh_frac=0.2))
    return root


def _all_pages_wave(root: str):
    """Every page of the corpus plus 40 dangling URLs, in a seeded random
    order, as one FRONTIER wave."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads

    from scrapy_ray import schemas
    from scrapy_ray.functions.hashing import hash64
    from scrapy_ray.functions.urlnorm import hosts_of
    from scrapy_ray.stages.extract import classify_callback

    pages = pads.dataset(os.path.join(root, "pages"), format="parquet",
                         partitioning="hive").to_table(columns=["url"])
    urls = sorted(pages["url"].to_pylist()) \
        + [f"https://h{i % 10:03d}.example.com/gone/{i:05d}" for i in range(40)]
    urls = [urls[i] for i in np.random.default_rng(7).permutation(len(urls))]
    n = len(urls)
    i32 = pa.array(np.zeros(n, dtype=np.int32))
    return pa.table({
        "url": pa.array(urls, type=pa.string()),
        "host": pa.array(hosts_of(urls), type=pa.string()),
        "url_hash": pa.array(hash64(urls), type=pa.uint64()),
        "depth": pa.array(np.ones(n, dtype=np.int32)),
        "priority": i32,
        "seq": pa.array(np.arange(n, dtype=np.int64)),
        "parent_url": pa.array([""] * n, type=pa.string()),
        "callback": pa.array(classify_callback(urls), type=pa.string()),
        "dont_filter": pa.array(np.zeros(n, dtype=bool)),
        "retries": i32,
        "redirects": i32,
    }, schema=schemas.FRONTIER)


def _fetch_plan(root: str, cfg: CrawlConfig):
    from scrapy_ray.stages.fetch import FetchPlan
    from scrapy_ray.stages.links import filter_params

    return FetchPlan.build(root, cfg, link_filter=filter_params(cfg))


def _canonical(res) -> list:
    """A FetchResult with task boundaries erased: each table's rows sorted,
    the per-task partial aggregates reduced the way the wave loop reduces
    them (host_stats summed per host, sessions' max-seq row per host);
    counts as they are."""
    import pyarrow as pa

    out = []
    for name, v in zip(res._fields, res):
        if not isinstance(v, pa.Table):
            out.append((name, v))
            continue
        rows = v.to_pylist()
        if name == "host_stats":
            acc: dict = {}
            for r in rows:
                n, b = acc.get(r["host"], (0, 0))
                acc[r["host"]] = (n + r["n"], b + r["nbytes"])
            rows = [{"host": h, "n": n, "nbytes": b} for h, (n, b) in acc.items()]
        elif name == "sessions":
            last: dict = {}
            for r in rows:
                if r["seq"] > last.get(r["host"], {"seq": -1})["seq"]:
                    last[r["host"]] = r
            rows = list(last.values())
        out.append((name, str(v.schema),
                     sorted(repr(sorted(r.items())) for r in rows)))
    return out


def test_fetch_wave_task_size_invariant(ray_session, fetch_wave_corpus):
    """With every fetch middleware on (redirects, meta-refresh,
    maxsize/warnsize, retries, cookies, autothrottle), the merged result of
    one wave does not depend on how many tasks it is cut into: 1, 3 and 64
    CPUs give 3, 7 and 11 tasks over 8 buckets."""
    import dataclasses

    from scrapy_ray.stages.fetch import fetch_parse_wave

    cfg = CrawlConfig(retry_max=2, autothrottle=True, cookies=True,
                      download_maxsize=1990, download_warnsize=1500)
    plan = _fetch_plan(fetch_wave_corpus, cfg)
    wave = _all_pages_wave(fetch_wave_corpus)
    results = [fetch_parse_wave(dataclasses.replace(plan, cpus=c), wave)
               for c in (1, 3, 64)]
    for name, v in zip(results[0]._fields, results[0]):
        assert (len(v) if hasattr(v, "num_rows") else v) > 0, \
            f"FetchResult.{name} must be non-empty on this corpus"
    want = _canonical(results[0])
    for got in results[1:]:
        assert _canonical(got) == want


def test_fetch_wave_task_count_follows_chunk(ray_session, fetch_wave_corpus,
                                             monkeypatch):
    """One wave on a 1-CPU plan launches ceil(len(wave)/chunk) tasks, fewer
    than the corpus's 8 buckets: the task slices span buckets."""
    import dataclasses

    from scrapy_ray.schemas import from_ipc
    from scrapy_ray.stages import fetch

    plan = dataclasses.replace(_fetch_plan(fetch_wave_corpus, CrawlConfig()),
                               cpus=1)
    assert plan.n_buckets >= 8
    wave = _all_pages_wave(fetch_wave_corpus)
    launched = []
    remote = fetch._fetch_parse.remote

    def counting(sub, *args):
        launched.append(from_ipc(sub).num_rows)
        return remote(sub, *args)

    monkeypatch.setattr(fetch._fetch_parse, "remote", counting)
    res = fetch.fetch_parse_wave(plan, wave)
    chunk = min(4096, max(256, len(wave) // 2))
    assert len(launched) == -(-len(wave) // chunk) < plan.n_buckets
    assert sum(launched) == len(wave)
    assert res.n_fetched > 0


def test_fetch_wave_missing_buckets_are_misses(ray_session, fetch_wave_corpus):
    """Rows hashing to a bucket absent from ``plan.paths`` are fetch misses:
    n_fetched equals an independent read of the remaining buckets, and a
    wave that hashes only to missing buckets returns FetchResult.empty()."""
    import dataclasses

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from scrapy_ray.stages.fetch import FetchResult, fetch_parse_wave

    plan = _fetch_plan(fetch_wave_corpus, CrawlConfig())
    missing = {1, 5}
    plan = dataclasses.replace(plan, paths={b: p for b, p in plan.paths.items()
                                            if b not in missing})
    wave = _all_pages_wave(fetch_wave_corpus)
    found = pads.dataset([pads.dataset(p, format="parquet")
                          for p in plan.paths.values()]) \
        .to_table(columns=["url"], filter=pc.field("url").isin(wave["url"]))
    res = fetch_parse_wave(plan, wave)
    assert res.n_fetched == found.num_rows > 0

    bucket = wave["url_hash"].to_numpy() % np.uint64(plan.n_buckets)
    only_missing = wave.filter(pa.array(np.isin(bucket, list(missing))))
    assert len(only_missing) > 0
    got = fetch_parse_wave(plan, only_missing)
    for name, g, e in zip(FetchResult._fields, got, FetchResult.empty()):
        assert (g.equals(e) if isinstance(e, pa.Table) else g == e), name


def test_crawl_delay_host_paces_one_per_wave(ray_session, e2e_corpus):
    """h017 has robots 'Crawl-delay: 1' -> it must never emit more than one
    URL per wave, and its emissions must be spaced by >= waves_per_emit."""
    from collections import Counter

    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=2)
    res = run_crawl(e2e_corpus, cfg)
    delayed = "h017.example.com"
    waves_of = [w for w, u in zip(res.crawl_order["wave"].to_pylist(),
                                  res.crawl_order["url"].to_pylist())
                if delayed in u]
    assert waves_of, "delayed host must be crawled"
    per_wave = Counter(waves_of)
    assert max(per_wave.values()) == 1
    ws = sorted(per_wave)
    assert all(b - a >= 1 for a, b in zip(ws, ws[1:]))
    # an un-delayed host does burst up to per_domain_cap in one wave
    burst = Counter(w for w, u in zip(res.crawl_order["wave"].to_pylist(),
                                      res.crawl_order["url"].to_pylist())
                    if "h000.example.com" in u)
    assert max(burst.values()) == cfg.per_domain_cap


def test_autothrottle_engine_matches_simulator(ray_session, e2e_corpus):
    """F4 AutoThrottle: adaptive per-host delay from the deterministic
    virtual latency — engine and simulator must pace identically."""
    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=3, autothrottle=True,
                      at_start_delay=1.0, at_max_delay=4.0,
                      at_target_concurrency=4.0, at_bytes_per_sec=2000.0)
    sim = simulate_crawl(e2e_corpus, cfg)
    eng = run_crawl(e2e_corpus, cfg)
    _assert_equal(sim, eng)
    # throttling must actually bite: with ~KB pages and 2KB/s virtual
    # bandwidth the latency-driven delay forces more waves than unthrottled
    base = run_crawl(e2e_corpus, CrawlConfig(n_filter_shards=2, n_frontier_shards=3))
    assert eng.metrics["waves"] > base.metrics["waves"]


def test_autothrottle_adapts_per_host(ray_session):
    """Bigger pages (longer virtual latency) -> longer adapted delay."""
    from scrapy_ray.config import CrawlConfig as CC
    from scrapy_ray.state.frontier import FrontierShard

    cfg = CC(autothrottle=True, at_start_delay=1.0, at_max_delay=8.0,
             at_target_concurrency=2.0)
    sh = FrontierShard(0, cfg)
    import numpy as np
    for _ in range(12):
        sh.update_throttle(["slow.com", "fast.com"], np.array([8.0, 0.1]))
    assert sh.at_delay["slow.com"] > 3.5            # converges toward 8/2=4
    assert sh.at_delay["fast.com"] < 0.2            # converges toward 0.05
    assert sh._delay("slow.com") > sh._delay("fast.com")


def test_retry_middleware_engine_matches_simulator(ray_session, e2e_corpus):
    """Retry middleware ([S:scrapy/downloadermiddlewares/retry.py]): 5xx
    fetches re-enqueue with lowered priority up to retry_max times,
    bypassing the dupefilter — engine and simulator must agree, and retried
    URLs must appear multiple times in the crawl ordering."""
    from collections import Counter

    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=3, retry_max=2)
    sim = simulate_crawl(e2e_corpus, cfg)
    eng = run_crawl(e2e_corpus, cfg)
    _assert_equal(sim, eng)
    counts = Counter(eng.crawl_order["url"].to_pylist())
    retried = {u: c for u, c in counts.items() if c > 1}
    assert retried, "corpus 5xx pages must actually be retried"
    assert max(retried.values()) == 1 + cfg.retry_max  # original + 2 retries
    # retries consume seqs but never duplicate the URL-seen set
    assert len(eng.url_seen) == len(set(eng.url_seen["url"].to_pylist()))
    # OFF by default: no URL fetched twice
    base = run_crawl(e2e_corpus, CrawlConfig(n_filter_shards=2, n_frontier_shards=3))
    assert max(Counter(base.crawl_order["url"].to_pylist()).values()) == 1


def test_deltafetch_engine_matches_simulator(ray_session, e2e_corpus, tmp_path):
    """DeltaFetch ([S:scrapy-plugins/scrapy-deltafetch]): a second crawl
    pointed at the first crawl's items output skips every page that yielded
    an item (pre-marked seen before seeding), still walks listing/nav
    pages, and stays engine==simulator."""
    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=2)
    full = run_crawl(e2e_corpus, cfg)
    assert len(full.items) > 0
    items_path = os.path.join(str(tmp_path), "items.parquet")
    pq.write_table(full.items, items_path)

    cfg2 = CrawlConfig(n_filter_shards=2, n_frontier_shards=2,
                       deltafetch_items=items_path)
    sim = simulate_crawl(e2e_corpus, cfg2)
    eng = run_crawl(e2e_corpus, cfg2)
    _assert_equal(sim, eng)
    # every previously item-producing page is skipped -> zero items
    assert len(eng.items) == 0
    fetched = set(eng.crawl_order["url"].to_pylist())
    assert fetched.isdisjoint(set(full.items["url"].to_pylist()))
    # but the non-item (listing/nav) pages are still crawled
    assert 0 < len(eng.crawl_order) < len(full.crawl_order)


def test_concurrent_engines_match_sequential(ray_session, tmp_path):
    """CrawlerProcess parity ([S:scrapy/crawler.py] — multiple spiders in
    one process): two CrawlEngines over DIFFERENT corpora run interleaved
    wave-by-wave in one Ray session, and each produces byte-identical
    results to its own solo run — actor state is fully isolated."""
    from scrapy_ray.config import CrawlConfig
    from scrapy_ray.pipelines.crawl import CrawlEngine, run_crawl
    from scrapy_ray.sources.corpus import CorpusSpec, generate_corpus

    roots = []
    for i, seed in enumerate((21, 22)):
        r = str(tmp_path / f"c{i}")
        generate_corpus(r, CorpusSpec(n_hosts=4, total_pages=150, seed=seed))
        roots.append(r)
    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=2)

    engines = [CrawlEngine(r, cfg) for r in roots]
    for e in engines:
        e.seed()
    live = [True, True]
    while any(live):                       # interleave waves
        for i, e in enumerate(engines):
            if live[i]:
                live[i] = e.run_wave()
    inter = [e.result() for e in engines]

    for r, got in zip(roots, inter):
        solo = run_crawl(r, cfg)
        assert got.crawl_order.to_pydict() == solo.crawl_order.to_pydict()
        assert got.items.sort_by("url").equals(solo.items.sort_by("url"))
    # the two corpora genuinely differ (the isolation claim is non-vacuous)
    assert set(inter[0].items["url"].to_pylist()) \
        != set(inter[1].items["url"].to_pylist())


def test_crawlspider_rules_engine_matches_simulator(ray_session, e2e_corpus):
    """CrawlSpider Rule parity ([S:scrapy/spiders/crawl.py Rule]):
    allow-based link routing with first-match-wins and follow=False.
    Rules: follow listing pages; parse hotel pages but do NOT follow their
    related links; restaurants (and /moved/, /refresh/ interstitials) match
    no rule, so links to them are dropped at extraction. The engine ships
    the rule snapshot to workers; the simulator consults the same registry —
    full ordering/url-seen/items equality must hold, and the rule semantics
    must be visible in what got crawled."""
    from scrapy_ray import registry

    try:
        registry.crawl_rule(allow=r"/listing/", follow=True)
        registry.crawl_rule(allow=r"/hotel/", follow=False)
        cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=3)
        sim = simulate_crawl(e2e_corpus, cfg)
        eng = run_crawl(e2e_corpus, cfg)
        _assert_equal(sim, eng)

        kinds = {u.split("/")[3] for u in eng.crawl_order["url"].to_pylist()}
        assert "restaurant" not in kinds, "unmatched links must be dropped"
        assert "moved" not in kinds and "refresh" not in kinds
        assert {"listing", "hotel"} <= kinds
        assert set(eng.items["item_type"].to_pylist()) == {"hotel"}

        # follow=False is load-bearing: letting hotels follow their related
        # links must schedule strictly more URLs under the same allow rules
        # (listings already enumerate every real detail, so the new links
        # are the hotels' dangling /hotel/9xxxx refs — fetch misses, which
        # is why url_seen grows while pages_fetched may tie)
        registry.CRAWL_RULES[:] = []
        registry.crawl_rule(allow=r"/listing/", follow=True)
        registry.crawl_rule(allow=r"/hotel/", follow=True)
        sim2 = simulate_crawl(e2e_corpus, cfg)
        eng2 = run_crawl(e2e_corpus, cfg)
        _assert_equal(sim2, eng2)
        assert len(eng2.url_seen) > len(eng.url_seen)
        assert eng2.metrics["pages_fetched"] >= eng.metrics["pages_fetched"]
    finally:
        registry.CRAWL_RULES[:] = []


def test_randomized_delay_engine_matches_simulator(ray_session, e2e_corpus):
    """RANDOMIZE_DOWNLOAD_DELAY ([S:Slot.download_delay random.uniform
    (0.5d, 1.5d)]), deterministic variant: per-emission hash jitter keyed
    on (host, last emission wave). Engine == simulator under jitter, the
    jitter actually changes the schedule vs the fixed delay, and two
    jittered runs are identical (determinism contract intact)."""
    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=3,
                      download_delay=2.0, randomize_download_delay=True,
                      max_pages=150)
    sim = simulate_crawl(e2e_corpus, cfg)
    eng = run_crawl(e2e_corpus, cfg)
    _assert_equal(sim, eng)
    eng2 = run_crawl(e2e_corpus, cfg)
    _assert_equal(eng, eng2)

    fixed = simulate_crawl(
        e2e_corpus, CrawlConfig(n_filter_shards=2, n_frontier_shards=3,
                                download_delay=2.0, max_pages=150))
    assert fixed.crawl_order.to_pydict() != sim.crawl_order.to_pydict(), \
        "jitter must be load-bearing on the schedule"


def test_closespider_errorcount(ray_session, e2e_corpus):
    """CLOSESPIDER_ERRORCOUNT ([S:scrapy/extensions/closespider.py],
    adapted for corpus replay: counts error RESPONSES that fall through
    every middleware). Engine == simulator under the limit, both report the
    same error_responses metric, the limited run stops early, and retried
    attempts with budget left never count."""
    unlimited = run_crawl(e2e_corpus, CrawlConfig(n_filter_shards=2,
                                                  n_frontier_shards=2))
    sim_u = simulate_crawl(e2e_corpus, CrawlConfig(n_filter_shards=2,
                                                   n_frontier_shards=2))
    assert unlimited.metrics["error_responses"] \
        == sim_u.metrics["error_responses"] > 3, \
        "corpus must exercise the 404/500 path"

    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=2, max_errors=3)
    sim = simulate_crawl(e2e_corpus, cfg)
    eng = run_crawl(e2e_corpus, cfg)
    _assert_equal(sim, eng)
    assert eng.metrics["error_responses"] == sim.metrics["error_responses"] >= 3
    assert eng.metrics["pages_fetched"] < unlimited.metrics["pages_fetched"]

    # a retryable error with budget left is diverted, not counted: with
    # retries enabled the error count can only go down or stay equal
    cfg_r = CrawlConfig(n_filter_shards=2, n_frontier_shards=2, retry_max=2)
    eng_r = run_crawl(e2e_corpus, cfg_r)
    sim_r = simulate_crawl(e2e_corpus, cfg_r)
    assert eng_r.metrics["error_responses"] == sim_r.metrics["error_responses"]
    assert eng_r.metrics["error_responses"] <= unlimited.metrics["error_responses"]


def test_depth_stats_and_parse_cli(ray_session, e2e_corpus):
    """DEPTH_STATS ([S:scrapy/spidermiddlewares/depth.py request_depth_count]):
    scheduled-request counts per depth, engine == simulator, total equals
    the crawl-order length, seeds at depth 0. Plus the `parse` CLI
    (scrapy parse analogue) smoke in a subprocess."""
    import json
    import subprocess
    import sys

    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=3, max_pages=200)
    sim = simulate_crawl(e2e_corpus, cfg)
    eng = run_crawl(e2e_corpus, cfg)
    _assert_equal(sim, eng)
    assert eng.metrics["depth_stats"] == sim.metrics["depth_stats"]
    assert sum(eng.metrics["depth_stats"].values()) == len(eng.crawl_order)
    assert eng.metrics["depth_stats"]["0"] >= 1
    assert len(eng.metrics["depth_stats"]) > 1, "multi-depth crawl expected"

    url = next(u for u in eng.crawl_order["url"].to_pylist() if "/hotel/" in u)
    r = subprocess.run(
        [sys.executable, "-m", "scrapy_ray", "parse", "--corpus", e2e_corpus,
         "--url", url, "--num-cpus", "2"],
        capture_output=True, text=True, cwd="/root/repo")
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["url"] == url and out["item"]["name"]


def test_frontier_spill_crawl_equality(ray_session, e2e_corpus, tmp_path):
    """Disk-backed frontier end-to-end: a crawl whose shards may hold only
    120 in-memory rows (cold hosts spill to parquet and reload on their
    politeness clock) is byte-identical to the unbounded in-memory crawl —
    ordering, URL-seen set, items. The per-host politeness delay keeps
    hosts queued across waves so spilled hosts genuinely wait on disk."""
    base = CrawlConfig(n_filter_shards=2, n_frontier_shards=2,
                       download_delay=1.0)
    want = run_crawl(e2e_corpus, base)
    spill = CrawlConfig(n_filter_shards=2, n_frontier_shards=2,
                        download_delay=1.0, frontier_max_rows=60,
                        frontier_spill_dir=str(tmp_path / "spill"))
    eng = CrawlEngine(e2e_corpus, spill)
    eng.seed()
    while eng.run_wave():
        pass
    # monotone total (not the instantaneous gauge: the wave-prefetch overlap
    # means stats() now observes post-drain state, where ready hosts have
    # already been unspilled)
    spilled_seen = sum(s["spilled_rows_total"] for s in eng.frontier.stats())
    got = eng.result()
    assert spilled_seen > 0, "cap 60 must force real spilling mid-crawl"
    _assert_equal(want, got)
    sim = simulate_crawl(e2e_corpus, base)
    _assert_equal(sim, got)


def test_max_wave_urls_cap(ray_session, e2e_corpus):
    """CONCURRENT_REQUESTS analogue: a global per-wave URL cap truncates
    the merged wave at the (priority desc, seq) order; the tail requeues
    with original seqs. Engine == simulator under the cap, no wave exceeds
    it, more waves are needed, and the crawl still completes — final
    URL-seen set and item set equal the uncapped run's."""
    from collections import Counter

    base = CrawlConfig(n_filter_shards=2, n_frontier_shards=3)
    full = run_crawl(e2e_corpus, base)

    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=3,
                      max_wave_urls=24)
    sim = simulate_crawl(e2e_corpus, cfg)
    eng = run_crawl(e2e_corpus, cfg)
    _assert_equal(sim, eng)

    per_wave = Counter(eng.crawl_order["wave"].to_pylist())
    assert max(per_wave.values()) <= 24
    assert eng.metrics["waves"] > full.metrics["waves"]
    assert set(eng.url_seen["url"].to_pylist()) \
        == set(full.url_seen["url"].to_pylist())
    assert eng.items.sort_by("url").equals(full.items.sort_by("url"))
