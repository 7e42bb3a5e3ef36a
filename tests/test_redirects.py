"""Redirect middleware ([S:scrapy/downloadermiddlewares/redirect.py]):
engine == simulator on a corpus with 301 "/moved/" aliases; hop-budget cap;
target url resolution. SURVEY §2 round-3 addendum."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from scrapy_ray.config import CrawlConfig
from scrapy_ray.pipelines.crawl import run_crawl
from scrapy_ray.pipelines.simulator import simulate_crawl
from scrapy_ray.sources.corpus import CorpusSpec, generate_corpus, is_moved

REDIR_ROOT = "/tmp/scrapy_ray_test/corpus_redirects"
REDIR_SPEC = CorpusSpec(n_hosts=8, total_pages=400, seed=77, redirect_frac=0.25)


@pytest.fixture(scope="module")
def redirect_corpus(ray_session) -> str:
    generate_corpus(REDIR_ROOT, REDIR_SPEC)
    return REDIR_ROOT


def _assert_equal(a, b):
    assert a.crawl_order.to_pydict() == b.crawl_order.to_pydict(), "crawl ordering differs"
    sa = set(zip(a.url_seen["url_hash"].to_pylist(), a.url_seen["url"].to_pylist()))
    sb = set(zip(b.url_seen["url_hash"].to_pylist(), b.url_seen["url"].to_pylist()))
    assert sa == sb, "URL-seen set differs"
    assert a.items.sort_by("url").equals(b.items.sort_by("url")), "items differ"


def test_engine_matches_simulator_with_redirects(ray_session, redirect_corpus):
    cfg = CrawlConfig(n_filter_shards=3, n_frontier_shards=2)
    sim = simulate_crawl(redirect_corpus, cfg)
    eng = run_crawl(redirect_corpus, cfg)
    _assert_equal(sim, eng)
    # the corpus really exercised redirects: moved aliases were scheduled...
    seen_urls = set(eng.url_seen["url"].to_pylist())
    moved = [u for u in seen_urls if "/moved/" in u]
    assert moved, "no moved aliases crawled — redirect_frac ineffective"
    # ...and their TARGETS were fetched + extracted (items at canonical urls
    # whose detail id is flagged moved and whose listing card linked the alias)
    item_urls = set(eng.items["url"].to_pylist())
    redirected_targets = 0
    for hi in range(REDIR_SPEC.n_hosts):
        for u in item_urls:
            host = REDIR_SPEC.host(hi)
            if u.startswith(f"https://{host}/"):
                d = int(u.rsplit("/", 1)[1])
                if is_moved(REDIR_SPEC, hi, d):
                    redirected_targets += 1
    assert redirected_targets > 0, "no redirect target was extracted"


def test_redirects_disabled_means_dead_ends(ray_session, redirect_corpus):
    """redirect_max=0 turns the middleware off: aliases are fetched but
    never followed -> strictly fewer items than the redirect-enabled run."""
    on = run_crawl(redirect_corpus, CrawlConfig(n_filter_shards=2, n_frontier_shards=2))
    off = run_crawl(redirect_corpus, CrawlConfig(n_filter_shards=2, n_frontier_shards=2,
                                                 redirect_max=0))
    assert len(off.items) < len(on.items)
    sim_off = simulate_crawl(redirect_corpus,
                             CrawlConfig(n_filter_shards=2, n_frontier_shards=2,
                                         redirect_max=0))
    _assert_equal(sim_off, off)


def test_redirect_rows_unit():
    """In-task builder: urljoin + canonicalize + hash on targets; hop cap."""
    from scrapy_ray import schemas
    from scrapy_ray.functions.hashing import hash64
    from scrapy_ray.stages.fetch import _redirect_rows

    t = pa.table({
        "url": pa.array(["https://a.example.com/moved/1",
                         "https://a.example.com/moved/2",
                         "https://a.example.com/ok",
                         "https://a.example.com/moved/3"]),
        "status": pa.array([301, 308, 200, 301], type=pa.int16()),
        "location": pa.array(["/hotel/00001", "https://b.example.com/x", "", "/h/3"]),
        "depth": pa.array([1, 2, 0, 1], type=pa.int32()),
        "priority": pa.array([5, 0, 0, 0], type=pa.int32()),
        "seq": pa.array([10, 11, 12, 13], type=pa.int64()),
        "redirects": pa.array([0, 0, 0, 20], type=pa.int32()),  # last: budget spent
    })
    out = _redirect_rows(t, (301, 302, 303, 307, 308), 20)
    assert out["url"].to_pylist() == ["https://a.example.com/hotel/00001",
                                      "https://b.example.com/x"]
    assert out["host"].to_pylist() == ["a.example.com", "b.example.com"]
    assert out["depth"].to_pylist() == [1, 2]          # unchanged
    assert out["priority"].to_pylist() == [5, 0]       # unchanged
    assert out["seq"].to_pylist() == [10, 11]          # original seq
    assert out["redirects"].to_pylist() == [1, 1]
    assert out["url_hash"].to_pylist() == hash64(out["url"].to_pylist()).tolist()
    # a full FRONTIER row: dupefilter applies, attempt count reset
    assert out.schema.equals(schemas.FRONTIER)
    assert out["dont_filter"].to_pylist() == [False, False]
    assert out["retries"].to_pylist() == [0, 0]
    # corpus without a location column -> never redirects
    assert len(_redirect_rows(t.drop_columns(["location"]), (301,), 20)) == 0


def test_retry_rows_unit():
    """In-task retry rows ([S:retry.py]): a retryable status with attempt
    budget left becomes a FRONTIER row at the same url with the priority
    adjusted, the attempt count + 1, the dupefilter bypassed and the
    ORIGINAL seq kept."""
    from scrapy_ray import schemas
    from scrapy_ray.stages.fetch import _retry_rows

    t = pa.table({
        "url": pa.array(["https://a.example.com/1", "https://a.example.com/2",
                         "https://b.example.com/3", "https://b.example.com/4"]),
        "host": pa.array(["a.example.com", "a.example.com",
                          "b.example.com", "b.example.com"]),
        "url_hash": pa.array([11, 12, 13, 14], type=pa.uint64()),
        "status": pa.array([503, 200, 500, 500], type=pa.int16()),
        "depth": pa.array([1, 1, 2, 2], type=pa.int32()),
        "priority": pa.array([5, 0, 0, 3], type=pa.int32()),
        "seq": pa.array([20, 21, 22, 23], type=pa.int64()),
        "retries": pa.array([0, 0, 1, 2], type=pa.int32()),   # last: spent
        "redirects": pa.array([3, 0, 0, 0], type=pa.int32()),
    })
    out = _retry_rows(t, (500, 503), 2, -1)
    assert out.schema.equals(schemas.FRONTIER)
    assert out["url"].to_pylist() == ["https://a.example.com/1",
                                      "https://b.example.com/3"]
    assert out["host"].to_pylist() == ["a.example.com", "b.example.com"]
    assert out["url_hash"].to_pylist() == [11, 13]
    assert out["depth"].to_pylist() == [1, 2]
    assert out["priority"].to_pylist() == [4, -1]       # priority + adjust
    assert out["seq"].to_pylist() == [20, 22]           # original seq
    assert out["retries"].to_pylist() == [1, 2]         # retries + 1
    assert out["dont_filter"].to_pylist() == [True, True]
    assert out["redirects"].to_pylist() == [0, 0]


def test_all_middlewares_together(ray_session, redirect_corpus):
    """Interaction coverage: redirects + politeness delay + depth limit +
    depth-priority + retries + autothrottle in ONE config — engine must
    still equal the simulator exactly (ordering, url-seen, items)."""
    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=3,
                      download_delay=0.5, depth_limit=4, depth_priority=-1,
                      retry_max=1, autothrottle=True, max_pages=300,
                      handle_httpstatus_list=(404,),   # disjoint from retry
                      user_agent="raybot/1.0")
    sim = simulate_crawl(redirect_corpus, cfg)
    eng = run_crawl(redirect_corpus, cfg)
    _assert_equal(sim, eng)
    assert any("/moved/" in u for u in eng.url_seen["url"].to_pylist())


# --- meta-refresh middleware ([S:redirect.py MetaRefreshMiddleware]) -------

MR_ROOT = "/tmp/scrapy_ray_test/corpus_metarefresh"
MR_SPEC = CorpusSpec(n_hosts=8, total_pages=400, seed=91,
                     redirect_frac=0.15, metarefresh_frac=0.3)


@pytest.fixture(scope="module")
def metarefresh_corpus(ray_session) -> str:
    generate_corpus(MR_ROOT, MR_SPEC)
    return MR_ROOT


def test_meta_refresh_kernel():
    from scrapy_ray.functions.htmlx import meta_refresh

    assert meta_refresh(
        b'<meta http-equiv="refresh" content="0;url=/hotel/00001">') \
        == (0.0, "/hotel/00001")
    # attribute order + unquoted http-equiv
    assert meta_refresh(b'<meta content="2; url=/x" http-equiv=refresh>') \
        == (2.0, "/x")
    # upper case, spaces around url=, fractional delay
    assert meta_refresh(
        b"<META HTTP-EQUIV='Refresh' CONTENT='1.5 ; URL = /y'>") == (1.5, "/y")
    # delay-only refresh (refresh-to-self) is not followable
    assert meta_refresh(b'<meta http-equiv="refresh" content="5">') is None
    # unrelated meta and plain pages
    assert meta_refresh(b'<meta name="viewport" content="width=1">') is None
    assert meta_refresh(b"no tags") is None


def test_meta_refresh_split_unit():
    from scrapy_ray import schemas
    from scrapy_ray.stages.fetch import _meta_refresh_split

    tag = b'<html><head><meta http-equiv="refresh" content="%d;url=/t/%d">' \
          b'</head><body>x</body></html>'
    t = pa.table({
        "url": pa.array([f"https://a.example.com/r/{i}" for i in range(4)]),
        "html": pa.array([tag % (0, 0),          # followed
                          tag % (200, 1),        # too slow -> parsed
                          b"<html>plain</html>",  # no directive -> parsed
                          tag % (1, 3)],         # hop budget exhausted
                         type=pa.binary()),
        "status": pa.array([200, 200, 200, 200], type=pa.int16()),
        "depth": pa.array([1, 1, 1, 1], type=pa.int32()),
        "priority": pa.array([0, 0, 0, 0], type=pa.int32()),
        "seq": pa.array([10, 11, 12, 13], type=pa.int64()),
        "retries": pa.array([0] * 4, type=pa.int32()),
        "redirects": pa.array([0, 0, 0, 20], type=pa.int32()),
    })
    rows, keep = _meta_refresh_split(t, 100.0, 20)
    assert rows.schema.equals(schemas.FRONTIER)
    assert rows["url"].to_pylist() == ["https://a.example.com/t/0"]
    assert rows["redirects"].to_pylist() == [1]
    assert rows["seq"].to_pylist() == [10]
    assert rows["host"].to_pylist() == ["a.example.com"]
    assert rows["depth"].to_pylist() == [1]
    assert rows["dont_filter"].to_pylist() == [False]
    assert rows["retries"].to_pylist() == [0]
    # only the followed row left the parse stream
    assert keep["seq"].to_pylist() == [11, 12, 13]


def test_meta_refresh_split_reads_compressed_bodies():
    """A gzip or zlib body hides its refresh tag from the raw-byte sniff;
    the split decompresses it first (M11), as the parse and the simulator
    do. Rows that stay in the parse stream keep their stored bytes."""
    import gzip
    import zlib

    from scrapy_ray.stages.fetch import _meta_refresh_split

    tag = b'<html><head><meta http-equiv="refresh" content="%d;url=/t/%d">' \
          b'</head><body>x</body></html>'
    bodies = [tag % (0, 0), gzip.compress(tag % (0, 1)),
              zlib.compress(tag % (0, 2)),
              gzip.compress(tag % (200, 3)),        # too slow -> parsed
              zlib.compress(b"<html>plain</html>")]  # no directive -> parsed
    n = len(bodies)
    t = pa.table({
        "url": pa.array([f"https://a.example.com/r/{i}" for i in range(n)]),
        "html": pa.array(bodies, type=pa.binary()),
        "status": pa.array([200] * n, type=pa.int16()),
        "depth": pa.array([1] * n, type=pa.int32()),
        "priority": pa.array([0] * n, type=pa.int32()),
        "seq": pa.array(range(10, 10 + n), type=pa.int64()),
        "retries": pa.array([0] * n, type=pa.int32()),
        "redirects": pa.array([0] * n, type=pa.int32()),
    })
    rows, keep = _meta_refresh_split(t, 100.0, 20)
    assert rows["url"].to_pylist() == [f"https://a.example.com/t/{i}"
                                       for i in range(3)]
    assert rows["seq"].to_pylist() == [10, 11, 12]
    assert keep["seq"].to_pylist() == [13, 14]
    assert keep["html"].to_pylist() == bodies[3:]


def test_engine_matches_simulator_with_metarefresh(ray_session, metarefresh_corpus):
    from scrapy_ray.sources.corpus import is_refreshed, refresh_delay

    cfg = CrawlConfig(n_filter_shards=3, n_frontier_shards=2)
    sim = simulate_crawl(metarefresh_corpus, cfg)
    eng = run_crawl(metarefresh_corpus, cfg)
    _assert_equal(sim, eng)
    seen_urls = set(eng.url_seen["url"].to_pylist())
    assert any("/refresh/" in u for u in seen_urls), \
        "no refresh aliases crawled — metarefresh_frac ineffective"
    # both delay classes exist in the corpus this crawl walked
    fast = slow = 0
    for hi in range(MR_SPEC.n_hosts):
        host = MR_SPEC.host(hi)
        for u in seen_urls:
            if u.startswith(f"https://{host}/refresh/"):
                d = int(u.rsplit("/", 1)[1])
                assert is_refreshed(MR_SPEC, hi, d)
                if refresh_delay(MR_SPEC, hi, d) > 100:
                    slow += 1
                else:
                    fast += 1
    assert fast > 0 and slow > 0, (fast, slow)


def test_metarefresh_disabled_means_dead_ends(ray_session, metarefresh_corpus):
    """metarefresh=False: interstitials are fetched and parsed (no links in
    their bodies) so their exclusive targets are never reached -> strictly
    fewer items; engine still equals simulator with the flag off."""
    on_cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=2)
    off_cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=2,
                          metarefresh=False)
    on = run_crawl(metarefresh_corpus, on_cfg)
    off = run_crawl(metarefresh_corpus, off_cfg)
    assert len(off.items) < len(on.items)
    _assert_equal(simulate_crawl(metarefresh_corpus, off_cfg), off)


def test_randomized_config_sweep(ray_session, tmp_path):
    """Catch-all interaction fuzz: SIX seeded random CrawlConfig
    combinations over a corpus with redirects + meta-refresh interstitials —
    the engine must equal the simulator exactly under EVERY combination of
    middleware knobs (politeness, jitter, depth, retries, autothrottle,
    maxsize, pass-through statuses, error/page limits, shard counts).
    Individual middleware tests pin each knob; this sweeps the cross
    products no hand-written test enumerates."""
    import random

    corpus = str(tmp_path / "sweep_corpus")
    generate_corpus(corpus, CorpusSpec(n_hosts=6, total_pages=250, seed=99,
                                       redirect_frac=0.2,
                                       metarefresh_frac=0.15))
    rng = random.Random(20240817)
    for trial in range(6):
        cfg = CrawlConfig(
            n_filter_shards=rng.choice([1, 2, 3]),
            n_frontier_shards=rng.choice([1, 2, 4]),
            per_domain_cap=rng.choice([2, 8, 64]),
            download_delay=rng.choice([0.0, 0.5, 2.0]),
            randomize_download_delay=rng.random() < 0.5,
            depth_limit=rng.choice([0, 3, 5]),
            depth_priority=rng.choice([0, -1, 1]),
            retry_max=rng.choice([0, 1, 2]),
            autothrottle=rng.random() < 0.4,
            download_maxsize=rng.choice([0, 0, 2000]),
            handle_httpstatus_list=rng.choice([(), (404,)]),
            max_pages=rng.choice([0, 120]),
            max_errors=rng.choice([0, 0, 5]),
            frontier_max_rows=rng.choice([0, 0, 50]),
            max_wave_urls=rng.choice([0, 0, 30]),
            cookies=rng.random() < 0.5,
        )
        sim = simulate_crawl(corpus, cfg)
        eng = run_crawl(corpus, cfg)
        try:
            _assert_equal(sim, eng)
            assert eng.metrics["pages_fetched"] == sim.metrics["pages_fetched"]
            assert eng.metrics["error_responses"] == sim.metrics["error_responses"]
            assert eng.metrics["depth_stats"] == sim.metrics["depth_stats"]
            if cfg.cookies:   # F6: full per-request session-log equality
                assert eng.metrics["session_log"] == sim.metrics["session_log"]
                assert eng.metrics["sessions"] == sim.metrics["sessions"]
        except AssertionError as e:
            raise AssertionError(f"trial {trial} cfg={cfg}") from e
