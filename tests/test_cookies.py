"""F6 cookies analogue ([S:scrapy/downloadermiddlewares/cookies.py], adapted
for corpus replay — CrawlConfig.cookies): per-host session tokens live in the
frontier shard that owns the host, every fetched response rotates the token
to hash64(url) (last response per wave wins), and every scheduled request
carries the current token as a `session` column. Engine == simulator on the
full per-request session log; the middleware never changes what is crawled."""

from __future__ import annotations

from scrapy_ray.config import CrawlConfig
from scrapy_ray.pipelines.crawl import run_crawl
from scrapy_ray.pipelines.simulator import simulate_crawl


def _assert_equal(a, b):
    assert a.crawl_order.to_pydict() == b.crawl_order.to_pydict()
    sa = set(zip(a.url_seen["url_hash"].to_pylist(), a.url_seen["url"].to_pylist()))
    sb = set(zip(b.url_seen["url_hash"].to_pylist(), b.url_seen["url"].to_pylist()))
    assert sa == sb
    assert a.items.sort_by("url").equals(b.items.sort_by("url"))


def test_cookies_engine_matches_simulator(ray_session, e2e_corpus):
    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=3, cookies=True)
    sim = simulate_crawl(e2e_corpus, cfg)
    eng = run_crawl(e2e_corpus, cfg)
    _assert_equal(sim, eng)
    # the jar and the full per-request Cookie-header analogue match exactly
    assert eng.metrics["sessions"] == sim.metrics["sessions"]
    assert eng.metrics["session_log"] == sim.metrics["session_log"]
    log = eng.metrics["session_log"]
    assert len(log) == eng.metrics["scheduled"]
    # sessions genuinely evolve: wave-0 seeds carry none, later requests do
    assert any(t != 0 for _, t in log), "no request ever carried a session"
    assert any(t == 0 for _, t in log), "seed requests must carry none"
    # a revisited host's requests carry the token its LAST response set:
    # every non-zero carried token must be hash64 of some fetched url
    from scrapy_ray.functions.hashing import hash64

    fetched_tokens = set(
        int(t) for t in hash64(eng.crawl_order["url"].to_pylist()))
    carried = {t for _, t in log if t != 0}
    assert carried <= fetched_tokens


def test_cookies_off_is_free_and_output_identical(ray_session, e2e_corpus):
    cfg_on = CrawlConfig(n_filter_shards=2, n_frontier_shards=2, cookies=True)
    cfg_off = CrawlConfig(n_filter_shards=2, n_frontier_shards=2)
    on = run_crawl(e2e_corpus, cfg_on)
    off = run_crawl(e2e_corpus, cfg_off)
    # the middleware observes; it never changes what is crawled
    _assert_equal(on, off)
    assert "sessions" not in off.metrics
    assert "session_log" not in off.metrics


def test_session_state_survives_checkpoint(tmp_path):
    """Shard-level: the session jar round-trips through checkpoint/restore
    (pause/resume keeps cookie state, like Scrapy's JOBDIR jar)."""
    from scrapy_ray.state.frontier import FrontierShard

    cfg = CrawlConfig(cookies=True)
    s = FrontierShard(0, cfg)
    s.update_sessions(["a.example", "b.example"], [11, 22])
    s.checkpoint(str(tmp_path))
    s2 = FrontierShard(0, cfg)
    s2.restore(str(tmp_path))
    assert s2.get_sessions() == {"a.example": 11, "b.example": 22}
    s2.reset()
    assert s2.get_sessions() == {}
