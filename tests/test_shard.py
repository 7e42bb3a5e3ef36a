"""The merged shard actor (state/shard.py): CrawlShard as a plain class (epoch
guard, reset, checkpoint round-trips for shards that hold only one of the
two partitions), the fail-fast shard-count and config checks, the pool
layout the engine builds, the IPC wire format its RPCs use, and the
libraries a shard process loads."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pytest

from scrapy_ray import schemas
from scrapy_ray.config import CrawlConfig
from scrapy_ray.state.errors import StaleShardError
from scrapy_ray.state.shard import CrawlShard, ShardPool


def _rows(hosts: list[str], seq0: int = 0) -> pa.Table:
    n = len(hosts)
    urls = [f"https://{h}/p{seq0 + i}" for i, h in enumerate(hosts)]
    return pa.table({
        "url": urls, "host": hosts,
        "url_hash": pa.array(np.arange(seq0, seq0 + n, dtype=np.uint64)),
        "depth": pa.array(np.zeros(n, dtype=np.int32)),
        "priority": pa.array(np.arange(n, dtype=np.int32) % 3),
        "seq": pa.array(np.arange(seq0, seq0 + n, dtype=np.int64)),
        "parent_url": [""] * n, "callback": ["parse_detail"] * n,
        "dont_filter": [False] * n,
        "retries": pa.array(np.zeros(n, dtype=np.int32)),
        "redirects": pa.array(np.zeros(n, dtype=np.int32)),
    }, schema=schemas.FRONTIER)


def _hashes(lo: int, hi: int):
    h = np.arange(lo, hi, dtype=np.uint64) * np.uint64(2654435761)
    return h, [f"https://u/{int(x)}" for x in h]


def test_crawl_shard_guard_reset_and_checkpoint(tmp_path):
    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=2, cookies=True,
                      per_domain_cap=2, frontier_max_rows=10,
                      frontier_spill_dir=str(tmp_path / "spill"))
    sh = CrawlShard(1, cfg)
    h, u = _hashes(0, 6)
    rows = _rows([f"h{i % 5}" for i in range(40)])

    # epoch guard: a fresh actor (-1) and a stale stamp both raise, naming
    # the shard, on a URL-seen RPC and on a frontier RPC
    assert sh.epoch == -1
    for rpc in (lambda e: sh.call("urlseen", "check_and_add", h, u, epoch=e),
                lambda e: sh.call("frontier", "push", rows, epoch=e)):
        with pytest.raises(StaleShardError, match="crawl shard 1: epoch -1 != driver 3"):
            rpc(3)
    sh.set_epoch(4)
    for rpc in (lambda e: sh.call("urlseen", "check_and_add", h, u, epoch=e),
                lambda e: sh.call("frontier", "push", rows, epoch=e)):
        with pytest.raises(StaleShardError, match="crawl shard 1: epoch 4 != driver 3"):
            rpc(3)
    assert sh.stats(epoch=4)["urlseen"]["n_seen"] == 0   # nothing applied

    # reset: both partitions back to construction state, spill counter too
    assert sh.call("urlseen", "check_and_add", h, u, epoch=4).all()
    assert sh.call("frontier", "push", rows, epoch=4) == 40
    sh.call("frontier", "update_throttle", ["h0"], np.array([1.0]), epoch=4)
    sh.end_wave(None, ["h0"], [7], None, 0, epoch=4)
    used = sh.stats(epoch=4)
    assert used["frontier"]["spilled_rows_total"] > 0
    assert used["urlseen"]["bloom_fill"] > 0
    sh.reset()
    fresh = CrawlShard(1, cfg)
    assert sh.stats() == fresh.stats()
    assert sh.frontier.sessions == {} and sh.frontier.at_delay == {}
    assert not os.listdir(sh.frontier._spill_dir)

    # a shard holding only a URL-seen partition checkpoints through the
    # end-of-wave RPC and restores it; no frontier segment is written
    cfg_u = CrawlConfig(n_filter_shards=3, n_frontier_shards=2)
    su = CrawlShard(2, cfg_u)
    assert su.frontier is None and su.urlseen is not None
    su.call("urlseen", "check_and_add", *_hashes(0, 50))
    ck_u = str(tmp_path / "ck_u")
    assert su.end_wave(None, None, None, ck_u, None) is None
    assert sorted(os.listdir(ck_u)) == ["bloom_2.bin", "urlseen_2.parquet",
                                        "urlseen_meta_2.json"]
    ru = CrawlShard(2, cfg_u)
    ru.restore(ck_u)
    assert ru.stats() == su.stats()
    assert (ru.urlseen.seen_table().sort_by("url_hash")
            .equals(su.urlseen.seen_table().sort_by("url_hash")))
    h2, u2 = _hashes(40, 60)
    assert (ru.call("urlseen", "check_and_add", h2, u2).tolist()
            == su.call("urlseen", "check_and_add", h2, u2).tolist())

    # a shard holding only a frontier partition: same round-trip
    cfg_f = CrawlConfig(n_filter_shards=2, n_frontier_shards=3, per_domain_cap=2)
    sf = CrawlShard(2, cfg_f)
    assert sf.urlseen is None and sf.frontier is not None
    sf.call("frontier", "push", _rows([f"h{i % 4}" for i in range(30)]))
    sf.call("frontier", "next_wave", 0)
    ck_f = str(tmp_path / "ck_f")
    sf.checkpoint(ck_f)
    assert sorted(os.listdir(ck_f)) == ["clock_2.json", "frontier_2.parquet"]
    rf = CrawlShard(2, cfg_f)
    rf.restore(ck_f)
    assert rf.stats() == sf.stats()
    assert rf.call("frontier", "next_wave", 1).equals(sf.call("frontier", "next_wave", 1))


@pytest.mark.parametrize("field", ["n_filter_shards", "n_frontier_shards"])
@pytest.mark.parametrize("value", [0, -1])
def test_shard_counts_fail_fast(field, value):
    """A shard count below 1 would silently mark every URL seen (URL-seen)
    or drop every push (frontier); the pool refuses it before starting any
    actor, naming the field."""
    with pytest.raises(ValueError, match=f"CrawlConfig.{field} must be >= 1"):
        ShardPool(CrawlConfig(**{field: value}))


@pytest.mark.parametrize("kwargs,match", [
    ({"n_frontier_shards": 0}, "CrawlConfig.n_frontier_shards must be >= 1"),
    ({"handle_httpstatus_list": (503,), "retry_max": 1},
     "handle_httpstatus_list overlaps"),
    ({"retry_max": 1, "retry_codes": (500, 302)},
     "retry_codes and redirect_codes overlap"),
])
def test_crawl_config_rejects_bad_settings(kwargs, match):
    """The config validates itself: every engine entry point (run_crawl, a
    direct CrawlEngine, the CLI) gets the same errors, with no Ray."""
    with pytest.raises(ValueError, match=match):
        CrawlConfig(**kwargs)


@pytest.mark.parametrize("n_filter,n_frontier", [(3, 2), (2, 3)])
def test_engine_builds_one_actor_per_partition(ray_session, e2e_corpus,
                                               n_filter, n_frontier):
    import ray

    from scrapy_ray.pipelines.crawl import CrawlEngine

    eng = CrawlEngine(e2e_corpus, CrawlConfig(n_filter_shards=n_filter,
                                              n_frontier_shards=n_frontier))
    try:
        actors = eng.shards.actors
        assert len(actors) == max(n_filter, n_frontier)
        assert eng.urlseen.shards == actors[:n_filter]
        assert eng.frontier.shards == actors[:n_frontier]
        for i in range(min(n_filter, n_frontier)):
            assert eng.urlseen.shards[i] is eng.frontier.shards[i]
        eng.warm()
        eng.seed()
        ustats, fstats = eng.urlseen.stats(), eng.frontier.stats()
        assert [s["shard"] for s in ustats] == list(range(n_filter))
        assert [s["shard"] for s in fstats] == list(range(n_frontier))
        assert set(ustats[0]) == {"shard", "n_seen", "n_filtered", "bloom_fill"}
        assert "queued" in fstats[0] and "n_seen" not in fstats[0]
        assert sum(s["n_seen"] for s in ustats) == sum(s["queued"] for s in fstats) > 0
    finally:
        for a in eng.shards.actors:
            ray.kill(a, no_restart=True)


def test_ipc_wire_format_round_trip():
    """to_ipc/from_ipc keep schema and values (empty FRONTIER tables with and
    without the cookies column, a multi-chunk table), pass non-buffers
    through, and ship only a slice's own rows (a pickled slice would carry
    its parent's buffers, ARROW-10739)."""
    from scrapy_ray.schemas import from_ipc, to_ipc

    empty = schemas.FRONTIER.empty_table()
    with_session = empty.append_column("session", pa.array([], type=pa.uint64()))
    multi = pa.concat_tables([_rows(["a", "b", "a"]), _rows(["c", "a"], seq0=3)])
    assert multi["url"].num_chunks == 2
    for t in (empty, with_session, multi):
        buf = to_ipc(t)
        assert isinstance(buf, pa.Buffer)
        back = from_ipc(buf)
        assert back.schema.equals(t.schema, check_metadata=True)
        assert back.equals(t)
    assert from_ipc(None) is None
    assert from_ipc(multi) is multi

    n = 10_000
    full = pa.table({"url": [f"https://h{i % 97}.example.com/p{i:06d}" for i in range(n)],
                     "seq": pa.array(np.arange(n, dtype=np.int64))})
    part = full.slice(4_000, 100)
    assert from_ipc(to_ipc(part)).equals(part)
    assert to_ipc(part).size < 0.05 * to_ipc(full).size


def test_crawl_shard_loads_no_unused_libraries(ray_session, e2e_corpus, tmp_path):
    """After a crawl (cookies and checkpoints on, so every RPC kind ran), no
    CrawlShard process holds polars, ray.air or ray.data, and none of
    pandas, polars, ray.air or ray.data was first imported after
    ``eng.warm()``: warm() is what loads pandas (pyarrow's shim), so that
    import never lands in a timed crawl."""
    import ray

    from scrapy_ray.pipelines.crawl import CrawlEngine

    def loaded(_shard) -> list[str]:
        import sys

        libs = ("pandas", "polars", "ray.air", "ray.data")
        return sorted(m for m in sys.modules
                      if any(m == p or m.startswith(p + ".") for p in libs))

    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=2, cookies=True,
                      checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=2)
    eng = CrawlEngine(e2e_corpus, cfg)
    try:
        eng.warm()
        after_warm = ray.get([a.__ray_call__.remote(loaded) for a in eng.shards.actors])
        eng.seed()
        while eng.run_wave():
            pass
        res = eng.result()
        after_crawl = ray.get([a.__ray_call__.remote(loaded) for a in eng.shards.actors])
    finally:
        for a in eng.shards.actors:
            ray.kill(a, no_restart=True)
    assert len(res.url_seen) > 0 and res.metrics["waves"] > 2
    for i, (warm, crawl) in enumerate(zip(after_warm, after_crawl)):
        assert "pandas" in warm, f"shard {i}: warm() did not load pandas"
        unused = [m for m in crawl if not (m == "pandas" or m.startswith("pandas."))]
        assert unused == [], f"shard {i} loaded {unused}"
        late = sorted(set(crawl) - set(warm))
        assert late == [], f"shard {i} first imported {late} inside the crawl"
