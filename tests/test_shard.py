"""The merged shard actor (state/shard.py): CrawlShard as a plain class (epoch
guard, reset, checkpoint round-trips for shards that hold only one of the
two partitions, the per-host feedback ``end_wave`` reduces with
``schemas.reduce_hosts``), the fail-fast shard-count and config checks, the pool
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
        "dont_filter": [False] * n,
        "retries": pa.array(np.zeros(n, dtype=np.int32)),
        "redirects": pa.array(np.zeros(n, dtype=np.int32)),
    }, schema=schemas.FRONTIER)


def _hosts(rows: list[tuple]) -> pa.Table:
    """HOSTS table from (host, n, nbytes, seq, token) tuples."""
    return pa.table(list(map(list, zip(*rows))), schema=schemas.HOSTS)


def _hashes(lo: int, hi: int):
    h = np.arange(lo, hi, dtype=np.uint64) * np.uint64(2654435761)
    return h, pa.array([f"https://u/{int(x)}" for x in h])


def test_crawl_shard_guard_reset_and_checkpoint(tmp_path):
    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=2, cookies=True,
                      per_domain_cap=2, frontier_max_rows=10,
                      frontier_spill_dir=str(tmp_path / "spill"))
    sh = CrawlShard(1, [1], cfg)
    h, u = _hashes(0, 6)
    rows = _rows([f"h{i % 5}" for i in range(40)])

    # epoch guard: a fresh actor (-1) and a stale stamp both raise, naming
    # the shard, on a URL-seen RPC and on a frontier RPC
    assert sh.epoch == -1
    for rpc in (lambda e: sh.call({1: (h, u)}, "urlseen", "check_and_add", epoch=e),
                lambda e: sh.call({1: (rows,)}, "frontier", "push", epoch=e)):
        with pytest.raises(StaleShardError, match="crawl shard 1: epoch -1 != driver 3"):
            rpc(3)
    sh.set_epoch(4)
    for rpc in (lambda e: sh.call({1: (h, u)}, "urlseen", "check_and_add", epoch=e),
                lambda e: sh.call({1: (rows,)}, "frontier", "push", epoch=e)):
        with pytest.raises(StaleShardError, match="crawl shard 1: epoch 4 != driver 3"):
            rpc(3)
    assert sh.stats(epoch=4)["urlseen"][1]["n_seen"] == 0   # nothing applied

    # reset: both partitions back to construction state, spill counter too
    assert sh.call({1: (h, u)}, "urlseen", "check_and_add", epoch=4)[1].all()
    assert sh.call({1: (rows,)}, "frontier", "push", epoch=4)[1] == 40
    sh.call({1: (["h0"], np.array([1.0]))}, "frontier", "update_throttle", epoch=4)
    sh.end_wave({1: (None, schemas.to_ipc(_hosts([("h0", 1, 100, 3, 7)])))}, None, 0,
                epoch=4)
    used = sh.stats(epoch=4)
    assert used["frontier"][1]["spilled_rows_total"] > 0
    assert used["urlseen"][1]["n_seen"] > 0
    sh.reset()
    fresh = CrawlShard(1, [1], cfg)
    assert sh.stats() == fresh.stats()
    assert sh.frontier[1].sessions == {} and sh.frontier[1].at_delay == {}
    assert not os.listdir(sh.frontier[1]._spill_dir)

    # a shard holding only a URL-seen partition checkpoints through the
    # end-of-wave RPC and restores it; no frontier segment is written
    cfg_u = CrawlConfig(n_filter_shards=3, n_frontier_shards=2)
    su = CrawlShard(2, [2], cfg_u)
    assert su.frontier == {} and 2 in su.urlseen
    su.call({2: _hashes(0, 50)}, "urlseen", "check_and_add")
    ck_u = str(tmp_path / "ck_u")
    assert su.end_wave({2: (None, None)}, ck_u, None) is None
    assert sorted(os.listdir(ck_u)) == ["urlseen_2.parquet", "urlseen_meta_2.json"]
    ru = CrawlShard(2, [2], cfg_u)
    ru.restore(ck_u)
    assert ru.stats() == su.stats()
    assert (ru.urlseen[2].seen_table().sort_by("url_hash")
            .equals(su.urlseen[2].seen_table().sort_by("url_hash")))
    h2, u2 = _hashes(40, 60)
    assert (ru.call({2: (h2, u2)}, "urlseen", "check_and_add")[2].tolist()
            == su.call({2: (h2, u2)}, "urlseen", "check_and_add")[2].tolist())

    # Bloom-only mode: the shard holds the Bloom filter alone, reports its
    # fill, and checkpoints bloom_<i>.bin instead of the exact set
    cfg_b = CrawlConfig(n_filter_shards=3, n_frontier_shards=2, exact_urlseen=False,
                        bloom_capacity=1000)
    sb = CrawlShard(2, [2], cfg_b)
    assert sb.call({2: (_hashes(0, 50)[0], None)}, "urlseen", "check_and_add")[2].all()
    assert sb.stats()["urlseen"][2]["bloom_fill"] > 0
    ck_b = str(tmp_path / "ck_b")
    sb.checkpoint(ck_b)
    assert sorted(os.listdir(ck_b)) == ["bloom_2.bin", "urlseen_meta_2.json"]
    rb = CrawlShard(2, [2], cfg_b)
    rb.restore(ck_b)
    assert rb.stats() == sb.stats()
    assert (rb.call({2: (h2, None)}, "urlseen", "check_and_add")[2].tolist()
            == sb.call({2: (h2, None)}, "urlseen", "check_and_add")[2].tolist()
            == [False] * 10 + [True] * 10)

    # a shard holding only a frontier partition: same round-trip
    cfg_f = CrawlConfig(n_filter_shards=2, n_frontier_shards=3, per_domain_cap=2)
    sf = CrawlShard(2, [2], cfg_f)
    assert sf.urlseen == {} and 2 in sf.frontier
    sf.call({2: (_rows([f"h{i % 4}" for i in range(30)]),)}, "frontier", "push")
    sf.call({2: (0,)}, "frontier", "next_wave")
    ck_f = str(tmp_path / "ck_f")
    sf.checkpoint(ck_f)
    assert sorted(os.listdir(ck_f)) == ["clock_2.json", "frontier_2.parquet"]
    rf = CrawlShard(2, [2], cfg_f)
    rf.restore(ck_f)
    assert rf.stats() == sf.stats()
    assert rf.call({2: (1,)}, "frontier", "next_wave")[2].equals(
        sf.call({2: (1,)}, "frontier", "next_wave")[2])


def test_reduce_hosts_is_an_associative_per_host_reduce():
    """One host's partials split across "tasks" with out-of-order seqs:
    n and nbytes sum, the max-seq row's seq and token win, the output is
    sorted by host, and reducing reduced partials gives the same table."""
    rows = [("b.example", 1, 10, 7, 70), ("a.example", 2, 5, 4, 40),
            ("b.example", 1, 30, 2, 20), ("c.example", 1, 1, 0, 5),
            ("b.example", 3, 60, 9, 90), ("a.example", 1, 7, 11, 110),
            ("b.example", 1, 5, 8, 80)]
    want = _hosts([("a.example", 3, 12, 11, 110), ("b.example", 6, 105, 9, 90),
                   ("c.example", 1, 1, 0, 5)])
    assert schemas.reduce_hosts(_hosts(rows)).equals(want)
    tasks = [rows[0:2], rows[2:5], rows[5:]]
    partials = pa.concat_tables([schemas.reduce_hosts(_hosts(t)) for t in tasks])
    assert partials.num_rows > want.num_rows
    backwards = partials.take(pa.array(np.arange(partials.num_rows)[::-1]))
    assert schemas.reduce_hosts(backwards).equals(want)
    assert schemas.reduce_hosts(want).equals(want)
    assert schemas.reduce_hosts(schemas.HOSTS.empty_table()).equals(
        schemas.HOSTS.empty_table())


def test_end_wave_applies_the_host_table_like_the_old_driver_reduce(tmp_path):
    """A shard fed one HOSTS slice per wave ends with the same AutoThrottle
    delays and session tokens, in the same insertion order and with the same
    clock checkpoint bytes, as one whose ``update_throttle`` and
    ``update_sessions`` get the per-host values the driver used to reduce:
    latency = summed nbytes / summed n / at_bytes_per_sec, the max-seq token,
    hosts sorted."""
    import json

    cfg = CrawlConfig(n_filter_shards=1, n_frontier_shards=1, autothrottle=True,
                      cookies=True, at_bytes_per_sec=3000.0)
    waves = [[("m.example", 2, 9000, 5, 55), ("b.example", 1, 1200, 1, 11),
              ("m.example", 1, 800, 9, 99), ("b.example", 3, 300, 0, 10)],
             [("z.example", 1, 4000, 12, 120), ("a.example", 2, 100, 14, 140),
              ("m.example", 1, 50, 13, 130)]]
    new, old = CrawlShard(0, [0], cfg), CrawlShard(0, [0], cfg)
    for w in waves:
        assert new.end_wave({0: (None, schemas.to_ipc(_hosts(w)))}, None, None) is None
        acc: dict = {}
        for host, n, nbytes, seq, token in w:
            a = acc.setdefault(host, [0, 0, -1, 0])
            a[0] += n
            a[1] += nbytes
            if seq > a[2]:
                a[2], a[3] = seq, token
        hosts = sorted(acc)
        old.frontier[0].update_sessions(hosts, [acc[h][3] for h in hosts])
        old.frontier[0].update_throttle(hosts, (
            np.array([acc[h][1] for h in hosts]) / np.array([acc[h][0] for h in hosts])
            / cfg.at_bytes_per_sec).tolist())
    assert list(new.frontier[0].at_delay.items()) == list(old.frontier[0].at_delay.items())
    assert list(new.frontier[0].sessions.items()) == list(old.frontier[0].sessions.items())
    assert new.frontier[0].sessions["m.example"] == 130
    for sh, d in ((new, "new"), (old, "old")):
        sh.checkpoint(str(tmp_path / d))
    clock = [(tmp_path / d / "clock_0.json").read_bytes() for d in ("new", "old")]
    assert clock[0] == clock[1] and json.loads(clock[0])["at_delay"]


def test_one_shard_hosting_two_partitions_matches_two_shards(tmp_path):
    """An actor that hosts partitions {0, 2} is the two one-partition actors
    side by side: given the same per-partition payloads (URL-seen checks,
    pushes, per-host feedback, end-of-wave checkpoints and drains) it
    returns the same masks, push counts and drained waves, and writes the
    same checkpoint files, byte for byte."""
    from scrapy_ray.state.frontier import host_shard

    cfg = CrawlConfig(n_filter_shards=3, n_frontier_shards=3, cookies=True,
                      autothrottle=True, per_domain_cap=2, frontier_max_rows=12,
                      frontier_spill_dir=str(tmp_path / "spill"))
    both = CrawlShard(0, [0, 2], cfg)
    one = {i: CrawlShard(i, [i], cfg) for i in (0, 2)}

    def split(t: pa.Table) -> dict:
        part = host_shard(t["host"], 3)
        return {i: t.filter(pa.array(part == i)) for i in (0, 2)}

    def same(method_args: dict, *args, rpc: str = "call") -> dict:
        got = getattr(both, rpc)(method_args, *args)
        want = {}
        for i, a in method_args.items():
            want.update(getattr(one[i], rpc)({i: a}, *args) or {})
        if got is None:
            assert not want
            return {}
        assert got.keys() == want.keys()
        for i in got:
            g, w = got[i], want[i]
            assert (g.equals(w) if isinstance(g, pa.Buffer)
                    else np.array_equal(g, w) if isinstance(g, np.ndarray) else g == w)
        return got

    h, u = _hashes(0, 90)
    checks = {i: (h[h % np.uint64(3) == i], u.filter(pa.array(h % np.uint64(3) == i)))
              for i in (0, 2)}
    assert same(checks, "urlseen", "check_and_add")[0].all()
    assert not same(checks, "urlseen", "check_and_add")[2].any()
    rows = split(_rows([f"h{i % 7}" for i in range(60)]))
    pushed = same({i: (rows[i],) for i in (0, 2)}, "frontier", "push")
    assert pushed[0] > 0 and pushed[2] > 0
    hosts = split(_hosts([(f"h{i}", 1 + i, 900 * (i + 1), i, 10 + i) for i in range(7)]))
    for w in range(4):
        more = split(_rows([f"h{(w + i) % 7}" for i in range(9)], seq0=100 + 10 * w))
        ckpt = str(tmp_path / f"both{w}") if w % 2 else None
        slices = {i: (schemas.to_ipc(more[i]), schemas.to_ipc(hosts[i])) for i in (0, 2)}
        got = both.end_wave(slices, ckpt, w)
        want = {}
        for i in (0, 2):
            want.update(one[i].end_wave({i: slices[i]}, ckpt and str(tmp_path / f"one{w}"), w))
        assert got.keys() == want.keys() == {0, 2}
        assert all(got[i].equals(want[i]) for i in got)
        if ckpt:
            files = sorted(os.listdir(ckpt))
            assert files == sorted(os.listdir(tmp_path / f"one{w}")) and len(files) == 8
            for f in files:
                assert (tmp_path / f"both{w}" / f).read_bytes() == (
                    tmp_path / f"one{w}" / f).read_bytes(), f
    assert both.stats() == {k: {i: one[i].stats()[k][i] for i in (0, 2)}
                            for k in ("urlseen", "frontier")}
    assert any(st["spilled_rows_total"] for st in both.stats()["frontier"].values())


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
    ({"per_domain_cap": 0}, "CrawlConfig.per_domain_cap must be >= 1, got 0"),
    ({"wave_period": 0.0}, "CrawlConfig.wave_period must be > 0, got 0.0"),
    ({"wave_period": -1.0}, "CrawlConfig.wave_period must be > 0, got -1.0"),
    ({"max_wave_urls": -1}, r"CrawlConfig.max_wave_urls must be >= 0 \(0 = off\), got -1"),
    ({"checkpoint_every": 0}, "CrawlConfig.checkpoint_every must be >= 1, got 0"),
    ({"bloom_capacity": 0}, "CrawlConfig.bloom_capacity must be >= 1, got 0"),
    ({"bloom_bits_per_key": 0}, "CrawlConfig.bloom_bits_per_key must be >= 1, got 0"),
    ({"at_target_concurrency": 0.0}, "CrawlConfig.at_target_concurrency must be > 0, got 0.0"),
    ({"at_bytes_per_sec": -5.0}, "CrawlConfig.at_bytes_per_sec must be > 0, got -5.0"),
    ({"frontier_max_rows": -1},
     r"CrawlConfig.frontier_max_rows must be >= 0 \(0 = off\), got -1"),
])
def test_crawl_config_rejects_bad_settings(kwargs, match):
    """The config validates itself: every engine entry point (run_crawl, a
    direct CrawlEngine, the CLI) gets the same errors, with no Ray. Without
    them: a per_domain_cap below 1 emits nothing and the crawl never ends,
    a wave_period of 0 divides by zero in waves_per_emit, a negative
    max_wave_urls slices the wave at a negative offset, a checkpoint_every
    below 1 used to mean 1, a Bloom filter sized below 1 holds no keys, an
    at_target_concurrency of 0 divides by zero in update_throttle, an
    at_bytes_per_sec of 0 gives every host an infinite virtual latency, and
    a negative frontier_max_rows spills every host on every push."""
    with pytest.raises(ValueError, match=match):
        CrawlConfig(**kwargs)


@pytest.mark.parametrize("n_filter,n_frontier", [(3, 2), (2, 3), (6, 5)])
def test_engine_sizes_the_pool_to_the_cluster(ray_session, e2e_corpus,
                                              n_filter, n_frontier):
    """One actor per partition index while the cluster has a CPU for each
    (3+2 and 2+3 on the 4-CPU session); past that, as many actors as CPUs,
    actor ``i % n_actors`` hosting partition ``i`` of both tables."""
    import ray

    from scrapy_ray.pipelines.crawl import CrawlEngine
    from scrapy_ray.util import cluster_cpus

    eng = CrawlEngine(e2e_corpus, CrawlConfig(n_filter_shards=n_filter,
                                              n_frontier_shards=n_frontier))
    try:
        actors = eng.shards.actors
        assert len(actors) == min(max(n_filter, n_frontier), cluster_cpus())
        assert eng.urlseen.shards == [actors[i % len(actors)] for i in range(n_filter)]
        assert eng.frontier.shards == [actors[i % len(actors)] for i in range(n_frontier)]
        for i in range(min(n_filter, n_frontier)):
            assert eng.urlseen.shards[i] is eng.frontier.shards[i]
        eng.warm()
        eng.seed()
        ustats, fstats = eng.urlseen.stats(), eng.frontier.stats()
        assert [s["shard"] for s in ustats] == list(range(n_filter))
        assert [s["shard"] for s in fstats] == list(range(n_frontier))
        assert set(ustats[0]) == {"shard", "n_seen", "n_filtered"}
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
    """After a crawl (cookies, AutoThrottle and checkpoints on, so every RPC
    kind ran and the shards reduced per-host feedback), no
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
                      autothrottle=True, checkpoint_dir=str(tmp_path / "ckpt"),
                      checkpoint_every=2)
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
