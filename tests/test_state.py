"""Unit + property tests for the stateful layer (plain classes, no Ray):
Bloom filter, robots parser, URL-seen shard, frontier shard (politeness,
ordering, checkpoint round-trips) — SURVEY.md §5.2.6."""

from __future__ import annotations

import heapq
import json
import math
import os
import re
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from scrapy_ray import schemas
from scrapy_ray.config import CrawlConfig
from scrapy_ray.functions.hashing import hash64
from scrapy_ray.state.bloom import BloomFilter
from scrapy_ray.state.frontier import _NEVER, FrontierShard, _path_of
from scrapy_ray.state.robots import parse_robots
from scrapy_ray.state.urlseen import UrlSeenShard


def test_bloom_no_false_negatives():
    bf = BloomFilter(capacity=10_000, bits_per_key=10)
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2**63, size=5_000, dtype=np.uint64)
    bf.add_many(keys)
    assert bf.contains_many(keys).all()


def test_bloom_fpr_reasonable():
    bf = BloomFilter(capacity=10_000, bits_per_key=10)
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2**63, size=10_000, dtype=np.uint64)
    bf.add_many(keys)
    other = rng.integers(0, 2**63, size=20_000, dtype=np.uint64)
    other = np.setdiff1d(other, keys)
    fpr = bf.contains_many(other).mean()
    assert fpr < 0.02, fpr  # theoretical ~0.008 at 10 bits/key


def test_bloom_serialization_roundtrip():
    bf = BloomFilter(capacity=1000, bits_per_key=12)
    keys = np.arange(500, dtype=np.uint64) * 2654435761
    bf.add_many(keys)
    bf2 = BloomFilter.from_bytes(bf.to_bytes())
    assert bf2.contains_many(keys).all()
    assert bf2.m == bf.m and bf2.k == bf.k and bf2.n_added == bf.n_added
    # the vectorized popcount equals a per-word bit count
    assert bf2.fill_ratio() == sum(bin(int(w)).count("1") for w in bf.words) / bf.m > 0


def test_robots_parse_and_match():
    r = parse_robots("User-agent: *\nDisallow: /hotel/\nAllow: /hotel/free\nCrawl-delay: 2\n")
    assert not r.is_allowed("/hotel/00001")
    assert r.is_allowed("/hotel/free/x")     # longest-match, Allow wins
    assert r.is_allowed("/restaurant/1")
    assert r.crawl_delay == 2.0
    # other-agent groups ignored
    r2 = parse_robots("User-agent: googlebot\nDisallow: /\nUser-agent: *\nAllow: /\n")
    assert r2.is_allowed("/anything")
    assert parse_robots("").is_allowed("/x")


def test_path_of():
    assert _path_of("https://h/x/y?q=1") == "/x/y?q=1"
    assert _path_of("https://h") == "/"


def test_urlseen_shard_first_occurrence():
    s = UrlSeenShard(0, capacity=1000)
    h = np.array([1, 2, 1, 3, 2, 4], dtype=np.uint64)
    mask = s.check_and_add(h, pa.array([f"u{int(x)}" for x in h]))
    assert mask.tolist() == [True, True, False, True, False, True]
    mask2 = s.check_and_add(np.array([3, 5], dtype=np.uint64), pa.array(["u3", "u5"]))
    assert mask2.tolist() == [False, True]
    t = s.seen_table()
    assert sorted(t["url_hash"].to_pylist()) == [1, 2, 3, 4, 5]


def test_urlseen_bloom_only_mode():
    s = UrlSeenShard(0, capacity=1000, exact=False)
    h = np.array([10, 11, 10], dtype=np.uint64)
    assert s.check_and_add(h, None).tolist() == [True, True, False]
    assert s.check_and_add(np.array([11], dtype=np.uint64), None).tolist() == [False]


def test_urlseen_checkpoint_roundtrip(tmp_path):
    s = UrlSeenShard(3, capacity=1000)
    h = np.array([7, 8, 9], dtype=np.uint64)
    s.check_and_add(h, pa.array(["a", "b", "c"]))
    s.checkpoint(str(tmp_path))
    s2 = UrlSeenShard(3, capacity=1000)
    s2.restore(str(tmp_path))
    assert s2.check_and_add(np.array([8, 100], dtype=np.uint64),
                            pa.array(["b", "z"])).tolist() == [False, True]


def _url_batches(n_batches: int, seed: int):
    """Seeded (hashes, urls) batches: 400 never-sent urls, 100 repeats of
    earlier ones, and in-batch duplicates."""
    rng = np.random.default_rng(seed)
    sent: list[str] = []
    for b in range(n_batches):
        fresh = [f"https://h{i % 37}.example/p{i}" for i in range(b * 400, (b + 1) * 400)]
        old = [sent[i] for i in rng.integers(0, len(sent), 100)] if sent else []
        urls = fresh + old + fresh[:50]
        rng.shuffle(urls)
        sent += fresh
        yield hash64(urls), pa.array(urls)


def test_urlseen_old_layout_exact_checkpoint_restores(tmp_path):
    """A checkpoint written before exact shards dropped their Bloom filter
    holds a bloom_<i>.bin beside the exact files; it restores in exact mode
    (the stray file is ignored) and gives the same masks as the shard that
    wrote it. 20 batches make the shard merge its segments, and every url
    must stay beside its own hash."""
    batches = list(_url_batches(22, seed=3))
    s = UrlSeenShard(2)
    for h, u in batches[:20]:
        s.check_and_add(h, u)
    seen = s.seen_table()
    assert seen.column("url").num_chunks < 20
    assert (hash64(seen["url"].to_pylist()) == seen["url_hash"].to_numpy()).all()
    s.checkpoint(str(tmp_path))
    stray = BloomFilter(1_000_000, 10)
    stray.add_many(s.seen_table()["url_hash"].to_numpy())
    (tmp_path / "bloom_2.bin").write_bytes(stray.to_bytes())
    r = UrlSeenShard(2)
    r.restore(str(tmp_path))
    assert r.stats() == s.stats() == {"shard": 2, "n_seen": s.n_seen,
                                      "n_filtered": s.n_filtered}
    assert r.seen_table().sort_by("url_hash").equals(s.seen_table().sort_by("url_hash"))
    for h, u in batches[20:]:
        assert r.check_and_add(h, u).tolist() == s.check_and_add(h, u).tolist()


@pytest.mark.parametrize("written_exact,old_layout", [(True, False), (True, True),
                                                     (False, False)])
def test_urlseen_checkpoint_of_the_other_mode_fails_fast(tmp_path, written_exact,
                                                         old_layout):
    """Each mode checkpoints only its own structure, and urlseen_<i>.parquet
    marks an exact one: restoring a checkpoint of the other mode raises at
    once, naming the setting and the file this shard restores from,
    instead of a bare FileNotFoundError. An exact checkpoint of the old
    layout, which also holds a bloom_<i>.bin, is refused too."""
    s = UrlSeenShard(1, capacity=1000, exact=written_exact)
    h, u = next(_url_batches(1, seed=5))
    s.check_and_add(h, u if written_exact else None)
    s.checkpoint(str(tmp_path))
    if old_layout:
        (tmp_path / "bloom_1.bin").write_bytes(UrlSeenShard(1, 1000, exact=False)
                                               .bloom.to_bytes())
    needed = "urlseen_1.parquet" if not written_exact else "bloom_1.bin"
    assert (needed in os.listdir(tmp_path)) == old_layout
    with pytest.raises(ValueError, match=(
            rf"has{'' if written_exact else ' no'} urlseen_1\.parquet, so it was written "
            rf"with CrawlConfig\.exact_urlseen={written_exact}; this shard restores "
            rf"only its own mode's {needed}")):
        UrlSeenShard(1, capacity=1000, exact=not written_exact).restore(str(tmp_path))


def test_urlseen_bloom_only_false_positives_within_bound():
    """Bloom-only mode silently drops every false positive. Run it beside an
    exact shadow over the same seeded batches until ``capacity`` keys are in,
    then probe a batch of never-sent urls at capacity. A url the shadow keeps
    and the Bloom shard drops is a false positive; the Bloom shard never
    keeps a url the shadow has seen. A batch probes the filter as it was
    before the batch, holding n keys, so each never-sent url is a false
    positive with probability p(n) = (1 - e^{-k·n/m})^k: about 0.82% at
    capacity and 10 bits per key. The counts must lie within 4 binomial
    standard deviations of those expectations, and of the shard's own
    ``bloom_fp_est`` (fill^k) at capacity; past capacity that estimate
    rises above the bound."""
    cap = 20_000
    bloom = UrlSeenShard(0, capacity=cap, bits_per_key=10, exact=False)
    shadow = UrlSeenShard(0)
    k, m = bloom.bloom.k, bloom.bloom.m

    def p(n: int) -> float:
        return (1 - math.exp(-k * n / m)) ** k

    def run(batch):
        h, u = batch
        n_before = bloom.bloom.n_added
        keep_b, keep_s = bloom.check_and_add(h, None), shadow.check_and_add(h, u)
        assert not (keep_b & ~keep_s).any()
        return int((keep_s & ~keep_b).sum()), int(keep_s.sum()), p(n_before)

    fill_fp, expect, var = 0, 0.0, 0.0
    batches = _url_batches(10_000, seed=7)
    while bloom.bloom.n_added <= cap - 400:   # a batch adds <= 400 keys
        fp, n_new, pb = run(next(batches))
        fill_fp += fp
        expect, var = expect + n_new * pb, var + n_new * pb * (1 - pb)
    assert abs(fill_fp - expect) <= 4 * math.sqrt(var), (fill_fp, expect)

    assert 0.0081 < p(cap) < 0.0083               # ≈ 0.82% at 10 bits/key
    est = bloom.stats()["bloom_fp_est"]          # fill^k of the filter probed
    probe = [f"https://probe.example/q{i}" for i in range(20_000)]
    fp, n_new, pb = run((hash64(probe), pa.array(probe)))
    assert n_new == len(probe) and pb <= p(cap)
    for rate in (pb, est):
        sd = math.sqrt(n_new * rate * (1 - rate))
        assert abs(fp - n_new * rate) <= 4 * sd, (fp, n_new * rate)
    assert bloom.n_seen == shadow.n_seen - fill_fp - fp
    # the probe took the filter past capacity: the estimate says so
    assert bloom.bloom.n_added > cap and bloom.stats()["bloom_fp_est"] > 2 * p(cap)


def _rows(specs):
    """specs: list of (url, host, priority, seq)"""
    return pa.table(
        {
            "url": [s[0] for s in specs],
            "host": [s[1] for s in specs],
            "url_hash": pa.array(np.arange(len(specs), dtype=np.uint64)),
            "depth": pa.array(np.zeros(len(specs), dtype=np.int32)),
            "priority": pa.array(np.array([s[2] for s in specs], dtype=np.int32)),
            "seq": pa.array(np.array([s[3] for s in specs], dtype=np.int64)),
            "dont_filter": [False] * len(specs),
            "retries": pa.array(np.zeros(len(specs), dtype=np.int32)),
            "redirects": pa.array(np.zeros(len(specs), dtype=np.int32)),
        },
        schema=schemas.FRONTIER,
    )


def test_frontier_priority_and_cap():
    cfg = CrawlConfig(per_domain_cap=2)
    f = FrontierShard(0, cfg)
    f.push(_rows([
        ("https://a/1", "a", 0, 0), ("https://a/2", "a", 5, 1),
        ("https://a/3", "a", 0, 2), ("https://b/1", "b", 0, 3),
    ]))
    w0 = f.next_wave(0)
    # host a capped at 2: picks (pri 5, seq 1) then (pri 0, seq 0); host b: seq 3
    got = sorted(zip(w0["priority"].to_pylist(), w0["seq"].to_pylist()))
    assert (5, 1) in [(p, s) for p, s in got]
    assert len([s for p, s in got]) == 3
    w1 = f.next_wave(1)
    assert w1["seq"].to_pylist() == [2]
    assert f.size() == 0


def test_frontier_politeness_delay():
    cfg = CrawlConfig(download_delay=2.0, wave_period=1.0)  # 1 url every 2 waves
    f = FrontierShard(0, cfg)
    f.push(_rows([(f"https://a/{i}", "a", 0, i) for i in range(3)]))
    assert len(f.next_wave(0)) == 1
    assert len(f.next_wave(1)) == 0
    assert f.earliest_ready_wave() == 2
    assert len(f.next_wave(2)) == 1
    assert len(f.next_wave(4)) == 1


def test_frontier_robots_gate():
    cfg = CrawlConfig(obey_robots=True)
    f = FrontierShard(0, cfg, {"a": "User-agent: *\nDisallow: /hotel/\n"})
    kept = f.push(_rows([("https://a/hotel/1", "a", 0, 0), ("https://a/listing/1", "a", 0, 1)]))
    assert kept == 1
    assert f.n_robots_denied == 1
    assert f.next_wave(0)["url"].to_pylist() == ["https://a/listing/1"]


def test_frontier_checkpoint_roundtrip(tmp_path):
    cfg = CrawlConfig(download_delay=1.0)
    f = FrontierShard(1, cfg)
    f.push(_rows([("https://a/1", "a", 0, 0), ("https://a/2", "a", 0, 1), ("https://b/1", "b", 3, 2)]))
    f.next_wave(0)
    f.checkpoint(str(tmp_path))
    f2 = FrontierShard(1, cfg)
    f2.restore(str(tmp_path))
    assert f2.size() == f.size()
    assert f2.last_emit_wave == f.last_emit_wave
    # identical future emission
    assert f2.next_wave(1).equals(f.next_wave(1))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3)), min_size=1, max_size=40))
def test_frontier_emission_order_property(entries):
    """Within one host, emission follows (priority desc, seq asc) exactly."""
    cfg = CrawlConfig(per_domain_cap=1_000_000)
    f = FrontierShard(0, cfg)
    specs = [(f"https://a/{i}", "a", pri, i) for i, (_, pri) in enumerate(entries)]
    f.push(_rows(specs))
    w = f.next_wave(0)
    got = list(zip(w["priority"].to_pylist(), w["seq"].to_pylist()))
    # single host -> heap pop order is exactly (priority desc, seq asc)
    assert got == sorted(got, key=lambda t: (-t[0], t[1]))
    assert len(got) == len(entries)


def test_frontier_repeated_run_merge():
    """Many one-row pushes of one host, drained at once: every row comes out
    exactly once, in (priority desc, seq) order. (Regression: an older
    layout re-merged a host's run list twice and raised ValueError, killing
    the crawl under politeness-capped drain.)"""
    cfg = CrawlConfig(per_domain_cap=1_000_000)
    f = FrontierShard(0, cfg)
    n = 40  # forty one-row pushes, all pending at the one drain
    for i in range(n):
        f.push(_rows([(f"https://a/{i}", "a", i % 7, i)]))
    w = f.next_wave(0)
    assert len(w) == n
    got = sorted(zip(w["priority"].to_pylist(), w["seq"].to_pylist()))
    assert set(w["seq"].to_pylist()) == set(range(n))
    assert got == sorted(got)
    assert f.size() == 0


def test_frontier_merge_after_partial_drain():
    """Partially consumed runs must merge correctly: drain a few rows under
    a per-host cap, then keep pushing one row at a time (each push merges
    runs again) and verify emission order and no row loss."""
    cfg = CrawlConfig(per_domain_cap=3)
    f = FrontierShard(0, cfg)
    for i in range(20):
        f.push(_rows([(f"https://a/{i}", "a", 0, i)]))
    w0 = f.next_wave(0)
    assert w0["seq"].to_pylist() == [0, 1, 2]
    for i in range(20, 40):
        f.push(_rows([(f"https://a/{i}", "a", 0, i)]))
    seqs = []
    wave = 1
    while f.size():
        seqs.extend(f.next_wave(wave)["seq"].to_pylist())
        wave += 1
    assert seqs == list(range(3, 40))


class _RefFrontier:
    """Per-host ``heapq`` reference for one frontier partition, written from
    the politeness rules in config.py: a host emits when ``wave >= last +
    cfg.waves_per_emit(delay, cfg.delay_jitter(host, last))``, up to 1 row
    if its delay is > 0, else up to ``per_domain_cap``, in (priority desc,
    seq) order. Spilling and checkpoints are invisible to it."""

    def __init__(self, cfg: CrawlConfig, robots_bodies: dict[str, str]):
        self.cfg = cfg
        self.robots = {h: parse_robots(b, cfg.user_agent) for h, b in robots_bodies.items()}
        self.heaps: dict[str, list] = {}
        self.last: dict[str, int] = {}
        self.at: dict[str, float] = {}
        self.sessions: dict[str, int] = {}

    def push(self, specs) -> None:
        for url, host, pri, seq in specs:
            rules = self.robots.get(host)
            if self.cfg.obey_robots and rules and not rules.is_allowed(_path_of(url)):
                continue
            heapq.heappush(self.heaps.setdefault(host, []), (-pri, seq, url))

    def update_throttle(self, hosts, latencies) -> None:
        cfg = self.cfg
        for h, lat in zip(hosts, latencies):
            new = (self.at.get(h, cfg.at_start_delay) + lat / cfg.at_target_concurrency) / 2.0
            self.at[h] = min(max(new, cfg.download_delay), cfg.at_max_delay)

    def delay(self, host: str) -> float:
        cfg = self.cfg
        robots = (self.robots[host].crawl_delay
                  if cfg.respect_crawl_delay and host in self.robots else 0.0)
        at = self.at.get(host, cfg.at_start_delay) if cfg.autothrottle else 0.0
        return max(cfg.download_delay, robots, at)

    def ready_at(self, host: str) -> int:
        last = self.last.get(host, _NEVER)
        return last + self.cfg.waves_per_emit(self.delay(host),
                                              self.cfg.delay_jitter(host, last))

    def next_wave(self, wave: int) -> list[tuple]:
        out = []
        for host, q in self.heaps.items():
            if q and wave >= self.ready_at(host):
                cap = 1 if self.delay(host) > 0 else self.cfg.per_domain_cap
                for _ in range(min(cap, len(q))):
                    negpri, seq, url = heapq.heappop(q)
                    out.append((-negpri, seq, url,
                                self.sessions.get(host, 0) if self.cfg.cookies else 0))
                self.last[host] = wave
        return sorted(out)

    def earliest_ready_wave(self) -> int | None:
        return min((self.ready_at(h) for h, q in self.heaps.items() if q), default=None)

    def size(self) -> int:
        return sum(map(len, self.heaps.values()))


def _emitted(t: pa.Table) -> list[tuple]:
    sessions = (t["session"].to_pylist() if "session" in t.column_names
                else [0] * len(t))
    return sorted(zip(t["priority"].to_pylist(), t["seq"].to_pylist(),
                      t["url"].to_pylist(), sessions))


@st.composite
def _frontier_scripts(draw):
    cfg = dict(per_domain_cap=draw(st.sampled_from([1, 2, 8])),
               download_delay=draw(st.sampled_from([0.0, 0.0, 0.5, 2.0])),
               randomize_download_delay=draw(st.booleans()),
               wave_period=draw(st.sampled_from([1.0, 0.7])),
               autothrottle=draw(st.booleans()),
               at_start_delay=draw(st.sampled_from([0.0, 1.0])), at_max_delay=3.0,
               cookies=draw(st.booleans()), obey_robots=draw(st.booleans()),
               respect_crawl_delay=draw(st.booleans()),
               frontier_max_rows=draw(st.sampled_from([0, 0, 40, 150])))
    n_hosts = draw(st.integers(1, 40))
    host = st.integers(0, n_hosts - 1)
    push = st.tuples(st.just("push"), st.lists(st.tuples(host, st.integers(-2, 2)),
                                               min_size=1, max_size=80))
    wave = st.tuples(st.just("wave"), st.integers(1, 3))
    # pushes between waves leave several runs with rows of one host: the
    # case where a wave ranks each host's rows across runs
    steps = draw(st.lists(st.one_of(
        push, wave, push, wave,
        st.tuples(st.just("throttle"), st.lists(
            st.tuples(host, st.floats(0.0, 12.0)), max_size=6, unique_by=lambda x: x[0])),
        st.tuples(st.just("sessions"), st.lists(
            st.tuples(host, st.integers(1, 2**64 - 1)), max_size=6, unique_by=lambda x: x[0])),
        st.tuples(st.just("checkpoint"), st.integers(0, 2**32 - 1)),
    ), min_size=8, max_size=40))
    return cfg, n_hosts, steps


def _robots_bodies(n_hosts: int) -> dict[str, str]:
    """Disallow on every 3rd host, Crawl-delay on every 4th."""
    out = {}
    for i in range(n_hosts):
        lines = (["Disallow: /hotel/"] if i % 3 == 0 else []) + (
            ["Crawl-delay: 1.5"] if i % 4 == 1 else [])
        if lines:
            out[f"h{i}.example"] = "\n".join(["User-agent: *"] + lines) + "\n"
    return out


def _restore_shuffled(f: FrontierShard, cfg: CrawlConfig, robots: dict[str, str],
                      dirpath: str, seed_: int) -> FrontierShard:
    """Checkpoint ``f``, shuffle the rows of its frontier file (a reader may
    not rely on their order) and restore them into a new partition."""
    f.checkpoint(dirpath)
    path = os.path.join(dirpath, f"frontier_{f.shard_id}.parquet")
    t = pq.read_table(path)
    pq.write_table(t.take(np.random.default_rng(seed_).permutation(len(t))), path)
    g = FrontierShard(f.shard_id, cfg, robots)
    g.restore(dirpath)
    return g


@seed(20261019)
@settings(max_examples=120, deadline=None, database=None)
@given(_frontier_scripts())
def test_frontier_matches_per_host_heap_reference(script):
    """Differential property: a FrontierShard and the per-host heap reference
    get the same script of pushes over many hosts, AutoThrottle and session
    updates, checkpoint -> shuffled restore and waves, under a drawn config
    (cap, delay, jitter, AutoThrottle, cookies, robots Disallow and
    Crawl-delay, spill cap). Every wave's emission, ``earliest_ready_wave()``
    and ``size()`` agree, through a final drain."""
    cfg_kw, n_hosts, steps = script
    robots = _robots_bodies(n_hosts)
    seq = 0
    wave = -1
    with tempfile.TemporaryDirectory() as tmp:
        cfg = CrawlConfig(frontier_spill_dir=os.path.join(tmp, "spill"), **cfg_kw)
        f, ref = FrontierShard(0, cfg, robots), _RefFrontier(cfg, robots)

        def check(step):
            assert f.size() == ref.size(), step
            assert f.earliest_ready_wave() == ref.earliest_ready_wave(), step

        for i, (op, arg) in enumerate(steps):
            if op == "push":
                specs = [(f"https://h{h}.example/{('hotel', 'list')[j % 2]}/{seq + j}",
                          f"h{h}.example", pri, seq + j) for j, (h, pri) in enumerate(arg)]
                seq += len(specs)
                f.push(_rows(specs))
                ref.push(specs)
                if cfg.frontier_max_rows:
                    assert f.stats()["mem_rows"] <= cfg.frontier_max_rows
            elif op == "throttle":
                hosts = [f"h{h}.example" for h, _ in arg]
                f.update_throttle(hosts, [lat for _, lat in arg])
                ref.update_throttle(hosts, [lat for _, lat in arg])
            elif op == "sessions":
                f.update_sessions([f"h{h}.example" for h, _ in arg], [t for _, t in arg])
                ref.sessions.update((f"h{h}.example", t) for h, t in arg)
            elif op == "checkpoint":
                f = _restore_shuffled(f, cfg, robots, os.path.join(tmp, f"ck{i}"), arg)
            else:
                wave += arg
                assert _emitted(f.next_wave(wave)) == ref.next_wave(wave), (i, wave)
            check((i, op))
        while ref.size():
            wave = max(wave + 1, ref.earliest_ready_wave())
            assert _emitted(f.next_wave(wave)) == ref.next_wave(wave), ("drain", wave)
            check(("drain", wave))
        assert f.size() == 0 and not f.spilled


def test_frontier_restores_a_shuffled_checkpoint_with_idle_hosts(tmp_path):
    """A checkpoint whose frontier rows are in any order, and whose clock
    names hosts that have no queued rows (drained or spilled away), restores
    into a partition that drains like the original and like the reference."""
    robots = _robots_bodies(12)
    cfg = CrawlConfig(per_domain_cap=2, download_delay=0.0, autothrottle=True,
                      at_start_delay=0.0, cookies=True, frontier_max_rows=30,
                      frontier_spill_dir=str(tmp_path / "spill"))
    specs = [(f"https://h{i % 12}.example/list/{i}", f"h{i % 12}.example",
              (i * 7) % 5 - 2, i) for i in range(90)]
    specs += [(f"https://idle{i}.example/list/{100 + i}", f"idle{i}.example", 0, 100 + i)
              for i in range(3)]
    f, ref = FrontierShard(0, cfg, robots), _RefFrontier(cfg, robots)
    f.push(_rows(specs))
    ref.push(specs)
    f.update_throttle(["h1.example", "idle2.example"], [4.0, 9.0])
    ref.update_throttle(["h1.example", "idle2.example"], [4.0, 9.0])
    f.update_sessions(["h2.example", "idle0.example"], [7, 8])
    ref.sessions.update({"h2.example": 7, "idle0.example": 8})
    for w in range(2):
        assert _emitted(f.next_wave(w)) == ref.next_wave(w)
    more = [(f"https://h{i % 5}.example/hotel/{i}", f"h{i % 5}.example", i % 3, i)
            for i in range(200, 240)]
    f.push(_rows(more))
    ref.push(more)
    assert f.stats()["spilled_hosts"] > 0
    g = _restore_shuffled(f, cfg, robots, str(tmp_path / "ck"), 5)
    clock = json.loads((tmp_path / "ck" / "clock_0.json").read_text())
    idle = {"idle0.example", "idle1.example", "idle2.example"}
    assert idle <= set(clock["last_emit_wave"]) and not any(ref.heaps[h] for h in idle)
    assert g.last_emit_wave == f.last_emit_wave
    assert g.at_delay == f.at_delay and g.sessions == f.sessions
    assert g.stats()["queued"] == f.stats()["queued"] == ref.size()
    w = 1
    while ref.size():
        w = max(w + 1, ref.earliest_ready_wave())
        want = ref.next_wave(w)
        assert _emitted(g.next_wave(w)) == _emitted(f.next_wave(w)) == want, w


def test_frontier_old_layout_checkpoint_restores(tmp_path):
    """A frontier checkpoint written when FRONTIER rows still carried
    ``parent_url`` and ``callback`` (11 columns, those two after ``seq``)
    restores by column name: the restored partition drains the same waves,
    in the 9-column FRONTIER schema, as the partition that was pushed the rows
    directly and wrote the checkpoint."""
    cfg = CrawlConfig(per_domain_cap=2, download_delay=0.0)
    specs = [(f"https://h{i % 6}.example/{('hotel', 'listing')[i % 2]}/{i}",
              f"h{i % 6}.example", (i * 7) % 5 - 2, i) for i in range(60)]
    f = FrontierShard(0, cfg)
    f.push(_rows(specs))
    f.next_wave(0)
    f.checkpoint(str(tmp_path))
    path = tmp_path / "frontier_0.parquet"
    t = pq.read_table(path)
    assert t.schema.equals(schemas.FRONTIER) and len(t) == 48
    urls = t["url"].to_pylist()
    old = (t.add_column(6, "parent_url", pa.array([f"https://h0.example/{i}"
                                                   for i in range(len(t))]))
            .add_column(7, "callback", pa.array(["parse_listing" if "/listing/" in u
                                                 else "parse_detail" for u in urls])))
    pq.write_table(old.take(np.random.default_rng(11).permutation(len(old))), path)
    assert pq.read_schema(path).names[6:8] == ["parent_url", "callback"]
    g = FrontierShard(0, cfg)
    g.restore(str(tmp_path))
    assert g.stats() == f.stats()
    w = 1
    while f.size():
        want = f.next_wave(w)
        got = g.next_wave(w)
        assert got.schema.equals(schemas.FRONTIER) and len(got) > 0
        assert got.equals(want), w
        w += 1
    assert g.size() == 0


@pytest.mark.parametrize("reader", ["drain", "checkpoint", "respill"])
def test_frontier_spill_file_with_missing_rows_fails_loudly(tmp_path, reader):
    """A spill file that holds fewer rows than the partition spilled (cut
    short or replaced) raises wherever it is read back: on the drain that
    reloads it, on a checkpoint that folds it in, and when more rows of its
    host spill onto it. The error names the host, the file and both counts;
    rows are never dropped silently, also under ``python -O``."""
    cfg = CrawlConfig(per_domain_cap=4, frontier_max_rows=30,
                      frontier_spill_dir=str(tmp_path))
    f = FrontierShard(0, cfg)
    f.push(_rows([(f"https://h{h}.example/{i}", f"h{h}.example", 0, h * 100 + i)
                  for h in range(4) for i in range(20)]))
    assert f.spilled
    code, n = sorted(f.spilled.items())[0]
    path = f._spill_path(code)
    host = f._hosts[code].as_py()
    pq.write_table(pq.read_table(path).slice(1), path)
    with pytest.raises(RuntimeError, match=re.escape(
            f"spill file {path} of host {host!r} holds {n - 1} rows, expected {n}")):
        if reader == "checkpoint":
            f.checkpoint(str(tmp_path / "ck"))
        elif reader == "respill":
            f.push(_rows([(f"https://{host}/x{i}", host, 0, 1000 + i)
                          for i in range(40)]))
        else:
            for w in range(40):
                f.next_wave(w)


def test_frontier_requeued_wave_tail_drops_its_session_column():
    """``ShardedFrontier.merge_wave`` pushes the tail of a capped wave back
    with the ``session`` column the shards attached. The partition drops it,
    so later waves still concat, and each row carries its host's token as of
    its own emission."""
    f = FrontierShard(0, CrawlConfig(cookies=True, per_domain_cap=2))
    f.push(_rows([(f"https://a/{i}", "a", 0, i) for i in range(5)]))
    f.update_sessions(["a"], [7])
    w0 = f.next_wave(0)
    assert w0["session"].to_pylist() == [7, 7]
    f.push(w0.slice(1))                        # the tail past a cap of 1
    f.update_sessions(["a"], [9])
    assert _emitted(f.next_wave(1)) == [(0, 1, "https://a/1", 9), (0, 2, "https://a/2", 9)]
    assert f.next_wave(2).schema == f.next_wave(3).schema
    assert f.size() == 0


def test_robots_wildcards_and_anchors():
    """REP wildcard semantics (round 3, Protego parity): * spans, $ anchors,
    longest rule wins, tie prefers Allow."""
    r = parse_robots("User-agent: *\n"
                     "Disallow: /*.pdf$\n"
                     "Disallow: /private*\n"
                     "Allow: /private/ok\n"
                     "Disallow: /exact$\n")
    assert not r.is_allowed("/docs/file.pdf")
    assert r.is_allowed("/docs/file.pdfx")          # $ anchor
    assert not r.is_allowed("/private/stuff")
    assert r.is_allowed("/private/ok/page")          # longer Allow wins
    assert not r.is_allowed("/exact")
    assert r.is_allowed("/exact/sub")
    # star inside the path
    r2 = parse_robots("User-agent: *\nDisallow: /a/*/c\n")
    assert not r2.is_allowed("/a/b/c")
    assert not r2.is_allowed("/a/xx/yy/c")
    assert r2.is_allowed("/a/b/d")
    # plain prefixes unchanged
    r3 = parse_robots("User-agent: *\nDisallow: /hotel/\n")
    assert not r3.is_allowed("/hotel/1")
    assert r3.is_allowed("/restaurant/1")


def test_frontier_spill_is_invisible(tmp_path):
    """Disk-backed frontier ([S:queuelib]/JOBDIR parity): with a tiny
    in-memory cap the shard spills whole hosts to parquet and reloads them
    when ready — the emitted wave sequence must be IDENTICAL to an
    unbounded in-memory shard's, spilling must actually happen, and the
    in-memory row count must respect the cap after every push."""
    rows = _rows([(f"https://h{h}/{i}", f"h{h}", (i * 7) % 5, h * 100 + i)
                  for h in range(6) for i in range(40)])

    def drain(f):
        waves = []
        w = 0
        while True:
            t = f.next_wave(w)
            if len(t) == 0:
                if f.size() == 0:
                    break
                w += 1
                continue
            waves.append(sorted(zip(t["priority"].to_pylist(),
                                    t["seq"].to_pylist())))
            w += 1
        return waves

    base = FrontierShard(0, CrawlConfig(per_domain_cap=4))
    base.push(rows)
    want = drain(base)

    cfg = CrawlConfig(per_domain_cap=4, frontier_max_rows=60,
                      frontier_spill_dir=str(tmp_path))
    f = FrontierShard(0, cfg)
    f.push(rows)
    st = f.stats()
    assert st["spilled_rows"] > 0, "cap 60 over 240 rows must spill"
    assert st["mem_rows"] <= 60
    assert st["queued"] == 240
    assert drain(f) == want
    assert f.size() == 0 and not f.spilled


def test_frontier_spill_respill_and_checkpoint(tmp_path):
    """A spilled host that receives NEW pushes and spills again must merge
    with its existing spill file (no row loss); checkpoints must include
    disk-resident rows, and a restored shard drains identically."""
    cfg = CrawlConfig(per_domain_cap=100, frontier_max_rows=30,
                      frontier_spill_dir=str(tmp_path / "spill"))
    f = FrontierShard(0, cfg)
    f.push(_rows([(f"https://big/{i}", "big", 0, i) for i in range(50)]))
    assert f.stats()["spilled_rows"] == 50          # whole host spilled
    f.push(_rows([(f"https://big/x{i}", "big", 9, 100 + i) for i in range(40)]))
    st = f.stats()
    assert st["queued"] == 90
    assert st["mem_rows"] <= 30

    ck = str(tmp_path / "ck")
    f.checkpoint(ck)
    g = FrontierShard(0, cfg)
    g.restore(ck)
    assert g.size() == 90

    def pop_all(sh):
        out = []
        w = 0
        while sh.size():
            t = sh.next_wave(w)
            out += sorted(zip(t["priority"].to_pylist(),
                              t["seq"].to_pylist()))
            w += 1
        return out

    a, b = pop_all(f), pop_all(g)
    assert a == b
    # every row survives the spill/merge/checkpoint round-trips exactly once
    assert sorted(s for _, s in a) == list(range(50)) + list(range(100, 140))
    assert sorted(p for p, _ in a) == [0] * 50 + [9] * 40


def test_frontier_spill_total_survives_a_restore(tmp_path):
    """``spilled_rows_total`` is checkpointed with the clocks: a fresh shard
    restored from a checkpoint reports the writer's stats, the lifetime
    spill count included; a checkpoint without the key restores it as 0."""
    cfg = CrawlConfig(per_domain_cap=4, frontier_max_rows=30,
                      frontier_spill_dir=str(tmp_path / "spill"))
    f = FrontierShard(0, cfg)
    f.push(_rows([(f"https://h{h}/{i}", f"h{h}", i % 3, h * 100 + i)
                  for h in range(4) for i in range(20)]))
    f.next_wave(0)   # unspills and emits; the next push spills again
    f.push(_rows([(f"https://h{h}/x{i}", f"h{h}", 0, 1000 + h * 100 + i)
                   for h in range(4) for i in range(5)]))
    assert f.stats()["spilled_rows_total"] > f.stats()["spilled_rows"] > 0
    ck = str(tmp_path / "ck")
    f.checkpoint(ck)
    g = FrontierShard(0, cfg)
    g.restore(ck)
    assert g.stats() == f.stats()

    clock = os.path.join(ck, "clock_0.json")
    with open(clock) as fh:
        d = json.load(fh)
    del d["n_spilled_total"]
    with open(clock, "w") as fh:
        json.dump(d, fh)
    old = FrontierShard(0, cfg)
    old.restore(ck)
    assert old.stats() == {**f.stats(), "spilled_rows_total": 0}


def test_host_shard_of_an_arrow_column_matches_the_list_path():
    """``host_shard`` hashes an Arrow column (chunked or not) to the same
    partitions as the list of its values, an empty and non-ASCII hosts
    included."""
    from scrapy_ray.state.frontier import host_shard

    hosts = ["", "a.example", "bücher.example", "例え.jp", "xn--bcher-kva.example",
             *[f"h{i}.example.com" for i in range(200)]]
    for n in (1, 3, 7):
        want = host_shard(hosts, n)
        assert want.dtype == np.int64 and len(set(want.tolist())) == n
        assert np.array_equal(host_shard(pa.array(hosts), n), want)
        chunked = pa.chunked_array([hosts[:3], hosts[3:]])
        assert np.array_equal(host_shard(chunked, n), want)
        assert np.array_equal(host_shard(pa.table({"host": hosts})["host"], n), want)
    assert len(host_shard(pa.array([], pa.string()), 3)) == 0
