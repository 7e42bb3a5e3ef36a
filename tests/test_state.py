"""Unit + property tests for the stateful layer (plain classes, no Ray):
Bloom filter, robots parser, URL-seen shard, frontier shard (politeness,
ordering, checkpoint round-trips) — SURVEY.md §5.2.6."""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrapy_ray import schemas
from scrapy_ray.config import CrawlConfig
from scrapy_ray.functions.hashing import hash64
from scrapy_ray.state.bloom import BloomFilter
from scrapy_ray.state.frontier import FrontierShard, _path_of
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
    standard deviations of those expectations."""
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
    probe = [f"https://probe.example/q{i}" for i in range(20_000)]
    fp, n_new, pb = run((hash64(probe), pa.array(probe)))
    assert n_new == len(probe) and pb <= p(cap)
    sd = math.sqrt(n_new * pb * (1 - pb))
    assert abs(fp - n_new * pb) <= 4 * sd, (fp, n_new * pb)
    assert bloom.n_seen == shadow.n_seen - fill_fp - fp


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
            "parent_url": [""] * len(specs),
            "callback": ["parse_detail"] * len(specs),
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
    """Regression (r3 ADVICE): a host whose run list exceeds the merge cap a
    SECOND time mixes an already-merged run (bid=-1, (2,n) idx pairs) with
    plain runs — the old _merge_runs concatenated 1-D and 2-D idx arrays and
    raised ValueError, killing the crawl under politeness-capped drain."""
    cfg = CrawlConfig(per_domain_cap=1_000_000)
    f = FrontierShard(0, cfg)
    n = 40  # two merge cycles at the >16-runs threshold
    for i in range(n):
        f.push(_rows([(f"https://a/{i}", "a", i % 7, i)]))
    w = f.next_wave(0)
    assert len(w) == n
    got = sorted(zip(w["priority"].to_pylist(), w["seq"].to_pylist()))
    assert set(w["seq"].to_pylist()) == set(range(n))
    assert got == sorted(got)
    assert f.size() == 0


def test_frontier_merge_after_partial_drain():
    """Merged runs with pos>0 (partially consumed) must re-merge correctly:
    drain a few rows under a per-host cap, then keep pushing past the merge
    threshold again and verify emission order and no row loss."""
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
