"""Hard-kill resume: SIGKILL a crawling subprocess mid-run, resume in a
fresh process, final outputs equal an uninterrupted run ([B:north_rule
"a killed `ray job submit` run resumes exactly"]). Exercises the atomic
checkpoint files + manifest + partial-sink cleanup under a real torn state
(unlike the in-process max_waves variant)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from scrapy_ray.config import CrawlConfig
from scrapy_ray.pipelines.crawl import run_crawl

SCRIPT = r"""
import sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from scrapy_ray.util import quiet_ray_data; quiet_ray_data()
from scrapy_ray.config import CrawlConfig
from scrapy_ray.pipelines.crawl import CrawlEngine
corpus, ckpt, resume = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=2,
                  checkpoint_dir=ckpt, checkpoint_every=1)
eng = CrawlEngine(corpus, cfg)
if not (resume and eng.try_resume()):
    eng.seed()
while eng.run_wave():
    print("WAVE", eng.wave_idx, flush=True)
eng.checkpoint()
r = eng.result()
print("DONE", r.metrics["pages_fetched"], r.metrics["items"], flush=True)
ray.shutdown()
"""


def test_sigkill_then_resume(ray_session, e2e_corpus, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    env = dict(os.environ)

    # run A: kill -9 after a few waves have been checkpointed
    p = subprocess.Popen([sys.executable, "-c", SCRIPT, e2e_corpus, ckpt, "0"],
                         stdout=subprocess.PIPE, text=True, env=env, cwd="/root/repo")
    waves = 0
    while True:
        line = p.stdout.readline()
        if not line:
            break
        if line.startswith("WAVE"):
            waves += 1
            if waves >= 5:
                os.kill(p.pid, signal.SIGKILL)
                break
        if line.startswith("DONE"):
            pytest.fail("crawl finished before kill — corpus too small")
    p.wait()
    assert os.path.exists(os.path.join(ckpt, "manifest.json"))

    # run B: resume to completion in a fresh process
    r = subprocess.run([sys.executable, "-c", SCRIPT, e2e_corpus, ckpt, "1"],
                       capture_output=True, text=True, env=env, cwd="/root/repo",
                       timeout=500)
    assert r.returncode == 0, r.stderr[-2000:]
    done = [l for l in r.stdout.splitlines() if l.startswith("DONE")]
    assert done

    # reference: uninterrupted in-process run, same config
    full = run_crawl(e2e_corpus, CrawlConfig(n_filter_shards=2, n_frontier_shards=2))

    items_dir = os.path.join(ckpt, "items")
    parts = sorted(os.listdir(items_dir), key=lambda x: int(x.split("=")[1]))
    resumed_items = pa.concat_tables(
        [pq.read_table(os.path.join(items_dir, d, "part.parquet")) for d in parts])
    assert resumed_items.sort_by("url").equals(full.items.sort_by("url"))

    order_dir = os.path.join(ckpt, "order")
    parts = sorted(os.listdir(order_dir), key=lambda x: int(x.split("=")[1]))
    resumed_order = pa.concat_tables(
        [pq.read_table(os.path.join(order_dir, d, "part.parquet")) for d in parts])
    assert resumed_order.to_pydict() == full.crawl_order.to_pydict()


class _Killer:
    """on_wave hook: ray.kill the given shards after ``at`` completed waves."""

    def __init__(self, at: int, pick):
        self.at = at
        self.pick = pick
        self.waves = 0
        self.killed = False

    def __call__(self, eng):
        import ray as _ray

        self.waves += 1
        if self.waves == self.at and not self.killed:
            self.killed = True
            for shard in self.pick(eng):
                _ray.kill(shard, no_restart=False)


def test_shard_kill_recovery(ray_session, e2e_corpus, tmp_path):
    """VERDICT item 7: ray.kill one frontier shard AND one urlseen shard
    mid-crawl; max_restarts revives them empty, the epoch guard raises
    StaleShardError on next use, and run_crawl's recovery loop rolls the
    whole pool back to the last committed checkpoint and replays — final
    items / url-seen / ordering equal an unkilled run."""
    base = CrawlConfig(n_filter_shards=2, n_frontier_shards=2)
    full = run_crawl(e2e_corpus, base)

    cfg = CrawlConfig(n_filter_shards=2, n_frontier_shards=2,
                      checkpoint_dir=str(tmp_path / "ck"), checkpoint_every=1)
    k = _Killer(4, lambda e: [e.frontier.shards[0], e.urlseen.shards[1]])
    res = run_crawl(e2e_corpus, cfg, on_wave=k)
    assert k.killed, "kill must have happened (crawl long enough)"
    assert res.crawl_order.to_pydict() == full.crawl_order.to_pydict()
    assert set(res.url_seen["url"].to_pylist()) == set(full.url_seen["url"].to_pylist())
    assert res.items.sort_by("url").equals(full.items.sort_by("url"))


def test_shard_kill_recovery_urlseen_only_actor(ray_session, e2e_corpus, tmp_path):
    """Second case of test_shard_kill_recovery: with 3 URL-seen and 2
    frontier partitions, actor 2 holds only a URL-seen partition. Its
    checkpoint segment rides the end-of-wave RPC like every other actor's;
    killing it mid-crawl must roll back and replay to the unkilled result."""
    base = CrawlConfig(n_filter_shards=3, n_frontier_shards=2)
    full = run_crawl(e2e_corpus, base)

    cfg = CrawlConfig(n_filter_shards=3, n_frontier_shards=2,
                      checkpoint_dir=str(tmp_path / "ck"), checkpoint_every=1)

    def pick(e):
        victim = e.shards.actors[2]
        assert victim in e.urlseen.shards and victim not in e.frontier.shards
        return [victim]

    k = _Killer(4, pick)
    res = run_crawl(e2e_corpus, cfg, on_wave=k)
    assert k.killed, "kill must have happened (crawl long enough)"
    assert res.crawl_order.to_pydict() == full.crawl_order.to_pydict()
    assert set(res.url_seen["url"].to_pylist()) == set(full.url_seen["url"].to_pylist())
    assert res.items.sort_by("url").equals(full.items.sort_by("url"))


def test_shard_kill_recovery_actor_hosting_two_partitions(ray_session, e2e_corpus,
                                                         tmp_path):
    """With 6 URL-seen and 5 frontier partitions the 4-CPU session gets 4
    actors, and actor 0 hosts partitions 0 and 4 of both tables. Killing it
    mid-crawl revives it with both partitions empty; the pool rolls back and
    replays to the unkilled result."""
    base = CrawlConfig(n_filter_shards=6, n_frontier_shards=5)
    full = run_crawl(e2e_corpus, base)

    cfg = CrawlConfig(n_filter_shards=6, n_frontier_shards=5,
                      checkpoint_dir=str(tmp_path / "ck"), checkpoint_every=1)

    def pick(e):
        victim = e.shards.actors[0]
        assert len(e.shards.actors) == 4
        for shards in (e.urlseen.shards, e.frontier.shards):
            assert shards[0] is victim and shards[4] is victim
        return [victim]

    k = _Killer(4, pick)
    res = run_crawl(e2e_corpus, cfg, on_wave=k)
    assert k.killed, "kill must have happened (crawl long enough)"
    assert res.crawl_order.to_pydict() == full.crawl_order.to_pydict()
    assert set(res.url_seen["url"].to_pylist()) == set(full.url_seen["url"].to_pylist())
    assert res.items.sort_by("url").equals(full.items.sort_by("url"))


@pytest.mark.parametrize("write_cpus,read_cpus", [(8, None), (None, 8)])
def test_checkpoint_restores_across_pool_layouts(ray_session, e2e_corpus, tmp_path,
                                                 monkeypatch, write_cpus, read_cpus):
    """Checkpoint files are per partition, not per actor: a checkpoint that
    a one-actor-per-partition pool wrote (6 actors, as on an 8-CPU cluster)
    resumes in the 4-actor pool of the 4-CPU session, and the other way
    round, to the uninterrupted result."""
    from scrapy_ray.state import shard

    base = dict(n_filter_shards=6, n_frontier_shards=5)
    full = run_crawl(e2e_corpus, CrawlConfig(**base))
    ck = str(tmp_path / "ck")

    def crawl(cpus, **kw):
        sizes = set()
        with monkeypatch.context() as m:
            if cpus is not None:
                m.setattr(shard, "cluster_cpus", lambda: cpus)
            res = run_crawl(e2e_corpus, CrawlConfig(**base, checkpoint_dir=ck,
                                                    checkpoint_every=1, **kw),
                            resume=True, on_wave=lambda e: sizes.add(len(e.shards.actors)))
        assert sizes == {6 if cpus else 4}
        return res

    partial = crawl(write_cpus, max_waves=5)
    assert partial.metrics["waves"] == 5 < full.metrics["waves"]
    resumed = crawl(read_cpus)
    assert resumed.crawl_order.to_pydict() == full.crawl_order.to_pydict()
    assert set(resumed.url_seen["url"].to_pylist()) == set(full.url_seen["url"].to_pylist())
    assert resumed.items.sort_by("url").equals(full.items.sort_by("url"))


def test_shard_kill_recovery_no_checkpoint(ray_session, e2e_corpus):
    """Same kill without a checkpoint dir: recovery is a deterministic full
    restart from the seeds (state lives only in the actors)."""
    base = CrawlConfig(n_filter_shards=2, n_frontier_shards=2, max_pages=120)
    full = run_crawl(e2e_corpus, base)

    k = _Killer(2, lambda e: [e.frontier.shards[1]])
    res = run_crawl(e2e_corpus, base, on_wave=k)
    assert k.killed
    assert res.crawl_order.to_pydict() == full.crawl_order.to_pydict()
    assert res.items.sort_by("url").equals(full.items.sort_by("url"))


def test_late_shard_error_names_its_wave(ray_session, e2e_corpus):
    """A shard error raised by a non-checkpoint wave's end_wave surfaces when
    the next wave reads the prefetch. It keeps a type run_crawl's recovery
    catches and carries a note naming the wave whose end_wave raised. Actor
    2 holds only a frontier partition, so no URL-seen RPC reaches the
    revived actor before that end_wave."""
    import ray
    import ray.exceptions

    from scrapy_ray.pipelines.crawl import CrawlEngine
    from scrapy_ray.state.errors import StaleShardError

    eng = CrawlEngine(e2e_corpus, CrawlConfig(n_filter_shards=2, n_frontier_shards=3))
    try:
        eng.seed()
        for _ in range(2):
            assert eng.run_wave()
        ray.get(eng._prefetch[1])   # wave 2's parts are drained before the kill
        ray.kill(eng.frontier.shards[2], no_restart=False)
        assert eng.run_wave()       # wave 2; its end_wave reaches the revived actor
        with pytest.raises((StaleShardError, ray.exceptions.RayActorError,
                            ray.exceptions.ActorUnavailableError)) as err:
            eng.run_wave()
    finally:
        for a in eng.shards.actors:
            ray.kill(a, no_restart=True)
    assert "raised by the end_wave RPC of wave 2" in err.value.__notes__
