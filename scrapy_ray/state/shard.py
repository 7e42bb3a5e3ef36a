"""The crawl-state actor pool (SURVEY.md §2.3 F1/F2, §4.2).

Two partitioned tables: the URL-seen filter, keyed by ``url_hash %
n_filter_shards`` (state/urlseen.py), and the frontier, keyed by
``hash64(host) % n_frontier_shards`` (state/frontier.py). Partition *i* of
both lives in ONE ``CrawlShard`` actor, so the pool has ``max(n_filter_shards,
n_frontier_shards)`` actors. The keys are unchanged by the sharing, so crawl
order, URL-seen set and checkpoint file names are too. The epoch guard
(state/errors.py), the checkpoint / restore / reset fan-outs and the actor
options live here once; ``ShardedUrlSeen`` and ``ShardedFrontier`` only route.

Tables cross the actor boundary as Arrow IPC buffers (``schemas.to_ipc`` /
``from_ipc``), converted here and in the two views; the partition classes
take and return ``pa.Table``. A shard process therefore loads neither
``ray.data`` nor polars (the frontier imports ``hash64`` only driver-side).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from scrapy_ray import schemas
from scrapy_ray.config import CrawlConfig
from scrapy_ray.state.errors import StaleShardError
from scrapy_ray.state.frontier import FrontierShard, ShardedFrontier, host_shard
from scrapy_ray.state.urlseen import ShardedUrlSeen, UrlSeenShard


class CrawlShard:
    """URL-seen partition *i* (if ``i < n_filter_shards``) and frontier
    partition *i* (if ``i < n_frontier_shards``) behind one epoch guard.
    Plain class; ShardPool wraps it with ``ray.remote``."""

    def __init__(self, shard_id: int, cfg: CrawlConfig,
                 robots_bodies: dict[str, str] | None = None):
        self.shard_id = shard_id
        self.urlseen = (UrlSeenShard(shard_id, cfg.bloom_capacity,
                                     cfg.bloom_bits_per_key, cfg.exact_urlseen)
                        if shard_id < cfg.n_filter_shards else None)
        self.frontier = (FrontierShard(shard_id, cfg, robots_bodies)
                         if shard_id < cfg.n_frontier_shards else None)
        self.epoch = -1  # stamped by the driver; -1 = fresh/restarted actor

    def _parts(self) -> list:
        return [p for p in (self.urlseen, self.frontier) if p is not None]

    def set_epoch(self, epoch: int) -> None:
        self.epoch = epoch

    def _guard(self, epoch: int | None) -> None:
        if epoch is not None and epoch != self.epoch:
            raise StaleShardError(
                f"crawl shard {self.shard_id}: epoch {self.epoch} != driver {epoch} "
                "(actor restarted since last stamp)")

    def call(self, part: str, method: str, *args, epoch: int | None = None):
        """Guarded RPC into one partition: ``part`` is "urlseen" or
        "frontier", ``method`` one of that partition's methods. Table
        arguments and a table result travel as IPC buffers."""
        self._guard(epoch)
        out = getattr(getattr(self, part), method)(*map(schemas.from_ipc, args))
        return schemas.to_ipc(out) if isinstance(out, pa.Table) else out

    def end_wave(self, rows: pa.Buffer | None, sess_hosts: list[str] | None,
                 sess_tokens: list[int] | None, ckpt_dir: str | None,
                 next_wave_idx: int | None, at_hosts: list[str] | None = None,
                 at_latencies: list[float] | None = None,
                 epoch: int | None = None) -> pa.Buffer | None:
        """End-of-wave combined op: apply the wave's session and AutoThrottle
        updates, enqueue its new rows, optionally write BOTH partitions'
        checkpoint segments, and optionally drain the next wave — in that
        order (sessions → throttle → push → checkpoint → drain), so the
        checkpoint captures post-push, pre-drain state. Only the drain and
        the checkpoint read the throttle delays. The frontier arguments are
        None on an actor that holds only a URL-seen partition; it still
        checkpoints. ``rows`` and the drained wave are IPC buffers."""
        self._guard(epoch)
        rows = schemas.from_ipc(rows)
        if sess_hosts:
            self.frontier.update_sessions(sess_hosts, sess_tokens)
        if at_hosts:
            self.frontier.update_throttle(at_hosts, at_latencies)
        if rows is not None and len(rows):
            self.frontier.push(rows)
        if ckpt_dir is not None:
            self.checkpoint(ckpt_dir)
        if next_wave_idx is not None:
            return schemas.to_ipc(self.frontier.next_wave(next_wave_idx))
        return None

    # --- both partitions ---
    def stats(self, epoch: int | None = None) -> dict[str, dict]:
        self._guard(epoch)
        return {name: part.stats() for name, part
                in (("urlseen", self.urlseen), ("frontier", self.frontier))
                if part is not None}

    def checkpoint(self, dirpath: str, epoch: int | None = None) -> None:
        self._guard(epoch)  # a stale shard must never write a checkpoint
        for part in self._parts():
            part.checkpoint(dirpath)

    def restore(self, dirpath: str) -> None:
        for part in self._parts():
            part.restore(dirpath)

    def reset(self) -> None:
        """Both partitions back to construction state (driver-coordinated
        recovery when no committed checkpoint exists)."""
        for part in self._parts():
            part.reset()

    def warm(self, rows: pa.Buffer, hashes: np.ndarray) -> np.ndarray:
        """No-op RPC carrying an empty FRONTIER table (as IPC) and hash
        array: starts the process and primes its argument deserialization.
        The ``to_numpy`` makes pyarrow import pandas now (its pandas shim
        loads it on the first Arrow<->numpy conversion) instead of inside
        the first timed push."""
        schemas.from_ipc(rows)["seq"].to_numpy()
        return np.zeros(len(hashes), dtype=bool)


class ShardPool:
    """The one pool of CrawlShard actors a CrawlEngine builds, with the
    driver side of the epoch stamp and the checkpoint/restore/reset/warm
    fan-outs. ``urlseen`` and ``frontier`` are the routing views."""

    def __init__(self, cfg: CrawlConfig, robots_bodies: dict[str, str] | None = None):
        self.cfg = cfg
        self.epoch: int | None = None  # set by stamp(); the views send it
        n_front = cfg.n_frontier_shards
        # each frontier partition receives ONLY the robots entries for hosts
        # it owns — at 10^7 hosts the cache partitions with the frontier
        # instead of being replicated (SURVEY §2.3 F5 cache locality)
        robots: list[dict[str, str]] = [{} for _ in range(n_front)]
        if robots_bodies:
            hosts = list(robots_bodies)
            for host, s in zip(hosts, host_shard(hosts, n_front)):
                robots[s][host] = robots_bodies[host]
        # num_cpus=0: shards are short-burst RPC servers; reserving CPU slots
        # starves task scheduling at low num_cpus (16 shards x 0.25 deadlocks
        # a 2-CPU session) — they must always be schedulable.
        # max_restarts>0: a dead shard revives EMPTY with its original args
        # (cfg + its robots partition); the driver restores the whole pool
        # from the last committed checkpoint (pipelines/crawl.py recover())
        # so state stays mutually consistent.
        opts = {"num_cpus": 0, "max_restarts": 4}
        if cfg.actor_scheduling is not None:  # e.g. "SPREAD" across nodes
            opts["scheduling_strategy"] = cfg.actor_scheduling
        if cfg.actor_resources:               # e.g. worker-node-only pinning
            opts["resources"] = dict(cfg.actor_resources)
        actor = ray.remote(CrawlShard).options(**opts)
        self.actors = [actor.remote(i, cfg, robots[i] if i < n_front else None)
                       for i in range(max(cfg.n_filter_shards, n_front))]
        self.urlseen = ShardedUrlSeen(self)
        self.frontier = ShardedFrontier(self)

    def stamp(self) -> None:
        """Stamp every actor with a fresh epoch (after each seed/restore). An
        actor that later restarts (losing state) reverts to epoch -1 and
        raises StaleShardError on its next guarded RPC — the detect-on-next-
        use half of fault tolerance (the other half is CrawlEngine.recover())."""
        self.epoch = (self.epoch or 0) + 1
        ray.get([a.set_epoch.remote(self.epoch) for a in self.actors])

    def checkpoint_async(self, dirpath: str) -> list:
        """Submit every actor's checkpoint RPC WITHOUT waiting — the engine
        overlaps the shard writes with driver-side sink work and ray.get()s
        the futures before the manifest commit."""
        return [a.checkpoint.remote(dirpath, epoch=self.epoch) for a in self.actors]

    def restore(self, dirpath: str) -> None:
        ray.get([a.restore.remote(dirpath) for a in self.actors])

    def reset(self) -> None:
        ray.get([a.reset.remote() for a in self.actors])

    def warm(self) -> None:
        """Block until every actor process is up, has deserialized one IPC
        table and has loaded pandas through pyarrow's shim, so none of
        that lands in a timed crawl. Mutates no state."""
        empty = schemas.to_ipc(schemas.FRONTIER.empty_table())
        no_hashes = np.empty(0, dtype=np.uint64)
        ray.get([a.warm.remote(empty, no_hashes) for a in self.actors])
