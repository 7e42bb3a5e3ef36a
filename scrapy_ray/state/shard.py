"""The crawl-state actor pool (SURVEY.md §2.3 F1/F2, §4.2).

Two partitioned tables: the URL-seen filter, keyed by ``url_hash %
n_filter_shards`` (state/urlseen.py), and the frontier, keyed by
``hash64(host) % n_frontier_shards`` (state/frontier.py). Partition *i* of
both lives in the same ``CrawlShard`` actor. The pool is sized to the
cluster, not to the partition count: ``min(max(n_filter_shards,
n_frontier_shards), cluster CPUs)`` actors, actor *j* hosting every
partition *i* with ``i % n_actors == j``, so a cluster with a CPU per
partition gets one actor per partition. The keys do not depend on the
layout, so crawl order, the URL-seen set and the checkpoint files do not
either, and a checkpoint restores into a pool of any size.

Every driver-to-shard fan-out is ``ShardPool.fan``: ONE RPC per actor
carrying the arguments of each partition it hosts, answered with one result
per partition. The epoch guard (state/errors.py), the checkpoint / restore /
reset fan-outs and the actor options live here once; ``ShardedUrlSeen`` and
``ShardedFrontier`` only route.

Tables cross the actor boundary as Arrow IPC buffers (``schemas.to_ipc`` /
``from_ipc``), converted here and in the two views; the partition classes
take and return ``pa.Table``. A shard process therefore loads neither
``ray.data`` nor polars: ``hash64`` imports polars only when it runs, and
no shard method hashes (only the driver-side ``host_shard`` does).
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
from scrapy_ray.util import cluster_cpus


class CrawlShard:
    """URL-seen partition *i* (if ``i < n_filter_shards``) and frontier
    partition *i* (if ``i < n_frontier_shards``) of every *i* in
    ``partitions``, behind one epoch guard; ``urlseen`` and ``frontier``
    map partition ids to them. ``robots_bodies`` holds the robots bodies of
    each hosted frontier partition. Plain class; ShardPool wraps it with
    ``ray.remote``. Every RPC carries the driver's epoch; ``set_epoch``
    adopts it, and ``restore``, ``reset`` and ``warm``, which run on a
    started or revived actor before its stamp, do not check it."""

    def __init__(self, actor_id: int, partitions: list[int], cfg: CrawlConfig,
                 robots_bodies: dict[int, dict[str, str]] | None = None):
        self.actor_id = actor_id
        robots_bodies = robots_bodies or {}
        self.urlseen = {i: UrlSeenShard(i, cfg.bloom_capacity, cfg.bloom_bits_per_key,
                                        cfg.exact_urlseen)
                        for i in partitions if i < cfg.n_filter_shards}
        self.frontier = {i: FrontierShard(i, cfg, robots_bodies.get(i))
                         for i in partitions if i < cfg.n_frontier_shards}
        self.epoch = -1  # stamped by the driver; -1 = fresh/restarted actor

    def _parts(self) -> list:
        return [*self.urlseen.values(), *self.frontier.values()]

    def set_epoch(self, epoch: int) -> None:
        self.epoch = epoch

    def _guard(self, epoch: int | None) -> None:
        if epoch is not None and epoch != self.epoch:
            raise StaleShardError(
                f"crawl shard {self.actor_id}: epoch {self.epoch} != driver {epoch} "
                "(actor restarted since last stamp)")

    def call(self, args: dict[int, tuple], part: str, method: str,
             epoch: int | None = None) -> dict:
        """Guarded RPC into hosted partitions of one table: ``part`` is
        "urlseen" or "frontier", ``method`` one of that partition class's
        methods, ``args`` {partition: its arguments}. Returns {partition:
        result}; table arguments and table results travel as IPC buffers."""
        self._guard(epoch)
        parts, out = getattr(self, part), {}
        for i, a in args.items():
            r = getattr(parts[i], method)(*map(schemas.from_ipc, a))
            out[i] = schemas.to_ipc(r) if isinstance(r, pa.Table) else r
        return out

    def end_wave(self, slices: dict[int, tuple], ckpt_dir: str | None,
                 next_wave_idx: int | None, epoch: int | None = None) -> dict | None:
        """End-of-wave combined op. ``slices`` maps a hosted partition to
        its ``(rows, hosts)`` IPC slices (None = nothing): the wave's new
        rows and the fetch tasks' ``schemas.HOSTS`` partials for the hosts
        that frontier partition owns. Each frontier partition applies its
        per-host feedback and enqueues its rows (sessions → throttle →
        push); then, optionally, every hosted partition writes its
        checkpoint segment and every hosted frontier partition drains the
        next wave — in that order, so the checkpoint captures post-push,
        pre-drain state. Only the drain and the checkpoint read the throttle
        delays. A URL-seen-only partition gets ``(None, None)`` and only
        checkpoints. Returns {partition: drained wave as IPC}, or None when
        not asked to drain."""
        self._guard(epoch)
        for i, (rows, hosts) in slices.items():
            front = self.frontier.get(i)
            if hosts is not None:
                h = schemas.reduce_hosts(schemas.from_ipc(hosts))
                names, cfg = h["host"].to_pylist(), front.cfg
                if cfg.cookies:
                    front.update_sessions(names, h["token"].to_pylist())
                if cfg.autothrottle:
                    # virtual latency: mean response bytes / bandwidth (config.py)
                    front.update_throttle(names, (
                        h["nbytes"].to_numpy() / h["n"].to_numpy()
                        / cfg.at_bytes_per_sec).tolist())
            if rows is not None:
                front.push(schemas.from_ipc(rows))
        if ckpt_dir is not None:
            self.checkpoint(ckpt_dir)
        if next_wave_idx is None:
            return None
        return {i: schemas.to_ipc(f.next_wave(next_wave_idx))
                for i, f in self.frontier.items()}

    # --- every hosted partition ---
    def stats(self, epoch: int | None = None) -> dict[str, dict[int, dict]]:
        self._guard(epoch)
        return {name: {i: p.stats() for i, p in parts.items()}
                for name, parts in (("urlseen", self.urlseen), ("frontier", self.frontier))}

    def checkpoint(self, dirpath: str, epoch: int | None = None) -> None:
        self._guard(epoch)  # a stale shard must never write a checkpoint
        for part in self._parts():
            part.checkpoint(dirpath)

    def restore(self, dirpath: str, epoch: int | None = None) -> None:
        for part in self._parts():
            part.restore(dirpath)

    def reset(self, epoch: int | None = None) -> None:
        """Every partition back to construction state (driver-coordinated
        recovery when no committed checkpoint exists)."""
        for part in self._parts():
            part.reset()

    def warm(self, rows: pa.Buffer, hashes: np.ndarray,
             epoch: int | None = None) -> None:
        """No-op RPC carrying an empty FRONTIER table (as IPC) and hash
        array: starts the process and primes its argument deserialization.
        The ``to_numpy`` makes pyarrow import pandas now (its pandas shim
        loads it on the first Arrow<->numpy conversion) instead of inside
        the first timed push."""
        schemas.from_ipc(rows)["seq"].to_numpy()


class ShardPool:
    """The one pool of CrawlShard actors a CrawlEngine builds, with the
    driver side of the epoch stamp and of every fan-out (``fan``).
    ``urlseen`` and ``frontier`` are the routing views."""

    def __init__(self, cfg: CrawlConfig, robots_bodies: dict[str, str] | None = None):
        self.cfg = cfg
        self.epoch: int | None = None  # set by stamp(); every RPC carries it
        n_front = cfg.n_frontier_shards
        self.n_parts = max(cfg.n_filter_shards, n_front)
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
        # a 2-CPU session) — they must always be schedulable. Yet a process
        # per partition beyond the cluster's CPUs only adds memory, start
        # time and RPCs, so an actor hosts several partitions there.
        # max_restarts>0: a dead shard revives EMPTY with its original args
        # (cfg, its partitions and their robots); the driver restores the
        # whole pool from the last committed checkpoint (pipelines/crawl.py
        # recover()) so state stays mutually consistent.
        opts = {"num_cpus": 0, "max_restarts": 4}
        if cfg.actor_scheduling is not None:  # e.g. "SPREAD" across nodes
            opts["scheduling_strategy"] = cfg.actor_scheduling
        if cfg.actor_resources:               # e.g. worker-node-only pinning
            opts["resources"] = dict(cfg.actor_resources)
        actor = ray.remote(CrawlShard).options(**opts)
        n_actors = min(self.n_parts, cluster_cpus())
        layout = [list(range(j, self.n_parts, n_actors)) for j in range(n_actors)]
        self.actors = [actor.remote(j, parts, cfg,
                                    {i: robots[i] for i in parts if i < n_front})
                       for j, parts in enumerate(layout)]
        self.urlseen = ShardedUrlSeen(self)
        self.frontier = ShardedFrontier(self)

    def fan(self, method: str, parts: dict[int, tuple] | None = None, *args,
            wait: bool = True):
        """The one driver-to-shard fan-out: ONE CrawlShard ``method`` RPC
        per actor, with ``args`` and the epoch. Given ``parts``
        ({partition: its arguments}), only the actors hosting one of them
        are called, each with the entries of its own partitions as its
        first argument; otherwise every actor is. Returns the replies merged by ``gather``,
        or with ``wait=False`` the futures."""
        n = len(self.actors)
        if parts is None:
            calls = [(a, ()) for a in self.actors]
        else:
            by_actor: list[dict] = [{} for _ in range(n)]
            for i in sorted(parts):
                by_actor[i % n][i] = parts[i]
            calls = [(self.actors[j], (p,)) for j, p in enumerate(by_actor) if p]
        futs = [getattr(a, method).remote(*head, *args, epoch=self.epoch)
                for a, head in calls]
        return self.gather(futs) if wait else futs

    @staticmethod
    def gather(futs: list) -> dict:
        """Wait for ``fan`` futures; their {partition: result} replies
        (None for none) merged in partition order."""
        out: dict = {}
        for r in ray.get(futs):
            out.update(r or {})
        return dict(sorted(out.items()))

    def call(self, part: str, method: str, parts: dict[int, tuple] | None = None) -> dict:
        """``CrawlShard.call`` of ``part``'s ``method`` on the given
        partitions ({partition: its arguments}; default every partition of
        ``part``, with no arguments): {partition: result}."""
        if parts is None:
            n = self.cfg.n_filter_shards if part == "urlseen" else self.cfg.n_frontier_shards
            parts = dict.fromkeys(range(n), ())
        return self.fan("call", parts, part, method)

    def stamp(self) -> None:
        """Stamp every actor with a fresh epoch (after each seed/restore). An
        actor that later restarts (losing state) reverts to epoch -1 and
        raises StaleShardError on its next guarded RPC — the detect-on-next-
        use half of fault tolerance (the other half is CrawlEngine.recover())."""
        self.epoch = (self.epoch or 0) + 1
        self.fan("set_epoch")

    def checkpoint_async(self, dirpath: str) -> list:
        """Submit every actor's checkpoint RPC WITHOUT waiting — the engine
        overlaps the shard writes with driver-side sink work and ray.get()s
        the futures before the manifest commit."""
        return self.fan("checkpoint", None, dirpath, wait=False)

    def restore(self, dirpath: str) -> None:
        self.fan("restore", None, dirpath)

    def reset(self) -> None:
        self.fan("reset")

    def warm(self) -> None:
        """Block until every actor process is up, has deserialized one IPC
        table and has loaded pandas through pyarrow's shim, so none of
        that lands in a timed crawl. Mutates no state."""
        self.fan("warm", None, schemas.to_ipc(schemas.FRONTIER.empty_table()),
                 np.empty(0, dtype=np.uint64))
