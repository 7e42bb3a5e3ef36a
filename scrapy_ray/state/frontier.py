"""Sharded crawl frontier (SURVEY.md §2.3 F2/F3/F5) — the distributed
scheduler.

The reference schedules through one in-process priority queue with per-host
download slots ([S:scrapy/core/scheduler.py], [S:scrapy/pqueues.py],
[S:scrapy/core/downloader/__init__.py Slot]). Here the frontier is
hash-partitioned by **host** [B:north_rule] — politeness and the robots
cache need all of a host's URLs in one place (a co-located lookup, never a
shuffle — SURVEY §2.4 J2). Partition *i* lives in CrawlShard actor *i*
(state/shard.py), which owns the epoch guard, the actor options and the
checkpoint fan-out. Each partition holds:

- per-host heaps ordered by (-priority, seq) — priority desc, FIFO tiebreak,
  the engine's deterministic total order (SURVEY §2.9);
- a per-host politeness clock in *virtual wave time*: a host with effective
  crawl delay d emits at most 1 URL per eligible wave, eligible every
  ``ceil(d / wave_period)`` waves; a host with no delay emits up to
  ``per_domain_cap`` per wave (mirrors CONCURRENT_REQUESTS_PER_DOMAIN /
  DOWNLOAD_DELAY semantics [S:default_settings.py] deterministically);
- parsed robots rules (state/robots.py) gating enqueue [B:north_star].

Wave assembly: the driver gathers each shard's emission and merges by
(-priority, seq) — a cheap k-way merge, no shuffle (SURVEY §7.4.1).
"""

from __future__ import annotations

import heapq
import json
import os
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from scrapy_ray import schemas
from scrapy_ray.config import CrawlConfig
from scrapy_ray.state.robots import ALLOW_ALL, RobotsRules, parse_robots

_NEVER = -1 << 30


def _path_of(url: str) -> str:
    i = url.find("://")
    j = url.find("/", i + 3) if i >= 0 else -1
    return url[j:] if j >= 0 else "/"


def host_shard(hosts: list[str], n_shards: int) -> np.ndarray:
    """Frontier partition of each host: ``hash64(host) % n_shards``.
    Driver-side only; the import stays local so that a shard process never
    loads polars."""
    from scrapy_ray.functions.hashing import hash64

    return (hash64(hosts) % np.uint64(n_shards)).astype(np.int64)


class FrontierShard:
    """One host-partition of the frontier: plain partition state, held by a
    CrawlShard actor; unit-testable standalone."""

    def __init__(self, shard_id: int, cfg: CrawlConfig, robots_bodies: dict[str, str] | None = None):
        self.shard_id = shard_id
        self.cfg = cfg
        # Columnar internals (round 2, VERDICT item 8): pushed rows stay in
        # Arrow blocks; per host we keep SORTED RUNS — one vectorized
        # lexsort per push, no per-row heappush. A run is a mutable list
        # [negpri:int64[], seq:int64[], bid:int, idx:int64[], pos:int],
        # rows ordered by (-priority, seq). Emission: full-drain returns the
        # remaining set unsorted (the client k-way sorts the merged wave);
        # politeness-capped drain pops via a heap over run heads.
        self.blocks: list[pa.Table] = []
        self.queues: dict[str, list[list]] = defaultdict(list)  # host -> runs
        self._queued = 0      # live rows across all runs
        self.last_emit_wave: dict[str, int] = {}
        self.at_delay: dict[str, float] = {}   # F4 adaptive per-host delay
        self.robots: dict[str, RobotsRules] = {}
        if robots_bodies:
            self.robots = {h: parse_robots(b, cfg.user_agent)
                           for h, b in robots_bodies.items()}
        # hosts that can actually DENY a push (only Disallow rules matter
        # here; crawl-delay affects pacing, not admission)
        self._deny_hosts = {h for h, r in self.robots.items() if r.disallow}
        self.n_robots_denied = 0
        self.n_pushed = 0
        self.n_spilled_total = 0   # monotone: rows ever spilled (observability)
        # disk-backed frontier ([S:queuelib]/JOBDIR parity): host -> spilled
        # row count; rows live in parquet under _spill_dir until the host's
        # politeness clock readies it again (see _maybe_spill/_unspill_ready)
        self.spilled: dict[str, int] = {}
        self._spill_dir: str | None = None
        # F6 cookies analogue ([S:scrapy/downloadermiddlewares/cookies.py]):
        # per-host session token — host affinity puts the "cookie jar" in
        # the shard that owns the host, exactly where robots/politeness
        # state already lives. Updated once per wave from the host's
        # LAST-fetched response (max seq), carried on every emitted request
        # row as a `session` column when cfg.cookies is on.
        self.sessions: dict[str, int] = {}

    def _rules(self, host: str) -> RobotsRules:
        return self.robots.get(host, ALLOW_ALL)

    def _delay(self, host: str) -> float:
        robots_d = self._rules(host).crawl_delay if self.cfg.respect_crawl_delay else 0.0
        at_d = (self.at_delay.get(host, self.cfg.at_start_delay)
                if self.cfg.autothrottle else 0.0)
        return max(self.cfg.download_delay, robots_d, at_d)

    def _ready_at(self, host: str) -> int:
        last = self.last_emit_wave.get(host, _NEVER)
        return last + self.cfg.waves_per_emit(
            self._delay(host), self.cfg.delay_jitter(host, last))

    # --- disk spill ([S:queuelib disk queues / JOBDIR]) ---

    def _spill_path(self, host: str) -> str:
        import hashlib
        if self._spill_dir is None:
            import tempfile
            base = self.cfg.frontier_spill_dir
            if base is not None:
                os.makedirs(base, exist_ok=True)
            # one directory per shard INCARNATION (mkdtemp): a restored or
            # restarted actor must never merge into a previous incarnation's
            # leftover spill files — checkpointed state is the only carrier
            # of rows across incarnations
            self._spill_dir = tempfile.mkdtemp(
                prefix=f"shard_{self.shard_id}_",
                dir=base) if base is not None else tempfile.mkdtemp(
                prefix=f"scrapy_ray_spill_{self.shard_id}_")
        h = hashlib.md5(host.encode()).hexdigest()[:16]
        return os.path.join(self._spill_dir, f"{h}.parquet")

    def _maybe_spill(self) -> None:
        """Whole cold hosts spill to parquet until in-memory rows fall to
        half the cap (hysteresis bounds thrash); largest queue first, host
        name as the deterministic tie-break. Spilling never changes what a
        wave emits — rows round-trip through parquet and re-enter as one
        sorted run when the host readies (e2e equality pins this)."""
        cap = self.cfg.frontier_max_rows
        if not cap or self._queued <= cap:
            return
        target = cap // 2
        sizes = sorted(((sum(len(r[1]) - r[4] for r in runs), host)
                        for host, runs in self.queues.items()), reverse=True)
        for n_live, host in sizes:
            if self._queued <= target or n_live == 0:
                break
            self._spill_host(host, n_live)
        self._maybe_compact()

    def _spill_host(self, host: str, n_live: int) -> None:
        pairs = np.concatenate([self._run_pairs(r)
                                for r in self.queues[host]], axis=1)
        t = self._take_pairs(pairs)
        path = self._spill_path(host)
        if os.path.exists(path):   # host re-spilled after new pushes arrived
            t = pa.concat_tables([pq.read_table(path), t])
        pq.write_table(t, path)
        del self.queues[host]
        self._queued -= n_live
        self.spilled[host] = self.spilled.get(host, 0) + n_live
        self.n_spilled_total += n_live

    def _unspill_host(self, host: str) -> None:
        path = self._spill_path(host)
        t = pq.read_table(path)
        os.remove(path)
        n = self.spilled.pop(host)
        assert n == len(t)
        bid = len(self.blocks)
        self.blocks.append(t)
        pris = t["priority"].to_numpy(zero_copy_only=False).astype(np.int64)
        seqs = t["seq"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((seqs, -pris))
        self.queues[host].append([-pris[order], seqs[order], bid,
                                  order.astype(np.int64), 0])
        self._queued += len(t)

    def _drop_spill_files(self) -> None:
        for host in list(self.spilled):
            try:
                os.remove(self._spill_path(host))
            except FileNotFoundError:
                pass
        self.spilled = {}

    def _unspill_ready(self, wave_idx: int) -> None:
        for host in sorted(self.spilled):
            if wave_idx >= self._ready_at(host):
                self._unspill_host(host)

    def update_sessions(self, hosts: list[str], tokens: list[int]) -> None:
        """F6: overwrite each host's session token with this wave's value
        (CrawlShard.end_wave reduced it to the max-seq response per host;
        wave order means a later wave always wins, like a rotating
        Set-Cookie)."""
        for h, tok in zip(hosts, tokens):
            self.sessions[h] = int(tok)

    def get_sessions(self) -> dict[str, int]:
        return dict(self.sessions)

    def update_throttle(self, hosts: list[str], latencies: list[float]) -> None:
        """F4 AutoThrottle ([S:scrapy/extensions/throttle.py] smoothing over
        the deterministic virtual latency — see config.py): one update per
        host per wave with that wave's mean response latency."""
        cfg = self.cfg
        for h, lat in zip(hosts, latencies):
            prev = self.at_delay.get(h, cfg.at_start_delay)
            target = float(lat) / cfg.at_target_concurrency
            new = (prev + target) / 2.0
            self.at_delay[h] = min(max(new, cfg.download_delay), cfg.at_max_delay)

    def push(self, rows: pa.Table) -> int:
        """Enqueue FRONTIER rows; robots-denied rows are dropped here (they
        are already in the URL-seen set, matching the reference where the
        dupefilter runs at schedule time and robots gating at download time).

        Columnar: the block is stored once; per row only a 4-int heap tuple
        is built. The robots gate is a set-membership fast path — rows on
        hosts with no Disallow rules (the overwhelming majority) skip the
        per-path prefix match entirely."""
        if self.cfg.obey_robots and self._deny_hosts:
            hosts = rows["host"].to_pylist()
            urls = rows["url"].to_pylist()
            allowed = np.ones(len(rows), dtype=bool)
            deny = self._deny_hosts
            for i, h in enumerate(hosts):
                if h in deny and not self.robots[h].is_allowed(_path_of(urls[i])):
                    allowed[i] = False
            n_deny = int(len(allowed) - allowed.sum())
            if n_deny:
                self.n_robots_denied += n_deny
                rows = rows.filter(pa.array(allowed))
        if len(rows) == 0:
            return 0
        self.blocks.append(rows)
        self._add_runs(len(self.blocks) - 1)
        self._queued += len(rows)
        self.n_pushed += len(rows)
        self._maybe_spill()
        return len(rows)

    def _add_runs(self, bid: int) -> None:
        """Append one sorted run per host for block ``bid``: one dictionary
        encode of its host column (codes in first-appearance order) +
        lexsort by (host, -priority, seq), then each host's slice found by
        searchsorted. Used by push, compaction and restore."""
        rows = self.blocks[bid]
        pris = rows["priority"].to_numpy(zero_copy_only=False).astype(np.int64)
        seqs = rows["seq"].to_numpy(zero_copy_only=False).astype(np.int64)
        enc = rows["host"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        uniq_hosts = enc.dictionary.to_pylist()
        order = np.lexsort((seqs, -pris, codes))
        bounds = np.append(np.searchsorted(codes[order], np.arange(len(uniq_hosts))),
                           len(order))
        negpri, seq_s, idx_s = -pris[order], seqs[order], order.astype(np.int64)
        for c, host in enumerate(uniq_hosts):
            lo, hi = int(bounds[c]), int(bounds[c + 1])
            self.queues[host].append([negpri[lo:hi], seq_s[lo:hi], bid,
                                      idx_s[lo:hi], 0])
            if len(self.queues[host]) > 16:
                self._merge_runs(host)

    def _merge_runs(self, host: str) -> None:
        # _run_pairs normalizes BOTH run shapes — plain (bid, 1-D row idx)
        # and already-merged (bid=-1, (2,n) pairs) — so re-merging a host
        # whose run list grew past the cap a second time is uniform.
        runs = self.queues[host]
        np_ = np.concatenate([r[0][r[4]:] for r in runs])
        sq = np.concatenate([r[1][r[4]:] for r in runs])
        pairs = np.concatenate([self._run_pairs(r) for r in runs], axis=1)
        o = np.lexsort((sq, np_))
        self.queues[host] = [[np_[o], sq[o], -1, pairs[:, o], 0]]
        # bid == -1 marks a MERGED run whose idx field is a (2, n) array of
        # (block_id, row_idx) pairs instead of row indices into one block

    @staticmethod
    def _run_pairs(run, upto: int | None = None) -> np.ndarray:
        """(2, k) array of (block_id, row_idx) for the run's rows from pos
        (exclusive of already-consumed) up to ``upto`` more rows."""
        lo = run[4]
        hi = len(run[1]) if upto is None else min(len(run[1]), lo + upto)
        if run[2] == -1:
            return run[3][:, lo:hi]
        return np.stack([np.full(hi - lo, run[2], dtype=np.int64), run[3][lo:hi]])

    def _take_pairs(self, pairs: np.ndarray) -> pa.Table:
        """Gather a (2, n) (block_id, row_idx) array into one FRONTIER table."""
        if pairs.size == 0:
            return schemas.FRONTIER.empty_table()
        parts = []
        for bid in np.unique(pairs[0]):
            ris = pairs[1][pairs[0] == bid]
            parts.append(self.blocks[int(bid)].take(pa.array(ris, type=pa.int64())))
        return pa.concat_tables(parts)

    def next_wave(self, wave_idx: int) -> pa.Table:
        """Emit this wave's politeness-budgeted batch from every eligible
        host. Full drain (cap >= queued) is vectorized set-taking — order
        within the shard emission is irrelevant because the client sorts the
        merged wave by (priority desc, seq). Capped drain pops the exact
        (-priority, seq) top-k via a heap over run heads."""
        if self.spilled:
            self._unspill_ready(wave_idx)
        picks: list[np.ndarray] = []
        cfg = self.cfg
        for host in list(self.queues):
            runs = self.queues[host]
            left = sum(len(r[1]) - r[4] for r in runs)
            if left == 0:
                del self.queues[host]
                continue
            delay = self._delay(host)
            last = self.last_emit_wave.get(host, _NEVER)
            ready = last + cfg.waves_per_emit(delay,
                                              cfg.delay_jitter(host, last))
            if wave_idx < ready:
                continue
            cap = 1 if delay > 0 else cfg.per_domain_cap
            if cap >= left:                      # full drain, vectorized
                for r in runs:
                    picks.append(self._run_pairs(r))
                self._queued -= left
                del self.queues[host]
            else:                                # exact top-cap via run heads
                heads = [(int(r[0][r[4]]), int(r[1][r[4]]), i)
                         for i, r in enumerate(runs) if r[4] < len(r[1])]
                heapq.heapify(heads)
                taken = 0
                while taken < cap and heads:
                    _, _, i = heapq.heappop(heads)
                    r = runs[i]
                    picks.append(self._run_pairs(r, upto=1))
                    r[4] += 1
                    taken += 1
                    if r[4] < len(r[1]):
                        heapq.heappush(heads, (int(r[0][r[4]]), int(r[1][r[4]]), i))
                self._queued -= taken
                self.queues[host] = [r for r in runs if r[4] < len(r[1])]
                if not self.queues[host]:
                    del self.queues[host]
            self.last_emit_wave[host] = wave_idx
        if not picks:
            out = schemas.FRONTIER.empty_table()
            if cfg.cookies:   # keep shard emissions concat-compatible
                out = out.append_column("session",
                                        pa.array([], type=pa.uint64()))
            return out
        out = self._take_pairs(np.concatenate(picks, axis=1))
        self._maybe_compact()
        if cfg.cookies:
            # F6: every request carries its host's current session token
            # (0 = no session yet) — the Cookie header analogue
            out = out.append_column("session", pa.array(
                [self.sessions.get(h, 0) for h in out["host"].to_pylist()],
                type=pa.uint64()))
        return out

    def _all_pairs(self) -> np.ndarray:
        ps = [self._run_pairs(r) for runs in self.queues.values() for r in runs]
        return (np.concatenate(ps, axis=1) if ps
                else np.empty((2, 0), dtype=np.int64))

    def _maybe_compact(self) -> None:
        """Emitted rows stay in their blocks until consumed rows dominate;
        then rebuild the live rows into one block and re-run the queues —
        bounds block memory at O(live frontier)."""
        held = sum(len(b) for b in self.blocks)
        if held < 4096 or held <= 4 * max(1, self._queued):
            return
        live = self._take_pairs(self._all_pairs())
        self.blocks = [live] if len(live) else []
        self.queues = defaultdict(list)
        if len(live):
            self._add_runs(0)

    def size(self) -> int:
        return self._queued + sum(self.spilled.values())

    def earliest_ready_wave(self) -> int | None:
        """Smallest wave index at which any queued host may emit (None=empty)."""
        best = None
        for host, q in self.queues.items():
            if not q:
                continue
            ready = self._ready_at(host)
            best = ready if best is None else min(best, ready)
        for host in self.spilled:
            ready = self._ready_at(host)
            best = ready if best is None else min(best, ready)
        return best

    def stats(self) -> dict:
        return {"shard": self.shard_id, "queued": self.size(),
                "mem_rows": self._queued,
                "spilled_rows": sum(self.spilled.values()),
                "spilled_rows_total": self.n_spilled_total,
                "spilled_hosts": len(self.spilled),
                "hosts": len(self.queues), "robots_denied": self.n_robots_denied,
                "pushed": self.n_pushed}

    def reset(self) -> None:
        """Back to construction state (driver-coordinated recovery when no
        committed checkpoint exists); robots rules are construction args and
        survive actor restart, so they stay."""
        self._drop_spill_files()
        self.blocks = []
        self.queues = defaultdict(list)
        self._queued = 0
        self.last_emit_wave = {}
        self.at_delay = {}
        self.sessions = {}
        self.n_robots_denied = 0
        self.n_pushed = 0
        self.n_spilled_total = 0

    # --- checkpoint (SURVEY §4.2): queue rows + politeness clocks ---
    def checkpoint(self, dirpath: str) -> None:
        os.makedirs(dirpath, exist_ok=True)
        t = self._take_pairs(self._all_pairs())
        if self.spilled:   # disk-resident rows are frontier state too
            t = pa.concat_tables(
                [t] + [pq.read_table(self._spill_path(h))
                       for h in sorted(self.spilled)])
        tmp = os.path.join(dirpath, f"frontier_{self.shard_id}.tmp")
        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(dirpath, f"frontier_{self.shard_id}.parquet"))
        jtmp = os.path.join(dirpath, f"clock_{self.shard_id}.tmp")
        with open(jtmp, "w") as fh:
            json.dump({"last_emit_wave": self.last_emit_wave,
                       "at_delay": self.at_delay,
                       "sessions": self.sessions,
                       "n_robots_denied": self.n_robots_denied,
                       "n_pushed": self.n_pushed}, fh)
        os.replace(jtmp, os.path.join(dirpath, f"clock_{self.shard_id}.json"))

    def restore(self, dirpath: str) -> None:
        t = pq.read_table(os.path.join(dirpath, f"frontier_{self.shard_id}.parquet"))
        self._drop_spill_files()
        self.queues = defaultdict(list)
        self.blocks = [t] if len(t) else []
        self._queued = len(t)
        if len(t):
            self._add_runs(0)
        with open(os.path.join(dirpath, f"clock_{self.shard_id}.json")) as fh:
            d = json.load(fh)
        self.last_emit_wave = {k: int(v) for k, v in d["last_emit_wave"].items()}
        self.at_delay = {k: float(v) for k, v in d.get("at_delay", {}).items()}
        self.sessions = {k: int(v) for k, v in d.get("sessions", {}).items()}
        self.n_robots_denied = d["n_robots_denied"]
        self.n_pushed = d["n_pushed"]
        self._maybe_spill()   # re-bound memory immediately after restore


class ShardedFrontier:
    """Driver-side routing view over the frontier partitions of a ShardPool
    (state/shard.py): actor *i* holds the hosts with ``host_shard == i``."""

    def __init__(self, pool):
        self._pool = pool
        self.cfg = pool.cfg
        self.n_shards = pool.cfg.n_frontier_shards
        self.shards = pool.actors[:self.n_shards]

    def push(self, rows: pa.Table) -> int:
        """Route rows to their host's shard and wait for every push; returns
        the number of rows the shards accepted."""
        return sum(ray.get([
            self.shards[s].call.remote("frontier", "push", part,
                                       epoch=self._pool.epoch)
            for s, part in enumerate(self._route(rows)) if part is not None]))

    def sessions(self) -> dict[str, int]:
        """Merged host -> session-token map (disjoint by host partitioning)."""
        out: dict[str, int] = {}
        for d in ray.get([s.call.remote("frontier", "get_sessions", epoch=self._pool.epoch)
                          for s in self.shards]):
            out.update(d)
        return out

    def _route(self, t: pa.Table | None) -> list:
        """Per pool actor, the IPC slice of the rows of ``t`` (FRONTIER or
        HOSTS) whose host its frontier partition owns, or None."""
        out = [None] * len(self._pool.actors)
        if t is not None and len(t):
            shard = host_shard(t["host"].to_pylist(), self.n_shards)
            for s in np.unique(shard).tolist():
                out[s] = schemas.to_ipc(t.take(pa.array(np.flatnonzero(shard == s))))
        return out

    def end_wave_async(self, rows: pa.Table | None, hosts: pa.Table | None,
                       ckpt_dir: str | None, next_wave_idx: int | None) -> list:
        """Submit the merged end-of-wave RPC (CrawlShard.end_wave) — ONE
        submission per actor carrying that actor's slices of the new rows
        and of the wave's per-host feedback (``hosts``, schemas.HOSTS) +
        the optional checkpoint/drain requests. A checkpoint request goes
        to EVERY actor of the pool, including those that hold only a
        URL-seen partition (they get no rows and no drain). Actors with no
        payload and no request are skipped. Returns futures; a future
        resolves to the actor's next-wave part (an IPC buffer, see
        merge_wave), or None when it was not asked to drain.

        Errors surface when the futures are read: on a checkpoint wave
        before the commit, otherwise when the next wave consumes the
        prefetch; ``CrawlEngine.run_wave`` then notes the wave whose
        end_wave raised. Recovery rolls every shard back to the last
        committed checkpoint either way."""
        futs = []
        for s, (srows, shosts) in enumerate(zip(self._route(rows),
                                                self._route(hosts))):
            drain = next_wave_idx if s < self.n_shards else None
            if (srows is None and shosts is None and ckpt_dir is None
                    and drain is None):
                continue
            futs.append(self._pool.actors[s].end_wave.remote(
                srows, shosts, ckpt_dir, drain, epoch=self._pool.epoch))
        return futs

    def merge_wave(self, parts: list) -> pa.Table:
        """Merge the shards' drained parts (IPC buffers) into the wave:
        sort by (priority desc, seq asc), then apply max_wave_urls."""
        t = pa.concat_tables([schemas.from_ipc(p) for p in parts])
        if len(t) == 0:
            return t
        t = t.sort_by([("priority", "descending"), ("seq", "ascending")])
        cap = self.cfg.max_wave_urls
        if cap and len(t) > cap:
            # CONCURRENT_REQUESTS analogue: global top-cap by the wave
            # order; the tail re-enters its shards with ORIGINAL seqs (it
            # sorts first next time), host politeness clocks stand — the
            # hosts did get a slot this wave (simulator mirrors exactly)
            self.push(t.slice(cap))
            t = t.slice(0, cap)
        return t

    def next_wave(self, wave_idx: int) -> pa.Table:
        """Drain every shard's politeness-budgeted batch for ``wave_idx``
        and merge them into the wave. The engine usually gets the drained
        parts from end_wave_async's prefetch instead and calls merge_wave."""
        return self.merge_wave(ray.get([
            s.call.remote("frontier", "next_wave", wave_idx, epoch=self._pool.epoch)
            for s in self.shards]))

    def earliest_ready_wave(self) -> int | None:
        vals = [v for v in ray.get([
            s.call.remote("frontier", "earliest_ready_wave", epoch=self._pool.epoch)
            for s in self.shards]) if v is not None]
        return min(vals) if vals else None

    def stats(self) -> list[dict]:
        return ray.get([s.call.remote("frontier", "stats", epoch=self._pool.epoch)
                        for s in self.shards])
