"""Sharded crawl frontier (SURVEY.md §2.3 F2/F3/F5) — the distributed
scheduler.

The reference schedules through one in-process priority queue with per-host
download slots ([S:scrapy/core/scheduler.py], [S:scrapy/pqueues.py],
[S:scrapy/core/downloader/__init__.py Slot]). Here the frontier is
hash-partitioned by **host** [B:north_rule] — politeness and the robots
cache need all of a host's URLs in one place (a co-located lookup, never a
shuffle — SURVEY §2.4 J2). Partition *i* lives in a CrawlShard actor of the
pool (state/shard.py), which owns the epoch guard, the actor options and
the one fan-out. Each partition holds, columnar and vectorized over
hosts:

- a host → code map (codes fixed until ``reset``) and per-host state in
  arrays indexed by code;
- queued rows in a few sorted Arrow runs, each ordered by (code, -priority,
  seq) — priority desc, FIFO tiebreak, the engine's deterministic total
  order (SURVEY §2.9) — so a host's next rows are a prefix of its group in
  every run;
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

import contextlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from scrapy_ray import schemas
from scrapy_ray.config import CrawlConfig
from scrapy_ray.functions.hashing import hash64
from scrapy_ray.state.robots import RobotsRules, parse_robots

_NEVER = -1 << 30


def _path_of(url: str) -> str:
    i = url.find("://")
    j = url.find("/", i + 3) if i >= 0 else -1
    return url[j:] if j >= 0 else "/"


def host_shard(hosts: list[str] | pa.Array | pa.ChunkedArray,
               n_shards: int) -> np.ndarray:
    """Frontier partition of each host (a list or an Arrow string column):
    ``hash64(host) % n_shards``. Driver-side only: like ``hash64``, it
    imports polars (for ``pl.from_arrow``) when it runs, so a shard process
    never loads polars."""
    import polars as pl

    if not isinstance(hosts, list):
        hosts = pl.from_arrow(hosts)
    return (hash64(hosts) % np.uint64(n_shards)).astype(np.int64)


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(lo[i], lo[i] + n[i])`` over i."""
    return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())


def _gather(pieces: list[tuple], by_code: bool = True) -> tuple:
    """Rows ``idx`` of each piece ``(table, idx, codes, negpri, seq)``,
    sorted by (code, -priority, seq), or by (-priority, seq) when not
    ``by_code``: the rows and their codes, negpri and seq. One ``take``
    over the pieces' tables, which copies every chunk first, so a piece
    that needs few rows of a big table is taken on its own beforehand."""
    tables, idx, n = [], [], 0
    if not pieces:
        return (schemas.FRONTIER.empty_table(), *[np.empty(0, np.int64)] * 3)
    for t, i, *_ in pieces:
        if t.num_rows > 8 * len(i) + 1024:
            t, i = t.take(i), np.arange(len(i))
        tables.append(t)
        idx.append(i + n)
        n += t.num_rows
    codes, negpri, seq = (np.concatenate([p[k] for p in pieces]) for k in (2, 3, 4))
    o = np.lexsort((seq, negpri, codes) if by_code else (seq, negpri))
    return (pa.concat_tables(tables).take(np.concatenate(idx)[o]),
            codes[o], negpri[o], seq[o])


class _Run:
    """Queued rows sorted by (code, -priority, seq). Host group g is rows
    ``starts[g]:starts[g+1]``; rows before ``head[g]`` were consumed."""

    def __init__(self, table: pa.Table, rowcodes: np.ndarray,
                 negpri: np.ndarray, seq: np.ndarray):
        self.table, self.negpri, self.seq = table, negpri, seq
        first = np.concatenate(([0], np.flatnonzero(rowcodes[1:] != rowcodes[:-1]) + 1))
        self.codes = rowcodes[first]
        self.starts = np.append(first, len(rowcodes))
        self.head = first
        self.live = len(rowcodes)

    def offer(self, codes: np.ndarray, caps: np.ndarray) -> tuple:
        """The first ``caps[i]`` live rows of host ``codes[i]`` (sorted
        codes): their group indices, counts and row indices."""
        g = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        hit = self.codes[g] == codes
        g = g[hit]
        n = np.minimum(caps[hit], self.starts[g + 1] - self.head[g])
        return g, n, _ranges(self.head[g], n)

    def piece(self, g: np.ndarray, n: np.ndarray, idx: np.ndarray) -> tuple:
        return self.table, idx, np.repeat(self.codes[g], n), self.negpri[idx], self.seq[idx]

    def live_piece(self) -> tuple:
        g = np.arange(len(self.codes))
        n = self.starts[1:] - self.head
        return self.piece(g, n, _ranges(self.head, n))

    def consume(self, g: np.ndarray, n: np.ndarray) -> None:
        self.head[g] += n
        self.live -= int(n.sum())

    def compacted(self) -> _Run:
        """Self, or its live rows alone once consumed rows outnumber them
        (and 1024 rows: a small run is not worth a take)."""
        if len(self.seq) - self.live <= max(self.live, 1024):
            return self
        return _Run(*_gather([self.live_piece()]))


class FrontierShard:
    """One host-partition of the frontier: plain partition state, held by a
    CrawlShard actor; unit-testable standalone."""

    def __init__(self, shard_id: int, cfg: CrawlConfig, robots_bodies: dict[str, str] | None = None):
        self.shard_id = shard_id
        self.cfg = cfg
        self.robots: dict[str, RobotsRules] = {}
        if robots_bodies:
            self.robots = {h: parse_robots(b, cfg.user_agent)
                           for h, b in robots_bodies.items()}
        # hosts that can actually DENY a push (only Disallow rules matter
        # here; crawl-delay affects pacing, not admission)
        self._deny = pa.array(sorted(h for h, r in self.robots.items() if r.disallow),
                              pa.string())
        self._spill_dir: str | None = None
        self._clear()

    def _clear(self) -> None:
        self._hosts = pa.array([], pa.string())   # code -> host
        # per-host state, indexed by code: the politeness clock, the F4
        # AutoThrottle delay (NaN = none yet), the F6 session token (0 = no
        # session yet), the robots Crawl-delay and the in-memory row count
        self._last = np.empty(0, np.int64)
        self._at = np.empty(0, np.float64)
        self._session = np.empty(0, np.uint64)
        self._crawl_delay = np.empty(0, np.float64)
        self._live = np.empty(0, np.int64)
        self._runs: list[_Run] = []
        self._pending: list[tuple] = []   # pushes since the last drain, as _gather pieces
        self._queued = 0      # in-memory rows, runs and pending
        self.n_robots_denied = 0
        self.n_pushed = 0
        self.n_spilled_total = 0   # monotone: rows ever spilled (observability)
        # disk-backed frontier ([S:queuelib]/JOBDIR parity): code -> spilled
        # row count; rows live in parquet under _spill_dir until the host's
        # politeness clock readies it again (see _maybe_spill/_unspill_ready)
        self.spilled: dict[int, int] = {}

    def _codes(self, hosts) -> np.ndarray:
        """Code of each host (a list or an Arrow string column); a host seen
        for the first time gets the next free code."""
        if isinstance(hosts, list):
            hosts = pa.array(hosts, pa.string())
        idx = pc.index_in(hosts, value_set=self._hosts)
        if idx.null_count:
            new = pc.unique(hosts.filter(pc.is_null(idx)))
            n = len(new)
            self._hosts = pa.concat_arrays([self._hosts, new])
            for name, fill in (("_last", _NEVER), ("_at", np.nan), ("_session", 0), ("_live", 0)):
                a = getattr(self, name)
                setattr(self, name, np.append(a, np.full(n, fill, a.dtype)))
            self._crawl_delay = np.append(self._crawl_delay, [
                self.robots[h].crawl_delay if h in self.robots else 0.0
                for h in new.to_pylist()] if self.robots else np.zeros(n))
            idx = pc.index_in(hosts, value_set=self._hosts)
        return idx.to_numpy().astype(np.int64)

    def _view(self, values: np.ndarray, keep: np.ndarray) -> dict:
        c = np.flatnonzero(keep)
        return dict(zip(self._hosts.take(c).to_pylist(), values[c].tolist()))

    # host -> value views of the per-host arrays (hosts with a value only)
    last_emit_wave = property(lambda s: s._view(s._last, s._last != _NEVER))
    at_delay = property(lambda s: s._view(s._at, ~np.isnan(s._at)))
    sessions = property(lambda s: s._view(s._session, s._session != 0))

    def _delays(self, c: np.ndarray) -> np.ndarray:
        """Effective crawl delay of each code: the max of the configured,
        robots and AutoThrottle delays."""
        cfg = self.cfg
        d = np.full(len(c), cfg.download_delay)
        if cfg.respect_crawl_delay:
            d = np.maximum(d, self._crawl_delay[c])
        if cfg.autothrottle:
            at = self._at[c]
            d = np.maximum(d, np.where(np.isnan(at), cfg.at_start_delay, at))
        return d

    def _ready_at(self, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        """First wave each code may emit in, given its delays ``d``:
        ``cfg.waves_per_emit`` over arrays, with ``cfg.delay_jitter`` drawn
        only for the delayed hosts."""
        cfg, last = self.cfg, self._last[c]
        if cfg.randomize_download_delay:
            j = np.flatnonzero(d > 0)
            d = d.copy()
            d[j] *= [cfg.delay_jitter(h, w) for h, w
                     in zip(self._hosts.take(c[j]).to_pylist(), last[j].tolist())]
        wpe = np.where(d > 0, np.maximum(1, np.ceil(d / cfg.wave_period)), 1)
        return last + wpe.astype(np.int64)

    # --- disk spill ([S:queuelib disk queues / JOBDIR]) ---

    def _spill_path(self, code: int) -> str:
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
        h = hashlib.md5(self._hosts[code].as_py().encode()).hexdigest()[:16]
        return os.path.join(self._spill_dir, f"{h}.parquet")

    def _maybe_spill(self) -> None:
        """Whole cold hosts spill to parquet until in-memory rows fall to
        half the cap (hysteresis bounds thrash); largest queue first, host
        name as the deterministic tie-break. Spilling never changes what a
        wave emits — rows round-trip through parquet and re-enter as part
        of a sorted run when the host readies (e2e equality pins this)."""
        cap = self.cfg.frontier_max_rows
        if not cap or self._queued <= cap:
            return
        self._flush()
        c = np.flatnonzero(self._live)
        c = c[pc.sort_indices(pa.table({"n": self._live[c], "host": self._hosts.take(c)}),
                              [("n", "descending"), ("host", "descending")]).to_numpy()]
        n = self._live[c]
        spill = np.sort(c[:np.count_nonzero(self._queued - (np.cumsum(n) - n) > cap // 2)])
        pieces = []
        for r in self._runs:
            g, m, idx = r.offer(spill, self._live[spill])
            pieces.append(r.piece(g, m, idx))
            r.consume(g, m)
        self._runs = [r.compacted() for r in self._runs if r.live]
        rows, codes, _, _ = _gather(pieces)
        bounds = np.searchsorted(codes, np.append(spill, len(self._live)))
        for i, c in enumerate(spill.tolist()):
            t = rows.slice(bounds[i], bounds[i + 1] - bounds[i])
            if c in self.spilled:   # host re-spilled after new pushes arrived
                t = pa.concat_tables([self._read_spill(c), t])
            pq.write_table(t, self._spill_path(c))
            self.spilled[c] = self.spilled.get(c, 0) + int(self._live[c])
        n_out = int(self._live[spill].sum())
        self._live[spill] = 0
        self._queued -= n_out
        self.n_spilled_total += n_out

    def _read_spill(self, code: int) -> pa.Table:
        """Host ``code``'s spilled rows. A file cut short or replaced raises
        (not an assert: ``python -O`` strips those) instead of silently
        dropping or adding rows."""
        path = self._spill_path(code)
        t = pq.read_table(path)
        if len(t) != self.spilled[code]:
            raise RuntimeError(
                f"frontier shard {self.shard_id}: spill file {path} of host "
                f"{self._hosts[code].as_py()!r} holds {len(t)} rows, "
                f"expected {self.spilled[code]}")
        return t

    def _unspill_ready(self, wave_idx: int) -> None:
        c = np.array(sorted(self.spilled), dtype=np.int64)
        for code in c[self._ready_at(c, self._delays(c)) <= wave_idx].tolist():
            t = self._read_spill(code)
            os.remove(self._spill_path(code))
            del self.spilled[code]
            self._add(t, np.full(len(t), code))

    def _drop_spill_files(self) -> None:
        for code in self.spilled:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._spill_path(code))
        self.spilled = {}

    def update_sessions(self, hosts: list[str], tokens: list[int]) -> None:
        """F6: overwrite each host's session token with this wave's value
        (CrawlShard.end_wave reduced it to the max-seq response per host;
        wave order means a later wave always wins, like a rotating
        Set-Cookie)."""
        c = self._codes(hosts)   # may grow the per-host arrays: first
        self._session[c] = np.asarray(tokens, dtype=np.uint64)

    def get_sessions(self) -> dict[str, int]:
        return self.sessions

    def update_throttle(self, hosts: list[str], latencies: list[float]) -> None:
        """F4 AutoThrottle ([S:scrapy/extensions/throttle.py] smoothing over
        the deterministic virtual latency — see config.py): one update per
        host per wave with that wave's mean response latency (one entry per
        host, as CrawlShard.end_wave reduces them)."""
        cfg, c = self.cfg, self._codes(hosts)
        prev = np.where(np.isnan(self._at[c]), cfg.at_start_delay, self._at[c])
        new = (prev + np.asarray(latencies, dtype=np.float64) / cfg.at_target_concurrency) / 2.0
        self._at[c] = np.minimum(np.maximum(new, cfg.download_delay), cfg.at_max_delay)

    def push(self, rows: pa.Table) -> int:
        """Enqueue FRONTIER rows; robots-denied rows are dropped here (they
        are already in the URL-seen set, matching the reference where the
        dupefilter runs at schedule time and robots gating at download time).

        The rows wait as one pending block until the next drain sorts them
        into a run. Only rows of hosts with Disallow rules reach the
        per-path robots match. A ``session`` column (a wave tail requeued
        by ``ShardedFrontier.merge_wave``) is dropped: the row takes its
        host's token again when it is emitted."""
        rows = rows.select(schemas.FRONTIER.names)
        if self.cfg.obey_robots and len(self._deny):
            gated = np.flatnonzero(pc.is_in(rows["host"], value_set=self._deny).to_numpy())
            sub = rows.take(gated)
            denied = [i for i, h, u in zip(gated.tolist(), sub["host"].to_pylist(),
                                           sub["url"].to_pylist())
                      if not self.robots[h].is_allowed(_path_of(u))]
            if denied:
                self.n_robots_denied += len(denied)
                rows = rows.take(np.setdiff1d(np.arange(len(rows)), denied))
        if len(rows) == 0:
            return 0
        self._add(rows, self._codes(rows["host"]))
        self.n_pushed += len(rows)
        self._maybe_spill()
        return len(rows)

    def _add(self, rows: pa.Table, codes: np.ndarray) -> None:
        self._pending.append((rows, np.arange(len(rows)), codes,
                              -rows["priority"].to_numpy().astype(np.int64),
                              rows["seq"].to_numpy()))
        self._live += np.bincount(codes, minlength=len(self._live))
        self._queued += len(rows)

    def _flush(self) -> None:
        """Sort the pending pushes into one run, merged with the newest runs
        while the new run holds at least half of the next one's live rows,
        so a partition keeps O(log rows) runs; one take."""
        if not self._pending:
            return
        pieces, self._pending = self._pending, []
        n = sum(len(p[1]) for p in pieces)
        while self._runs and 2 * n >= self._runs[-1].live:
            pieces.append(self._runs[-1].live_piece())
            n += self._runs.pop().live
        self._runs.append(_Run(*_gather(pieces)))

    def next_wave(self, wave_idx: int) -> pa.Table:
        """Emit this wave's politeness-budgeted batch from every eligible
        host, sorted by (priority desc, seq). Each run offers the first
        ``cap`` live rows of every ready host; one lexsort ranks the offers
        within each host and the first ``cap`` are taken."""
        cfg = self.cfg
        if self.spilled:
            self._unspill_ready(wave_idx)
        self._flush()
        c = np.flatnonzero(self._live)
        d = self._delays(c)
        ready = self._ready_at(c, d) <= wave_idx
        c, caps = c[ready], np.where(d[ready] > 0, 1, cfg.per_domain_cap)
        offers = [(r, *r.offer(c, caps)) for r in self._runs]
        offers = [o for o in offers if len(o[3])]
        if len(offers) > 1:   # rank each host's offers across runs
            code = np.concatenate([np.repeat(r.codes[g], n) for r, g, n, _ in offers])
            negpri = np.concatenate([r.negpri[i] for r, _, _, i in offers])
            seq = np.concatenate([r.seq[i] for r, _, _, i in offers])
            o = np.lexsort((seq, negpri, code))
            rank = np.arange(len(o)) - np.searchsorted(code[o], code[o])
            keep = np.empty(len(o), dtype=bool)
            keep[o] = rank < caps[np.searchsorted(c, code[o])]
            lo = 0
            for k, (r, g, n, i) in enumerate(offers):
                m = keep[lo:lo + len(i)]
                lo += len(i)
                gi = np.repeat(np.arange(len(g)), n)[m]
                offers[k] = (r, g, np.bincount(gi, minlength=len(g)), i[m])
        pieces = [r.piece(g, n, i) for r, g, n, i in offers]
        for r, g, n, _ in offers:
            r.consume(g, n)
        self._runs = [r.compacted() for r in self._runs if r.live]
        self._last[c] = wave_idx
        out, code, _, _ = _gather(pieces, by_code=False)
        self._live -= np.bincount(code, minlength=len(self._live))
        self._queued -= len(code)
        if cfg.cookies:
            # F6: every request carries its host's current session token
            # (0 = no session yet) — the Cookie header analogue; an empty
            # emission gets the column too, so shard emissions concat
            out = out.append_column("session", pa.array(self._session[code], pa.uint64()))
        return out

    def size(self) -> int:
        return self._queued + sum(self.spilled.values())

    def earliest_ready_wave(self) -> int | None:
        """Smallest wave index at which any queued host may emit (None=empty)."""
        c = np.union1d(np.flatnonzero(self._live), list(self.spilled)).astype(np.int64)
        return int(self._ready_at(c, self._delays(c)).min()) if len(c) else None

    def stats(self) -> dict:
        return {"shard": self.shard_id, "queued": self.size(),
                "mem_rows": self._queued,
                "spilled_rows": sum(self.spilled.values()),
                "spilled_rows_total": self.n_spilled_total,
                "spilled_hosts": len(self.spilled),
                "hosts": int(np.count_nonzero(self._live)),
                "robots_denied": self.n_robots_denied, "pushed": self.n_pushed}

    def reset(self) -> None:
        """Back to construction state (driver-coordinated recovery when no
        committed checkpoint exists); robots rules are construction args and
        survive actor restart, so they stay."""
        self._drop_spill_files()
        self._clear()

    # --- checkpoint (SURVEY §4.2): queue rows + politeness clocks ---
    def checkpoint(self, dirpath: str) -> None:
        os.makedirs(dirpath, exist_ok=True)
        pieces = [r.live_piece() for r in self._runs] + self._pending
        t = pa.concat_tables(
            [_gather(pieces)[0]]
            # disk-resident rows are frontier state too
            + [self._read_spill(c) for c in self.spilled])
        tmp = os.path.join(dirpath, f"frontier_{self.shard_id}.tmp")
        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(dirpath, f"frontier_{self.shard_id}.parquet"))
        jtmp = os.path.join(dirpath, f"clock_{self.shard_id}.tmp")
        with open(jtmp, "w") as fh:
            json.dump({"last_emit_wave": self.last_emit_wave,
                       "at_delay": self.at_delay,
                       "sessions": self.sessions,
                       "n_robots_denied": self.n_robots_denied,
                       "n_pushed": self.n_pushed,
                       "n_spilled_total": self.n_spilled_total}, fh)
        os.replace(jtmp, os.path.join(dirpath, f"clock_{self.shard_id}.json"))

    def restore(self, dirpath: str) -> None:
        t = pq.read_table(os.path.join(dirpath, f"frontier_{self.shard_id}.parquet"))
        with open(os.path.join(dirpath, f"clock_{self.shard_id}.json")) as fh:
            d = json.load(fh)
        self.reset()
        for key, name in (("last_emit_wave", "_last"), ("at_delay", "_at"),
                          ("sessions", "_session")):
            vals = d.get(key, {})
            c = self._codes(list(vals))
            getattr(self, name)[c] = list(vals.values())
        self.n_robots_denied = d["n_robots_denied"]
        self.n_pushed = d["n_pushed"]
        if len(t):
            t = t.select(schemas.FRONTIER.names)
            self._add(t, self._codes(t["host"]))
        self._maybe_spill()   # re-bound memory immediately after restore
        # the writer's lifetime count (0 in checkpoints older than the key);
        # the re-spill above only re-bounds restored rows
        self.n_spilled_total = d.get("n_spilled_total", 0)


class ShardedFrontier:
    """Driver-side routing view over the frontier partitions of a ShardPool
    (state/shard.py): partition ``host_shard == i`` lives in ``shards[i]``."""

    def __init__(self, pool):
        self._pool = pool
        self.cfg = pool.cfg
        self.n_shards = pool.cfg.n_frontier_shards
        self.shards = [pool.actors[i % len(pool.actors)] for i in range(self.n_shards)]

    def push(self, rows: pa.Table) -> int:
        """Route rows to their host's shard and wait for every push; returns
        the number of rows the shards accepted."""
        return sum(self._pool.call("frontier", "push", {
            s: (part,) for s, part in self._route(rows).items()}).values())

    def sessions(self) -> dict[str, int]:
        """Merged host -> session-token map (disjoint by host partitioning)."""
        out: dict[str, int] = {}
        for d in self._pool.call("frontier", "get_sessions").values():
            out.update(d)
        return out

    def _route(self, t: pa.Table | None) -> dict[int, pa.Buffer]:
        """Per frontier partition, the IPC slice of the rows of ``t``
        (FRONTIER or HOSTS) whose host it owns; partitions without rows are
        left out."""
        if t is None or not len(t):
            return {}
        shard = host_shard(t["host"], self.n_shards)
        return {s: schemas.to_ipc(t.take(pa.array(np.flatnonzero(shard == s))))
                for s in np.unique(shard).tolist()}

    def end_wave_async(self, rows: pa.Table | None, hosts: pa.Table | None,
                       ckpt_dir: str | None, next_wave_idx: int | None) -> list:
        """Submit the merged end-of-wave RPC (CrawlShard.end_wave) — ONE
        submission per actor carrying, for each partition it hosts, that
        partition's slices of the new rows and of the wave's per-host
        feedback (``hosts``, schemas.HOSTS) + the optional checkpoint/drain
        requests. A checkpoint request goes to EVERY partition index of the
        pool, URL-seen-only ones included (they get no rows and drain
        nothing), a drain request to every frontier partition; otherwise
        only partitions with a payload are sent, and actors hosting none of
        them get no RPC.
        Returns futures for ``ShardPool.gather``, which gives each drained
        partition's next-wave part (an IPC buffer, see merge_wave).

        Errors surface when the futures are read: on a checkpoint wave
        before the commit, otherwise when the next wave consumes the
        prefetch; ``CrawlEngine.run_wave`` then notes the wave whose
        end_wave raised. Recovery rolls every shard back to the last
        committed checkpoint either way."""
        rows, hosts = self._route(rows), self._route(hosts)
        if ckpt_dir is not None:
            targets = range(self._pool.n_parts)
        elif next_wave_idx is not None:
            targets = range(self.n_shards)
        else:
            targets = sorted(rows.keys() | hosts.keys())
        return self._pool.fan("end_wave", {i: (rows.get(i), hosts.get(i)) for i in targets},
                              ckpt_dir, next_wave_idx, wait=False)

    def merge_wave(self, parts: dict[int, pa.Buffer]) -> pa.Table:
        """Merge the partitions' drained parts (IPC buffers by partition)
        into the wave: sort by (priority desc, seq asc), then apply
        max_wave_urls."""
        t = pa.concat_tables([schemas.from_ipc(p) for p in parts.values()])
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
        return self.merge_wave(self._pool.call("frontier", "next_wave", dict.fromkeys(
            range(self.n_shards), (wave_idx,))))

    def earliest_ready_wave(self) -> int | None:
        vals = [v for v in self._pool.call("frontier", "earliest_ready_wave").values()
                if v is not None]
        return min(vals) if vals else None

    def stats(self) -> list[dict]:
        return list(self._pool.call("frontier", "stats").values())
