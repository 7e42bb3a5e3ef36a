"""Partitioned URL-seen filter = the distributed dupefilter (SURVEY.md §2.3 F1,
§2.4 J4, §2.7 D1/D2).

The reference keeps one in-process set of request fingerprints
([S:scrapy/dupefilters.py RFPDupeFilter]); that cannot hold 10^10 URLs in one
heap, so here it is partitioned by ``url_hash % n_filter_shards``; partition
*i* lives in CrawlShard actor *i* (state/shard.py), which owns the epoch
guard, the actor options and the checkpoint fan-out. Each partition holds:

- a **Bloom segment** (state/bloom.py) — the memory-bounded scale path;
- an **exact set** (hash -> url) — authoritative at test scale, provides the
  byte-exact final URL-seen set the goldens compare [B:north_rule], and
  doubles as the Bloom's false-positive backstop while it fits.

``check_and_add`` is a batched RPC: the candidate anti-join is one message per
partition per wave, not one per URL. First occurrence within a batch wins (the
batch arrives in canonical (parent_seq, link_idx) order, so "first" is
deterministic).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from scrapy_ray import schemas
from scrapy_ray.state.bloom import BloomFilter


class UrlSeenShard:
    """One partition of the URL-seen filter: plain partition state, held by
    a CrawlShard actor (keeps it unit-testable without Ray)."""

    def __init__(self, shard_id: int, capacity: int = 1_000_000, bits_per_key: int = 10,
                 exact: bool = True):
        self.shard_id = shard_id
        self.bloom = BloomFilter(capacity, bits_per_key)
        # Exact store is columnar (round 2): sorted uint64 hash segments with
        # aligned url arrays, LSM-style (append a segment per batch, merge
        # when the segment count grows). Membership = vectorized
        # searchsorted per segment — no per-row python dict ops.
        self.exact = exact
        self._segs: list[np.ndarray] = []
        self._seg_urls: list[np.ndarray] = []
        self.n_seen = 0
        self.n_filtered = 0

    def check_and_add(self, hashes: np.ndarray, urls: list[str] | None) -> np.ndarray:
        """Returns a bool mask: True = first sighting (keep). Adds as it goes,
        so duplicates *within* the batch are filtered too. Fully vectorized:
        within-batch dedup via np.unique(first index), cross-batch via
        searchsorted against each sorted segment."""
        n = len(hashes)
        hashes = np.asarray(hashes, dtype=np.uint64)
        if urls is not None and not isinstance(urls, np.ndarray):
            # arrow Array arrives from the client (fast serialization path)
            urls = np.asarray(urls.to_pylist() if hasattr(urls, "to_pylist")
                              else urls, dtype=object)
        uniq, first_idx = np.unique(hashes, return_index=True)
        fresh = np.ones(len(uniq), dtype=bool)
        if self.exact:
            for seg in self._segs:
                if not fresh.any():
                    break
                pos = np.minimum(np.searchsorted(seg, uniq), len(seg) - 1)
                fresh &= seg[pos] != uniq
        else:
            # Bloom-only path (memory-bounded scale mode)
            fresh &= ~self.bloom.contains_many(uniq)
        out = np.zeros(n, dtype=bool)
        out[first_idx[fresh]] = True
        if self.exact and fresh.any():
            new_h = uniq[fresh]                       # already sorted
            if urls is not None:
                new_u = urls[first_idx[fresh]]
            else:
                new_u = np.full(len(new_h), "", dtype=object)
            self._segs.append(new_h)
            self._seg_urls.append(new_u)
            if len(self._segs) > 16:
                self._merge_segs()
        self.bloom.add_many(hashes[out])
        self.n_seen += int(out.sum())
        self.n_filtered += n - int(out.sum())
        return out

    def _merge_segs(self) -> None:
        h = np.concatenate(self._segs)
        u = np.concatenate(self._seg_urls)
        o = np.argsort(h, kind="stable")
        self._segs = [h[o]]
        self._seg_urls = [u[o]]

    def seen_table(self) -> pa.Table:
        """(url_hash, url) of everything seen — the golden URL-seen set."""
        if not self.exact:
            raise RuntimeError("exact set disabled on this shard")
        if not self._segs:
            return pa.table({"url_hash": pa.array([], type=pa.uint64()),
                             "url": pa.array([], type=pa.string())})
        return pa.table({"url_hash": pa.array(np.concatenate(self._segs), type=pa.uint64()),
                         "url": pa.array(np.concatenate(self._seg_urls), type=pa.string())})

    def stats(self) -> dict:
        return {"shard": self.shard_id, "n_seen": self.n_seen, "n_filtered": self.n_filtered,
                "bloom_fill": self.bloom.fill_ratio()}

    def reset(self) -> None:
        """Back to construction state (driver-coordinated recovery when no
        committed checkpoint exists)."""
        self.bloom = BloomFilter(self.bloom.capacity, self.bloom.bits_per_key)
        self._segs = []
        self._seg_urls = []
        self.n_seen = 0
        self.n_filtered = 0

    # --- checkpoint (SURVEY §4.2): atomic per-shard segment. In Bloom-only
    # mode (exact=False, the 10^10-URL memory-bounded path) only the Bloom
    # segment + counters are persisted — there is no exact table to write,
    # and restore must NOT resurrect an exact store on such a shard.
    def checkpoint(self, dirpath: str) -> None:
        import json

        os.makedirs(dirpath, exist_ok=True)
        if self.exact:
            tmp = os.path.join(dirpath, f"urlseen_{self.shard_id}.tmp")
            final = os.path.join(dirpath, f"urlseen_{self.shard_id}.parquet")
            pq.write_table(self.seen_table(), tmp)
            os.replace(tmp, final)
        btmp = os.path.join(dirpath, f"bloom_{self.shard_id}.tmp")
        with open(btmp, "wb") as fh:
            fh.write(self.bloom.to_bytes())
        os.replace(btmp, os.path.join(dirpath, f"bloom_{self.shard_id}.bin"))
        mtmp = os.path.join(dirpath, f"urlseen_meta_{self.shard_id}.tmp")
        with open(mtmp, "w") as fh:
            json.dump({"n_seen": self.n_seen, "n_filtered": self.n_filtered}, fh)
        os.replace(mtmp, os.path.join(dirpath, f"urlseen_meta_{self.shard_id}.json"))

    def restore(self, dirpath: str) -> None:
        import json

        if self.exact:
            t = pq.read_table(os.path.join(dirpath, f"urlseen_{self.shard_id}.parquet"))
            h = t["url_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
            u = np.asarray(t["url"].to_pylist(), dtype=object)
            o = np.argsort(h, kind="stable")
            self._segs = [h[o]] if len(h) else []
            self._seg_urls = [u[o]] if len(h) else []
        with open(os.path.join(dirpath, f"bloom_{self.shard_id}.bin"), "rb") as fh:
            self.bloom = BloomFilter.from_bytes(fh.read())
        meta_p = os.path.join(dirpath, f"urlseen_meta_{self.shard_id}.json")
        if os.path.exists(meta_p):
            with open(meta_p) as fh:
                m = json.load(fh)
            self.n_seen, self.n_filtered = m["n_seen"], m["n_filtered"]
        else:
            self.n_seen = int(sum(len(s) for s in self._segs))


class ShardedUrlSeen:
    """Driver-side routing view over the URL-seen partitions of a ShardPool
    (state/shard.py): actor *i* holds partition ``url_hash % n_shards == i``."""

    def __init__(self, pool):
        self._pool = pool
        self.n_shards = pool.cfg.n_filter_shards
        self.shards = pool.actors[:self.n_shards]

    def check_mask(self, hashes: np.ndarray, urls_arr: pa.Array) -> np.ndarray:
        """Core anti-join: ONE batched RPC fan for an arbitrary candidate
        array, returning the keep-mask (True = never seen, now marked).
        First occurrence within the batch wins, so the caller may CONCAT
        independently-ordered candidate groups (links then redirect
        targets) into a single round-trip and get byte-identical results to
        filtering them sequentially."""
        n = len(hashes)
        mask = np.zeros(n, dtype=bool)
        if n == 0:
            return mask
        shard_of = (hashes % np.uint64(self.n_shards)).astype(np.int64)
        futs, idxs = [], []
        for s in range(self.n_shards):
            idx = np.nonzero(shard_of == s)[0]
            if len(idx) == 0:
                continue
            futs.append(self.shards[s].call.remote(
                "urlseen", "check_and_add", hashes[idx],
                urls_arr.take(pa.array(idx, type=pa.int64())), epoch=self._pool.epoch))
            idxs.append(idx)
        for idx, res in zip(idxs, ray.get(futs)):
            mask[idx] = res
        return mask

    def filter_new(self, links: pa.Table) -> pa.Table:
        """Anti-join the candidate (url, url_hash) rows against all shards
        (batched, parallel); preserves input order."""
        if len(links) == 0:
            return links
        return links.filter(pa.array(self.check_mask(
            links["url_hash"].to_numpy(zero_copy_only=False),
            links["url"].combine_chunks())))

    def seen_table(self) -> pa.Table:
        return pa.concat_tables([schemas.from_ipc(t) for t in ray.get([
            s.call.remote("urlseen", "seen_table", epoch=self._pool.epoch)
            for s in self.shards])])

    def stats(self) -> list[dict]:
        return [st["urlseen"] for st in
                ray.get([s.stats.remote(epoch=self._pool.epoch) for s in self.shards])]
