"""Partitioned URL-seen filter = the distributed dupefilter (SURVEY.md §2.3 F1,
§2.4 J4, §2.7 D1/D2).

The reference keeps one in-process set of request fingerprints
([S:scrapy/dupefilters.py RFPDupeFilter]); that cannot hold 10^10 URLs in one
heap, so here it is partitioned by ``url_hash % n_filter_shards``; partition
*i* lives in a CrawlShard actor of the pool (state/shard.py), which owns
the epoch guard, the actor options and the one fan-out. Each partition
holds ONE membership structure, chosen by ``CrawlConfig.exact_urlseen``:

- exact (the default): sorted uint64 hash segments with their urls as Arrow
  string arrays — the byte-exact URL-seen set the goldens compare
  [B:north_rule];
- Bloom-only: a Bloom filter (state/bloom.py) and no urls — the
  memory-bounded path to 10^10 URLs, which silently drops the ~0.8% of new
  URLs that are false positives at 10 bits per key.

``check_and_add`` is batched: the candidate anti-join is one message per
actor per wave, carrying each hosted partition's slice, not one per URL.
First occurrence within a batch wins (the batch arrives in canonical
(parent_seq, link_idx) order, so "first" is deterministic).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from scrapy_ray import schemas
from scrapy_ray.state.bloom import BloomFilter


class UrlSeenShard:
    """One partition of the URL-seen filter: plain partition state, held by
    a CrawlShard actor (keeps it unit-testable without Ray)."""

    def __init__(self, shard_id: int, capacity: int = 1_000_000, bits_per_key: int = 10,
                 exact: bool = True):
        self.shard_id = shard_id
        self.exact = exact
        self._bloom_size = (capacity, bits_per_key)
        self.reset()

    def reset(self) -> None:
        """Back to construction state (driver-coordinated recovery when no
        committed checkpoint exists)."""
        if self.exact:
            # LSM-style: one sorted hash segment per batch with its urls
            # aligned, merged when the segment count grows. Membership =
            # vectorized searchsorted per segment.
            self._segs: list[np.ndarray] = []
            self._seg_urls: list[pa.Array] = []
        else:
            self.bloom = BloomFilter(*self._bloom_size)
        self.n_seen = 0
        self.n_filtered = 0

    def check_and_add(self, hashes: np.ndarray, urls: pa.Array | None) -> np.ndarray:
        """Returns a bool mask: True = first sighting (keep). Adds as it goes,
        so duplicates *within* the batch are filtered too: within-batch dedup
        via np.unique (first index), cross-batch against the mode's one
        structure. ``urls`` (aligned with ``hashes``) is needed in exact mode
        only."""
        n = len(hashes)
        hashes = np.asarray(hashes, dtype=np.uint64)
        uniq, first_idx = np.unique(hashes, return_index=True)
        if self.exact:
            fresh = np.ones(len(uniq), dtype=bool)
            for seg in self._segs:
                if not fresh.any():
                    break
                pos = np.minimum(np.searchsorted(seg, uniq), len(seg) - 1)
                fresh &= seg[pos] != uniq
            if fresh.any():
                self._segs.append(uniq[fresh])    # already sorted
                self._seg_urls.append(urls.take(first_idx[fresh]))
                if len(self._segs) > 16:
                    self._merge_segs()
        else:
            fresh = ~self.bloom.contains_many(uniq)
            self.bloom.add_many(uniq[fresh])
        out = np.zeros(n, dtype=bool)
        out[first_idx[fresh]] = True
        n_new = int(fresh.sum())
        self.n_seen += n_new
        self.n_filtered += n - n_new
        return out

    def _merge_segs(self) -> None:
        h = np.concatenate(self._segs)
        o = np.argsort(h, kind="stable")
        self._segs = [h[o]]
        self._seg_urls = [pa.concat_arrays(self._seg_urls).take(o)]

    def seen_table(self) -> pa.Table:
        """(url_hash, url) of everything seen — the golden URL-seen set."""
        if not self.exact:
            raise RuntimeError("exact set disabled on this shard")
        return pa.table({
            "url_hash": pa.array(np.concatenate([np.empty(0, np.uint64), *self._segs])),
            "url": pa.chunked_array(self._seg_urls, type=pa.string())})

    def stats(self) -> dict:
        st = {"shard": self.shard_id, "n_seen": self.n_seen, "n_filtered": self.n_filtered}
        if not self.exact:
            # a new url is dropped as a false positive with probability
            # fill^k: past bloom_capacity this exceeds what
            # bloom_bits_per_key promised
            st["bloom_fill"] = fill = self.bloom.fill_ratio()
            st["bloom_fp_est"] = fill ** self.bloom.k
        return st

    # --- checkpoint (SURVEY §4.2): atomic per-shard segment of the mode's
    # one structure (urlseen_<i>.parquet, or bloom_<i>.bin in Bloom-only
    # mode) plus the counters. urlseen_<i>.parquet marks an exact-mode
    # checkpoint (older ones also hold a bloom_<i>.bin, which exact mode
    # ignores); restore refuses a checkpoint of the other mode.
    def _store_name(self) -> str:
        return (f"urlseen_{self.shard_id}.parquet" if self.exact
                else f"bloom_{self.shard_id}.bin")

    def checkpoint(self, dirpath: str) -> None:
        import json

        os.makedirs(dirpath, exist_ok=True)
        tmp = os.path.join(dirpath, f"urlseen_{self.shard_id}.tmp")
        if self.exact:
            pq.write_table(self.seen_table(), tmp)
        else:
            with open(tmp, "wb") as fh:
                fh.write(self.bloom.to_bytes())
        os.replace(tmp, os.path.join(dirpath, self._store_name()))
        mtmp = os.path.join(dirpath, f"urlseen_meta_{self.shard_id}.tmp")
        with open(mtmp, "w") as fh:
            json.dump({"n_seen": self.n_seen, "n_filtered": self.n_filtered}, fh)
        os.replace(mtmp, os.path.join(dirpath, f"urlseen_meta_{self.shard_id}.json"))

    def restore(self, dirpath: str) -> None:
        import json

        table = f"urlseen_{self.shard_id}.parquet"
        if os.path.exists(os.path.join(dirpath, table)) != self.exact:
            raise ValueError(
                f"URL-seen shard {self.shard_id}: checkpoint {dirpath} "
                f"{'has no' if self.exact else 'has'} {table}, so it was written "
                f"with CrawlConfig.exact_urlseen={not self.exact}; this shard "
                f"restores only its own mode's {self._store_name()}")
        path = os.path.join(dirpath, self._store_name())
        self.reset()
        if self.exact:   # the saved set re-enters as one sorted segment
            t = pq.read_table(path)
            self.check_and_add(t["url_hash"].to_numpy(), t["url"].combine_chunks())
        else:
            with open(path, "rb") as fh:
                self.bloom = BloomFilter.from_bytes(fh.read())
        with open(os.path.join(dirpath, f"urlseen_meta_{self.shard_id}.json")) as fh:
            m = json.load(fh)
        self.n_seen, self.n_filtered = m["n_seen"], m["n_filtered"]


class ShardedUrlSeen:
    """Driver-side routing view over the URL-seen partitions of a ShardPool
    (state/shard.py): partition ``url_hash % n_shards == i`` lives in
    ``shards[i]``."""

    def __init__(self, pool):
        self._pool = pool
        self.n_shards = pool.cfg.n_filter_shards
        self.shards = [pool.actors[i % len(pool.actors)] for i in range(self.n_shards)]

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
        exact = self._pool.cfg.exact_urlseen   # a Bloom shard takes no urls
        idxs = {s: idx for s in range(self.n_shards)
                if len(idx := np.nonzero(shard_of == s)[0])}
        for s, res in self._pool.call("urlseen", "check_and_add", {
                s: (hashes[idx], urls_arr.take(idx) if exact else None)
                for s, idx in idxs.items()}).items():
            mask[idxs[s]] = res
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
        return pa.concat_tables([schemas.from_ipc(t) for t
                                 in self._pool.call("urlseen", "seen_table").values()])

    def stats(self) -> list[dict]:
        return list(self._pool.call("urlseen", "stats").values())
