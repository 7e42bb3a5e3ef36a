"""Numpy-backed Bloom filter segment (SURVEY.md §2.3 F1).

The membership structure of a Bloom-only URL-seen shard
(``CrawlConfig.exact_urlseen=False``; an exact shard holds none). Input keys
are already 64-bit url_hashes (functions/hashing.py); the k probe positions
come from double hashing h_i = h1 + i*h2 (Kirsch–Mitzenmacher), all
vectorized in numpy.

Memory math at the design point [B:north_rule]: 10^10 URLs at 10 bits/key
= 12.5 GB of bits total -> 64 shards × ~200 MB, which is why the filter is
sharded and checkpointed per shard.
"""

from __future__ import annotations

import math

import numpy as np

_MIX = np.uint64(0x9E3779B97F4A7C15)
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


class BloomFilter:
    def __init__(self, capacity: int, bits_per_key: int = 10):
        self.capacity = int(capacity)
        self.bits_per_key = int(bits_per_key)
        m = max(64, capacity * bits_per_key)
        self.m = int(m)
        self.k = max(1, round(bits_per_key * math.log(2)))
        self.words = np.zeros((self.m + 63) // 64, dtype=np.uint64)
        self.n_added = 0

    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        """(n, k) bit positions via double hashing."""
        h1 = hashes.astype(np.uint64, copy=False)
        h2 = (h1 ^ (h1 >> np.uint64(33))) * _MIX | np.uint64(1)
        i = np.arange(self.k, dtype=np.uint64)[None, :]
        return (h1[:, None] + i * h2[:, None]) % np.uint64(self.m)

    def add_many(self, hashes: np.ndarray) -> None:
        if len(hashes) == 0:
            return
        pos = self._positions(hashes).ravel()
        np.bitwise_or.at(self.words, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))
        self.n_added += len(hashes)

    def contains_many(self, hashes: np.ndarray) -> np.ndarray:
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(hashes)
        bits = (self.words[(pos >> np.uint64(6)).astype(np.int64)]
                >> (pos & np.uint64(63))) & np.uint64(1)
        return bits.all(axis=1)

    def fill_ratio(self) -> float:
        """Fraction of set bits — drives the approximate distinct-URL estimate
        at scale (SURVEY §2.5 A3): n ≈ -m/k * ln(1 - fill)."""
        return int(_POPCOUNT[self.words.view(np.uint8)].sum()) / self.m

    # --- checkpoint (SURVEY §4.2) ---
    def to_bytes(self) -> bytes:
        head = np.array([self.capacity, self.bits_per_key, self.n_added], dtype=np.int64)
        return head.tobytes() + self.words.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BloomFilter":
        cap, bpk, n = np.frombuffer(raw[:24], dtype=np.int64)
        bf = cls(int(cap), int(bpk))
        bf.words = np.frombuffer(raw[24:], dtype=np.uint64).copy()
        bf.n_added = int(n)
        return bf
