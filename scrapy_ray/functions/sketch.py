"""Similarity-sketch kernels for the training-data dedup suite (SURVEY.md
§2.7 D5 extension point, driver round-1 mandate): MinHash, SimHash, banding.

All vectorized numpy over 64-bit token hashes (functions/hashing.hash64);
deterministic (fixed permutation seeds), mergeable, and unit-tested against
brute-force definitions in tests/test_training.py and tests/test_kernels.py.
The batch kernels take every document's hashes as one flat array plus
per-document lengths, so a batch costs a few numpy calls, not a loop.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence

import numpy as np

from scrapy_ray.functions.hashing import hash64

_MERSENNE = np.uint64((1 << 61) - 1)
_SEED = 1234567
# Cap on the elements of one flat-kernel temporary ((n_perm, tokens) for
# MinHash, (tokens, 64) bits for SimHash): longer inputs are cut at page
# boundaries into chunks of at most this size (a larger single page goes alone).
_CHUNK_ELEMS = 1 << 22


@functools.lru_cache(maxsize=None)
def _perms(n_perm: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(_SEED)
    a = rng.integers(1, 1 << 61, size=n_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, 1 << 61, size=n_perm, dtype=np.uint64)
    a.flags.writeable = False       # shared by every caller through the cache
    b.flags.writeable = False
    return a, b


def minhash_signature(token_hashes: np.ndarray, n_perm: int = 64) -> np.ndarray:
    """(t,) uint64 token hashes -> (n_perm,) uint64 MinHash signature.

    h_i = min over tokens of (a_i * h + b_i) mod (2^61 - 1) — the classic
    universal-hash permutation family (Broder '97). The one-document
    definition; the batch kernels are ``minhash_flat``/``minhash_many``."""
    a, b = _perms(n_perm)
    h = token_hashes.astype(np.uint64) & _MERSENNE
    # (n_perm, t): cheap at doc scale; modular mul in uint64 with M61 wraps ok
    vals = (a[:, None] * h[None, :] + b[:, None]) % _MERSENNE
    return vals.min(axis=1)


def _segments(h: np.ndarray, lengths: Sequence[int], width: int
              ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Walk flat token hashes page by page: page i owns the next
    ``lengths[i]`` entries of ``h``. Yields ``(pages, tokens, starts, counts)``
    per chunk: the indices of the chunk's non-empty pages, the chunk's
    tokens, each non-empty page's start within them (``reduceat`` indices —
    empty pages are left out, since ``reduceat`` gives a zero-length segment
    the next element instead of an identity) and its token count."""
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    h = np.asarray(h).astype(np.uint64, copy=False)
    cap = max(1, _CHUNK_ELEMS // width)
    p0, n = 0, len(lengths)
    while p0 < n:
        p1 = int(np.searchsorted(offsets, offsets[p0] + cap, side="right")) - 1
        p1 = max(p1, p0 + 1)
        pages = np.flatnonzero(lengths[p0:p1]) + p0
        if len(pages):
            t0 = offsets[p0]
            yield pages, h[t0:offsets[p1]], offsets[pages] - t0, lengths[pages]
        p0 = p1


def minhash_flat(h: np.ndarray, lengths: Sequence[int], n_perm: int = 64) -> np.ndarray:
    """Flat token hashes of n pages (page i owns the next ``lengths[i]``)
    -> (n, n_perm) MinHash signatures; an empty page keeps ``_MERSENNE``.
    One (n_perm, tokens) universal-hash evaluation, then a segmented min."""
    a, b = _perms(n_perm)
    out = np.full((len(lengths), n_perm), _MERSENNE, dtype=np.uint64)
    for pages, tok, starts, _ in _segments(h, lengths, n_perm):
        vals = a[:, None] * (tok & _MERSENNE)[None, :]
        vals += b[:, None]
        vals %= _MERSENNE
        out[pages] = np.minimum.reduceat(vals, starts, axis=1).T
    return out


def simhash_flat(h: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Flat token hashes of n pages -> (n,) uint64 Charikar SimHash
    fingerprints; an empty page gets 0. Bit j is set where more than half
    of the page's tokens have bit j set."""
    out = np.zeros(len(lengths), dtype=np.uint64)
    for pages, tok, starts, counts in _segments(h, lengths, 64):
        bits = np.unpackbits(np.ascontiguousarray(tok, dtype="<u8").view(np.uint8)
                             .reshape(-1, 8), axis=1, bitorder="little")
        ones = np.add.reduceat(bits, starts, axis=0, dtype=np.int32)
        fp = np.packbits(2 * ones > counts[:, None], axis=1, bitorder="little")
        out[pages] = fp.view("<u8").ravel()
    return out


def unique_per_page(h: np.ndarray, lengths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Flat token hashes -> the same pages' sorted unique hashes (what
    ``np.unique`` gives page by page) and their new lengths."""
    n = len(lengths)
    page = np.repeat(np.arange(n, dtype=np.int64), lengths)
    order = np.lexsort((h, page))
    h, page = h[order], page[order]
    keep = np.ones(len(h), dtype=bool)
    keep[1:] = (h[1:] != h[:-1]) | (page[1:] != page[:-1])
    return h[keep], np.bincount(page[keep], minlength=n).astype(np.int64)


def _flatten(token_sets: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.array([len(s) for s in token_sets], dtype=np.int64)
    if not len(token_sets):
        return np.empty(0, dtype=np.uint64), lengths
    return np.concatenate([np.asarray(s).astype(np.uint64, copy=False)
                           for s in token_sets]), lengths


def minhash_many(token_sets: list[np.ndarray], n_perm: int = 64) -> np.ndarray:
    """list of per-doc token-hash arrays -> (n_docs, n_perm) signatures."""
    return minhash_flat(*_flatten(token_sets), n_perm=n_perm)


def band_keys(signatures: np.ndarray, n_bands: int = 8) -> np.ndarray:
    """(n, n_perm) signatures -> (n, n_bands) uint64 band bucket keys.
    Docs sharing any band key are LSH candidates."""
    n, p = signatures.shape
    rows = p // n_bands
    sig = signatures[:, : n_bands * rows].reshape(n, n_bands, rows)
    mix = np.uint64(0x9E3779B97F4A7C15)
    key = np.zeros((n, n_bands), dtype=np.uint64)
    for r in range(rows):
        key = (key ^ sig[:, :, r]) * mix
        key ^= key >> np.uint64(29)
    return key


def simhash64(token_hashes: np.ndarray) -> int:
    """Charikar SimHash over 64-bit token hashes -> 64-bit fingerprint."""
    return int(simhash_flat(token_hashes, [len(token_hashes)])[0])


def simhash_many(token_sets: list[np.ndarray]) -> np.ndarray:
    return simhash_flat(*_flatten(token_sets))


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x).astype(np.int64)
    return np.array([bin(int(v)).count("1") for v in x], dtype=np.int64)


def token_hash_set(text: str) -> np.ndarray:
    """Whitespace tokens -> unique 64-bit hashes (the doc's 'shingle' set;
    unigram shingles fit the word-soup testdata — window-n shingles are a
    parameter away via tokens_to_shingles)."""
    toks = list(dict.fromkeys(text.split()))
    if not toks:
        return np.empty(0, dtype=np.uint64)
    return np.unique(hash64(toks))


def tokens_to_shingles(tokens: list[str], k: int = 3) -> list[str]:
    if len(tokens) < k:
        return [" ".join(tokens)] if tokens else []
    return [" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)]


def shingle_hash_set(text: str, k: int = 3) -> np.ndarray:
    """k-word shingles -> unique 64-bit hashes. Shingling (vs unigram sets)
    is what makes near-dup detection sequence-sensitive: bag-of-words-similar
    but differently-ordered documents stop colliding."""
    sh = tokens_to_shingles(text.split(), k)
    if not sh:
        return np.empty(0, dtype=np.uint64)
    return np.unique(hash64(sh))


# ---------------------------------------------------------------- HyperLogLog

class HLL:
    """Mergeable HyperLogLog sketch (Flajolet et al. '07) over 64-bit hashes
    — the approximate-distinct path for A3 (SURVEY §2.5) at 10^10 URLs where
    exact sets can't fit. p=12 -> 4096 registers, ~1.6% standard error,
    4 KB per sketch; merge = elementwise max (associative, so per-batch
    sketches combine in any order)."""

    P = 12
    M = 1 << P

    def __init__(self, registers: np.ndarray | None = None):
        self.reg = registers if registers is not None else np.zeros(self.M, dtype=np.uint8)

    def add_many(self, hashes: np.ndarray) -> "HLL":
        h = hashes.astype(np.uint64, copy=False)
        idx = (h >> np.uint64(64 - self.P)).astype(np.int64)
        rest = (h << np.uint64(self.P)) | np.uint64(1 << (self.P - 1))
        # rank = leading zeros of the remaining bits + 1, computed via log2
        f = rest.astype(np.float64)
        with np.errstate(divide="ignore"):
            lz = np.where(rest == 0, 64, 63 - np.floor(np.log2(np.where(f > 0, f, 1))))
        rank = (lz + 1).astype(np.uint8)
        np.maximum.at(self.reg, idx, rank)
        return self

    def merge(self, other: "HLL") -> "HLL":
        np.maximum(self.reg, other.reg, out=self.reg)
        return self

    def estimate(self) -> float:
        m = float(self.M)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(2.0 ** -self.reg.astype(np.float64))
        zeros = int((self.reg == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)          # small-range correction
        return float(est)

    def to_bytes(self) -> bytes:
        return self.reg.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "HLL":
        return cls(np.frombuffer(raw, dtype=np.uint8).copy())


class MisraGries:
    """Mergeable heavy-hitters summary (Misra-Gries / frequent; merge rule
    per Agarwal et al. 2012 "Mergeable Summaries"): at most ``k`` counters;
    every key with true frequency > n/(k+1) is guaranteed present, and each
    stored count underestimates truth by at most the accumulated decrement
    ``self.err`` (so truth is within [count, count + err]). The per-shard
    sketch is a tiny dict — the A2 hot-key detection path at 10^10 rows."""

    def __init__(self, k: int = 256):
        self.k = k
        self.counters: dict = {}
        self.err = 0            # total decrement applied (per-key error bound)

    def add_many(self, keys, counts=None) -> "MisraGries":
        import numpy as np
        uk, uc = (np.unique(np.asarray(keys), return_counts=True)
                  if counts is None else (np.asarray(keys), np.asarray(counts)))
        for key, c in zip(uk.tolist(), uc.tolist()):
            self.counters[key] = self.counters.get(key, 0) + int(c)
        self._shrink()
        return self

    def _shrink(self) -> None:
        if len(self.counters) <= self.k:
            return
        # subtract the (k+1)-th largest count from everyone, drop <=0
        vals = sorted(self.counters.values(), reverse=True)
        dec = vals[self.k]
        self.err += dec
        self.counters = {key: c - dec for key, c in self.counters.items() if c > dec}

    def merge(self, other: "MisraGries") -> "MisraGries":
        for key, c in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + c
        self.err += other.err
        self._shrink()
        return self

    def top(self, n: int) -> list[tuple]:
        return sorted(self.counters.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


class CountMin:
    """Mergeable Count-Min sketch (Cormode & Muthukrishnan 2005, "An
    improved data stream summary"): ``d`` rows x ``w`` counters;
    ``estimate(x) = min_j M[j, h_j(x)]`` NEVER undercounts, and overcounts
    by more than ``(e/w) * N`` with probability < e^-d under a pairwise-
    independent hash family. The rows here hash with fixed odd-constant
    multiply + xor-shift mixing (deterministic, no RNG) — the one-sided
    ``est >= truth`` guarantee holds for ANY hash; the additive bound is
    asserted empirically by the driver-visible query (skew.py).

    Per-sketch state is d*w int64 (64 KiB at 4x2048) — mergeable by
    element-wise add, the same partial/merge shape as HLL."""

    # splitmix64-derived odd constants, one per row
    _CS = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
           0xD6E8FEB86659FD93, 0xA5A5A5A5A5A5A5A5, 0xC2B2AE3D27D4EB4F)

    def __init__(self, w: int = 2048, d: int = 4):
        assert d <= len(self._CS)
        self.w, self.d = w, d
        self.M = np.zeros((d, w), dtype=np.int64)
        self.n = 0

    def _idx(self, keys: np.ndarray, j: int) -> np.ndarray:
        h = keys.astype(np.uint64) * np.uint64(self._CS[j])
        h ^= h >> np.uint64(33)
        h *= np.uint64(self._CS[(j + 1) % len(self._CS)])
        h ^= h >> np.uint64(29)
        return (h % np.uint64(self.w)).astype(np.int64)

    def add_many(self, keys, counts=None) -> "CountMin":
        keys = np.asarray(keys)
        c = np.ones(len(keys), dtype=np.int64) if counts is None \
            else np.asarray(counts, dtype=np.int64)
        for j in range(self.d):
            self.M[j] += np.bincount(self._idx(keys, j), weights=c,
                                     minlength=self.w).astype(np.int64)
        self.n += int(c.sum())
        return self

    def merge(self, other: "CountMin") -> "CountMin":
        assert (self.w, self.d) == (other.w, other.d)
        self.M += other.M
        self.n += other.n
        return self

    def estimate(self, keys) -> np.ndarray:
        keys = np.asarray(keys)
        est = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
        for j in range(self.d):
            est = np.minimum(est, self.M[j, self._idx(keys, j)])
        return est


class KLL:
    """Mergeable quantile sketch in the KLL compactor style (Karnin, Lang
    & Liberty 2016, "Optimal quantile approximation in streams"): a stack
    of levels, level ``i`` holding items of weight ``2^i``; a full level
    sorts and keeps alternate items, promoting them one level up. This
    implementation is DETERMINISTIC (repo hard rule: no unseeded RNG) —
    compaction keeps the parity that alternates per level per compaction
    instead of a random coin, trading the randomized guarantee for a
    bias-cancelling deterministic schedule; the rank-error bound is pinned
    EMPIRICALLY (driver-visible query + pytest) rather than claimed from
    the paper. State is O(k log(n/k)) int64s; merge = levelwise concat +
    recompaction, the same partial/merge shape as HLL/CountMin.

    Unlike the exact histogram-merge quantiles (queries3/queries5), KLL
    needs no bounded value domain — the 100 TB path for continuous
    features."""

    def __init__(self, k: int = 256):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, np.int64)]
        self._parity: list[int] = [0]
        self.n = 0

    def _cap(self, i: int) -> int:
        # geometrically decaying capacities, floor 8 (KLL's c^(H-i) shape)
        top = len(self.levels) - 1
        return max(8, int(self.k * (2 / 3) ** (top - i)))

    def _compact_all(self) -> None:
        i = 0
        while i < len(self.levels):
            lv = self.levels[i]
            if len(lv) <= self._cap(i):
                i += 1
                continue
            lv = np.sort(lv, kind="stable")
            keep = lv[self._parity[i]::2]
            self._parity[i] ^= 1
            if i + 1 == len(self.levels):
                self.levels.append(np.empty(0, np.int64))
                self._parity.append(0)
            self.levels[i] = np.empty(0, np.int64)
            self.levels[i + 1] = np.concatenate([self.levels[i + 1], keep])
            i += 1

    def add_many(self, xs) -> "KLL":
        xs = np.asarray(xs, dtype=np.int64)
        self.levels[0] = np.concatenate([self.levels[0], xs])
        self.n += len(xs)
        self._compact_all()
        return self

    def merge(self, other: "KLL") -> "KLL":
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, np.int64))
            self._parity.append(0)
        for i, lv in enumerate(other.levels):
            self.levels[i] = np.concatenate([self.levels[i], lv])
        self.n += other.n
        self._compact_all()
        return self

    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        vals = np.concatenate(self.levels) if self.n else np.empty(0, np.int64)
        wts = np.concatenate([np.full(len(lv), 1 << i, np.int64)
                              for i, lv in enumerate(self.levels)]) \
            if self.n else np.empty(0, np.int64)
        o = np.argsort(vals, kind="stable")
        return vals[o], wts[o]

    def quantile(self, q: float) -> int:
        """Value whose estimated rank is ceil(q * n) (1-based, the DuckDB
        quantile_disc convention)."""
        vals, wts = self._weighted()
        cum = np.cumsum(wts)
        rank = max(1, int(np.ceil(q * self.n)))
        return int(vals[min(int(np.searchsorted(cum, rank)), len(vals) - 1)])

    def rank(self, x: int) -> int:
        """Estimated number of items <= x."""
        total = 0
        for i, lv in enumerate(self.levels):
            total += (1 << i) * int(np.searchsorted(np.sort(lv, kind="stable"),
                                                    x, side="right"))
        return total

    def serialize(self) -> tuple[list[list[int]], int]:
        return [lv.tolist() for lv in self.levels], self.n

    @classmethod
    def deserialize(cls, levels: list, n: int, k: int = 256) -> "KLL":
        s = cls(k)
        s.levels = [np.asarray(lv, dtype=np.int64) for lv in levels]
        s._parity = [0] * len(s.levels)
        s.n = n
        return s
