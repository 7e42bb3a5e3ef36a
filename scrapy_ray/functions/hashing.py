"""64-bit URL fingerprinting (SURVEY.md §1.1 request fingerprint).

The reference fingerprints requests with SHA1 over the canonicalized URL
([S:scrapy/utils/request.py request_fingerprint]); we use a 64-bit hash of the
canonicalized URL as the dedup / partitioning key ``url_hash`` [B:north_star
"canonicalized+hashed URLs"]. Vectorized via polars (xxhash-family, seeded);
``hash64_one`` must agree exactly with ``hash64`` — the simulator and the
engine both go through these helpers, so goldens are internally consistent.

polars (~21 MiB resident) is imported inside the two functions, so only a
process that hashes loads it: the crawl driver and the fetch/featurize
workers do, the featurize driver and the ``CrawlShard`` actors do not.

At 10^10 URLs a 64-bit space has ~3e-3 expected collisions per 10^10 pairs
(birthday bound n^2/2^65 ≈ 2.7) — acceptable for dedup; the exact-set shard
keeps full URLs at test scale for the byte-exact URL-seen check [B:north_rule].
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import polars as pl

_SEED = 42


def hash64(urls: Sequence[str] | np.ndarray | pl.Series) -> np.ndarray:
    """Vectorized 64-bit hash of strings -> np.uint64 array."""
    import polars as pl

    s = urls if isinstance(urls, pl.Series) else pl.Series(values=list(urls), dtype=pl.String)
    return s.hash(seed=_SEED).to_numpy().astype(np.uint64, copy=False)


def hash64_one(url: str) -> int:
    """Scalar counterpart of hash64 (same value, python int)."""
    import polars as pl

    return int(pl.Series([url]).hash(seed=_SEED)[0])
