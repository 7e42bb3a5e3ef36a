"""Page featurization stage — the bench's throughput kernel and the model
web-text feature-extraction pipeline: parse + extract + text stats + sketches
in one ``map_batches`` pass over raw pages (stateless tasks by default, an
actor pool on request; see ``featurize_corpus``).

This is the shape a 100 TB training-data run has: heavy per-page CPU
(regex extraction, visible text, tokenizing) in a Python row loop, then the
vector kernels (token hashing, per-page dedup, MinHash, SimHash) once per
batch over the flat token list (SURVEY.md §7.2)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from scrapy_ray.functions.hashing import hash64
from scrapy_ray.functions.htmlx import extract_detail, visible_text
from scrapy_ray.functions.sketch import minhash_flat, simhash_flat, unique_per_page
from scrapy_ray.functions.textnorm import parse_price, parse_rating
from scrapy_ray.stages.extract import _KIND

FEATURES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("kind", pa.string()),
        ("name", pa.string()),
        ("rating", pa.float64()),
        ("price_value", pa.float64()),
        ("n_chars", pa.int64()),
        ("n_tokens", pa.int64()),
        ("uniq_ratio", pa.float64()),
        ("simhash", pa.int64()),
        ("minhash", pa.list_(pa.uint64())),
    ]
)


class PageFeaturizer:
    """Callable class: ``map_batches`` UDF, or an actor pool's per-actor state."""

    N_PERM = 16

    def __call__(self, t: pa.Table) -> pa.Table:
        cols: dict[str, list] = {k: [] for k in FEATURES_SCHEMA.names[:-2]}
        tokens: list[str] = []      # every page's distinct tokens, in page order
        n_uniq: list[int] = []
        urls = t["url"].to_pylist()
        htmls = t["html"].to_pylist()
        for url, html in zip(urls, htmls):
            m = _KIND.match(url)
            kind = m.group(1) if m else ""
            text = visible_text(html)
            toks = text.split()
            uniq = set(toks)
            tokens.extend(uniq)
            n_uniq.append(len(uniq))
            if kind in ("hotel", "restaurant"):
                d = extract_detail(html)
                name = d["name"]
                rating = parse_rating(d["rating"])
                price = parse_price(d["price"])
            else:
                name, rating, price = None, float("nan"), float("nan")
            cols["url"].append(url)
            cols["kind"].append(kind)
            cols["name"].append(name)
            cols["rating"].append(rating)
            cols["price_value"].append(price)
            cols["n_chars"].append(len(text))
            cols["n_tokens"].append(len(toks))
            cols["uniq_ratio"].append(len(uniq) / max(1, len(toks)))
        h = hash64(tokens) if tokens else np.empty(0, dtype=np.uint64)
        h, lengths = unique_per_page(h, n_uniq)
        sig = minhash_flat(h, lengths, n_perm=self.N_PERM)
        cols["simhash"] = pa.array(simhash_flat(h, lengths).view(np.int64))
        cols["minhash"] = pa.ListArray.from_arrays(
            pa.array(np.arange(0, sig.size + 1, self.N_PERM, dtype=np.int32)),
            pa.array(sig.ravel()))
        return pa.table(cols, schema=FEATURES_SCHEMA)


_TASK_FEATURIZER: PageFeaturizer | None = None


def _featurize_task(t: pa.Table) -> pa.Table:
    """Stateless-task variant: the per-worker featurizer is module-cached, so
    task workers pay construction once. PageFeaturizer's state is tiny; use
    the actor-pool form (``concurrency=N``) when the stage holds real state
    (models/indexes) — an actor pool that reserves EVERY cpu starves the
    read/write stages (measured: 5x slowdown), so leave headroom then."""
    global _TASK_FEATURIZER
    if _TASK_FEATURIZER is None:
        _TASK_FEATURIZER = PageFeaturizer()
    return _TASK_FEATURIZER(t)


def featurize_corpus(corpus_root: str, out_dir: str, concurrency: int | None = None,
                     batch_size: int = 256) -> int:
    """Full-corpus streaming pipeline: read (pruned columns) -> featurize ->
    partitioned parquet sink. Returns row count. ``concurrency=None`` =
    stateless tasks (elastic, default); an int = actor pool of that size."""
    from scrapy_ray.sources.readers import read_pages

    ds = read_pages(corpus_root, columns=["url", "html"])
    if concurrency is None:
        out = ds.map_batches(_featurize_task, batch_format="pyarrow",
                             batch_size=batch_size)
    else:
        out = ds.map_batches(PageFeaturizer, batch_format="pyarrow",
                             batch_size=batch_size, concurrency=concurrency)
    out.write_parquet(out_dir)
    import pyarrow.parquet as pq
    import os
    return sum(pq.read_metadata(os.path.join(out_dir, f)).num_rows
               for f in os.listdir(out_dir) if f.endswith(".parquet"))