"""Page featurization stage — the bench's throughput kernel and the model
web-text feature-extraction pipeline: parse + extract + text stats + sketches
in one ``map_batches`` pass of stateless tasks over raw pages (see
``featurize_corpus``).

The ``map_batches`` call takes whole read blocks (no ``batch_size``), so Ray
Data fuses read, featurize and write into one operator and no block goes
through the object store between read and featurize.

This is the shape a 100 TB training-data run has: heavy per-page CPU
(regex extraction, visible text, tokenizing) in a Python row loop, then the
vector kernels (token hashing, per-page dedup, MinHash, SimHash) once per
slice over the flat token list (SURVEY.md §7.2)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

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
    """The featurizer; ``_featurize_task`` keeps one per task worker. A call
    takes a whole read block (up to Ray's 128 MiB) and featurizes it in
    zero-copy slices of ``SLICE_ROWS`` rows, so the flat token list of one
    pass stays small; every feature is per page, so the slicing does not
    change the output."""

    N_PERM = 16
    SLICE_ROWS = 256

    def __call__(self, t: pa.Table) -> pa.Table:
        if len(t) <= self.SLICE_ROWS:
            return self._featurize(t)
        return pa.concat_tables([self._featurize(t.slice(i, self.SLICE_ROWS))
                                 for i in range(0, len(t), self.SLICE_ROWS)])

    def _featurize(self, t: pa.Table) -> pa.Table:
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
    """The ``map_batches`` UDF: the per-worker featurizer is module-cached, so
    task workers pay construction once."""
    global _TASK_FEATURIZER
    if _TASK_FEATURIZER is None:
        _TASK_FEATURIZER = PageFeaturizer()
    return _TASK_FEATURIZER(t)


def featurize_corpus(corpus_root: str, out_dir: str) -> int:
    """Full-corpus streaming pipeline: read (pruned columns) -> featurize ->
    parquet sink, stateless tasks. Returns the rows this call wrote
    (``write_parquet`` appends, so files already in ``out_dir`` are not
    counted)."""
    from scrapy_ray.sources.readers import read_pages

    ds = read_pages(corpus_root, columns=["url", "html"])
    out = ds.map_batches(_featurize_task, batch_format="pyarrow", batch_size=None)
    before = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
    out.write_parquet(out_dir)
    return sum(pq.read_metadata(os.path.join(out_dir, f)).num_rows
               for f in os.listdir(out_dir)
               if f.endswith(".parquet") and f not in before)
