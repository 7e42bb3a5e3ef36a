"""The fetch task's bucket read, without Ray: a bucket directory holding
several url-sorted files of several row groups each (the layout
``ingest.import_pages`` writes), a file without column statistics, and the
files a dataset read skips, read through ``_fetch_parse_slice`` in-process."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from scrapy_ray import schemas
from scrapy_ray.config import CrawlConfig
from scrapy_ray.functions.hashing import hash64
from scrapy_ray.functions.urlnorm import hosts_of
from scrapy_ray.sources.corpus import CorpusSpec, generate_corpus
from scrapy_ray.stages import fetch
from scrapy_ray.stages.links import filter_params

_RG = 4    # row groups per url-sorted file


@pytest.fixture(scope="module")
def layout(tmp_path_factory) -> tuple[str, list[list[pa.Table]]]:
    """A one-bucket corpus whose bucket is rewritten as two url-sorted files
    of ``_RG`` row groups each (the first and second half of the urls
    without every 7th), one file of every 7th url written without
    statistics, a ``_SUCCESS`` marker, and a ``.hidden.parquet`` and a
    ``_temporary/`` file holding copies of real pages with status 500,
    which a read must skip. Returns the corpus root and, per parquet file,
    its row groups."""
    root = str(tmp_path_factory.mktemp("fetch_read") / "corpus")
    generate_corpus(root, CorpusSpec(n_hosts=4, total_pages=300, page_size=5,
                                     seed=3, n_buckets=1, redirect_frac=0.1,
                                     metarefresh_frac=0.1, error_frac=0.1),
                    use_ray=False)
    bucket = os.path.join(root, "pages", "bucket=0")
    src = os.path.join(bucket, "part.parquet")
    pages = pq.read_table(src).sort_by("url")
    os.remove(src)
    every7 = np.arange(len(pages)) % 7 == 0
    rest = pages.filter(pa.array(~every7))
    half = len(rest) // 2
    files = [("part-0.parquet", rest.slice(0, half), True),
             ("part-1.parquet", rest.slice(half), True),
             ("part-2.parquet", pages.filter(pa.array(every7)), False)]
    groups = []
    for name, t, stats in files:
        rows = -(-len(t) // _RG)
        pq.write_table(t, os.path.join(bucket, name), row_group_size=rows,
                       write_statistics=stats)
        groups.append([t.slice(i, rows) for i in range(0, len(t), rows)])
    assert [len(g) for g in groups[:2]] == [_RG, _RG]
    stale = pages.slice(0, 20).set_column(
        pages.schema.get_field_index("status"), "status",
        pa.array(np.full(20, 500, dtype=np.int16)))
    os.makedirs(os.path.join(bucket, "_temporary"))
    pq.write_table(stale, os.path.join(bucket, ".hidden.parquet"))
    pq.write_table(stale, os.path.join(bucket, "_temporary", "part-9.parquet"))
    open(os.path.join(bucket, "_SUCCESS"), "w").close()
    return root, groups


def _plan(root: str, monkeypatch) -> fetch.FetchPlan:
    """Every fetch middleware on, built by ``FetchPlan.build`` with the
    cluster size stubbed (no Ray session)."""
    monkeypatch.setattr(fetch.ray, "cluster_resources", lambda: {"CPU": 1.0})
    cfg = CrawlConfig(retry_max=2, autothrottle=True, cookies=True,
                      download_maxsize=1100, download_warnsize=600)
    return fetch.FetchPlan.build(root, cfg, link_filter=filter_params(cfg))


def _slice(urls: list[str]) -> pa.Table:
    """A url-sorted one-bucket wave slice, as ``fetch_parse_wave`` ships it."""
    urls = sorted(urls)
    n = len(urls)
    i32 = pa.array(np.zeros(n, dtype=np.int32))
    return pa.table({
        "url": pa.array(urls, type=pa.string()),
        "host": pa.array(hosts_of(urls), type=pa.string()),
        "url_hash": pa.array(hash64(urls), type=pa.uint64()),
        "depth": pa.array(np.ones(n, dtype=np.int32)),
        "priority": i32,
        "seq": pa.array(np.arange(n, dtype=np.int64)),
        "dont_filter": pa.array(np.zeros(n, dtype=bool)),
        "retries": i32,
        "redirects": i32,
    }, schema=schemas.FRONTIER)


def _dataset_run(bucket_dir: str):
    """The reference reader: an independent ``pyarrow.dataset`` scan of the
    bucket directory with an ``url IN (...)`` filter."""
    def read(files, cols, urls):
        return [pads.dataset(bucket_dir, format="parquet").to_table(
            columns=cols, filter=pc.field("url").isin(urls))]
    return read


def test_bucket_read_matches_a_dataset_read(layout, monkeypatch):
    root, groups = layout
    bucket = os.path.join(root, "pages", "bucket=0")
    plan = _plan(root, monkeypatch)
    assert plan.redirect is not None and plan.metarefresh is not None
    assert plan.paths[0] == tuple(pads.dataset(bucket, format="parquet").files)
    assert [os.path.basename(f) for f in plan.paths[0]] == \
        ["part-0.parquet", "part-1.parquet", "part-2.parquet"]
    urls = [u for g in groups for t in g for u in t["url"].to_pylist()]
    dangling = [f"https://h00{i % 4}.example.com/gone/{i:05d}" for i in range(9)]
    for wave in (urls + dangling, urls[::3] + dangling):
        sub = _slice(wave)
        got = fetch._fetch_parse_slice(sub, plan)
        with monkeypatch.context() as m:
            m.setattr(fetch, "_read_bucket_run", _dataset_run(bucket))
            want = fetch._fetch_parse_slice(sub, plan)
        assert got.n_fetched == len(wave) - len(dangling) - got.n_maxsize_drop
        assert len(got.items) and len(got.links) and len(got.requeue) \
            and len(got.hosts) and got.n_maxsize_drop and got.n_err
        for name, g, w in zip(fetch.FetchResult._fields, got, want):
            assert (g.equals(w) if isinstance(g, pa.Table) else g == w), name


def test_bucket_read_prunes_row_groups_by_url_range(layout, monkeypatch):
    """Urls inside one row group of the first file: that row group and every
    row group of the statistics-less file are decoded, nothing else."""
    root, groups = layout
    plan = _plan(root, monkeypatch)
    k = 2
    rg_urls = groups[0][k]["url"].to_pylist()
    wave = rg_urls[1:-1:2]
    calls = []
    read = pq.ParquetFile.read_row_groups

    def counting(self, row_groups, *args, **kwargs):
        out = read(self, row_groups, *args, **kwargs)
        calls.append((list(row_groups), out["url"].to_pylist()))
        return out

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", counting)
    res = fetch._fetch_parse_slice(_slice(wave), plan)
    # by the urls decoded: row group k of part-0, then all of part-2
    assert calls == [([k], rg_urls),
                     (list(range(len(groups[2]))),
                      [u for t in groups[2] for u in t["url"].to_pylist()])]
    assert res.n_fetched + res.n_maxsize_drop == len(wave)
