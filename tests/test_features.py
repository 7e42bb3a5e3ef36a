"""The featurize scan through Ray Data (``stages/features.py featurize_corpus``).

- the scan writes one row per corpus page, equal to ``PageFeaturizer`` over
  the whole corpus read with pyarrow;
- the read, the featurizer and the write run as one fused
  ``ReadParquet->MapBatches(_featurize_task)->Write`` operator (no
  ``batch_size`` on the map);
- the return value counts only the rows of this call, also when the sink
  directory already holds an earlier call's files.
"""

from __future__ import annotations

import glob

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from scrapy_ray.sources.corpus import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def feat_corpus(tmp_path_factory) -> tuple[str, pa.Table]:
    root = str(tmp_path_factory.mktemp("feat_corpus"))
    generate_corpus(root, CorpusSpec(n_hosts=6, total_pages=900, page_size=5,
                                     seed=11), use_ray=False)
    files = sorted(glob.glob(f"{root}/pages/*/*.parquet"))
    pages = pa.concat_tables([pq.read_table(f, columns=["url", "html"]) for f in files])
    return root, pages


def _rows(t: pa.Table) -> list[tuple]:
    """Rows in url order, NaN replaced by a marker so equal rows compare equal."""
    t = t.sort_by("url")
    return [tuple("nan" if v != v else v for v in r.values()) for r in t.to_pylist()]


def _featurize_capturing_plan(monkeypatch, corpus: str, out: str) -> tuple[int, str]:
    """featurize_corpus's return value and the executed plan's stats."""
    import ray.data

    from scrapy_ray.stages.features import featurize_corpus

    written = []
    write_parquet = ray.data.Dataset.write_parquet

    def capture(self, *args, **kwargs):
        written.append(self)
        return write_parquet(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "write_parquet", capture)
    n = featurize_corpus(corpus, out)
    (ds,) = written
    return n, ds._write_ds.stats()


def test_featurize_corpus_fused_scan_matches_featurizer(ray_session, feat_corpus,
                                                        tmp_path, monkeypatch):
    from scrapy_ray.stages.features import FEATURES_SCHEMA, PageFeaturizer

    corpus, pages = feat_corpus
    out = str(tmp_path / "features")
    n, stats = _featurize_capturing_plan(monkeypatch, corpus, out)
    assert n == len(pages)
    sink = pq.read_table(out, schema=FEATURES_SCHEMA)
    assert _rows(sink) == _rows(PageFeaturizer()(pages))
    first_op = next(line for line in stats.splitlines() if line.startswith("Operator 1 "))
    assert "ReadParquet->MapBatches(_featurize_task)->Write" in first_op, stats


def test_featurize_corpus_counts_only_this_write(ray_session, feat_corpus, tmp_path):
    from scrapy_ray.stages.features import featurize_corpus

    corpus, pages = feat_corpus
    out = str(tmp_path / "features")
    assert featurize_corpus(corpus, out) == len(pages)
    # write_parquet appends: the second call adds files next to the first's
    assert featurize_corpus(corpus, out) == len(pages)
    assert pq.read_table(out).num_rows == 2 * len(pages)
