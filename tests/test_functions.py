"""Unit tests for the scalar-function layer (SURVEY.md §2.8) + the golden
extraction fixtures (byte-identical invariant [B:input_hint])."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from scrapy_ray.functions.hashing import hash64, hash64_one
from scrapy_ray.functions.htmlx import extract_detail, extract_links, extract_listing, visible_text
from scrapy_ray.functions.textnorm import normalize_ws, parse_price, parse_rating
from scrapy_ray.functions.urlnorm import canonicalize_url, host_of, urljoin_many

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "extraction.json")


def test_canonicalize():
    assert canonicalize_url("HTTPS://Example.COM:443/a?b=2&a=1#frag") == "https://example.com/a?a=1&b=2"
    assert canonicalize_url("http://example.com:80/x") == "http://example.com/x"
    assert canonicalize_url("https://h0.example.com") == "https://h0.example.com/"
    assert canonicalize_url("https://h0.example.com/p/q") == "https://h0.example.com/p/q"
    # query param sorting is by (key, value)
    assert canonicalize_url("http://h/x?b=1&a=2&a=1") == "http://h/x?a=1&a=2&b=1"
    # idempotent
    u = "https://h000.example.com/listing/00000"
    assert canonicalize_url(canonicalize_url(u)) == canonicalize_url(u)


def test_host_of():
    assert host_of("https://H0.Example.com/x") == "h0.example.com"
    assert host_of("https://h0.example.com:8443/x") == "h0.example.com"
    assert host_of("not a url") == ""


def test_urljoin():
    assert urljoin_many("https://h/listing/00001", ["/hotel/2", "x", "https://other/y"]) == [
        "https://h/hotel/2", "https://h/listing/x", "https://other/y"]


def test_hash64_consistency():
    urls = [f"https://h{i}.example.com/p/{i}" for i in range(100)]
    vec = hash64(urls)
    assert vec.dtype == np.uint64
    assert [int(v) for v in vec] == [hash64_one(u) for u in urls]
    assert len(set(int(v) for v in vec)) == 100


def test_engine_imports_load_no_polars_or_ray_data():
    """Importing the engine modules loads neither polars nor ray.data: each
    is imported inside the function that uses it (hash64/hash64_one,
    read_pages), so a process that never hashes, such as the featurize
    driver, never maps polars. The first hash loads it, and the values
    are the ones pinned before the import moved."""
    import subprocess
    import sys

    code = """
import json, sys
import scrapy_ray.pipelines.crawl, scrapy_ray.stages.features
import scrapy_ray.stages.fetch, scrapy_ray.stages.parse, scrapy_ray.state.shard
import scrapy_ray.sources.readers, scrapy_ray.functions
from scrapy_ray.functions import hash64, hash64_one
before = sorted(m for m in ("polars", "ray.data") if m in sys.modules)
urls = ["https://h000.example.com/", "https://h001.example.com/hotel/00017",
        "https://café.example.org/a?b=1", ""]
print(json.dumps({"before": before, "vec": [int(v) for v in hash64(urls)],
                  "one": [hash64_one(u) for u in urls],
                  "polars": "polars" in sys.modules}))
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, cwd=root, env={**os.environ, "PYTHONPATH": root})
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["before"] == []
    assert out["polars"]
    pinned = [9100969979662738086, 13050393705300077018,
              13685845091641811816, 11522088053332623575]
    assert out["vec"] == out["one"] == pinned


def test_textnorm():
    assert normalize_ws("  a\t b\n\nc ") == "a b c"
    assert parse_price("$1,234.50") == 1234.50
    assert parse_price("1.234 đ") == 1234.0
    assert parse_price("99") == 99.0
    assert math.isnan(parse_price(None))
    assert math.isnan(parse_price("free"))
    assert parse_rating("4.5") == 4.5
    assert parse_rating("4.5/5") == 4.5
    assert math.isnan(parse_rating(""))


def test_visible_text():
    html = (b"<!DOCTYPE html>\n<html><head><title>T</title></head><body>"
            b"<h1>A &amp; B</h1> <script>var x=1;</script><p>c\n d</p></body></html>")
    assert visible_text(html) == "A & B c d"


def test_extract_roundtrip_synthetic():
    from scrapy_ray.sources.corpus import detail_fields, render_detail, render_listing

    f = detail_fields(3, "h003.example.com", 17)
    html = render_detail("h003.example.com", f, ["/hotel/00001"])
    d = extract_detail(html)
    assert d["name"] == f["name"]
    assert d["address"] == f["address"]
    assert d["rating"] == f["rating"]
    assert d["price"] == f["price"]
    assert d["review_count"] == f["review_count"]
    assert d["reviews"] == f["reviews"]

    cards = [{"detail_href": "/hotel/00001", "name": "Café & Bistro Hotel 001",
              "rating": "4.2", "price": "$55"}]
    lhtml = render_listing("h003.example.com", 0, cards, "/listing/00001")
    li = extract_listing(lhtml)
    assert li["cards"][0]["name"] == "Café & Bistro Hotel 001"
    assert li["next_href"] == "/listing/00001"
    links = extract_links(lhtml)
    assert links == ["/hotel/00001", "/listing/00001"]


@pytest.mark.skipif(not os.path.exists(GOLDEN), reason="goldens not generated")
def test_extraction_goldens(e2e_corpus):
    """Byte-identical extracted text + item fields vs checked-in goldens
    [B:input_hint]. Regenerate with scripts/gen_goldens.py."""
    import pyarrow.parquet as pq
    import pyarrow as pa

    from scrapy_ray.sources.corpus import corpus_paths

    with open(GOLDEN) as fh:
        goldens = json.load(fh)
    full = pa.concat_tables([pq.read_table(p) for p in corpus_paths(e2e_corpus)["pages"].values()])
    by_url = {u: i for i, u in enumerate(full["url"].to_pylist())}
    for g in goldens:
        i = by_url[g["url"]]
        html = full["html"][i].as_py()
        assert visible_text(html) == g["extracted_text"], g["url"]
        assert full["text"][i].as_py() == g["extracted_text"]
        if g["kind"] == "detail":
            d = extract_detail(html)
            for k in ("name", "address", "rating", "price", "review_count", "reviews"):
                assert d[k] == g["item"][k], (g["url"], k)
        else:
            li = extract_listing(html)
            assert [c["name"] for c in li["cards"]] == g["card_names"]


def test_canonicalize_fast_path_matches_general():
    """The regex fast path must agree with the urllib general path on every
    url it accepts (hypothesis-generated)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from scrapy_ray.functions import urlnorm

    host_chars = st.text(alphabet="abcdefghij0123456789.-", min_size=1, max_size=12)
    path_chars = st.text(alphabet="abcdefghij0123456789/_-.", max_size=20)

    @settings(max_examples=200, deadline=None)
    @given(scheme=st.sampled_from(["http", "https"]), host=host_chars, path=path_chars)
    def prop(scheme, host, path):
        url = f"{scheme}://{host}/{path}"
        m = urlnorm._FAST.match(url)
        if m is None:
            return
        fast = urlnorm.canonicalize_url(url)
        # force the general path
        import re
        saved = urlnorm._FAST
        urlnorm._FAST = re.compile(r"(?!x)x")  # never matches
        try:
            general = urlnorm.canonicalize_url(url)
        finally:
            urlnorm._FAST = saved
        assert fast == general, (url, fast, general)

    prop()


def test_maybe_decompress_and_parse_gzip_pages():
    """M11: gzip-compressed bodies are sniffed + decompressed inside the
    fused parse stage; plain bodies pass through untouched."""
    import gzip
    import zlib

    import pyarrow as pa

    from scrapy_ray.functions.compress import maybe_decompress
    from scrapy_ray.sources.corpus import detail_fields, render_detail
    from scrapy_ray.stages.parse import parse_page_batch

    f = detail_fields(1, "h001.example.com", 7)
    html = render_detail("h001.example.com", f, [])
    assert maybe_decompress(html) == html
    assert maybe_decompress(gzip.compress(html)) == html
    assert maybe_decompress(zlib.compress(html)) == html

    t = pa.table({
        "url": ["https://h001.example.com/hotel/00007"] * 2,
        "html": pa.array([html, gzip.compress(html)], type=pa.binary()),
        "status": pa.array([200, 200], type=pa.int16()),
        "depth": pa.array([0, 0], type=pa.int32()),
        "priority": pa.array([0, 0], type=pa.int32()),
        "seq": pa.array([0, 1], type=pa.int64()),
    })
    plain, gz = parse_page_batch(t).items.to_pylist()
    assert plain["name"] == gz["name"] == f["name"]
    assert plain["extracted_text"] == gz["extracted_text"]


# --- M1 realism: tolerant extraction on perturbed (non-template) markup ---

def _perturbations(h: bytes) -> dict[str, bytes]:
    import re as _re

    reorder = h
    # swap `class=... href=...` -> `href=... class=...` on anchors
    reorder = _re.sub(rb'<a class="([^"]+)" href="([^"]+)">',
                      rb'<a href="\2" class="\1">', reorder)
    extra = h.replace(b'<div class="card">', b'<div data-x="1"  class="card" id="c">')
    extra = extra.replace(b'<h1 class="name">', b'<h1 id="t" class="name hero">')
    ws = h.replace(b"><", b">\n  <")
    quotes = h.replace(b'="', b"='").replace(b'">', b"'>").replace(b'" ', b"' ")
    return {"attr_reorder": reorder, "extra_attrs": extra,
            "whitespace": ws, "single_quotes": quotes}


def _pages_by_kind(corpus: str) -> dict[str, bytes]:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from scrapy_ray.sources.corpus import corpus_paths

    full = pa.concat_tables([pq.read_table(p)
                             for p in corpus_paths(corpus)["pages"].values()])
    out = {}
    for u, h in zip(full["url"].to_pylist(), full["html"].to_pylist()):
        if "/listing/" in u and "listing" not in out:
            out["listing"] = h
        elif "/hotel/" in u and "detail" not in out:
            out["detail"] = h
        if len(out) == 2:
            break
    return out


def test_detail_extraction_survives_perturbation(e2e_corpus):
    from scrapy_ray.functions.htmlx import extract_detail

    html = _pages_by_kind(e2e_corpus)["detail"]
    base = extract_detail(html)
    assert base["name"] is not None
    for name, ph in _perturbations(html).items():
        got = extract_detail(ph)
        for k in ("name", "address", "rating", "price", "review_count"):
            assert got[k] == base[k], (name, k, got[k], base[k])
        assert got["reviews"] == base["reviews"], name


def test_listing_extraction_survives_perturbation(e2e_corpus):
    from scrapy_ray.functions.htmlx import extract_listing

    html = _pages_by_kind(e2e_corpus)["listing"]
    base = extract_listing(html)
    assert base["cards"]
    for name, ph in _perturbations(html).items():
        got = extract_listing(ph)
        assert [c["detail_href"] for c in got["cards"]] == \
               [c["detail_href"] for c in base["cards"]], name
        assert [c["name"] for c in got["cards"]] == \
               [c["name"] for c in base["cards"]], name
        assert got["next_href"] == base["next_href"], name


def test_links_survive_perturbation(e2e_corpus):
    from scrapy_ray.functions.htmlx import extract_links

    html = _pages_by_kind(e2e_corpus)["listing"]
    base = extract_links(html)
    assert base
    for name, ph in _perturbations(html).items():
        assert extract_links(ph) == base, name


def test_extract_links_quote_inside_other_delimiter():
    """Regression (r3 ADVICE): a double-quoted href containing an apostrophe
    (or vice versa) must not be dropped — only the ACTIVE delimiter ends the
    value, matching lxml's LinkExtractor."""
    html = (b'<a href="/o\'brien/hotel">x</a>'
            b"<a href='/say-\"hi\"/page'>y</a>"
            b'<a href="/plain">z</a>')
    assert extract_links(html) == ['/o\'brien/hotel', '/say-"hi"/page', "/plain"]


def test_base_href_resolution():
    """<base href> parity with w3lib get_base_url: first base wins, joined
    against the page URL; absent/empty base falls back to the page URL.
    Engine, simulator and extract stages all resolve links through this one
    helper, so the unit pin covers every join site."""
    from scrapy_ray.functions.htmlx import base_url
    from scrapy_ray.functions.urlnorm import urljoin_many

    page = "http://h0.example.com/listing/1?page=2"
    assert base_url(page, b"<html><a href='x'>y</a></html>") == page
    # quoted, relative: joined against the page URL
    assert base_url(page, b'<head><base href="/sub/dir/"></head>') == \
        "http://h0.example.com/sub/dir/"
    # absolute base replaces host; unquoted attribute form
    assert base_url(page, b"<base target=_blank href=http://cdn.example.org/a/>") == \
        "http://cdn.example.org/a/"
    # first base wins (HTML spec)
    two = b'<base href="/first/"><base href="/second/">'
    assert base_url(page, two) == "http://h0.example.com/first/"
    # empty href ignored
    assert base_url(page, b'<base href="">') == page
    # end-to-end: relative links resolve against the base, not the page
    assert urljoin_many(base_url(page, b'<base href="/sub/">'),
                        ["a.html", "/root.html"]) == \
        ["http://h0.example.com/sub/a.html", "http://h0.example.com/root.html"]


def test_hash_sample_uint64_matches_duckdb_at_large_ids():
    """Regression (r3 ADVICE): the sampling hash must agree with the SQL
    oracle past event_id ~3.5e9 where int64*const overflows int64 silently
    in numpy but raises on DuckDB BIGINT."""
    import duckdb
    import numpy as np

    from scrapy_ray.pipelines.queries3 import _SAMPLE_MOD, _SAMPLE_MULT, _SAMPLE_PCT

    ids = np.array([0, 1, 3_500_000_000, 2**40 + 17, 2**62 + 5], dtype=np.uint64)
    h = ((ids % np.uint64(_SAMPLE_MOD)) * np.uint64(_SAMPLE_MULT)) % np.uint64(_SAMPLE_MOD)
    keep_np = (h % np.uint64(100) < np.uint64(_SAMPLE_PCT)).tolist()
    keep_sql = [
        bool(duckdb.sql(
            f"SELECT ((({int(i)}::UBIGINT % {_SAMPLE_MOD}) * {_SAMPLE_MULT})"
            f" % {_SAMPLE_MOD}) % 100 < {_SAMPLE_PCT}").fetchone()[0])
        for i in ids
    ]
    assert keep_np == keep_sql
