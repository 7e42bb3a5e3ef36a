"""Per-batch parse and sketch kernels against per-page reference definitions.

- ``urljoin_many`` (fast paths) vs ``urllib.parse.urljoin``, property-tested;
- ``visible_text``'s ``str.split`` whitespace collapse vs the regex form,
  property-tested;
- the flat MinHash/SimHash kernels vs ``minhash_signature`` and a bit-loop
  SimHash, including empty pages and duplicate hashes;
- ``PageFeaturizer`` rows vs sketches built page by page;
- ``parse_page_batch``'s LINKS rows, page by page, under every parse branch.
"""

from __future__ import annotations

import glob
import html as _html
import re
from urllib.parse import urljoin

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from scrapy_ray.functions import htmlx, sketch, urlnorm
from scrapy_ray.functions.hashing import hash64
from scrapy_ray.functions.htmlx import base_url, extract_links, visible_text
from scrapy_ray.functions.sketch import (_MERSENNE, minhash_flat, minhash_many,
                                         minhash_signature, simhash64,
                                         simhash_flat, simhash_many,
                                         unique_per_page)
from scrapy_ray.functions.urlnorm import canonicalize_urls, hosts_of, urljoin_many
from scrapy_ray.registry import CrawlRule, match_rule
from scrapy_ray.sources.corpus import CorpusSpec, generate_corpus

# ------------------------------------------------------------------ urljoin

_URL_CHARS = "aZ09-_./?#;%:@ \t"
_schemes = st.sampled_from(["http", "https", "HTTP", "Https", "ftp", "mailto", ""])
_hosts = st.text(alphabet="abcXY019.-_", max_size=10)
_ports = st.sampled_from(["", ":80", ":443", ":8080", ":"])
_paths = st.lists(st.sampled_from(["", ".", "..", "a", "B", "a.b", "%2F", "x;p",
                                   "c:d", "@", "~"]), max_size=5).map("/".join)
_tails = st.sampled_from(["", "?", "#", ";", "?#", "?q=1", "#f", "?b=2&a=1#x", ";p",
                          "\t", " ", "\n"])
_root_paths = st.lists(st.sampled_from(["", "a", "B", "_", "-", "09", ".", ".."]),
                       min_size=1, max_size=5).map(lambda segs: "/" + "/".join(segs))


@st.composite
def _urlish(draw):
    """Absolute, network-path, root-relative, relative, or raw-text urls."""
    kind = draw(st.integers(0, 4))
    path, tail = draw(_paths), draw(_tails)
    if kind == 0:
        return f"{draw(_schemes)}://{draw(_hosts)}{draw(_ports)}/{path}{tail}"
    if kind == 1:
        return f"//{draw(_hosts)}{draw(_ports)}/{path}{tail}"
    if kind == 2:
        return f"/{path}{tail}"
    if kind == 3:
        return f"{path}{tail}"
    return draw(st.text(alphabet=_URL_CHARS, max_size=16))


@st.composite
def _crawlish(draw, tails=_tails):
    """http(s) urls with a lowercase host, the shape the fast paths take,
    and near misses of it (dot segments, '//', empty '?', tabs)."""
    host = draw(st.text(alphabet="abc019.-", min_size=1, max_size=10))
    path = draw(st.sampled_from(["", "/"])) + draw(_paths)
    return f"{draw(st.sampled_from(['http', 'https']))}://{host}{path}{draw(tails)}"


_bases = st.one_of(_crawlish(tails=st.sampled_from(["", ";p", "\t", " ", "/"])),
                   _urlish())
_hrefs = st.one_of(_crawlish(), _root_paths, _tails.map(lambda t: "/a" + t), _urlish())
# each fast path's near misses, always tried: urljoin drops an empty '?', '#'
# or ';', strips tab/newline, resolves dot segments, and reads '//' as a host
_NEAR_MISSES = ["http://b/a", "https://b", "http://b/a?", "http://b/a#", "http://b/a;",
                "http://b/a\t", "http://b/a ", "http://b:80/a", "HTTP://b/a", "ftp://b/a",
                "/a", "/", "//a/b", "/a//b", "/a/./b", "/a/../b", "/.", "/..", "/a?",
                "/a#", "/a;", "/a\t", "/a b", "/a.b", "/%41", "a", "", "?q", "#f"]


@seed(20240601)
@settings(max_examples=600, deadline=None, database=None)
@example(base="http://h/x/y", hrefs=_NEAR_MISSES)
@example(base="https://h.example-1.com", hrefs=_NEAR_MISSES)
@example(base="http://h/x?q#f", hrefs=_NEAR_MISSES)
@example(base="http://h:8080/x", hrefs=_NEAR_MISSES)
@example(base="", hrefs=_NEAR_MISSES)
@given(base=_bases, hrefs=st.lists(_hrefs, max_size=8))
def test_urljoin_many_matches_stdlib(base, hrefs):
    want = [urljoin(base, h) for h in hrefs]
    got = urljoin_many(base, hrefs)
    assert got == want
    assert canonicalize_urls(got) == canonicalize_urls(want)


def test_urljoin_fast_paths_cover_crawl_links(monkeypatch):
    """Crawl-shaped hrefs never reach urllib (so the property test above
    exercises the fast paths, not just the fallback)."""
    base = "https://h001.example.com/listing/00003"
    hrefs = ["https://h002.example.com/hotel/00017", "/hotel/00004",
             "/listing/00004", "http://h003.example.com", "/"]
    want = [urljoin(base, h) for h in hrefs]

    def boom(*_a, **_k):
        raise AssertionError("fell through to urllib")

    monkeypatch.setattr(urlnorm, "urljoin", boom)
    assert urljoin_many(base, hrefs) == want


# ------------------------------------------------------------ visible text

def _visible_text_regex(html: bytes) -> str:
    """``visible_text`` with its whitespace collapse written as a regex."""
    body = htmlx._SCRIPT.sub(b" ", htmlx._HEAD.sub(b" ", html))
    txt = htmlx._TAG.sub(b" ", body).decode("utf-8", errors="replace")
    return re.sub(r"\s+", " ", _html.unescape(txt)).strip()


# every code point regex \s matches, the separators it does not (U+200B,
# U+FEFF, U+180E), entities that unescape to whitespace, tags and bytes
# that are not UTF-8
_SPACES = [chr(c) for c in range(0x110000) if re.match(r"\s", chr(c))]
_HTML_PIECES = ([c.encode() for c in _SPACES + ["\u200b", "\ufeff", "\u180e"]]
                + [b"&nbsp;", b"&#x2003;", b"&#10;", b"&emsp;", b"&amp;", b"<p>",
                   b"</b>", b"<head><title>t</title></head>",
                   b"<script>s\n</script>", b"<style> </style>", b"\xff", b"\xe2\x80"])


@seed(20261019)
@settings(max_examples=600, deadline=None, database=None)
@example(html=b"".join(c.encode() for c in _SPACES))
@example(html=b"  a\t\x1c b\xc2\x85c\xe3\x80\x80 ")
@given(html=st.lists(st.one_of(st.sampled_from(_HTML_PIECES),
                               st.text(max_size=3).map(str.encode)),
                     max_size=12).map(b"".join))
def test_visible_text_matches_regex_collapse(html):
    assert visible_text(html) == _visible_text_regex(html)


# ------------------------------------------------------------ sketch kernels

def _simhash_bitloop(h: np.ndarray) -> int:
    """Charikar SimHash by definition: bit j set iff more than half of the
    tokens have bit j set."""
    fp = 0
    for j in range(64):
        ones = sum((int(x) >> j) & 1 for x in h)
        if 2 * ones > len(h):
            fp |= 1 << j
    return fp


def _token_sets() -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    r = lambda n: rng.integers(0, 2**64, size=n, dtype=np.uint64)  # noqa: E731
    dup = r(5)
    return [np.empty(0, np.uint64),                  # empty first page
            r(7),
            np.concatenate([dup, dup[:3]]),          # duplicate hashes in a page
            np.empty(0, np.uint64),                  # empty middle pages
            np.empty(0, np.uint64),
            r(1),
            np.full(4, 2**64 - 1, dtype=np.uint64),  # one hash, repeated
            r(40),
            np.empty(0, np.uint64)]                  # empty last page


@pytest.mark.parametrize("chunk_elems", [sketch._CHUNK_ELEMS, 64, 1])
def test_flat_kernels_match_per_page_definitions(monkeypatch, chunk_elems):
    """Empty pages at the start, middle and end (``reduceat`` would give a
    zero-length segment the next page's value) and duplicate hashes; small
    chunk caps force the page-boundary chunking, including a page larger
    than the cap."""
    monkeypatch.setattr(sketch, "_CHUNK_ELEMS", chunk_elems)
    sets = _token_sets()
    h = np.concatenate(sets)
    lengths = [len(s) for s in sets]
    for n_perm in (16, 64):
        sig = minhash_flat(h, lengths, n_perm=n_perm)
        assert sig.shape == (len(sets), n_perm) and sig.dtype == np.uint64
        for s, row in zip(sets, sig):
            want = minhash_signature(s, n_perm) if len(s) else np.full(n_perm, _MERSENNE)
            assert (row == want).all()
        assert (minhash_many(sets, n_perm=n_perm) == sig).all()
    fp = simhash_flat(h, lengths)
    assert fp.dtype == np.uint64
    assert fp.tolist() == [_simhash_bitloop(s) for s in sets]
    assert simhash_many(sets).tolist() == fp.tolist()
    assert [simhash64(s) for s in sets] == fp.tolist()


def test_flat_kernels_empty_batches():
    assert minhash_many([], n_perm=8).shape == (0, 8)
    assert simhash_many([]).shape == (0,)
    assert simhash64(np.empty(0, np.uint64)) == 0
    e = np.empty(0, np.uint64)
    assert (minhash_flat(e, [0, 0], n_perm=4) == _MERSENNE).all()
    assert simhash_flat(e, [0, 0]).tolist() == [0, 0]


def test_unique_per_page_matches_np_unique():
    sets = _token_sets()
    h, lengths = unique_per_page(np.concatenate(sets), [len(s) for s in sets])
    want = [np.unique(s) for s in sets]
    assert lengths.tolist() == [len(w) for w in want]
    assert h.tolist() == np.concatenate(want).tolist()


def test_perms_cached_read_only():
    a, b = sketch._perms(16)
    assert sketch._perms(16)[0] is a
    with pytest.raises(ValueError):
        a[0] = 1
    with pytest.raises(ValueError):
        b[0] = 1


# ---------------------------------------------------------------- featurize

@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory) -> pa.Table:
    root = str(tmp_path_factory.mktemp("kernels_corpus"))
    generate_corpus(root, CorpusSpec(n_hosts=4, total_pages=150, page_size=5,
                                     seed=7, redirect_frac=0.1,
                                     metarefresh_frac=0.1), use_ray=False)
    files = sorted(glob.glob(f"{root}/pages/*/*.parquet"))
    return pa.concat_tables([pq.read_table(f, columns=["url", "html", "status"])
                             for f in files]).sort_by("url")


def test_page_featurizer_sketches_match_per_page(small_corpus):
    from scrapy_ray.stages.features import FEATURES_SCHEMA, PageFeaturizer

    empty = pa.table({"url": ["https://h000.example.com/hotel/99999"],
                      "html": pa.array([b"<html><body></body></html>"], pa.binary())})
    pages = pa.concat_tables([empty, small_corpus.select(["url", "html"]), empty])
    n_perm = PageFeaturizer.N_PERM
    f = PageFeaturizer()
    # uneven batches: empty pages land first, mid-batch and last
    out = pa.concat_tables([f(pages.slice(i, 23)) for i in range(0, len(pages), 23)])
    assert out.schema == FEATURES_SCHEMA
    assert out["url"].to_pylist() == pages["url"].to_pylist()
    n_empty = 0
    for html, row in zip(pages["html"].to_pylist(), out.to_pylist()):
        toks = visible_text(html).split()
        th = np.unique(hash64(list(set(toks)))) if toks else np.empty(0, np.uint64)
        n_empty += not len(th)
        want_sig = (minhash_signature(th, n_perm) if len(th)
                    else np.full(n_perm, _MERSENNE)).tolist()
        want_sim = int(np.uint64(_simhash_bitloop(th)).view(np.int64))
        assert row["minhash"] == want_sig, row["url"]
        assert row["simhash"] == want_sim, row["url"]
        assert row["n_tokens"] == len(toks)
    assert n_empty >= 2


def test_page_featurizer_slices_a_whole_block(small_corpus):
    """One call over a read-block-sized input: more than two SLICE_ROWS
    slices, with slice boundaries inside the input's chunks."""
    from scrapy_ray.stages.features import FEATURES_SCHEMA, PageFeaturizer

    pages = small_corpus.select(["url", "html"])
    n_perm, rows = PageFeaturizer.N_PERM, PageFeaturizer.SLICE_ROWS
    copies = [pages.set_column(0, "url", pa.array([f"{u}?copy={k}" for u in
                                                   pages["url"].to_pylist()]))
              for k in range(2 * rows // len(pages) + 1)]
    block = pa.concat_tables(copies)
    chunk_ends = set(np.cumsum([len(c) for c in copies]).tolist())
    assert len(block) > 2 * rows and rows not in chunk_ends
    out = PageFeaturizer()(block)
    assert out.schema == FEATURES_SCHEMA
    assert out["url"].to_pylist() == block["url"].to_pylist()
    for html, row in zip(block["html"].to_pylist(), out.to_pylist()):
        toks = visible_text(html).split()
        th = np.unique(hash64(list(set(toks)))) if toks else np.empty(0, np.uint64)
        want_sig = (minhash_signature(th, n_perm) if len(th)
                    else np.full(n_perm, _MERSENNE)).tolist()
        assert row["minhash"] == want_sig, row["url"]
        assert row["simhash"] == int(np.uint64(_simhash_bitloop(th)).view(np.int64))
        assert row["n_tokens"] == len(toks)
    empty = PageFeaturizer()(block.slice(0, 0))
    assert len(empty) == 0 and empty.schema == FEATURES_SCHEMA


# -------------------------------------------------------------------- parse

def _handler(url: str, html: bytes) -> dict:
    """A custom page handler: an item, plus raw hrefs of every join kind."""
    return {"item": {"name": "custom"},
            "links": ["/hotel/00001", "../listing/00002", "https://H002.example.com/x?b=1&a=2",
                      "https://h003.example.com/hotel/00009"]}


def _parse_cases(corpus: pa.Table) -> pa.Table:
    """Corpus pages (detail, listing, 404/500, redirect and refresh pages)
    plus a zero-link page and two custom-handler pages."""
    n = len(corpus)
    extra = pa.table({
        "url": ["https://h001.example.com/hotel/77777",
                "https://h001.example.com/custom/1",
                "https://h002.example.com/custom/2"],
        "html": pa.array([b"<html><h1>no links</h1></html>",
                          b"<html><a href='/ignored'>x</a></html>",
                          b"<html></html>"], pa.binary()),
        "status": pa.array([200, 200, 503], pa.int16()),
    })
    t = pa.concat_tables([corpus.select(["url", "html", "status"]), extra])
    m = len(t)
    return t.append_column("depth", pa.array(np.ones(m, np.int32))) \
            .append_column("priority", pa.array(np.zeros(m, np.int32))) \
            .append_column("seq", pa.array(np.arange(m, dtype=np.int64) + n))


_ROUTES = [(re.compile(r"https?://[^/]+/custom/"), "custom")]
_RULE_SETS = {
    "no_rules": [],
    # follow=False on some detail pages; a rule set that drops every link
    # not matching /hotel/ or /listing/ (offsite-ish and custom hrefs)
    "rules": [CrawlRule(r"/hotel/0000[0-4]", None, None, False),
              CrawlRule(r"/(hotel|listing)/", None, None, True),
              CrawlRule(r"/custom/", None, "custom", True)],
}


@pytest.mark.parametrize("rule_set", sorted(_RULE_SETS))
def test_parse_link_columns_under_every_branch(small_corpus, rule_set):
    from scrapy_ray.stages.parse import parse_page_batch

    rules = _RULE_SETS[rule_set]
    t = _parse_cases(small_corpus)
    links = parse_page_batch(t, handlers={"custom": _handler}, routes=_ROUTES,
                             allowed_statuses=(), rules=rules).links
    by_page: dict[int, list[dict]] = {}
    for row in links.to_pylist():
        by_page.setdefault(row["parent_seq"], []).append(row)
    seen = {"non_2xx": 0, "zero_link": 0, "custom": 0, "no_follow": 0,
            "dropped": 0, "links": 0}
    for url, html, st_, seq, depth in zip(
            t["url"].to_pylist(), t["html"].to_pylist(), t["status"].to_pylist(),
            t["seq"].to_pylist(), t["depth"].to_pylist()):
        rows = by_page.pop(seq, [])
        urls = [r["url"] for r in rows]
        assert [r["host"] for r in rows] == list(hosts_of(urls))
        assert [r["url_hash"] for r in rows] == (hash64(urls).tolist() if urls else [])
        assert [r["link_idx"] for r in rows] == list(range(len(rows)))
        assert all(r["depth"] == depth + 1 and r["priority"] == 0 for r in rows)
        ok = 200 <= st_ < 300
        custom = "/custom/" in url
        raw = _handler(url, html)["links"] if custom else extract_links(html)
        want = canonicalize_urls(urljoin(base_url(url, html), h) for h in raw) if ok else []
        rule = match_rule(url, rules) if rules else None
        if rules and want:
            if rule is not None and not rule.follow:
                want, seen["no_follow"] = [], seen["no_follow"] + 1
            else:
                kept = [u for u in want if match_rule(u, rules) is not None]
                seen["dropped"] += len(kept) < len(want)
                want = kept
        assert urls == want, url
        seen["non_2xx"] += not ok
        seen["zero_link"] += ok and not raw
        seen["custom"] += custom and ok
        seen["links"] += len(urls)
    assert not by_page, "LINKS rows whose parent_seq is no input page"
    assert seen["non_2xx"] and seen["zero_link"] and seen["custom"] and seen["links"]
    if rules:
        assert seen["no_follow"] and seen["dropped"]
