"""HTML text + field extraction kernels (SURVEY.md §2.2 M1–M4).

The reference parses HTML with lxml through parsel Selectors
([S:parsel Selector], [S:scrapy/http/response/text.py .css/.xpath]); lxml is
not available in this environment, so extraction is compiled-regex over the
deterministic page templates (FIXTURES.md §1.2). Every function here is a pure
function of the HTML bytes — that is THE per-row invariant: byte-identical
extracted text per url [B:input_hint]. The corpus generator, the
reference-semantics simulator, and the Ray engine all call these same
kernels, so golden files pin all three.
"""

from __future__ import annotations

import html as _html
import re

_HEAD = re.compile(rb"<head>.*?</head>", re.S)
_SCRIPT = re.compile(rb"<(script|style)\b.*?</\1>", re.S)
_TAG = re.compile(rb"<[^>]+>")


def visible_text(html: bytes) -> str:
    """Visible text of a page: drop <head>/<script>/<style>, strip tags,
    unescape entities, collapse whitespace. Deterministic, byte-stable."""
    body = _SCRIPT.sub(b" ", _HEAD.sub(b" ", html))
    txt = _TAG.sub(b" ", body).decode("utf-8", errors="replace")
    # str.split() splits on exactly the code points regex \s matches
    return " ".join(_html.unescape(txt).split())


# --- template field extractors (listing + detail pages, FIXTURES.md §1.2) ---

_CARD = re.compile(
    rb'<div class="card"><h2 class="name"><a class="detail" href="([^"]+)">([^<]*)</a></h2>'
    rb'<span class="rating">([^<]*)</span><span class="price">([^<]*)</span></div>'
)
_NEXT = re.compile(rb'<a class="next" href="([^"]+)">')
_H1_NAME = re.compile(rb'<h1 class="name">([^<]*)</h1>')
_ADDRESS = re.compile(rb'<p class="address">([^<]*)</p>')
_RATING = re.compile(rb'<span class="rating">([^<]*)</span>')
_PRICE = re.compile(rb'<span class="price">([^<]*)</span>')
_REVIEW_COUNT = re.compile(rb'<span class="review-count">(\d+) reviews</span>')
_REVIEW_LI = re.compile(rb"<li>([^<]*)</li>")
# Alternation excludes only the ACTIVE delimiter — a double-quoted href may
# contain an apostrophe (and vice versa); a backreference class [^"'] would
# silently drop those links (lxml's LinkExtractor captures them).
_ANY_HREF = re.compile(rb'<a\b[^>]*\bhref=(?:"([^"]+)"|\'([^\']+)\')')
# Only the FIRST <base href> counts (HTML spec; [S:scrapy/utils/response.py
# get_base_url] via w3lib.html.get_base_url — Scrapy resolves every relative
# link against it). Quoted or unquoted attribute value.
_BASE_HREF = re.compile(
    rb'<base\b[^>]*\bhref\s*=\s*(?:"([^"]*)"|\'([^\']*)\'|([^\s"\'>]+))', re.I)


def base_url(page_url: str, html: bytes) -> str:
    """Effective base for resolving this page's relative links: the first
    ``<base href>`` joined against the page URL, else the page URL itself."""
    m = _BASE_HREF.search(html)
    if not m:
        return page_url
    href = _u(m.group(1) or m.group(2) or m.group(3) or b"").strip()
    if not href:
        return page_url
    from urllib.parse import urljoin

    return urljoin(page_url, href)


def _u(b: bytes) -> str:
    return _html.unescape(b.decode("utf-8", errors="replace"))


# Meta-refresh ([S:scrapy/downloadermiddlewares/redirect.py
# MetaRefreshMiddleware] / w3lib.html.get_meta_refresh parity, simplified:
# first <meta ... http-equiv="refresh" ... content="N; url=U"> wins;
# attribute order and quoting free; N may be fractional; a tag without a
# url= part refreshes to self and is NOT followed, matching Scrapy).
_META_REFRESH_TAG = re.compile(
    rb'<meta\s[^>]*http-equiv\s*=\s*["\']?\s*refresh\s*["\']?[^>]*>', re.I)
_META_CONTENT = re.compile(
    rb'content\s*=\s*(?:"([^"]*)"|\'([^\']*)\'|([^\s"\'>]+))', re.I)
_REFRESH_PARTS = re.compile(
    rb'^\s*([\d.]+)\s*(?:[;,]\s*url\s*=\s*[\'"]?([^\'"\s]+)[\'"]?)?\s*$', re.I)
_FAST_SNIFF = re.compile(rb"http-equiv", re.I)


def meta_refresh(html: bytes) -> "tuple[float, str] | None":
    """First meta-refresh directive of a page -> (delay_seconds,
    target_url_raw) or None. The raw target still needs urljoin against
    the page's effective base. Cheap negative path: one case-insensitive
    substring sniff (mirrors the vectorized ignore_case match_substring
    prefilter in stages/fetch.py — keep the two in sync)."""
    if _FAST_SNIFF.search(html) is None:
        return None
    for tag in _META_REFRESH_TAG.finditer(html):
        c = _META_CONTENT.search(tag.group(0))
        if not c:
            continue
        parts = _REFRESH_PARTS.match(c.group(1) or c.group(2) or c.group(3) or b"")
        if not parts or not parts.group(2):
            continue
        try:
            delay = float(parts.group(1))
        except ValueError:
            continue
        return delay, _u(parts.group(2)).strip()
    return None


def extract_listing(html: bytes) -> dict:
    """Listing page -> item cards + detail links + next link (M2 + M4).

    Compiled-regex fast path for the exact template bytes; when it finds no
    cards (attribute reorder, extra attributes, whitespace variance — any
    real-world markup), fall back to the tolerant html.parser DOM
    (functions/dom.py). Same contract either way."""
    cards = [
        {"detail_href": _u(m[0]), "name": _u(m[1]), "rating": _u(m[2]), "price": _u(m[3])}
        for m in _CARD.findall(html)
    ]
    nxt = _NEXT.search(html)
    if not cards:
        from scrapy_ray.functions.dom import extract_listing_dom

        dom = extract_listing_dom(html)
        if dom["cards"]:
            return dom
        if nxt is None and dom["next_href"]:
            return dom
    return {"cards": cards, "next_href": _u(nxt.group(1)) if nxt else None}


def extract_detail(html: bytes) -> dict:
    """Detail page -> full item fields (M3). Regex fast
    path; tolerant DOM fallback when the template regexes miss (M1 realism
    — see extract_listing)."""
    name = _H1_NAME.search(html)
    if name is None:
        from scrapy_ray.functions.dom import extract_detail_dom

        d = extract_detail_dom(html)
        if d["name"] is not None:
            return d
    addr = _ADDRESS.search(html)
    rating = _RATING.search(html)
    price = _PRICE.search(html)
    rc = _REVIEW_COUNT.search(html)
    return {
        "name": _u(name.group(1)) if name else None,
        "address": _u(addr.group(1)) if addr else None,
        "rating": _u(rating.group(1)) if rating else None,
        "price": _u(price.group(1)) if price else None,
        "review_count": int(rc.group(1)) if rc else 0,
        "reviews": [_u(m) for m in _REVIEW_LI.findall(html)],
    }


def extract_links(html: bytes) -> list[str]:
    """All <a href> on a page, document order, per-page unique
    ([S:scrapy/linkextractors/lxmlhtml.py LxmlLinkExtractor unique=True]).
    Regex handles both quote styles; DOM fallback when a page yields no
    links but does contain anchors (unquoted hrefs, exotic markup)."""
    seen: set[bytes] = set()
    out: list[str] = []
    for dq, sq in _ANY_HREF.findall(html):
        m = dq or sq
        if m not in seen:
            seen.add(m)
            out.append(_u(m))
    if not out and b"<a" in html:
        from scrapy_ray.functions.dom import extract_links_dom

        return extract_links_dom(html)
    return out
