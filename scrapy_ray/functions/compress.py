"""Response-body decompression (SURVEY.md §2.2 M11).

The reference decompresses gzip/deflate/brotli bodies in
HttpCompressionMiddleware ([S:scrapy/downloadermiddlewares/httpcompression.py]).
Our corpus normally stores decoded html [B:input_hint], but ingested corpora
may carry compressed bodies — ``maybe_decompress`` sniffs magic bytes per
cell (no content-encoding column needed) and is wired into the fused parse
stage, so compressed pages flow through the engine transparently. Brotli is
absent from this environment — gated behind an import-try.
"""

from __future__ import annotations

import gzip
import zlib

import pyarrow as pa
import pyarrow.compute as pc

try:  # pragma: no cover - not in this container
    import brotli  # type: ignore

    _HAS_BROTLI = True
except ImportError:
    _HAS_BROTLI = False

_GZIP_MAGIC = b"\x1f\x8b"
_ZLIB_MAGIC = b"\x78"      # zlib header (deflate)


def maybe_decompress(body: bytes) -> bytes:
    """Gzip (magic-sniffed) and raw-deflate bodies -> plain bytes; anything
    else passes through untouched."""
    if body[:2] == _GZIP_MAGIC:
        try:
            return gzip.decompress(body)
        except OSError:
            return body
    if body[:1] == _ZLIB_MAGIC:
        try:
            return zlib.decompress(body)
        except zlib.error:
            return body
    return body


def decompress_batch(htmls: list[bytes]) -> list[bytes]:
    return [maybe_decompress(h) for h in htmls]


def maybe_compressed(html: pa.ChunkedArray) -> pa.ChunkedArray:
    """Boolean mask over a binary column: the bodies ``maybe_decompress``
    may decode, sniffed by their first byte (so a superset: a plain body
    that starts with ``x`` is in it)."""
    return pc.is_in(pc.binary_slice(html, 0, 1),
                    value_set=pa.array([_GZIP_MAGIC[:1], _ZLIB_MAGIC]))
