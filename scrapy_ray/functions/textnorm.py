"""Field normalizers (SURVEY.md §2.2 M6) — the ItemLoader-processor layer.

The reference normalizes extracted fields through itemloaders processors
(``MapCompose(strip, clean)``, ``TakeFirst``, price/rating str->float)
([S:itemloaders processors]; project items.py per [B:north_star]). Here they
are pure scalar/vector functions used inside extract ``map_batches`` stages.
"""

from __future__ import annotations

import re

_WS = re.compile(r"\s+")
_PRICE_NUM = re.compile(r"(\d{1,3}(?:[,.]\d{3})*(?:\.\d+)?|\d+(?:\.\d+)?)")
_RATING = re.compile(r"(\d+(?:\.\d+)?)")


def normalize_ws(s: str) -> str:
    """Collapse all whitespace runs to single spaces and strip."""
    return _WS.sub(" ", s).strip()


def parse_price(s: str | None) -> float:
    """'$1,234.50' / '1.234 đ' / '99' -> float; NaN when unparsable.

    Thousands separators (',' or '.' followed by exactly 3 digits) stripped.
    """
    if not s:
        return float("nan")
    m = _PRICE_NUM.search(s)
    if m is None:
        return float("nan")
    num = m.group(1)
    num = re.sub(r"[,.](?=\d{3}(?:\D|$))", "", num)
    try:
        return float(num)
    except ValueError:  # pragma: no cover
        return float("nan")


def parse_rating(s: str | None) -> float:
    """'4.5' / '4.5/5' / '4.5 stars' -> 4.5; NaN when unparsable."""
    if not s:
        return float("nan")
    m = _RATING.search(s)
    return float(m.group(1)) if m is not None else float("nan")
