"""Tolerant HTML DOM + CSS-ish selectors on stdlib html.parser (M1 realism,
round 2 — VERDICT item 9).

The reference extracts with parsel/lxml CSS selectors, which do not care
about attribute order, extra attributes, whitespace, or quote style. lxml is
absent from this environment, so this module provides the tolerant layer:
a minimal DOM built with ``html.parser`` plus a selector subset sufficient
for the crawler's extraction patterns:

    ``div.card``, ``h1.name``, ``a.detail`` (tag + classes),
    ``div.card a.detail`` (descendant combinator), ``[href]`` attribute
    access and deep text.

The compiled-regex kernels in functions/htmlx.py remain the fast path for
the exact templates (byte-identical goldens); extractors fall back to this
DOM when the fast path finds nothing — real-world markup variance then
still extracts (tests/test_functions.py perturbation tests).
"""

from __future__ import annotations

import re
from html.parser import HTMLParser

_VOID = {"area", "base", "br", "col", "embed", "hr", "img", "input", "link",
         "meta", "param", "source", "track", "wbr"}
_WS = re.compile(r"\s+")


class Node:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict[str, str]):
        self.tag = tag
        self.attrs = attrs
        self.children: list = []  # Node | str

    def classes(self) -> set[str]:
        return set((self.attrs.get("class") or "").split())

    def attr(self, name: str) -> str | None:
        return self.attrs.get(name)

    def text(self) -> str:
        """Deep visible text, whitespace-collapsed (entities already decoded
        by html.parser's convert_charrefs)."""
        parts: list[str] = []
        stack = [self]
        while stack:
            n = stack.pop()
            if isinstance(n, str):
                parts.append(n)
            else:
                stack.extend(reversed(n.children))
        return _WS.sub(" ", "".join(parts)).strip()

    def iter(self):
        """All descendant element nodes, document order."""
        stack = list(reversed(self.children))
        while stack:
            n = stack.pop()
            if isinstance(n, Node):
                yield n
                stack.extend(reversed(n.children))


class _Builder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Node("#root", {})
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        node = Node(tag, {k: (v if v is not None else "") for k, v in attrs})
        self.stack[-1].children.append(node)
        if tag not in _VOID:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.stack[-1].children.append(
            Node(tag, {k: (v if v is not None else "") for k, v in attrs}))

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # stray end tag: ignore (tolerant)

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def parse_html(html: bytes | str) -> Node:
    if isinstance(html, bytes):
        html = html.decode("utf-8", errors="replace")
    b = _Builder()
    try:
        b.feed(html)
        b.close()
    except Exception:
        pass  # tolerant: keep whatever parsed
    return b.root


def _match_simple(node: Node, tag: str | None, classes: set[str]) -> bool:
    if tag and node.tag != tag:
        return False
    return classes <= node.classes() if classes else True


def css(root: Node, selector: str) -> list[Node]:
    """Descendant-combinator CSS subset: ``tag.class1.class2 tag2.c ...``.
    Each space-separated step matches any descendant of the previous match.
    Returns matches in document order, deduplicated."""
    steps = []
    for step in selector.split():
        parts = step.split(".")
        tag = parts[0] or None
        steps.append((tag, set(parts[1:])))
    current = [root]
    for tag, classes in steps:
        nxt: list[Node] = []
        seen: set[int] = set()
        for base in current:
            for n in base.iter():
                if id(n) not in seen and _match_simple(n, tag, classes):
                    seen.add(id(n))
                    nxt.append(n)
        current = nxt
        if not current:
            break
    return current


# --- tolerant extractors mirroring functions/htmlx.py fast paths ---

_RC = re.compile(r"(\d+)\s*reviews")


def extract_detail_dom(html: bytes) -> dict:
    root = parse_html(html)

    def first_text(sel: str) -> str | None:
        m = css(root, sel)
        return m[0].text() if m else None

    rc_txt = first_text("span.review-count") or ""
    rc = _RC.search(rc_txt)
    return {
        "name": first_text("h1.name"),
        "address": first_text("p.address"),
        "rating": first_text("span.rating"),
        "price": first_text("span.price"),
        "review_count": int(rc.group(1)) if rc else 0,
        "reviews": [n.text() for n in css(root, "li")],
    }


def extract_listing_dom(html: bytes) -> dict:
    root = parse_html(html)
    cards = []
    for card in css(root, "div.card"):
        a = css(card, "a.detail")
        rating = css(card, "span.rating")
        price = css(card, "span.price")
        if not a or not a[0].attr("href"):
            continue
        cards.append({
            "detail_href": a[0].attr("href"),
            "name": a[0].text(),
            "rating": rating[0].text() if rating else "",
            "price": price[0].text() if price else "",
        })
    nxt = css(root, "a.next")
    return {"cards": cards,
            "next_href": nxt[0].attr("href") if (nxt and nxt[0].attr("href")) else None}


def extract_links_dom(html: bytes) -> list[str]:
    root = parse_html(html)
    seen: set[str] = set()
    out: list[str] = []
    for n in root.iter():
        if n.tag == "a":
            h = n.attr("href")
            if h and h not in seen:
                seen.add(h)
                out.append(h)
    return out
