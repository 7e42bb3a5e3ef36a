"""Stateless map_batches stages (SURVEY.md §2.2, §7.2): parse/extract and
the vectorized link filters. The wave fetch-join runs as raw Ray
tasks; import it from ``scrapy_ray.stages.fetch``."""

from scrapy_ray.stages.extract import extract_items_batch, extract_listing_cards_batch, classify_callback
from scrapy_ray.stages.links import filter_links

__all__ = [
    "extract_items_batch",
    "extract_listing_cards_batch",
    "classify_callback",
    "filter_links",
]
