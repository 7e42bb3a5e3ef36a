"""Stateful actor-pool layer (SURVEY.md §2.3): one CrawlShard actor per
partition holding the URL-seen filter and frontier (politeness + robots)
partitions, with the routing views over them; metrics; checkpoints."""

from scrapy_ray.state.bloom import BloomFilter
from scrapy_ray.state.robots import RobotsRules, parse_robots
from scrapy_ray.state.urlseen import ShardedUrlSeen
from scrapy_ray.state.frontier import ShardedFrontier
from scrapy_ray.state.shard import CrawlShard, ShardPool

__all__ = ["BloomFilter", "RobotsRules", "parse_robots", "ShardedUrlSeen", "ShardedFrontier",
           "CrawlShard", "ShardPool"]
