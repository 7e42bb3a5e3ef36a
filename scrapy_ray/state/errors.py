"""Shard consistency errors (SURVEY.md §4.2 actor fault tolerance).

With ``max_restarts>0`` a dead shard revives EMPTY and Ray silently queues
post-death RPCs onto the fresh actor — no exception, just silent state loss
(an empty frontier reads as "crawl finished"). The epoch guard makes that
loud: the driver stamps every shard with the run epoch after each
seed/restore/reset; a restarted shard still carries the construction epoch
(-1) and raises ``StaleShardError`` on first use (state/shard.py
CrawlShard._guard), which the wave loop catches to trigger whole-pool
restore from the last committed checkpoint (pipelines/crawl.py recover())."""


class StaleShardError(RuntimeError):
    """Raised by a shard whose in-memory state predates the driver's epoch
    (i.e. the actor restarted since the driver last stamped it)."""
