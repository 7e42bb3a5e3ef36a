"""Session helpers: ``quiet_ray_data`` is for whoever owns the session
(bench.py, tests, CLI); ``cluster_cpus`` reads the session the engine runs
in."""

from __future__ import annotations

import logging


def quiet_ray_data() -> None:
    """Silence Ray Data per-execution INFO spam + progress bars. Call after
    ray.init() from whoever owns the session."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    try:
        ctx.execution_options.verbose_progress = False
    except Exception:
        pass
    for name in ("ray.data", "ray.data._internal", "ray"):
        logging.getLogger(name).setLevel(logging.WARNING)

    class _EmptyBundleSchemaFilter(logging.Filter):
        """Drop ONLY Ray's cosmetic 'RefBundle with a different schema ...
        new schema: .' warnings — hash aggregates emit empty partition
        blocks with no schema and Ray warns once per bundle, burying real
        warnings in every bench tail. Anything else (including real
        schema mismatches, which name a non-empty new schema) passes."""

        def filter(self, record: logging.LogRecord) -> bool:
            m = record.getMessage()
            return not ("RefBundle with a different schema" in m
                        and "new schema: ." in m)

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptyBundleSchemaFilter())


def cluster_cpus() -> int:
    """CPUs of the connected Ray cluster, at least 1: a cluster that reports
    none cannot run a ``num_cpus=1`` task anyway."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))
