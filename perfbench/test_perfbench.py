"""Self-tests of the benchmark itself:

    python3 -m pytest perfbench -q -p no:cacheprovider

They check that BENCHMARK.json keeps to the benchmark contract, that a run
prints exactly the declared metrics, and that the output checks are not
vacuous: they fail when one crawl_order row is dropped or one item or
feature field is changed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import check, procstat
from perfbench import run as bench
from perfbench.trace import Tracer
from perfbench.workloads import WORKLOADS, Workload

TINY_CRAWL = Workload(
    name="tiny_crawl", kind="crawl", why="self-test",
    spec=dict(n_hosts=12, total_pages=400, page_size=10, n_buckets=4,
              max_details_per_host=60),
    cfg=dict(n_filter_shards=2, n_frontier_shards=2, checkpoint_every=1,
             max_waves=10))
TINY_FEATURIZE = Workload(
    name="tiny_featurize", kind="featurize", why="self-test",
    spec=dict(n_hosts=6, total_pages=200, page_size=20, n_buckets=2))

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_contract():
    b = _benchmark_json()
    assert set(b) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert b["command"] == ["python3", "perfbench/run.py"]
    assert b["paths"] == ["perfbench"]
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    assert [w["name"] for w in b["workloads"]] == list(WORKLOADS)
    for w in b["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in b["workloads"]]
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in b["end_to_end"] + b["per_layer"]:
        assert _UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert all(_NAME.match(n) for n in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in b["end_to_end"])


def test_tracer_self_times():
    t = Tracer()

    def leaf():
        time.sleep(0.02)
        return [1, 2, 3]

    def outer():
        time.sleep(0.01)
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = t.wrap(leaf, "leaf", lambda c, a, out: c.__setitem__(
        "items", c["items"] + len(out)))
    with t.span("root"):
        t.wrap(outer, "outer")()
    s = t.summary()
    assert s["leaf"]["calls"] == 2 and t.counts["items"] == 6
    assert s["outer"]["self_s"] == pytest.approx(
        s["outer"]["total_s"] - s["leaf"]["total_s"], abs=1e-9)
    assert s["root"]["total_s"] == pytest.approx(
        sum(v["self_s"] for v in s.values()), abs=1e-9)


def test_tracer_patched_restores():
    class Target:
        def f(self):
            return 1

    t = Tracer()
    orig = Target.__dict__["f"]
    with t.patched([(Target, "f", "target.f", None)]):
        assert Target().f() == 1
    assert Target.__dict__["f"] is orig
    assert t.summary()["target.f"]["calls"] == 1


def test_procstat_groups_this_process():
    before = procstat.snapshot()
    assert before[os.getpid()][0] == "driver"
    sum(range(200_000))
    delta = procstat.cpu_delta(before, procstat.snapshot())
    assert set(delta) == set(procstat.GROUPS)
    assert delta["driver"] >= 0.0


def test_procstat_reset_hwm():
    pid = os.getpid()
    block = bytearray(64 << 20)
    block[::4096] = b"x" * len(block[::4096])   # touch every page
    del block
    peak = procstat.snapshot()[pid][3]
    procstat.reset_hwm([pid])
    assert procstat.snapshot()[pid][3] < peak - (32 << 10)


def test_checker_runs_full_check_once_per_passing_output():
    calls = []

    def full(diffs):
        return lambda: calls.append(diffs) or list(diffs)

    c = bench.Checker()
    assert c("a", full([])) == [] and c("a", full(["unused"])) == []
    assert c("b", full(["bad"])) == ["bad"] and c("b", full(["bad"])) == ["bad"]
    assert calls == [[], ["bad"], ["bad"]]


@pytest.mark.parametrize("w", [TINY_CRAWL, TINY_FEATURIZE],
                         ids=lambda w: w.name)
def test_run_prints_declared_metrics(w):
    """A traced run computes both metric sets (run() raises when either
    differs from BENCHMARK.json) and prints the per-layer one."""
    out = bench.run(w, seed=3, seconds=0.0, trace=True)
    assert out["correct"] and out["attempted"] == 2 * bench.MIN_ITERS
    assert out["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert out["metrics"]["trace.run_s"]["value"] > 0


@pytest.fixture(scope="module")
def ray_session():
    bench.start_ray(1)
    yield
    bench.stop_ray()


def test_crawl_check_fails_on_mutation(ray_session, tmp_path):
    from scrapy_ray.pipelines.crawl import run_crawl

    inputs = bench.prepare_inputs(TINY_CRAWL, seed=5)
    ref_dir = os.path.join(inputs, "reference")
    ref = check.load_reference(ref_dir)
    res = run_crawl(os.path.join(inputs, "corpus"),
                    TINY_CRAWL.crawl_config(str(tmp_path / "ckpt")))
    assert check.crawl_diffs(res, ref) == []
    check.save_crawl_result(res, str(tmp_path / "ok"))
    assert bench.run_check("crawl", str(tmp_path / "ok"), ref_dir) == []

    order = res.crawl_order
    k = len(order) // 2
    dropped = dataclasses.replace(res, crawl_order=pa.concat_tables(
        [order.slice(0, k), order.slice(k + 1)]))
    assert any("crawl_order" in d for d in check.crawl_diffs(dropped, ref))
    check.save_crawl_result(dropped, str(tmp_path / "dropped"))
    assert any("crawl_order" in d for d in bench.run_check(
        "crawl", str(tmp_path / "dropped"), ref_dir))
    assert check.crawl_digest(dropped) != check.crawl_digest(res)

    names = res.items["name"].to_pylist()
    names[0] += "x"
    changed = dataclasses.replace(res, items=res.items.set_column(
        res.items.schema.get_field_index("name"), "name",
        pa.array(names, type=pa.string())))
    assert any("items" in d for d in check.crawl_diffs(changed, ref))
    assert check.crawl_digest(changed) != check.crawl_digest(res)


def test_featurize_check_fails_on_mutation(ray_session, tmp_path):
    from scrapy_ray.stages.features import featurize_corpus

    inputs = bench.prepare_inputs(TINY_FEATURIZE, seed=5)
    with open(os.path.join(inputs, "meta.json")) as fh:
        rows = json.load(fh)["corpus_rows"]
    out = str(tmp_path / "features")
    assert featurize_corpus(os.path.join(inputs, "corpus"), out) == rows
    assert bench.run_check("featurize", out, str(rows)) == []
    good = check.featurize_digest(out)

    path = os.path.join(out, sorted(f for f in os.listdir(out)
                                    if f.endswith(".parquet"))[0])
    t = pq.read_table(path)
    detail = next(i for i, u in enumerate(t["url"].to_pylist())
                  if check._DETAIL.match(u))
    names = t["name"].to_pylist()
    names[detail] += "x"
    pq.write_table(t.set_column(t.schema.get_field_index("name"), "name",
                                pa.array(names, type=pa.string())), path)
    assert any("differ" in d for d in bench.run_check("featurize", out,
                                                     str(rows)))
    assert check.featurize_digest(out) != good

    pq.write_table(t.slice(1), path)
    assert any("rows" in d for d in check.featurize_diffs(out, rows))
