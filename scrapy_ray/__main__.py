"""CLI entrypoint — the ``scrapy crawl`` / ``ray job submit`` surface
(SURVEY.md §3.1):

    python -m scrapy_ray crawl --corpus /path/to/corpus --out /tmp/out \
        [--checkpoint DIR] [--resume] [--max-pages N] [--delay S] [--format parquet]
    python -m scrapy_ray gen --out /path/to/corpus --hosts 50 --pages 5000

On a real cluster the same command runs unchanged under
``ray job submit -- python -m scrapy_ray crawl ...`` — the script owns the
session via ray.init(address=...) which in a job context attaches to the
cluster. This module (not the library) owns ray.init/shutdown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="scrapy_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="run the wave-loop crawl over a pages corpus")
    c.add_argument("--corpus", required=True)
    c.add_argument("--out", required=True, help="items export directory")
    c.add_argument("--format", default="parquet", choices=["parquet", "json", "csv", "xml", "marshal", "pickle"])
    c.add_argument("--checkpoint", default=None)
    c.add_argument("--jobdir", default=None, metavar="DIR",
                   help="JOBDIR parity: checkpoint to DIR/checkpoint, spill "
                        "the frontier to DIR/spill, and auto-resume when a "
                        "committed manifest exists")
    c.add_argument("--resume", action="store_true")
    c.add_argument("--max-pages", type=int, default=0)
    c.add_argument("--max-errors", type=int, default=0,
                   help="CLOSESPIDER_ERRORCOUNT: stop after N error responses")
    c.add_argument("--max-waves", type=int, default=0)
    c.add_argument("--delay", type=float, default=0.0)
    c.add_argument("--randomize-delay", action="store_true",
                   help="RANDOMIZE_DOWNLOAD_DELAY: deterministic hash-jitter "
                        "in [0.5d, 1.5d) per host emission")
    c.add_argument("--per-domain-cap", type=int, default=8)
    c.add_argument("--max-wave-urls", type=int, default=0,
                   help="global per-wave URL cap (CONCURRENT_REQUESTS)")
    c.add_argument("--depth-limit", type=int, default=0)
    c.add_argument("--no-robots", action="store_true")
    c.add_argument("--autothrottle", action="store_true",
                   help="F4 adaptive per-host delay (deterministic virtual latency)")
    c.add_argument("--sitemap-seeds", default=None, metavar="PATH",
                   help="seed from a sitemap.xml / index / directory instead "
                        "of the corpus seeds.parquet ([S:SitemapSpider])")
    c.add_argument("--user-agent", default="*",
                   help="USER_AGENT for robots.txt group selection "
                        "(RFC 9309 longest-match; default '*')")
    c.add_argument("--fields", default=None, metavar="COLS",
                   help="comma-separated export column selection/order "
                        "(FEED_EXPORT_FIELDS)")
    c.add_argument("--batch-item-count", type=int, default=None, metavar="N",
                   help="deliver the feed as numbered files of N items each "
                        "(FEED_EXPORT_BATCH_ITEM_COUNT)")
    c.add_argument("--frontier-max-rows", type=int, default=0,
                   help="spill cold hosts to disk past this many in-memory "
                        "frontier rows per shard (0 = unbounded)")
    c.add_argument("--frontier-spill-dir", default=None)
    c.add_argument("--compress", default=None,
                   choices=["gzip", "bz2", "lzma"],
                   help="feed post-processing: compress delivered feed files")
    c.add_argument("--handle-httpstatus", default=None, metavar="CODES",
                   help="comma-separated non-2xx statuses the parser should "
                        "handle as OK (handle_httpstatus_list)")
    c.add_argument("--sitemap-from-robots", action="store_true",
                   help="discover sitemaps from the corpus robots.txt "
                        "Sitemap: directives and seed from them")
    c.add_argument("--deltafetch", default=None, metavar="ITEMS",
                   help="previous crawl's items parquet (file or dir): skip "
                        "pages that already yielded items (DeltaFetch)")
    c.add_argument("--no-metarefresh", action="store_true",
                   help="disable the meta-refresh redirect middleware")
    c.add_argument("--cookies", action="store_true",
                   help="F6 cookies analogue: per-host session tokens in the "
                        "frontier shards; requests carry a session column "
                        "(COOKIES_ENABLED)")
    c.add_argument("--download-maxsize", type=int, default=0,
                   help="drop responses with bodies larger than this many "
                        "raw bytes (DOWNLOAD_MAXSIZE; 0 = off)")
    c.add_argument("--download-warnsize", type=int, default=0,
                   help="count responses larger than this many raw bytes in "
                        "the maxsize_warned stat (DOWNLOAD_WARNSIZE; 0 = off)")
    c.add_argument("--retry-max", type=int, default=0,
                   help="retry 5xx fetches up to N times with lowered priority")
    c.add_argument("--frontier-shards", type=int, default=4)
    c.add_argument("--filter-shards", type=int, default=4)
    c.add_argument("--num-cpus", type=int, default=None)

    g = sub.add_parser("gen", help="generate a deterministic synthetic pages corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--hosts", type=int, default=50)
    g.add_argument("--pages", type=int, default=5000)
    g.add_argument("--page-size", type=int, default=10)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--buckets", type=int, default=16)
    g.add_argument("--num-cpus", type=int, default=None)

    k = sub.add_parser("compact", help="bin-pack small parquet files into "
                                       "~target-size files (no shuffle)")
    k.add_argument("--src", required=True, help="directory of parquet files")
    k.add_argument("--dst", default=None, help="output dir "
                                               "(default <src>.compacted)")
    k.add_argument("--target-mb", type=int, default=128)
    k.add_argument("--num-cpus", type=int, default=None)

    pr = sub.add_parser("parse", help="fetch ONE url from the corpus and "
                                      "print its parsed item + links "
                                      "(scrapy parse)")
    pr.add_argument("--corpus", required=True)
    pr.add_argument("--url", required=True)
    pr.add_argument("--num-cpus", type=int, default=None)

    ck = sub.add_parser("check", help="run registered spider contracts "
                                      "against a corpus (scrapy check)")
    ck.add_argument("--corpus", required=True)
    ck.add_argument("--module", default=None,
                    help="importable module that registers contracts "
                         "(scrapy_ray.contracts.contract calls at import)")
    ck.add_argument("--num-cpus", type=int, default=None)

    tp = sub.add_parser("pipeline", help="crawl -> quality gate -> exact "
                                         "dedup -> training shards, one run")
    tp.add_argument("--corpus", required=True)
    tp.add_argument("--out", required=True, help="training-shard output dir")
    tp.add_argument("--shards", type=int, default=8)
    tp.add_argument("--min-tokens", type=int, default=3)
    tp.add_argument("--neardup", action="store_true",
                    help="also collapse MinHash-LSH near-duplicates "
                         "(keep-min-url-hash per cluster)")
    tp.add_argument("--neardup-tau", type=float, default=0.5)
    tp.add_argument("--semdedup", action="store_true",
                    help="also collapse SEMANTIC near-duplicates (SemDeDup "
                         "over hashed-trigram embeddings, SRP cells, "
                         "keep-min-url-hash per cell)")
    tp.add_argument("--semdedup-tau", type=float, default=0.8)
    tp.add_argument("--num-cpus", type=int, default=None)

    v = sub.add_parser("validate", help="check a bucketed corpus's "
                                        "integrity invariants")
    v.add_argument("--corpus", required=True)
    v.add_argument("--num-cpus", type=int, default=None)

    qr = sub.add_parser("query", help="run any registry query/pipeline over "
                                      "a testdata dir (the queries() surface "
                                      "from the CLI)")
    qr.add_argument("name", nargs="?", default=None,
                    help="query name (see --list)")
    qr.add_argument("--sf-dir", default="/root/testdata/sf0.001",
                    help="directory of testdata parquet tables")
    qr.add_argument("--out", default=None, metavar="FILE",
                    help="write the full result to this parquet file "
                         "instead of printing a head")
    qr.add_argument("--head", type=int, default=10,
                    help="rows to print when --out is not given")
    qr.add_argument("--list", action="store_true", dest="list_queries",
                    help="list available query names (o = oracle-checked)")
    qr.add_argument("--num-cpus", type=int, default=None)

    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 num_cpus=args.num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    from scrapy_ray.util import quiet_ray_data

    quiet_ray_data()
    try:
        if args.cmd == "gen":
            from scrapy_ray.sources.corpus import CorpusSpec, generate_corpus

            spec = CorpusSpec(n_hosts=args.hosts, total_pages=args.pages,
                              page_size=args.page_size, seed=args.seed,
                              n_buckets=args.buckets)
            generate_corpus(args.out, spec)
            print(json.dumps({"corpus": args.out, "spec": spec.__dict__}))
        elif args.cmd == "pipeline":
            from scrapy_ray.config import CrawlConfig
            from scrapy_ray.pipelines.corpusbuild import build_training_corpus
            from scrapy_ray.pipelines.crawl import run_crawl

            res = run_crawl(args.corpus, CrawlConfig())
            manifest = build_training_corpus(res.items, args.out,
                                             n_shards=args.shards,
                                             min_tokens=args.min_tokens,
                                             neardup=args.neardup,
                                             neardup_tau=args.neardup_tau,
                                             semdedup=args.semdedup,
                                             semdedup_tau=args.semdedup_tau)
            manifest["pages_fetched"] = res.metrics["pages_fetched"]
            print(json.dumps(manifest))
        elif args.cmd == "validate":
            from scrapy_ray.sources.validate import validate_corpus

            res = validate_corpus(args.corpus)
            print(json.dumps(res))
            return 0 if res["ok"] else 1
        elif args.cmd == "parse":
            from scrapy_ray.contracts import _page_row
            from scrapy_ray.stages.parse import parse_page_batch
            import pyarrow as pa

            row = _page_row(args.corpus, args.url)
            if row is None:
                print(json.dumps({"url": args.url,
                                  "error": "page not in corpus"}))
                return 1
            t = row.append_column("seq", pa.array([0], pa.int64()))
            t = t.append_column("depth", pa.array([0], pa.int32()))
            items, links, n_not_ok = parse_page_batch(t)
            items = items.to_pylist()
            print(json.dumps({"url": args.url, "status_ok": n_not_ok == 0,
                              "item": items[0] if items else None,
                              "links": links["url"].to_pylist()}))
        elif args.cmd == "check":
            if args.module:
                import importlib

                importlib.import_module(args.module)
            from scrapy_ray.contracts import check_contracts

            results = check_contracts(args.corpus)
            for r in results:
                print(json.dumps(r))
            return 0 if results and all(r["ok"] for r in results) else 1
        elif args.cmd == "query":
            import time

            from scrapy_ray.pipelines.oracle import to_pandas
            from scrapy_ray.pipelines.registry_all import full_registry

            reg = full_registry()
            if args.list_queries or args.name is None:
                for name in sorted(reg):
                    print(("o " if reg[name][1] is not None else "  ") + name)
                return 0
            if args.name not in reg:
                print(json.dumps({"error": f"unknown query {args.name!r}",
                                  "hint": "use --list"}))
                return 1
            t0 = time.time()
            df = to_pandas(reg[args.name][0](args.sf_dir))
            secs = round(time.time() - t0, 3)
            if args.out:
                import pyarrow as pa
                import pyarrow.parquet as pq

                pq.write_table(
                    pa.Table.from_pandas(df, preserve_index=False)
                    .replace_schema_metadata(None), args.out)
                print(json.dumps({"query": args.name, "rows": len(df),
                                  "cols": list(df.columns), "secs": secs,
                                  "out": args.out}))
            else:
                print(json.dumps({"query": args.name, "rows": len(df),
                                  "cols": list(df.columns), "secs": secs}))
                print(df.head(args.head).to_string())
        elif args.cmd == "compact":
            from scrapy_ray.sources.compact import (compact_parquet_dir,
                                                    verify_compaction)

            res = compact_parquet_dir(args.src, args.dst,
                                      target_mb=args.target_mb)
            res["verified"] = verify_compaction(args.src, res["out_dir"])
            print(json.dumps(res))
        else:
            from scrapy_ray.config import CrawlConfig
            from scrapy_ray.pipelines.crawl import run_crawl
            from scrapy_ray.sources.sinks import export_items

            checkpoint = args.checkpoint
            spill_dir = args.frontier_spill_dir
            resume = args.resume
            if args.jobdir:
                if args.checkpoint:
                    raise SystemExit("--jobdir and --checkpoint are exclusive")
                checkpoint = os.path.join(args.jobdir, "checkpoint")
                spill_dir = spill_dir or os.path.join(args.jobdir, "spill")
                # Scrapy resumes from JOBDIR automatically when state exists
                resume = resume or os.path.exists(
                    os.path.join(checkpoint, "manifest.json"))
            cfg = CrawlConfig(
                per_domain_cap=args.per_domain_cap, download_delay=args.delay,
                max_wave_urls=args.max_wave_urls,
                randomize_download_delay=args.randomize_delay,
                frontier_max_rows=args.frontier_max_rows,
                frontier_spill_dir=spill_dir,
                obey_robots=not args.no_robots, depth_limit=args.depth_limit,
                max_pages=args.max_pages, max_waves=args.max_waves,
                max_errors=args.max_errors,
                n_filter_shards=args.filter_shards,
                n_frontier_shards=args.frontier_shards,
                checkpoint_dir=checkpoint,
                autothrottle=args.autothrottle,
                cookies=args.cookies,
                retry_max=args.retry_max,
                metarefresh=not args.no_metarefresh,
                deltafetch_items=args.deltafetch,
                download_maxsize=args.download_maxsize,
                download_warnsize=args.download_warnsize,
                user_agent=args.user_agent,
                handle_httpstatus_list=(
                    tuple(int(x) for x in args.handle_httpstatus.split(","))
                    if args.handle_httpstatus else ()),
            )
            seeds = None
            if args.sitemap_seeds:
                from scrapy_ray.sources.sitemap import read_sitemap_seeds
                seeds = read_sitemap_seeds(args.sitemap_seeds)
            elif args.sitemap_from_robots:
                from scrapy_ray.sources.sitemap import read_robots_sitemap_seeds
                seeds = read_robots_sitemap_seeds(args.corpus)
            res = run_crawl(args.corpus, cfg, seeds=seeds, resume=resume)
            export_items(res.items, args.out, fmt=args.format,
                         fields=(tuple(args.fields.split(","))
                                 if args.fields else None),
                         batch_item_count=args.batch_item_count,
                         compress=args.compress)
            m = dict(res.metrics)
            if "sessions" in m:   # F6: summarize (one entry per host/request)
                m["n_session_hosts"] = len(m.pop("sessions"))
                m["n_session_log"] = len(m.pop("session_log"))
            print(json.dumps(m))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
