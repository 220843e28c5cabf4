#!/usr/bin/env python3
"""Service benchmark for bosd: one workload, one seed, one run.

    python3 svcbench/run.py --workload ingest|query|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a BOS checkout. It builds bosd and the benchmark's
load generator from the checkout's sources (CMake, into .bench_build/),
runs the workload against bosd on loopback, checks every answer against
the load generator's model, prints a human-readable report, and prints
as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, and a Chrome trace-event
file (open it in Perfetto) is written under .bench_out/. See
svcbench/README.md for what each workload and metric means.

Exit status: 0 when the run is correct and no operation failed; 1 when a
result mismatched or an operation was refused or failed (the JSON line is
still printed); 2 when the benchmark could not build or run at all (no
JSON line).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
LOADGEN_TIMEOUT_S = 170
POINT_BYTES = 16
WORKLOADS = ["ingest", "query", "mixed"]
# Printed with every run but not in the result line, so not gated: on a
# shared VM their run-to-run spread is wider than any allowed bound.
UNGATED = {"append_p99_ms", "query_p99_ms"}


def fail(msg):
    print(f"svcbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "tools" / "bosd.cc"
    ).is_file():
        fail(f"no BOS sources next to the benchmark ({ROOT}/src); run it "
             "from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log})")


def run_loadgen(args, work, raw):
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    raw.unlink(missing_ok=True)  # never report an earlier run's result
    # Write back whatever the build or an earlier run left dirty, so that
    # writeback does not slow this run's fsyncs.
    os.sync()
    cmd = [str(BUILD / "svcbench_loadgen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bosd", str(BUILD / "bosd"), "--work", str(work),
           "--out", str(raw), "--fault", args.fault]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=LOADGEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"load generator did not finish within {LOADGEN_TIMEOUT_S} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def phase_note(p):
    return (f"{p['name']}, median of {p['windows']} windows over "
            f"{p['seconds']:.1f} s")


def latency_note(p, q):
    return (f"n={p['n']}, {phase_note(p)}; whole run {q} "
            f"{p['run_' + q + '_ms']:.4f} ms, p99.9 {p['run_p999_ms']:.4f} ms, "
            f"max {p['run_max_ms']:.4f} ms")


def end_to_end(raw):
    """The end-to-end metrics, each with its unit and sample count."""
    ap, qp = raw["append_phase"], raw["query_phase"]
    acked = max(1, raw["points_acked"])
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s",
                    f"median of {len(raw['setup_s'])} set-ups"),
        "ingest_mb_s": (ap["points_per_s"] * POINT_BYTES / 1e6, "MB/s",
                        f"{ap['ok']} acked appends, {phase_note(ap)}"),
        "append_p50_ms": (ap["p50_ms"], "ms", latency_note(ap, "p50")),
        "append_p99_ms": (ap["p99_ms"], "ms", latency_note(ap, "p99")),
        "query_qps": (qp["ok_per_s"], "1/s",
                      f"{qp['ok']} queries, {phase_note(qp)}"),
        "query_p50_ms": (qp["p50_ms"], "ms", latency_note(qp, "p50")),
        "query_p99_ms": (qp["p99_ms"], "ms", latency_note(qp, "p99")),
        "stored_bytes_per_point": (raw["stored_bytes"] / acked, "B/point",
                                   f"{raw['points_acked']} points acked"),
        "server_peak_rss_mb": (raw["server_peak_rss_kb"] / 1024, "MB",
                               f"{raw['bosd_starts']} bosd processes"),
    }


def per_layer(raw, e2e):
    """Per-layer metrics from the traced run: bosd stats deltas over the
    measured phase, and the in-process layer replays."""
    stats = raw["stats"]

    def counter(snap, name):
        return stats[snap]["telemetry"]["counters"].get(name, 0)

    def hist(snap, name):
        h = stats[snap]["telemetry"]["histograms"].get(name, {})
        return h.get("count", 0), h.get("sum", 0)

    def delta(name, a="before", b="after"):
        return counter(b, name) - counter(a, name)

    def hdelta(name, a="before", b="after"):
        (c0, s0), (c1, s1) = hist(a, name), hist(b, name)
        return c1 - c0, s1 - s0

    def ratio(a, b):
        return a / b if b else 0.0

    ap, qp, m = raw["append_phase"], raw["query_phase"], raw["measured"]
    acked = ap["points"] if ap["name"] == "measured" else 0
    returned = qp["points"] if qp["name"] == "measured" else 0
    queries = qp["n"] if qp["name"] == "measured" else 0
    requests = max(1, m["requests"])
    hits, misses = delta("bos.storage.cache.hits"), delta("bos.storage.cache.misses")
    r = dict(raw["replay"])
    out = {
        "net.wire.append_parse_mb_s": r["net.wire.append_parse_mb_s"],
        "net.wire.points_encode_mb_s": r["net.wire.points_encode_mb_s"],
        "net.bytes_rx_per_point": ratio(delta("bos.net.bytes.rx"), acked + returned),
        "net.bytes_tx_per_point": ratio(delta("bos.net.bytes.tx"), acked + returned),
        "net.group_commit.batches_per_drain": ratio(
            delta("bos.net.group_commit.batches"), delta("bos.net.group_commit.drains")),
        "net.rejected.backpressure": delta("bos.net.rejected.backpressure"),
        "exec.strand.posted_per_request": delta("bos.exec.strand.posted") / requests,
        "exec.pool.tasks_per_request": delta("bos.exec.pool.tasks") / requests,
        "storage.wal.append_mb_s": r["storage.wal.append_mb_s"],
        "storage.wal.appends": delta("bos.storage.wal.appends"),
        "storage.wal.appends_per_point": ratio(delta("bos.storage.wal.appends"), acked),
        "storage.wal.busy_s": (hdelta("bos.storage.wal.append_ns")[1]
                               + hdelta("bos.storage.wal.sync_ns")[1]) / 1e9,
        "storage.store.write_batch_mb_s": r["storage.store.write_batch_mb_s"],
        "storage.store.flush_ms": r["storage.store.flush_ms"],
        "storage.store.query_mb_s": r["storage.store.query_mb_s"],
        "storage.flush.count": hdelta("bos.storage.flush.span_ns")[0],
        "storage.flush.busy_s": hdelta("bos.storage.flush.span_ns")[1] / 1e9,
        "storage.tsfile.read_range_mb_s": r["storage.tsfile.read_range_mb_s"],
        "storage.tsfile.encode_pages_mb_s": r["storage.tsfile.encode_pages_mb_s"],
        "storage.page_cache.lookups": hits + misses,
        "storage.page_cache.hit_ratio": ratio(hits, hits + misses),
        "storage.page_cache.evictions": delta("bos.storage.cache.evictions"),
        "storage.page.reads": delta("bos.storage.page.reads"),
        "storage.page.reads_per_query": ratio(delta("bos.storage.page.reads"), queries),
        "storage.files_per_series": r["storage.files_per_series"],
        "storage.page.write_bytes_per_user_byte": ratio(
            delta("bos.storage.page.write_bytes", "start", "final"),
            raw["points_acked"] * POINT_BYTES),
        "codecs.ts.compress_mb_s": r["codecs.ts.compress_mb_s"],
        "codecs.ts.decompress_mb_s": r["codecs.ts.decompress_mb_s"],
        "codecs.ts.bytes_per_point": r["codecs.ts.bytes_per_point"],
        "select.values_decoded_per_returned": ratio(m["pred_window_points"],
                                                    m["pred_returned"]),
        "core.bos.encode_mb_s": r["core.bos.encode_mb_s"],
        "core.bos.decode_mb_s": r["core.bos.decode_mb_s"],
        "core.search.busy_s": hdelta("bos.core.search.bos_b_ns")[1] / 1e9,
        "bitpack.pack_gb_s": r["bitpack.pack_gb_s"],
        "bitpack.unpack_gb_s": r["bitpack.unpack_gb_s"],
        "bitpack.mean_width": r["bitpack.mean_width"],
        "loadgen.lag_p99_ms": raw["loadgen"]["lag_p99_ms"],
        "loadgen.backlog_growth": backlog_growth(raw),
    }
    # Waterfall: the share of throughput lost from one layer to the next
    # one up (negative when the upper layer's parallelism wins it back).
    service_query_mb_s = qp["points"] * POINT_BYTES / 1e6 / max(qp["seconds"], 1e-9)
    out["waterfall.ingest.codec_to_store"] = 1 - ratio(
        out["storage.store.write_batch_mb_s"], out["codecs.ts.compress_mb_s"])
    out["waterfall.ingest.store_to_service"] = 1 - ratio(
        e2e["ingest_mb_s"][0], out["storage.store.write_batch_mb_s"])
    out["waterfall.query.codec_to_tsfile"] = 1 - ratio(
        out["storage.tsfile.read_range_mb_s"], out["codecs.ts.decompress_mb_s"])
    out["waterfall.query.store_to_service"] = 1 - ratio(
        service_query_mb_s, out["storage.store.query_mb_s"])
    return {name: out[name] for name in PER_LAYER}


def backlog_growth(raw):
    """Open loop only: how much the completion rate fell from the first
    half of the run to the second (> 0.1 means a growing backlog)."""
    lg = raw["loadgen"]
    return 1 - lg["second_half"] / lg["first_half"] if lg["first_half"] else 0.0


# Every per-layer metric with its unit and which direction is better.
# The traced run prints them in this order; BENCHMARK.json lists the same.
PER_LAYER = {
    "net.wire.append_parse_mb_s": ("MB/s", "higher"),
    "net.wire.points_encode_mb_s": ("MB/s", "higher"),
    "net.bytes_rx_per_point": ("B/point", "lower"),
    "net.bytes_tx_per_point": ("B/point", "lower"),
    "net.group_commit.batches_per_drain": ("ratio", "higher"),
    "net.rejected.backpressure": ("count", "lower"),
    "exec.strand.posted_per_request": ("ratio", "lower"),
    "exec.pool.tasks_per_request": ("ratio", "lower"),
    "storage.wal.append_mb_s": ("MB/s", "higher"),
    "storage.wal.appends": ("count", "lower"),
    "storage.wal.appends_per_point": ("ratio", "lower"),
    "storage.wal.busy_s": ("s", "lower"),
    "storage.store.write_batch_mb_s": ("MB/s", "higher"),
    "storage.store.flush_ms": ("ms", "lower"),
    "storage.store.query_mb_s": ("MB/s", "higher"),
    "storage.flush.count": ("count", "lower"),
    "storage.flush.busy_s": ("s", "lower"),
    "storage.tsfile.read_range_mb_s": ("MB/s", "higher"),
    "storage.tsfile.encode_pages_mb_s": ("MB/s", "higher"),
    "storage.page_cache.lookups": ("count", "lower"),
    "storage.page_cache.hit_ratio": ("ratio", "higher"),
    "storage.page_cache.evictions": ("count", "lower"),
    "storage.page.reads": ("count", "lower"),
    "storage.page.reads_per_query": ("ratio", "lower"),
    "storage.files_per_series": ("ratio", "lower"),
    "storage.page.write_bytes_per_user_byte": ("ratio", "lower"),
    "codecs.ts.compress_mb_s": ("MB/s", "higher"),
    "codecs.ts.decompress_mb_s": ("MB/s", "higher"),
    "codecs.ts.bytes_per_point": ("B/point", "lower"),
    "select.values_decoded_per_returned": ("ratio", "lower"),
    "core.bos.encode_mb_s": ("MB/s", "higher"),
    "core.bos.decode_mb_s": ("MB/s", "higher"),
    "core.search.busy_s": ("s", "lower"),
    "bitpack.pack_gb_s": ("GB/s", "higher"),
    "bitpack.unpack_gb_s": ("GB/s", "higher"),
    "bitpack.mean_width": ("bits", "lower"),
    "loadgen.lag_p99_ms": ("ms", "lower"),
    "loadgen.backlog_growth": ("fraction", "lower"),
    "waterfall.ingest.codec_to_store": ("fraction", "lower"),
    "waterfall.ingest.store_to_service": ("fraction", "lower"),
    "waterfall.query.codec_to_tsfile": ("fraction", "lower"),
    "waterfall.query.store_to_service": ("fraction", "lower"),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test hook (svcbench/selftest.py): "checksum" corrupts one
    # expected checksum, "refusal" makes bosd refuse every append.
    ap.add_argument("--fault", choices=["none", "checksum", "refusal"],
                    default="none", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    if args.workload == "all":
        # One report per workload, one after the other; fails if any does.
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds",
                                 str(args.seconds), "--trace", str(args.trace),
                                 "--fault", args.fault]).returncode
                 for w in WORKLOADS]
        return max(codes)
    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / f"{tag}-trace{args.trace}"
    raw_path = OUT / f"{tag}-trace{args.trace}.raw.json"
    code = run_loadgen(args, work, raw_path)
    if not raw_path.is_file():
        fail(f"load generator exited {code} without a result")
    raw = json.loads(raw_path.read_text())
    if raw["error"]:
        fail(f"load generator failed: {raw['error']}")
    shutil.rmtree(work / "store", ignore_errors=True)

    env = raw["env"]
    print(f"svcbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"env: nproc={env['nproc']} avx2={env['avx2']} bmi2={env['bmi2']} "
          f"build={env['build_type']} telemetry={env['telemetry']} "
          f"store_fs={env['store_fs']} connections={env['connections']} "
          f"shards={env['shards']} cache_mb/shard={env['cache_mb_per_shard']} "
          "(loopback and this machine's filesystem; not a device's latency)")
    attempted = failed = 0
    for op, c in raw["ops"].items():
        bad = c["refused"] + c["errors"]
        attempted += c["attempted"]
        failed += bad
        print(f"ops.{op}: attempted={c['attempted']} refused={c['refused']} "
              f"errors={c['errors']}")
    print(f"failed_frac {failed / max(1, attempted):.6f} "
          f"(refused + errored / attempted, n={attempted})")
    e2e = end_to_end(raw)
    for name, (value, unit, note) in e2e.items():
        gate = " [not gated]" if name in UNGATED else ""
        print(f"{name:24s} {value:14.6f} {unit:8s} ({note}){gate}")
    if args.workload == "mixed":
        print(f"loadgen.lag_p99_ms {raw['loadgen']['lag_p99_ms']:.4f} ms "
              f"(n={raw['loadgen']['lag_n']}); loadgen.backlog_growth "
              f"{backlog_growth(raw):.4f}"
              + (" GROWING BACKLOG" if backlog_growth(raw) > 0.1 else ""))
    if not raw["correct"]:
        print(f"MISMATCH: first differing series: {raw['first_mismatch']}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    plain = {k: v[0] for k, v in e2e.items()}
    if args.trace:
        metrics = per_layer(raw, e2e)
        for name, value in metrics.items():
            print(f"{name:42s} {value:16.6f} {PER_LAYER[name][0]}")
        print(f"trace: {raw['trace_file']} ({raw['spans_recorded']} spans, "
              f"{raw['spans_dropped']} dropped)")
        untraced = results / f"{tag}.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())
            for name, value in plain.items():
                if base.get(name):
                    print(f"trace overhead {name}: {value / base[name] - 1:+.2%} "
                          "vs the untraced run of this seed")
        else:
            print("trace overhead: no untraced run of this seed to compare with")
        out = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in metrics.items()}
    else:
        (results / f"{tag}.json").write_text(json.dumps(plain))
        out = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()
               if k not in UNGATED}
    print(json.dumps({"correct": bool(raw["correct"]), "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
