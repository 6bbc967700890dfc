"""Turns one run's raw measurements (written by the Scala harness) into the
reported metrics, and names which end-to-end metric each per-layer metric
should move, on which workload."""

from collections import defaultdict

from stats import median, percentile, self_times

# The workloads BENCHMARK.json gates. random-partial-dtw runs the same way but
# is left out: its run-to-run spread of batch_s (0.16 to 0.26 over 4 to 5
# seeds) does not fit the largest allowed bound of 0.25.
WORKLOADS = ["seismic-full-ed", "random-split-build"]
UNGATED_WORKLOADS = ["random-partial-dtw"]

# name -> unit; measured with tracing off (--trace 0)
END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "batch_cpu_s": "s",
    "heap_retained_mb": "MB",
}

COST_MODEL_NS_PER_OP = 10.0  # CostModel.OpsPerSec = 1e8 per thread

SEISMIC, BUILD, DTW = WORKLOADS + UNGATED_WORKLOADS
ALL = "every workload"
NONE = "none: must stay bit-identical"

# (name, unit, end-to-end metric it should move, workload it moves on);
# measured by the traced run (--trace 1)
PER_LAYER = [
    ("spark.passes", "count", "batch_s, batch_cpu_s", BUILD),
    ("spark.pass_s", "s", "batch_s", BUILD),
    ("spark.stages", "count", "batch_s", BUILD),
    ("spark.tasks", "count", "batch_s", BUILD),
    ("spark.shuffle_write_mb", "MB", "batch_s, batch_cpu_s", BUILD),
    ("spark.executor_run_s", "s", "batch_s", BUILD),
    ("spark.executor_cpu_s", "s", "batch_cpu_s", BUILD),
    ("spark.gc_s", "s", "batch_cpu_s", BUILD),
    ("spark.deser_s", "s", "batch_s", BUILD),
    ("spark.result_mb", "MB", "batch_s", BUILD),
    ("spark.self_s", "s", "batch_s", BUILD),
    ("core.gen_us_per_series", "us", "batch_cpu_s", BUILD),
    ("core.summarize_us_per_series", "us", "batch_cpu_s", BUILD),
    ("core.ed_ns_per_point", "ns", "batch_s", SEISMIC),
    ("core.mindist_ns_per_seg", "ns", "batch_s", SEISMIC),
    ("core.dtw_ns_per_cell", "ns", "batch_s", DTW),
    ("core.lb_keogh_ns_per_point", "ns", "batch_s", DTW),
    ("index.build_ns_per_series", "ns", "batch_cpu_s", BUILD),
    ("index.exact_ms_p50", "ms", "batch_s", SEISMIC + " (DTW search: " + DTW + ")"),
    ("index.exact_ms_p99", "ms", "batch_s", SEISMIC + " (DTW search: " + DTW + ")"),
    ("index.exact_samples", "count", "sample count of the two above", ALL),
    ("index.exact_ns_per_op", "ns", "batch_s", SEISMIC + " (DTW search: " + DTW + ")"),
    ("index.approx_us_p50", "us", "batch_s", SEISMIC),
    ("index.roots_sorted_us", "us", "batch_s", SEISMIC),
    ("index.self_s", "s", "batch_s", SEISMIC),
    ("index.heap_mb", "MB", "heap_retained_mb", ALL),
    ("index.bytes_model", "MB", "heap_retained_mb", ALL),
    ("index.tree_ops", "count", NONE, ALL),
    ("index.leaves", "count", NONE, ALL),
    ("index.roots", "count", NONE, ALL),
    ("index.ops_total", "count", NONE, ALL),
    ("index.traversal_ops_share", "share", NONE, ALL),
    ("index.pq_ops_share", "share", NONE, ALL),
    ("index.real_dists_per_query", "count", NONE, ALL),
    ("index.pqs_per_query", "count", NONE, ALL),
    ("index.prune_ratio", "share", NONE, ALL),
    ("index.prune_base", "count", NONE, ALL),
    ("cluster.train_predictor_s", "s", "setup_s", SEISMIC),
    ("cluster.train_threshold_s", "s", "setup_s", SEISMIC),
    ("cluster.merge_ms", "ms", "batch_s", SEISMIC),
    ("cluster.plan_ms", "ms", "batch_s", SEISMIC),
    ("cluster.steal_sim_ms", "ms", "batch_s", SEISMIC),
    ("cluster.steals", "count", "batch_s", SEISMIC),
    ("cluster.self_s", "s", "batch_s", SEISMIC),
    ("cluster.sim_query_s", "sim_s", NONE, ALL),
    ("cluster.sim_index_s", "sim_s", NONE, ALL),
    ("jvm.gc_s", "s", "batch_cpu_s, heap_retained_mb", ALL),
    ("jvm.heap_growth_mb_per_batch", "MB", "heap_retained_mb", SEISMIC),
    ("trace.overhead_s", "s", "none: cost of tracing", ALL),
    ("batch_fail_frac", "share", "correct, failed", ALL),
]

# kernel span name -> (metric, scale from ns per unit)
KERNELS = {
    "core.gen": ("core.gen_us_per_series", 1e-3),
    "core.summarize": ("core.summarize_us_per_series", 1e-3),
    "core.ed": ("core.ed_ns_per_point", 1.0),
    "core.mindist": ("core.mindist_ns_per_seg", 1.0),
    "core.dtw": ("core.dtw_ns_per_cell", 1.0),
    "core.lb_keogh": ("core.lb_keogh_ns_per_point", 1.0),
}

PASS_ATTRS = ["stages", "tasks", "shuffle_write_mb", "executor_run_s", "executor_cpu_s",
              "gc_s", "deser_s", "result_mb"]


def dur_s(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def end_to_end(raw):
    return {
        "setup_s": median(raw["setup_s"]),
        "batch_s": median(raw["batch_wall_s"]),
        "batch_cpu_s": median(raw["batch_cpu_s"]),
        "heap_retained_mb": raw["heap_retained_mb"],
    }


def per_iteration(spans):
    """Per traced iteration: pass counters, stage times and layer self times."""
    selfs = self_times(spans)
    by_trace = defaultdict(list)
    for s in spans:
        by_trace[s["trace"]].append(s)
    rows = []
    for trace in sorted(by_trace):
        ss = by_trace[trace]
        passes = [s for s in ss if s["name"] == "spark.pass"]
        root = next(s for s in ss if s["name"] == "batch")
        row = {"spark.passes": len(passes)}
        for a in PASS_ATTRS:
            row["spark." + a] = sum(p["attrs"][a] for p in passes)
        for name in ("merge", "plan", "steal_sim"):
            row["cluster.%s_ms" % name] = 1e3 * sum(dur_s(s) for s in ss if s["name"] == "cluster." + name)
        for layer in ("spark", "index", "cluster"):
            row[layer + ".self_s"] = sum(selfs[s["id"]] for s in ss if s["name"].startswith(layer + ".")) / 1e9
        builds = [s for s in ss if s["name"] == "index.build"]
        row["index.build_ns_per_series"] = 1e9 * sum(map(dur_s, builds)) / sum(s["attrs"]["series"] for s in builds)
        exact = [s for s in ss if s["name"] == "index.exact"]
        row["index.exact_ns_per_op"] = 1e9 * sum(map(dur_s, exact)) / sum(s["attrs"]["ops"] for s in exact)
        row["stages_s"] = sum(dur_s(s) for s in ss if s["parent"] == root["id"])
        rows.append(row)
    return rows


def per_layer(raw):
    spans = raw["spans"]
    rows = per_iteration(spans)
    m = {k: median([r[k] for r in rows]) for k in rows[0] if k != "stages_s"}

    def durations(name, scale):
        return [scale * dur_s(s) for s in spans if s["name"] == name]

    m["spark.pass_s"] = median(durations("spark.pass", 1.0))
    exact_ms = durations("index.exact", 1e3)
    m["index.exact_ms_p50"] = percentile(exact_ms, 50)
    m["index.exact_ms_p99"] = percentile(exact_ms, 99)
    m["index.exact_samples"] = len(exact_ms)
    m["index.approx_us_p50"] = percentile(durations("index.approx", 1e6), 50)
    m["index.roots_sorted_us"] = median(durations("index.roots_sorted", 1e6))
    for span, (metric, scale) in KERNELS.items():
        m[metric] = median([scale * 1e9 * dur_s(s) / s["attrs"]["units"] for s in spans if s["name"] == span])
    m["index.heap_mb"] = raw["index_heap_mb"]
    m.update(raw["values"])
    m["cluster.train_predictor_s"] = raw["train_predictor_s"]
    m["cluster.train_threshold_s"] = raw["train_threshold_s"]
    m["jvm.gc_s"] = median(raw["jvm_gc_s"])
    m["jvm.heap_growth_mb_per_batch"] = raw["jvm_heap_growth_mb_per_batch"]
    m["trace.overhead_s"] = median([r["stages_s"] for r in rows]) - median(raw["interleaved_wall_s"])
    m["batch_fail_frac"] = raw["failed"] / raw["attempted"]
    return m


def result(raw):
    """The run's result object: correct, attempted, failed and the metrics."""
    if raw["trace"]:
        values = per_layer(raw)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        values = end_to_end(raw)
        units = END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError("metrics not measured: %s" % sorted(missing))
    return {
        "correct": raw["failed"] == 0 and all(raw["gates"].values()),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def describe(raw, res):
    """Human-readable lines printed before the result line."""
    lines = ["workload %s seed %s: %d attempted, %d failed; gates %s" % (
        raw["workload"], raw["seed"], raw["attempted"], raw["failed"],
        ", ".join("%s=%s" % kv for kv in raw["gates"].items()))]
    lines += ["error: " + e for e in raw["errors"]]
    lines.append("set-up samples: %d; batch samples: %d" % (len(raw["setup_s"]), len(raw["batch_wall_s"])))
    if "work_ops" in raw:
        lines.append("work: %d search ops per batch, mean over the collections (sum of QueryStatRow.totalOps)"
                     % raw["work_ops"])
    moves = {name: (metric, on) for name, _, metric, on in PER_LAYER}
    for name, mv in res["metrics"].items():
        line = "  %-32s %14.6g %-6s" % (name, mv["value"], mv["unit"])
        if name in moves:
            line += "  moves %s on %s" % moves[name]
        lines.append(line)
    if raw["trace"]:
        v = {name: mv["value"] for name, mv in res["metrics"].items()}
        lines.append("cost model: CostModel assumes %.0f ns/op; measured exact search %.1f ns/op, "
                     "ED %.2f ns/point, MINDIST %.2f ns/segment, DTW %.2f ns/cell, LB_Keogh %.2f ns/point"
                     % (COST_MODEL_NS_PER_OP, v["index.exact_ns_per_op"], v["core.ed_ns_per_point"],
                        v["core.mindist_ns_per_seg"], v["core.dtw_ns_per_cell"],
                        v["core.lb_keogh_ns_per_point"]))
        lines.append("memory: chunk indexes measured %.2f MB vs BuildStats.indexBytes %.2f MB; "
                     "heap after GC grows %.2f MB per batch"
                     % (v["index.heap_mb"], v["index.bytes_model"], v["jvm.heap_growth_mb_per_batch"]))
    return lines
