#!/usr/bin/env python3
"""Validator for dstee_serve's observability artifacts (stdlib only).

Checks a Chrome trace-event JSON file written by --trace and a Prometheus
text exposition written by --metrics-out:

  trace   - parses as JSON with a non-empty traceEvents list
          - every complete ("X") event has sane fields (dur >= 0)
          - events nest properly per (pid, tid) lane: no span partially
            overlaps an enclosing span
          - for every sampled request (pid 2 lane): request, queue and
            batch spans exist, queue starts WITH the request, batch starts
            WHERE queue ends, and queue.dur + batch.dur == request.dur
            exactly (the three derive from the same three clock stamps)
          - at least one per-PlanOp "op" span was recorded
  metrics - every sample's metric family has a preceding # TYPE line
          - histogram cumulative buckets are monotone non-decreasing in
            ascending le order, and the +Inf bucket equals _count
          - every sample value parses as a number
          - every model label (any dstee_* sample carrying one) has the
            full per-model accounting:
            - dstee_batches_total, and the five
              dstee_batch_flush_{full,window,deadline,shutdown,idle}_total
              counters sum to it, and dstee_batch_size_count equals it
            - dstee_requests_total, and every served request is counted
              once in each series: dstee_request_latency_ms_count ==
              dstee_queue_wait_ms_count == dstee_requests_total
          - a ModelRegistry's metrics (those with the unlabeled
            dstee_model_evictions_total counter) hold
            dstee_model_state_bytes > 0 for every label that served
            requests
          - every label with a dstee_swap_ms histogram has the four
            phase histograms dstee_swap_{apply,patch,bind,publish}_ms,
            each with dstee_swap_ms's _count, and their _sums add up to
            dstee_swap_ms_sum (relative 1e-6): the phases tile the swap
  trace   - (as above, plus) every "swap" span's "swap_phase" children
            (same trace_id) tile it exactly

Exit status 0 and "CHECK OBS OK" on success; 1 with a diagnostic on the
first failure. Used by the tools.check_obs and tools.check_obs_registry
CTest cases.
"""

import argparse
import json
import math
import re
import sys


def fail(msg):
    print("check_obs: FAIL: " + msg)
    sys.exit(1)


def ns(us_value):
    """Trace timestamps are microseconds with ns resolution; exact in int."""
    return round(us_value * 1000.0)


def check_trace(path, slack_ns):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents array")

    spans = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        for field in ("name", "pid", "tid", "ts", "dur"):
            if field not in ev:
                fail(f"{path}: X event missing '{field}': {ev}")
        if ev["dur"] < 0:
            fail(f"{path}: negative duration: {ev}")
        spans.append(ev)
    if not spans:
        fail(f"{path}: no complete (ph=X) spans")

    # Nesting: within one lane, a span must not PARTIALLY overlap an
    # enclosing span. Sort by (start, -dur) so parents precede children.
    lanes = {}
    for ev in spans:
        lanes.setdefault((ev["pid"], ev["tid"]), []).append(ev)
    for lane, lane_spans in sorted(lanes.items()):
        lane_spans.sort(key=lambda e: (ns(e["ts"]), -ns(e["dur"])))
        stack = []
        for ev in lane_spans:
            start, end = ns(ev["ts"]), ns(ev["ts"]) + ns(ev["dur"])
            while stack and start >= stack[-1][1] - slack_ns:
                stack.pop()
            if stack and end > stack[-1][1] + slack_ns:
                fail(
                    f"{path}: lane {lane}: span '{ev['name']}' "
                    f"[{start}, {end}] pokes out of enclosing "
                    f"'{stack[-1][2]}' ending at {stack[-1][1]}"
                )
            stack.append((start, end, ev["name"]))

    # Request lanes (pid 2): queue + batch tile the request exactly.
    requests = {}
    for ev in spans:
        if ev["pid"] != 2:
            continue
        tid = ev["tid"]
        requests.setdefault(tid, {})[ev["name"]] = ev
    if not requests:
        fail(f"{path}: no sampled-request lanes (pid 2)")
    for tid, by_name in sorted(requests.items()):
        for required in ("request", "queue", "batch"):
            if required not in by_name:
                fail(f"{path}: request {tid} has no '{required}' span")
        req, queue, batch = (
            by_name["request"],
            by_name["queue"],
            by_name["batch"],
        )
        if abs(ns(queue["ts"]) - ns(req["ts"])) > slack_ns:
            fail(f"{path}: request {tid}: queue does not start with request")
        queue_end = ns(queue["ts"]) + ns(queue["dur"])
        if abs(ns(batch["ts"]) - queue_end) > slack_ns:
            fail(f"{path}: request {tid}: batch does not start at queue end")
        total = ns(queue["dur"]) + ns(batch["dur"])
        if abs(total - ns(req["dur"])) > slack_ns:
            fail(
                f"{path}: request {tid}: queue+batch = {total} ns != "
                f"request {ns(req['dur'])} ns"
            )

    # Swap lanes: the phases of each swap tile it exactly (one set of
    # clock stamps).
    swaps = {}
    for ev in spans:
        if ev.get("cat") in ("swap", "swap_phase"):
            trace_id = ev.get("args", {}).get("trace_id")
            swaps.setdefault(trace_id, []).append(ev)
    for trace_id, group in sorted(swaps.items()):
        whole = [ev for ev in group if ev["cat"] == "swap"]
        phases = [ev for ev in group if ev["cat"] == "swap_phase"]
        if len(whole) != 1 or not phases:
            fail(f"{path}: swap {trace_id}: {len(whole)} swap spans, "
                 f"{len(phases)} phases")
        total = sum(ns(ev["dur"]) for ev in phases)
        if abs(total - ns(whole[0]["dur"])) > slack_ns:
            fail(f"{path}: swap {trace_id}: phases sum to {total} ns, "
                 f"swap is {ns(whole[0]['dur'])} ns")

    ops = [ev for ev in spans if ev.get("cat") == "op"]
    if not ops:
        fail(f"{path}: no per-PlanOp 'op' spans recorded")
    print(
        f"check_obs: trace ok ({len(spans)} spans, {len(requests)} sampled "
        f"requests, {len(ops)} op spans, {len(swaps)} swaps, "
        f"{len(lanes)} lanes)"
    )


SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+(?P<value>\S+)$"
)


def base_family(name):
    """Histogram series report under the family of their # TYPE line."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


FLUSH_REASONS = ("full", "window", "deadline", "shutdown", "idle")


def model_labels(values):
    """Every label set a dstee_* sample carries (one per served model)."""
    return sorted(
        {labels for (name, labels) in values
         if labels and name.startswith("dstee_")}
    )


def check_batch_accounting(path, values):
    """Every executed micro-batch has one flush reason and one size."""
    for labels in model_labels(values):
        batches = values.get(("dstee_batches_total", labels))
        if batches is None:
            fail(f"{path}: dstee_batches_total{labels} missing")
        flushes = 0.0
        for reason in FLUSH_REASONS:
            counter = f"dstee_batch_flush_{reason}_total"
            if (counter, labels) not in values:
                fail(f"{path}: {counter}{labels} missing")
            flushes += values[(counter, labels)]
        if flushes != batches:
            fail(
                f"{path}: flush-reason counters{labels} sum to {flushes}, "
                f"dstee_batches_total is {batches}"
            )
        sizes = values.get(("dstee_batch_size_count", labels))
        if sizes != batches:
            fail(
                f"{path}: dstee_batch_size_count{labels} is {sizes}, "
                f"dstee_batches_total is {batches}"
            )


def check_request_accounting(path, values):
    """Each completed request has one latency and one queue wait."""
    for labels in model_labels(values):
        requests = values.get(("dstee_requests_total", labels))
        if requests is None:
            fail(f"{path}: dstee_requests_total{labels} missing")
        for other in ("dstee_request_latency_ms_count",
                      "dstee_queue_wait_ms_count"):
            got = values.get((other, labels))
            if got != requests:
                fail(
                    f"{path}: {other}{labels} is {got}, "
                    f"dstee_requests_total is {requests}"
                )


def check_model_state(path, values):
    """A registry reports what each model it served holds in memory."""
    if ("dstee_model_evictions_total", "") not in values:
        return  # a single server's metrics, not a registry's
    for labels in model_labels(values):
        if values.get(("dstee_requests_total", labels), 0.0) <= 0.0:
            continue
        held = values.get(("dstee_model_state_bytes", labels))
        if held is None or held <= 0.0:
            fail(
                f"{path}: dstee_model_state_bytes{labels} is {held} for a "
                f"model that served requests"
            )


SWAP_PHASES = ("apply", "patch", "bind", "publish")


def check_swap_accounting(path, values):
    """A registry's delta swaps: the phase histograms tile dstee_swap_ms."""
    for labels in model_labels(values):
        count = values.get(("dstee_swap_ms_count", labels))
        if count is None:
            continue
        total = values[("dstee_swap_ms_sum", labels)]
        phase_sum = 0.0
        for phase in SWAP_PHASES:
            family = f"dstee_swap_{phase}_ms"
            got = values.get((family + "_count", labels))
            if got != count:
                fail(
                    f"{path}: {family}_count{labels} is {got}, "
                    f"dstee_swap_ms_count is {count}"
                )
            phase_sum += values[(family + "_sum", labels)]
        if abs(phase_sum - total) > 1e-6 * abs(total):
            fail(
                f"{path}: swap phases{labels} sum to {phase_sum} ms, "
                f"dstee_swap_ms_sum is {total} ms"
            )


def check_metrics(path):
    types = {}
    histograms = {}  # family -> {labels-minus-le: [(le, count)]}
    values = {}  # (sample name, labels) -> value, for non-bucket samples
    samples = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) != 4 or parts[3] not in (
                    "counter",
                    "gauge",
                    "histogram",
                ):
                    fail(f"{path}:{lineno}: malformed TYPE line: {line}")
                types[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"{path}:{lineno}: unparseable sample line: {line}")
            name = m.group("name")
            labels = m.group("labels") or ""
            family = base_family(name)
            if family not in types:
                fail(
                    f"{path}:{lineno}: sample '{name}' has no preceding "
                    f"# TYPE {family} line"
                )
            try:
                value = float(m.group("value").replace("+Inf", "inf"))
            except ValueError:
                fail(f"{path}:{lineno}: bad sample value: {line}")
            samples += 1
            if types[family] != "histogram" or not name.endswith("_bucket"):
                values[(name, labels)] = value
                continue
            le_m = re.search(r'le="([^"]+)"', labels)
            if not le_m:
                fail(f"{path}:{lineno}: bucket without le label: {line}")
            le = math.inf if le_m.group(1) == "+Inf" else float(le_m.group(1))
            key = re.sub(r',?le="[^"]+"', "", labels)
            histograms.setdefault(family, {}).setdefault(key, []).append(
                (le, value)
            )
    if samples == 0:
        fail(f"{path}: no metric samples")

    for family, series in sorted(histograms.items()):
        for key, buckets in sorted(series.items()):
            buckets.sort(key=lambda b: b[0])
            prev = -1.0
            for le, count in buckets:
                if count < prev:
                    fail(
                        f"{path}: histogram {family}{key}: bucket le={le} "
                        f"count {count} < previous {prev} (not cumulative)"
                    )
                prev = count
            if buckets[-1][0] != math.inf:
                fail(f"{path}: histogram {family}{key}: no +Inf bucket")
            total = values.get((family + "_count", key))
            if total is None:
                fail(f"{path}: histogram {family}{key}: no _count sample")
            if buckets[-1][1] != total:
                fail(
                    f"{path}: histogram {family}{key}: +Inf bucket "
                    f"{buckets[-1][1]} != _count {total}"
                )
    check_batch_accounting(path, values)
    check_request_accounting(path, values)
    check_model_state(path, values)
    check_swap_accounting(path, values)
    print(
        f"check_obs: metrics ok ({len(types)} families, {samples} samples, "
        f"{len(histograms)} histograms)"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace JSON from --trace")
    parser.add_argument(
        "--metrics", help="Prometheus text from --metrics-out"
    )
    parser.add_argument(
        "--slack-ns",
        type=int,
        default=0,
        help="tolerance for span-arithmetic checks (spans derive from "
        "shared integer stamps, so 0 is expected to hold)",
    )
    args = parser.parse_args()
    if not args.trace and not args.metrics:
        parser.error("nothing to check: pass --trace and/or --metrics")
    if args.trace:
        check_trace(args.trace, args.slack_ns)
    if args.metrics:
        check_metrics(args.metrics)
    print("CHECK OBS OK")


if __name__ == "__main__":
    main()
