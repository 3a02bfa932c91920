"""Per-layer metrics from the traced build's span files.

Each traced process (see native/trace_shim.cc) writes one JSON file with,
per probe, [calls, total ns, self ns], a few work counters read from the
program, and logged spans for replications, campaigns and queries. Counts
come from the first traced round of a run, so they repeat exactly for a
seed; times are medians over the traced rounds.
"""

import bisect
import glob
import json
import os
import statistics
import sys

from checks import CheckError

# Name, unit: the order BENCHMARK.json lists them in.
METRICS = [
    ("core.events_scheduled", "count"), ("core.events_cancelled", "count"),
    ("core.events_popped", "count"), ("core.pops_per_schedule", "ratio"), ("core.kernel_ms", "ms"),
    ("crypto.crc32_calls", "count"), ("crypto.crc32_bytes", "bytes"), ("crypto.crc32_ms", "ms"),
    ("crypto.cipher_ms", "ms"),
    ("mac.mpdus_built", "count"), ("mac.mpdus_parsed", "count"), ("mac.fcs_checks_per_build", "ratio"),
    ("mac.codec_self_ms", "ms"),
    ("phy.sends", "count"), ("phy.offers", "count"), ("phy.offers_per_send", "ratio"),
    ("phy.candidates_visited", "count"), ("phy.link_cache_hit_ratio", "ratio"), ("phy.send_self_ms", "ms"),
    ("phy.signals_added", "count"), ("phy.receptions_evaluated", "count"), ("phy.signals_scanned", "count"),
    ("phy.interference_ms", "ms"),
    ("runner.reps", "count"), ("runner.rep_ms_p50", "ms"), ("runner.pool_idle_ms", "ms"),
    ("runner.pipeline_ms", "ms"),
    ("results.write_ms", "ms"), ("results.bytes_per_rep", "bytes"), ("results.verify_ms", "ms"),
    ("results.decode_ms", "ms"), ("results.columns_decoded", "count"),
    ("query.register_ms", "ms"), ("query.cache_hits", "count"), ("query.cache_misses", "count"),
    ("query.cache_evictions", "count"), ("query.cache_hit_ratio", "ratio"),
    ("query.aggregate_ms_p50", "ms"), ("query.select_ms_p50", "ms"), ("query.hist_ms_p50", "ms"),
    ("query.fold_self_ms", "ms"), ("query.wire_ms_p50", "ms"),
    ("query.cold_script_s", "s"), ("query.client_p50_ms", "ms"), ("query.client_p95_ms", "ms"),
    ("query.warm_qps", "1/s"),
    ("host.wall_s", "s"), ("host.reps_per_s", "1/s"), ("host.setup_wall_s", "s"),
    ("host.raw_cpu_s", "s"), ("host.calib_s", "s"),
    ("trace.overhead_s", "s"),
]

KERNEL = ["event.alloc_slot", "event.sift_up", "event.cancel_slot", "event.next_time", "event.pop_next"]
CRC = ["crc.crc32", "crc.builder_update"]
TRACKER = ["phy.add_signal", "phy.total_power", "phy.time_below", "phy.success_prob", "phy.mean_sinr",
           "phy.evaluate_reception", "phy.cleanup"]
EVALUATIONS = ["phy.success_prob", "phy.mean_sinr", "phy.evaluate_reception"]
ENCODE = ["results.encode_scalar", "results.encode_u64", "results.encode_bins",
          "results.encode_file_header", "results.encode_group_header"]

# Probes a traced round of each workload must hit. A probe that counts no
# call where its layer does work means the shim has stopped seeing that
# layer, and its metrics would read as a gain; the traced run fails instead.
_SERVE = ["results.encode_scalar", "results.encode_file_header", "results.read_file", "results.read_scalar",
          "query.register_file", "query.execute", "query.cache_get"]
_SIMULATE = ["event.alloc_slot", "event.pop_next", "crc.crc32", "mac.build_mpdu", "mac.parse_mpdu",
             "phy.channel_send", "phy.add_signal", "runner.deliver"] + _SERVE
REQUIRED_PROBES = {
    "dense_bss": _SIMULATE + ["runner.run_campaign"],
    "city_grid": _SIMULATE + ["runner.run_sweep"],
    "scenario_mix": _SIMULATE + ["runner.run_campaign", "cipher.ccm_encrypt", "cipher.ccm_decrypt"],
    "results_query": _SERVE + ["runner.run_campaign", "runner.run_sweep", "runner.deliver",
                               "runner.pipeline_end", "results.read_dist"],
}


def _ratio(a, b):
    return a / b if b else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def load(trace_dir):
    """Folds one round's trace files: summed probes and counters, all spans."""
    probes, counters, spans = {}, {}, []
    cache = {"lookups": 0, "hits": 0, "misses": 0, "evictions": 0}
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.json"))):
        with open(path) as f:
            doc = json.load(f)
        for name, (calls, total, self_) in doc["probes"].items():
            acc = probes.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_
        for name, value in doc["counters"].items():
            counters[name] = counters.get(name, 0) + value
        if doc["cache"]:
            for key in cache:
                cache[key] += doc["cache"][key]
        pid = os.path.basename(path)
        for span in doc["spans"]:
            span["process"] = pid
            spans.append(span)
    return probes, counters, cache, spans


def _calls(probes, names):
    return sum(probes.get(n, [0])[0] for n in names)


def _ms(probes, names, column):
    return sum(probes.get(n, [0, 0.0, 0.0])[column] for n in names) / 1e6


def _pair_wire(client_logs, spans):
    """Client latency minus engine span, per query. A connection is served
    by one worker thread for its life, so each client query is matched to an
    unused engine span of its verb inside its send/receive window, preferring
    the thread that served the client's previous query."""
    queries = sorted((s for s in spans if s["kind"] == "query"), key=lambda s: s["start_ns"])
    starts = [s["start_ns"] for s in queries]
    used = set()
    wire = []
    for log in client_logs:
        thread = None
        for text, sent, received, _, _ in log:
            verb = text.split()[0]
            cands = []
            i = bisect.bisect_left(starts, sent)
            while i < len(queries) and starts[i] <= received:
                s = queries[i]
                if i not in used and s["label"] == verb and s["end_ns"] <= received:
                    cands.append(i)
                i += 1
            if not cands:
                continue
            same = [i for i in cands if (queries[i]["process"], queries[i]["thread"]) == thread]
            pick = (same or cands)[0]
            used.add(pick)
            thread = (queries[pick]["process"], queries[pick]["thread"])
            wire.append((received - sent - (queries[pick]["end_ns"] - queries[pick]["start_ns"])) / 1e6)
    return wire


def round_metrics(workload, round_, trace_dir):
    """Every per-layer metric but the overhead, from one traced round."""
    probes, counters, cache, spans = load(trace_dir)
    silent = [p for p in REQUIRED_PROBES[workload] if not _calls(probes, [p])]
    if silent:
        raise CheckError("%s: traced round saw no call to %s" % (workload, ", ".join(silent)))
    m = {}
    scheduled = _calls(probes, ["event.alloc_slot"])
    popped = _calls(probes, ["event.pop_next"])
    m["core.events_scheduled"] = scheduled
    m["core.events_cancelled"] = counters.get("cancels_effective", 0)
    m["core.events_popped"] = popped
    m["core.pops_per_schedule"] = _ratio(popped, scheduled)
    m["core.kernel_ms"] = _ms(probes, KERNEL, 2)
    m["crypto.crc32_calls"] = _calls(probes, CRC)
    m["crypto.crc32_bytes"] = counters.get("crc_bytes", 0)
    m["crypto.crc32_ms"] = _ms(probes, CRC, 1)
    m["crypto.cipher_ms"] = _ms(probes, [n for n in probes if n.startswith("cipher.")], 2)
    built = _calls(probes, ["mac.build_mpdu"])
    m["mac.mpdus_built"] = built
    m["mac.mpdus_parsed"] = _calls(probes, ["mac.parse_mpdu"])
    m["mac.fcs_checks_per_build"] = _ratio(counters.get("fcs_checks", 0), built)
    m["mac.codec_self_ms"] = _ms(probes, ["mac.build_mpdu", "mac.parse_mpdu"], 2)
    sends = _calls(probes, ["phy.channel_send"])
    offers = counters.get("send_offers", 0)
    m["phy.sends"] = sends
    m["phy.offers"] = offers
    m["phy.offers_per_send"] = _ratio(offers, sends)
    m["phy.candidates_visited"] = counters.get("send_candidates", 0)
    hits = counters.get("link_hits", 0)
    m["phy.link_cache_hit_ratio"] = _ratio(hits, hits + counters.get("link_misses", 0))
    m["phy.send_self_ms"] = _ms(probes, ["phy.channel_send"], 2)
    m["phy.signals_added"] = _calls(probes, ["phy.add_signal"])
    m["phy.receptions_evaluated"] = _calls(probes, EVALUATIONS)
    m["phy.signals_scanned"] = counters.get("signals_scanned", 0)
    m["phy.interference_ms"] = _ms(probes, TRACKER, 2)
    reps = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans if s["kind"] == "rep"]
    campaigns = [s for s in spans if s["kind"] == "campaign"]
    m["runner.reps"] = len(reps)
    m["runner.rep_ms_p50"] = _median(reps)
    pool = sum(s["arg"] * (s["end_ns"] - s["start_ns"]) for s in campaigns) / 1e6
    m["runner.pool_idle_ms"] = max(0.0, pool - sum(reps))
    m["runner.pipeline_ms"] = _ms(probes, ["runner.deliver", "runner.pipeline_end"], 1)
    m["results.write_ms"] = _ms(probes, ENCODE, 1)
    m["results.bytes_per_rep"] = _ratio(round_.wlsr_bytes, round_.reps)
    m["results.verify_ms"] = _ms(probes, ["results.read_file"], 1)
    m["results.decode_ms"] = _ms(probes, ["results.read_scalar", "results.read_dist"], 1)
    m["results.columns_decoded"] = _calls(probes, ["results.read_scalar", "results.read_dist"])
    m["query.register_ms"] = _ms(probes, ["query.register_file"], 1)
    m["query.cache_hits"] = cache["hits"]
    m["query.cache_misses"] = cache["misses"]
    m["query.cache_evictions"] = cache["evictions"]
    m["query.cache_hit_ratio"] = _ratio(cache["hits"], cache["lookups"])
    queries = [s for s in spans if s["kind"] == "query"]
    for verb in ("AGGREGATE", "SELECT", "HIST"):
        m["query.%s_ms_p50" % verb.lower()] = _median(
            [(s["end_ns"] - s["start_ns"]) / 1e6 for s in queries if s["label"] == verb])
    m["query.fold_self_ms"] = sum(s["self_ns"] for s in queries) / 1e6
    m["query.wire_ms_p50"] = _median(_pair_wire(round_.logs, spans))
    return m


COUNTS = {name for name, unit in METRICS if unit in ("count", "bytes")} | {
    "core.pops_per_schedule", "mac.fcs_checks_per_build", "phy.offers_per_send",
    "phy.link_cache_hit_ratio", "query.cache_hit_ratio"}


def _percentile(values, q):
    """Type-7 (linear) quantile, q in [0, 1]."""
    if not values:
        return 0.0
    s = sorted(values)
    h = (len(s) - 1) * q
    lo = int(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def _tail_percentile(values, q=0.95, beyond=10):
    """The q-th percentile when at least `beyond` values lie above it;
    otherwise the highest percentile the sample supports, said so on
    stderr, since the metric's name is fixed."""
    if len(values) * (1 - q) < beyond and values:
        q = max(0.5, 1 - beyond / len(values))
        print("query.client_p95_ms holds the p%.1f: only %d warm queries" % (100 * q, len(values)),
              file=sys.stderr)
    return _percentile(values, q)


def client_side(rounds):
    """Host figures of the untraced rounds: the query client's cold script
    pass, warm latency percentiles and throughput, the round's wall time,
    write throughput and daemon launch-to-ready time, and its CPU time
    before calibration next to the calibration time itself."""
    warm = [x for r in rounds for x in r.warm_latencies_ms]
    return {
        "host.raw_cpu_s": _median([r.cpu_s for r in rounds]),
        "host.calib_s": _median([r.calib_s for r in rounds]),
        "host.wall_s": _median([r.wall_s for r in rounds]),
        "host.reps_per_s": _median([r.reps / r.write_s for r in rounds]),
        "host.setup_wall_s": _median([x for r in rounds for x in r.setup_s]),
        "query.cold_script_s": _median([x for r in rounds for x in r.cold_s]),
        "query.client_p50_ms": _percentile(warm, 0.50),
        "query.client_p95_ms": _tail_percentile(warm),
        "query.warm_qps": _median([r.warm_qps for r in rounds]),
    }


def combine(traced, traced_walls, plain_rounds):
    """{metric: (value, unit)} over a traced run: counts and their ratios
    from the first traced round, times as medians over traced rounds, the
    client-side query figures from the untraced rounds, and the tracing
    overhead as the traced minus the untraced median wall time."""
    client = client_side(plain_rounds)
    out = {}
    for name, unit in METRICS:
        if name == "trace.overhead_s":
            value = _median(traced_walls) - _median([r.wall_s for r in plain_rounds])
        elif name in client:
            value = client[name]
        elif name in COUNTS:
            value = traced[0][name]
        else:
            value = _median([m[name] for m in traced])
        out[name] = (value, unit)
    return out
