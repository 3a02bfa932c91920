"""Correctness checks for the benchmark's workloads.

Every check is a pure function of program output (CSV text, served query
answers) and of rows the benchmark decoded itself (wlsr.py); none compares
against a stored copy of earlier output. A failed check raises CheckError.
"""

import csv
import io
import math

# Highest PHY rate in Mb/s per standard, the ceiling for goodput per BSS.
RATE_CAP_MBPS = {"11": 2.0, "11b": 11.0, "11a": 54.0, "11g": 54.0}


class CheckError(Exception):
    pass


def fold(values):
    """count, min, max and mean of one metric's values."""
    if not values:
        raise CheckError("empty sample")
    return len(values), min(values), max(values), math.fsum(values) / len(values)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _close(a, b, rel=1e-9):
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def _mean_ok(printed, mean):
    """A mean printed as %.9g agrees with the benchmark's own mean to 1e-9
    relative, allowing half a unit in the printed ninth digit."""
    value = float(printed)
    if printed == "%.9g" % mean or value == mean:
        return True
    if mean == 0 or math.isinf(mean) or math.isnan(mean):
        return False
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(mean))) - 8)
    return abs(value - mean) <= half_digit + 1e-9 * abs(mean)


def check_aggregate(text, expected, key_cols, what):
    """Checks an aggregate table (wlansim_run --csv, or a served AGGREGATE or
    SELECT answer) against the benchmark's own fold.

    expected maps a tuple of key-column values to {metric: [values]}. Count,
    min and max must match exactly (min and max as their %.9g text), the mean
    to 1e-9 relative beyond its printed precision; every expected (key,
    metric) must have a row.
    """
    seen = set()
    try:
        for row in parse_csv(text):
            key = tuple(row[k] for k in key_cols)
            metric = row["metric"]
            values = expected.get(key, {}).get(metric)
            if values is None:
                raise CheckError("%s: unexpected row %s %s" % (what, key, metric))
            count, lo, hi, mean = fold(values)
            if int(row["count"]) != count:
                raise CheckError("%s: %s %s count %s != %d" % (what, key, metric, row["count"], count))
            for col, value in (("min", lo), ("max", hi)):
                if row[col] != "%.9g" % value:
                    raise CheckError("%s: %s %s %s %s != %.9g" % (what, key, metric, col, row[col], value))
            if not _mean_ok(row["mean"], mean):
                raise CheckError("%s: %s %s mean %s != %.17g" % (what, key, metric, row["mean"], mean))
            seen.add((key, metric))
    except (KeyError, ValueError, TypeError) as e:
        raise CheckError("%s: malformed table (%s)" % (what, e))
    missing = [(k, m) for k, metrics in expected.items() for m in metrics if (k, m) not in seen]
    if missing:
        raise CheckError("%s: no row for %s" % (what, missing[:3]))


def group_values(rows, key_cols, metrics=None):
    """Pools decoded rows into {key tuple: {metric: [values]}}."""
    out = {}
    for params, row in rows:
        key = tuple(params[k] for k in key_cols)
        bucket = out.setdefault(key, {})
        for name, value in row.items():
            if metrics is None or name in metrics:
                bucket.setdefault(name, []).append(value)
    return out


def check_row_count(wlsr, expected_rows, what):
    rows = sum(g["n_rows"] for g in wlsr["groups"])
    if rows != expected_rows:
        raise CheckError("%s: %d rows in the WLSR file, %d replications run" % (what, rows, expected_rows))
    for g in wlsr["groups"]:
        if g["n_rows"] != wlsr["replications"]:
            raise CheckError("%s: group of %d rows under a header of %d replications"
                             % (what, g["n_rows"], wlsr["replications"]))


def check_reps_csv(text, rows, what):
    """The per-replication CSV holds the same rows as the WLSR file."""
    table = parse_csv(text)
    if len(table) != len(rows):
        raise CheckError("%s: %d CSV rows, %d WLSR rows" % (what, len(table), len(rows)))
    for i, (line, (_, row)) in enumerate(zip(table, rows)):
        if int(line["replication"]) != i:
            raise CheckError("%s: row %d is replication %s" % (what, i, line["replication"]))
        for name, value in row.items():
            if float(line[name]) != float("%.9g" % value):
                raise CheckError("%s: row %d %s %s != %.9g" % (what, i, name, line[name], value))


def check_properties(rows, n_bss, rate_cap, nodes, what):
    """Per-replication bounds a correct simulation always meets.

    n_bss, rate_cap and nodes are functions of a row's params; nodes may
    return None where the scenario does not report fan-out.
    """
    for i, (params, row) in enumerate(rows):
        def fail(msg):
            raise CheckError("%s: replication %d %s: %s" % (what, i, params, msg))
        if "goodput_mbps" in row:
            ceiling = n_bss(params) * rate_cap(params)
            if not 0 < row["goodput_mbps"] <= ceiling:
                fail("goodput_mbps %r outside (0, %g]" % (row["goodput_mbps"], ceiling))
        if "loss_rate" in row and not 0 <= row["loss_rate"] <= 1:
            fail("loss_rate %r outside [0, 1]" % row["loss_rate"])
        if "rx_ok" in row and "tx_attempts" in row and row["rx_ok"] > row["tx_attempts"]:
            fail("rx_ok %r > tx_attempts %r" % (row["rx_ok"], row["tx_attempts"]))
        if "offers_per_send" in row:
            sends = row["channel_sends"]
            ratio = row["channel_offers"] / sends if sends else 0.0
            if not _close(row["offers_per_send"], ratio, 1e-12):
                fail("offers_per_send %r != channel_offers / channel_sends %r"
                     % (row["offers_per_send"], ratio))
            limit = nodes(params)
            if limit is not None and row["offers_per_send"] > limit - 1:
                fail("offers_per_send %r > nodes - 1 = %d" % (row["offers_per_send"], limit - 1))


def check_count_ranges(rows, what):
    """pipeline_probe's count_c metrics stay within 1e7 + 100c +- 15."""
    for i, (_, row) in enumerate(rows):
        for name, value in row.items():
            if name.startswith("count_"):
                c = int(name[len("count_"):])
                centre = 1e7 + 100 * c
                if not centre - 15 <= value <= centre + 15:
                    raise CheckError("%s: replication %d %s = %r outside %g +- 15" % (what, i, name, value, centre))


def check_hist(text, expected_total, what):
    """A served HIST answer counts every sample once: its total is the
    expected sample count and equals its bins plus under- and overflow."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("hist "):
        raise CheckError("%s: not a HIST answer" % what)
    fields = dict(f.split("=", 1) for f in lines[0].split()[2:])
    total = int(fields["count"])
    if total != expected_total:
        raise CheckError("%s: HIST count %d != %d" % (what, total, expected_total))
    binned = sum(int(line.split(",")[2]) for line in lines[2:] if line)
    if binned + int(fields["underflow"]) + int(fields["overflow"]) != total:
        raise CheckError("%s: HIST bins sum to %d, count is %d" % (what, binned, total))


def check_identical(answers, what):
    """Every answer to one query text is byte-identical (invariant #8)."""
    for text, bodies in answers.items():
        first = bodies[0]
        for body in bodies[1:]:
            if body != first:
                raise CheckError("%s: answers to %r differ between passes or clients" % (what, text))


def check_equal(a, b, what):
    if a != b:
        raise CheckError("%s: answers differ" % what)
