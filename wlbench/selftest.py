#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

Runs one tiny round of every workload (the --fast sizes), checks that its
real outputs pass, then feeds each checker a deliberately perturbed copy of
real output and checks that it is rejected. Run from the root of a checkout:

    python3 wlbench/selftest.py
"""

import copy
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import wlsr  # noqa: E402
from checks import CheckError  # noqa: E402


def bump_number(text, row_index, column):
    """text, a CSV table, with one cell of one row nudged."""
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row_index + 1].split(",")
    col = header.index(column)
    value = float(cells[col])
    cells[col] = str(int(value) + 1) if value == int(value) else "%.9g" % (value * 1.001)
    lines[row_index + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def with_row(rows, index, **changes):
    out = copy.deepcopy(rows)
    out[index][1].update(changes)
    return out


def read(path):
    with open(path) as f:
        return f.read()


def cases_for(workload, rdir, answers, data):
    """(description, callable expected to raise CheckError)."""
    name = workload.name
    text = {t: b[0].decode() for t, b in answers.items()}
    cases = []

    def served(query, column, row=0):
        bad = dict(text)
        bad[query] = bump_number(text[query], row, column)
        return lambda: workload.check_answers(bad, data)

    def differing(query):
        bad = {t: list(b) for t, b in answers.items()}
        bad[query].append(bad[query][0] + b" ")
        return lambda: checks.check_identical(bad, name)

    if name in ("dense_bss", "city_grid"):
        stem = "dense" if name == "dense_bss" else "city"
        key_cols = [] if name == "dense_bss" else ["stas_per_bss"]
        rows = list(wlsr.rows(wlsr.read(os.path.join(rdir, stem + ".wlsr"))))
        agg = read(os.path.join(rdir, stem + ".csv"))
        expected = checks.group_values(rows, key_cols)
        for column in ("count", "min", "max", "mean"):
            cases.append(("--csv %s perturbed" % column, lambda c=column: checks.check_aggregate(
                bump_number(agg, 0, c), expected, key_cols, name)))
        cases.append(("WLSR rows vs replications run", lambda: checks.check_row_count(
            wlsr.read(os.path.join(rdir, stem + ".wlsr")), len(rows) + 1, name)))
        n_bss = 3 if name == "dense_bss" else workload.n_bss
        nodes = (lambda p: None) if name == "dense_bss" else (
            lambda p: n_bss * (int(p["stas_per_bss"]) + 1))

        def props(bad_rows):
            return lambda: checks.check_properties(bad_rows, lambda p: n_bss, run._rate_cap, nodes, name)
        cases.append(("goodput_mbps = 0", props(with_row(rows, 0, goodput_mbps=0.0))))
        cases.append(("goodput_mbps above the PHY ceiling", props(with_row(rows, 0, goodput_mbps=11.0 * n_bss + 1))))
        cases.append(("loss_rate = 1.5", props(with_row(rows, 0, loss_rate=1.5))))
        cases.append(("rx_ok > tx_attempts", props(with_row(rows, 0, rx_ok=rows[0][1]["tx_attempts"] + 1))))
        query = "AGGREGATE " + ("dense_multi_bss:campaign" if name == "dense_bss" else "city_grid:sweep")
        cases.append(("served AGGREGATE mean perturbed", served(query, "mean")))
        cases.append(("served answers differ across passes", differing(query)))
        if name == "dense_bss":
            reps = read(os.path.join(rdir, "dense.reps.csv"))
            cases.append(("--reps-csv cell perturbed", lambda: checks.check_reps_csv(
                bump_number(reps, 1, "goodput_mbps"), rows, name)))
        else:
            r0 = rows[0][1]
            cases.append(("offers_per_send != offers / sends", props(
                with_row(rows, 0, offers_per_send=r0["offers_per_send"] + 0.5))))
            cases.append(("offers_per_send > nodes - 1", props(
                with_row(rows, 0, channel_offers=r0["channel_sends"] * 1000.0, offers_per_send=1000.0))))
            cases.append(("served WHERE answer perturbed", served(
                "SELECT goodput_mbps,loss_rate FROM city_grid:sweep WHERE stas_per_bss=2", "max")))
    elif name == "scenario_mix":
        agg = read(os.path.join(rdir, workload._stem(0) + ".csv"))
        rows = list(wlsr.rows(wlsr.read(os.path.join(rdir, workload._stem(0) + ".wlsr"))))
        cases.append(("--csv mean perturbed", lambda: checks.check_aggregate(
            bump_number(agg, 0, "mean"), checks.group_values(rows, []), [], name)))
        cases.append(("served pooled AGGREGATE perturbed", served("AGGREGATE saturation:campaign", "min")))
        cases.append(("served SELECT perturbed", served("SELECT goodput_mbps FROM rate_vs_distance:campaign", "count")))
    elif name == "results_query":
        rows, sweep_rows = data
        cases.append(("count_c outside 1e7 + 100c +- 15", lambda: checks.check_count_ranges(
            with_row(rows, 3, count_2=1e7 + 200 + 16), name)))
        cases.append(("served campaign SELECT perturbed", served(
            "SELECT count_0,count_1 FROM pipeline_probe:campaign", "mean", 1)))
        cases.append(("served sweep GROUP BY perturbed", served(
            "SELECT count_0 FROM pipeline_probe:sweep WHERE samples=16 GROUP BY n_metrics", "min", 2)))
        hist = "HIST pipeline_probe:campaign latency_hist"
        bad = dict(text)
        bad[hist] = text[hist].replace(" count=", " count=1", 1)
        cases.append(("HIST total perturbed", lambda: workload.check_answers(bad, data)))
        lines = text[hist].splitlines()
        first = lines[2].split(",")
        lines[2] = ",".join(first[:2] + [str(int(first[2]) + 1)])
        bad2 = dict(text)
        bad2[hist] = "\n".join(lines) + "\n"
        cases.append(("HIST bins perturbed", lambda: workload.check_answers(bad2, data)))
        cases.append(("served answers differ across clients", differing("AGGREGATE pipeline_probe:sweep")))
    return cases


def main():
    tools = run.build()
    base = os.path.join(run.BUILD, "selftest")
    shutil.rmtree(base, ignore_errors=True)
    failures = 0
    try:
        for name in sorted(run.WORKLOADS):
            workload = run.WORKLOADS[name](1, True)
            rdir = os.path.join(base, name)
            os.makedirs(rdir)
            r = run.Round(workload, tools["release"], rdir, 1)
            answers = r.answers()
            checks.check_identical(answers, name)
            data = workload.check_outputs(rdir)
            workload.check_answers({t: b[0].decode() for t, b in answers.items()}, data)
            print("%s: real output accepted" % name)
            for what, case in cases_for(workload, rdir, answers, data):
                try:
                    case()
                except CheckError as e:
                    print("  rejected as it should be: %s (%s)" % (what, str(e)[:100]))
                else:
                    failures += 1
                    print("  NOT REJECTED: %s" % what)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("self-test %s" % ("FAILED: %d perturbation(s) accepted" % failures if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
