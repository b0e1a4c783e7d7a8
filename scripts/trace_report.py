#!/usr/bin/env python3
"""Turn a ucp JSONL trace into a per-phase time breakdown and a
bound-convergence summary.

Usage:
    scripts/trace_report.py TRACE.jsonl          # full report
    scripts/trace_report.py TRACE.jsonl --phases # breakdown table only
    scripts/trace_report.py --selftest           # validate against a
                                                 # built-in sample trace

The input is the JSON Lines export of src/util/trace.hpp (produced by
`minimize_pla --trace=FILE` or any bench binary with `--trace=FILE`); the
schema is documented in docs/OBSERVABILITY.md. The breakdown maps each span
name to the DESIGN.md section that owns the phase, so the table lines up with
the paper's phase accounting (implicit DD work vs. explicit reductions vs.
the Lagrangian/SCG loop vs. budget governance).
"""

import argparse
import io
import json
import sys

# Span-name prefix -> DESIGN.md section. Longest matching prefix wins.
PHASE_SECTIONS = {
    "two_level": "§6",
    "two_level.verify": "§6",
    "scg": "§6",
    "subgradient": "§6",
    "dual_ascent": "§6",
    "penalties": "§6",
    "reduce": "§7",
    "bnb": "§11",
    "zdd_cover": "§8",
    "implicit_primes": "§8",
    "primes.consensus": "§8",
    "table": "§8",
    "table.primes": "§8",
    "table.onset_matrix": "§8",
    "table.onset_build": "§8",
    "table.onset_walk": "§8",
    "table.onset_rows": "§8",
    "budget": "§9",
    "rwls": "§14",
    "portfolio": "§14",
}

SPAN_KEYS = {"type", "name", "tid", "depth", "ts_us", "dur_us", "counters"}
ITER_KEYS = {
    "type", "channel", "tid", "iter", "ts_us", "lb", "ub", "step",
    "live_rows", "live_cols", "cache_hit_rate",
}
INSTANT_KEYS = {"type", "name", "tid", "ts_us"}
META_KEYS = {
    "type", "version", "level", "spans", "iter_events", "instants",
    "dropped", "clock", "time_unit",
}


def section_of(name):
    best = "—"
    best_len = -1
    for prefix, sec in PHASE_SECTIONS.items():
        if (name == prefix or name.startswith(prefix + ".")) and len(prefix) > best_len:
            best, best_len = sec, len(prefix)
    return best


def validate(rec, lineno):
    """Returns an error string for a malformed record, else None."""
    kind = rec.get("type")
    expected = {
        "meta": META_KEYS,
        "span": SPAN_KEYS,
        "iter": ITER_KEYS,
        "instant": INSTANT_KEYS,
    }.get(kind)
    if expected is None:
        return f"line {lineno}: unknown record type {kind!r}"
    missing = expected - set(rec)
    if missing:
        return f"line {lineno}: {kind} record missing {sorted(missing)}"
    if kind == "span" and rec["dur_us"] < 0:
        return f"line {lineno}: negative span duration"
    return None


def parse(stream):
    meta, spans, iters, instants, errors = None, [], [], [], []
    for lineno, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: not JSON ({e})")
            continue
        err = validate(rec, lineno)
        if err:
            errors.append(err)
            continue
        kind = rec["type"]
        if kind == "meta":
            meta = rec
        elif kind == "span":
            spans.append(rec)
        elif kind == "iter":
            iters.append(rec)
        else:
            instants.append(rec)
    return meta, spans, iters, instants, errors


def self_times(spans):
    """Per-span self time: duration minus immediate children's durations.

    Spans within one thread nest properly (RAII), so a sweep in start order
    with an interval stack recovers the hierarchy from (ts, dur, depth).
    """
    per_name = {}  # name -> [total_us, self_us, count]
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s["tid"], []).append(s)
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda s: (s["ts_us"], -s["dur_us"]))
        stack = []  # (end_us, record, child_us accumulator as 1-elem list)
        def finalize(entry):
            _, rec, child = entry
            slot = per_name.setdefault(rec["name"], [0.0, 0.0, 0])
            slot[0] += rec["dur_us"]
            slot[1] += max(0.0, rec["dur_us"] - child[0])
            slot[2] += 1
        for s in tid_spans:
            start, end = s["ts_us"], s["ts_us"] + s["dur_us"]
            while stack and stack[-1][0] <= start + 1e-9:
                finalize(stack.pop())
            if stack:
                stack[-1][2][0] += s["dur_us"]
            stack.append((end, s, [0.0]))
        while stack:
            finalize(stack.pop())
    return per_name


DD_COUNTER_PREFIXES = ("zdd.", "bdd.")


def dd_phase_counters(spans):
    """Aggregate DD-engine counter deltas over the §8 (DD substrate) spans.

    Span counters are per-span deltas, so a parent span's delta already
    includes its children's; only spans without a §8 ancestor are summed to
    avoid double counting. Returns {counter_name: total}.
    """
    totals = {}
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s["tid"], []).append(s)
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda s: (s["ts_us"], -s["dur_us"]))
        stack = []  # (end_us, span is §8 or under one)
        for s in tid_spans:
            start = s["ts_us"]
            while stack and stack[-1][0] <= start + 1e-9:
                stack.pop()
            in_dd = section_of(s["name"]) == "§8"
            covered = any(flag for _, flag in stack)
            if in_dd and not covered:
                for name, value in s.get("counters", {}).items():
                    if name.startswith(DD_COUNTER_PREFIXES):
                        totals[name] = totals.get(name, 0) + value
            stack.append((start + s["dur_us"], in_dd or covered))
    return totals


def print_phase_table(spans, instants, out):
    per_name = self_times(spans)
    total_self = sum(v[1] for v in per_name.values()) or 1.0
    out.write("Per-phase time breakdown (span self time)\n")
    out.write(f"{'phase':<28} {'design':>6} {'count':>7} "
              f"{'total_ms':>10} {'self_ms':>10} {'self_%':>7}\n")
    for name, (tot, self_us, count) in sorted(
            per_name.items(), key=lambda kv: -kv[1][1]):
        out.write(f"{name:<28} {section_of(name):>6} {count:>7} "
                  f"{tot / 1000.0:>10.3f} {self_us / 1000.0:>10.3f} "
                  f"{100.0 * self_us / total_self:>6.1f}%\n")
    dd = {k: v for k, v in dd_phase_counters(spans).items() if v}
    if dd:
        out.write("\nDD engine counters (§8 spans)\n")
        for name, total in sorted(dd.items()):
            out.write(f"{name:<28} {total:>10}\n")
    if instants:
        counts = {}
        for i in instants:
            counts[i["name"]] = counts.get(i["name"], 0) + 1
        out.write("\nInstant events\n")
        for name, n in sorted(counts.items()):
            out.write(f"{name:<28} {section_of(name):>6} {n:>7}\n")


def print_convergence(iters, out):
    channels = {}
    for e in iters:
        channels.setdefault(e["channel"], []).append(e)
    if not channels:
        out.write("\nNo convergence events (re-run with --trace-level=iter).\n")
        return
    out.write("\nBound convergence per channel\n")
    out.write(f"{'channel':<14} {'events':>7} {'lb_first':>10} {'lb_last':>10} "
              f"{'ub_first':>10} {'ub_last':>10} {'gap_last':>9} "
              f"{'hit_rate':>9}\n")
    for name, events in sorted(channels.items()):
        events.sort(key=lambda e: (e["ts_us"], e["iter"]))
        first, last = events[0], events[-1]
        gap = last["ub"] - last["lb"]
        out.write(f"{name:<14} {len(events):>7} {first['lb']:>10.3f} "
                  f"{last['lb']:>10.3f} {first['ub']:>10.3f} "
                  f"{last['ub']:>10.3f} {gap:>9.3f} "
                  f"{last['cache_hit_rate']:>9.3f}\n")


def report(stream, out, phases_only=False):
    meta, spans, iters, instants, errors = parse(stream)
    for err in errors:
        print(f"warning: {err}", file=sys.stderr)
    if meta is None:
        print("warning: no meta record (truncated trace?)", file=sys.stderr)
    elif meta.get("dropped", 0):
        print(f"warning: {meta['dropped']} records dropped (per-thread buffer "
              "cap); totals are an undercount", file=sys.stderr)
    if not spans and not iters and not instants:
        print("error: empty trace", file=sys.stderr)
        return 1
    print_phase_table(spans, instants, out)
    if not phases_only:
        print_convergence(iters, out)
    return 1 if errors else 0


SAMPLE = """\
{"type": "meta", "version": 1, "level": "iter", "spans": 15, "iter_events": 4, "instants": 1, "dropped": 0, "clock": "steady", "time_unit": "us"}
{"type": "span", "name": "two_level", "tid": 0, "depth": 0, "ts_us": 0.0, "dur_us": 1000.0, "counters": {}}
{"type": "span", "name": "two_level.build_table", "tid": 0, "depth": 1, "ts_us": 10.0, "dur_us": 200.0, "counters": {"zdd.cache_hits": 50, "zdd.cache_misses": 10}}
{"type": "span", "name": "implicit_primes", "tid": 0, "depth": 2, "ts_us": 20.0, "dur_us": 150.0, "counters": {"zdd.cache_hits": 40, "zdd.chain_nodes_made": 12, "zdd.chain_hits": 30}}
{"type": "span", "name": "scg", "tid": 0, "depth": 1, "ts_us": 300.0, "dur_us": 600.0, "counters": {"subgradient.iterations": 40}}
{"type": "span", "name": "subgradient", "tid": 0, "depth": 2, "ts_us": 320.0, "dur_us": 400.0, "counters": {"subgradient.iterations": 40}}
{"type": "span", "name": "two_level.verify", "tid": 0, "depth": 1, "ts_us": 920.0, "dur_us": 60.0, "counters": {}}
{"type": "span", "name": "reduce", "tid": 1, "depth": 0, "ts_us": 5.0, "dur_us": 50.0, "counters": {"reduce.passes": 3}}
{"type": "span", "name": "portfolio", "tid": 2, "depth": 0, "ts_us": 0.0, "dur_us": 900.0, "counters": {}}
{"type": "span", "name": "rwls", "tid": 2, "depth": 1, "ts_us": 100.0, "dur_us": 500.0, "counters": {}}
{"type": "iter", "channel": "subgradient", "tid": 0, "iter": 0, "ts_us": 330.0, "lb": 10.0, "ub": 20.0, "step": 2.0, "live_rows": 100, "live_cols": 80, "cache_hit_rate": 0.8}
{"type": "iter", "channel": "subgradient", "tid": 0, "iter": 1, "ts_us": 340.0, "lb": 12.5, "ub": 18.0, "step": 2.0, "live_rows": 100, "live_cols": 80, "cache_hit_rate": 0.82}
{"type": "iter", "channel": "subgradient", "tid": 0, "iter": 2, "ts_us": 350.0, "lb": 14.0, "ub": 15.0, "step": 1.0, "live_rows": 90, "live_cols": 70, "cache_hit_rate": 0.85}
{"type": "iter", "channel": "rwls", "tid": 2, "iter": 128, "ts_us": 360.0, "lb": 10.0, "ub": 16.0, "step": 16.0, "live_rows": 2, "live_cols": 15, "cache_hit_rate": 0.0}
{"type": "instant", "name": "budget.zdd_fallback", "tid": 0, "ts_us": 120.0}
{"type": "span", "name": "two_level.build_table", "tid": 3, "depth": 0, "ts_us": 2204581.250, "dur_us": 900000.000, "counters": {}}
{"type": "span", "name": "table.primes", "tid": 3, "depth": 1, "ts_us": 2204581.500, "dur_us": 600000.250, "counters": {}}
{"type": "span", "name": "primes.consensus", "tid": 3, "depth": 2, "ts_us": 2204581.750, "dur_us": 599999.500, "counters": {}}
{"type": "span", "name": "table.onset_matrix", "tid": 3, "depth": 1, "ts_us": 2804582.000, "dur_us": 299999.000, "counters": {}}
{"type": "span", "name": "table.onset_build", "tid": 3, "depth": 2, "ts_us": 2804582.500, "dur_us": 100000.000, "counters": {}}
{"type": "span", "name": "table.onset_walk", "tid": 3, "depth": 2, "ts_us": 2904583.000, "dur_us": 199998.000, "counters": {}}
"""


def selftest():
    meta, spans, iters, instants, errors = parse(io.StringIO(SAMPLE))
    assert not errors, errors
    assert meta is not None and meta["version"] == 1
    assert len(spans) == 15 and len(iters) == 4 and len(instants) == 1

    per = self_times(spans)
    # two_level(1000) has children build_table(200) + scg(600) + verify(60)
    # -> self 140; verification is its own §6 phase, not two_level self time.
    assert abs(per["two_level"][1] - 140.0) < 1e-6, per["two_level"]
    assert abs(per["two_level.verify"][1] - 60.0) < 1e-6
    assert section_of("two_level.verify") == "§6"
    # scg(600) has child subgradient(400) -> self 200.
    assert abs(per["scg"][1] - 200.0) < 1e-6, per["scg"]
    # Two build_table spans: on tid 0, build_table(200) has child
    # implicit_primes(150) -> self 50. On tid 3, beyond one second
    # (fixed-point ts/dur, as the exporters write them), build_table(900000)
    # has children table.primes(600000.25) + table.onset_matrix(299999) ->
    # self 0.75, and table.primes keeps 0.75 over primes.consensus.
    assert per["two_level.build_table"][2] == 2
    assert abs(per["two_level.build_table"][1] - (50.0 + 0.75)) < 1e-6, \
        per["two_level.build_table"]
    assert abs(per["table.primes"][1] - 0.75) < 1e-6, per["table.primes"]
    assert abs(per["primes.consensus"][1] - 599999.5) < 1e-6
    assert section_of("primes.consensus") == "§8"
    # table.onset_matrix(299999) splits into onset_build(100000) +
    # onset_walk(199998) -> self 1.0; both sub-spans are §8.
    assert abs(per["table.onset_matrix"][1] - 1.0) < 1e-6, per["table.onset_matrix"]
    assert abs(per["table.onset_build"][1] - 100000.0) < 1e-6
    assert abs(per["table.onset_walk"][1] - 199998.0) < 1e-6
    for name in ("table.primes", "table.onset_matrix", "table.onset_build",
                 "table.onset_walk", "implicit_primes"):
        assert section_of(name) == "§8", name
    # Leaf spans keep their full duration; other-thread spans don't nest.
    assert abs(per["subgradient"][1] - 400.0) < 1e-6
    assert abs(per["reduce"][1] - 50.0) < 1e-6

    # DD counters aggregate over §8 spans only: the chain counters land in
    # the breakdown, build_table's own (§6) zdd.cache_hits delta does not.
    dd = dd_phase_counters(spans)
    assert dd.get("zdd.chain_nodes_made") == 12, dd
    assert dd.get("zdd.chain_hits") == 30, dd
    assert dd.get("zdd.cache_hits") == 40, dd

    # Every sample phase maps into DESIGN.md §6–§9 or §14.
    for s in spans:
        assert section_of(s["name"]) in {"§6", "§7", "§8", "§9", "§14"}, \
            s["name"]
    assert section_of("budget.zdd_fallback") == "§9"
    assert section_of("portfolio.rwls_task") == "§14"
    assert section_of("rwls") == "§14"
    assert section_of("unknown_phase") == "—"
    # portfolio(900) on tid 2 has child rwls(500) -> self 400.
    per = self_times(spans)
    assert abs(per["portfolio"][1] - 400.0) < 1e-6, per["portfolio"]

    # Schema validation rejects close-but-wrong records.
    bad = json.loads('{"type": "span", "name": "x", "tid": 0}')
    assert validate(bad, 1) is not None
    ok = json.loads(SAMPLE.splitlines()[1])
    assert validate(ok, 1) is None

    # The full report renders without error.
    out = io.StringIO()
    rc = report(io.StringIO(SAMPLE), out)
    assert rc == 0
    text = out.getvalue()
    assert "two_level" in text and "subgradient" in text
    assert "Bound convergence" in text
    print("trace_report.py selftest OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", nargs="?", help="JSONL trace file")
    ap.add_argument("--phases", action="store_true",
                    help="print only the per-phase breakdown")
    ap.add_argument("--selftest", action="store_true",
                    help="run the built-in self test and exit")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.trace:
        ap.error("need a trace file (or --selftest)")
    with open(args.trace, "r", encoding="utf-8") as f:
        return report(f, sys.stdout, phases_only=args.phases)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
