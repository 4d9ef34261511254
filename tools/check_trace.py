#!/usr/bin/env python3
"""Validate observability artifacts (CI quick-bench gate).

Usage: check_trace.py [--trace FILE] [--metrics FILE] [--report FILE]
                      [--diff FILE] [--timeseries FILE] [--provenance FILE]

Fails (exit 1) when a given file is missing, empty, unparseable, or
structurally wrong:
  trace   — Chrome trace-event JSON: non-empty `traceEvents`, every event
            carries name/ph/ts/pid, spans ("X") carry a non-negative dur,
            per-(pid,peer) channel sequence numbers in wire_delay /
            deliver events are strictly increasing (FIFO order survived
            serialization), fault-layer events (drop / retransmit) are
            instants addressed to a peer with a positive byte count, and
            the `causim` metadata reports zero ring-buffer drops (a
            truncated trace fails the gate); rtt_sample events (adaptive
            RTO) are instants with a peer, a positive sample and a
            positive resulting RTO; gateway_forward events (cross-DC
            mailbox ships) are instants addressed to a peer gateway whose
            frame bytes cover the 0xB5 header plus one record header per
            coalesced message; provenance events are consistent:
            every buffered event carrying a write id (c) also names its
            blocking dependency (d), every dep_satisfied segment carries
            a write id and a resolved blocker, and each buffered
            activation's dep_satisfied chain tiles [receipt, apply)
            exactly — contiguous segments starting at the activation's
            ts, ending with the only open-ended (no next blocker)
            segment, their durations summing to the activation's dur.
  metrics — registry JSON: the four sections exist, per-kind message
            counters are present and positive, every histogram's
            quantiles are ordered (p50 <= p90 <= p99), and when the
            reliability layer exported (net.reliable.*) its frame
            accounting balances: frames = data + ack + retransmit, with
            non-negative srtt/rto gauges.
  report  — analysis report JSON (schema causim.analysis.v1): the derived
            sections (including `faults`) exist, events > 0, buffered <=
            applies, activation quantiles are ordered, SM sends were
            attributed, per-site fault activity sums to the totals, and
            every site has a log_occupancy series with samples > 0 (a
            traced cell that lost its sampler fails).
  diff    — A/B comparison JSON (schema causim.analysis.diff.v1) with a
            structural `diff` object.
  timeseries — live sampler stream (schema causim.timeseries.v1):
            non-empty samples with monotone timestamps and run ids,
            cumulative counters (ops / sends / applies) never decreasing
            within a run, and every run entry carrying a seed.
  provenance — critical-path report (schema causim.provenance.v1): the
            op census is self-consistent (activated + unmatched = sends,
            no send left unmatched — every analyzed trace comes from a
            run that quiesced — every blocker chain resolved, no
            segment-sum mismatches),
            the segment shares tile the visibility total, per-site
            totals sum to the grid totals, every top op's segments
            sum to its visibility latency exactly, and a link-scope split
            (critpath --cells) carries all four LAN/WAN aggregates with
            totals bounded by their parents.
A metrics file ending in .csv is checked as long-form CSV instead.
"""

import argparse
import csv
import json
import sys


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        fail(f"{path}: {e}")
    if not text.strip():
        fail(f"{path}: empty file")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"{path}: unparseable JSON: {e}")


def check_trace(path: str) -> None:
    doc = load_json(path)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")
    real = [e for e in events if e.get("ph") != "M"]
    if not real:
        fail(f"{path}: only metadata events")
    seqs = {}  # (pid, peer, name) -> last seq
    chains = {}  # (pid, write id) -> [(ts, dur, has_next_blocker)]
    for e in real:
        for field in ("name", "ph", "ts", "pid"):
            if field not in e:
                fail(f"{path}: event missing '{field}': {e}")
        if e["ph"] == "X" and e.get("dur", -1) < 0:
            fail(f"{path}: span without non-negative dur: {e}")
        if e["name"] in ("wire_delay", "deliver"):
            args = e.get("args", {})
            key = (e["pid"], args.get("peer"), e["name"])
            seq = args.get("a")
            if key in seqs and seq <= seqs[key]:
                fail(f"{path}: channel seq went backwards: {e}")
            seqs[key] = seq
        if e["name"] in ("drop", "retransmit"):
            # Fault-stack events: instants on the sending site's track,
            # addressed to a peer, carrying the frame size in b.
            if e["ph"] != "i":
                fail(f"{path}: {e['name']} must be an instant event: {e}")
            args = e.get("args", {})
            if args.get("peer") is None:
                fail(f"{path}: {e['name']} without a peer: {e}")
            if args.get("b", 0) <= 0:
                fail(f"{path}: {e['name']} without a byte count: {e}")
        if e["name"] == "time_sample":
            # Live time-series sampler tick: an instant on the sampled
            # site's track, a = pending SM count (non-negative), b = the
            # sample ordinal — strictly increasing per pid.
            if e["ph"] != "i":
                fail(f"{path}: time_sample must be an instant event: {e}")
            args = e.get("args", {})
            if args.get("a", -1) < 0:
                fail(f"{path}: time_sample with negative pending count: {e}")
            key = (e["pid"], "time_sample")
            ordinal = args.get("b", -1)
            if key in seqs and ordinal <= seqs[key]:
                fail(f"{path}: time_sample ordinal went backwards: {e}")
            seqs[key] = ordinal
        if e["name"] == "buffered":
            # Provenance fields (optional — pre-provenance traces omit
            # them): an SM entering the pending queue names both itself
            # (c = packed write id) and the specific dependency blocking
            # it (d = packed blocker).
            args = e.get("args", {})
            if args.get("c", 0) and not args.get("d", 0):
                fail(f"{path}: buffered with a write id but no blocking "
                     f"dependency: {e}")
        if e["name"] == "dep_satisfied":
            # One closed segment of a buffered SM's dependency wait:
            # b = the SM's write id, c = the blocker that resolved,
            # d = the next blocker (absent on the final segment).
            args = e.get("args", {})
            if args.get("peer") is None:
                fail(f"{path}: dep_satisfied without a peer: {e}")
            if args.get("b", 0) <= 0 or args.get("c", 0) <= 0:
                fail(f"{path}: dep_satisfied without write id / blocker: {e}")
            chains.setdefault((e["pid"], args["b"]), []).append(
                (e["ts"], e.get("dur", 0), args.get("d", 0) != 0))
        if e["name"] == "activated":
            args = e.get("args", {})
            wid = args.get("c", 0)
            if wid and args.get("b", 0) == 1:
                # A buffered activation: its dep_satisfied chain must
                # tile [receipt, apply) exactly — contiguous, starting
                # at the receipt instant, every segment but the last
                # naming the next blocker, durations summing to the
                # buffering delay.
                chain = chains.pop((e["pid"], wid), [])
                if not chain:
                    fail(f"{path}: buffered activation without a "
                         f"dep_satisfied chain: {e}")
                cursor = e["ts"]
                for i, (ts, dur, has_next) in enumerate(chain):
                    if ts != cursor:
                        fail(f"{path}: dep_satisfied chain for write "
                             f"{wid} not contiguous at {ts} (expected "
                             f"{cursor})")
                    cursor += dur
                    if has_next != (i + 1 < len(chain)):
                        fail(f"{path}: dep_satisfied chain for write "
                             f"{wid} mislinked at segment {i}")
                if cursor != e["ts"] + e.get("dur", 0):
                    fail(f"{path}: dep_satisfied chain for write {wid} "
                         f"sums to {cursor - e['ts']}, activation waited "
                         f"{e.get('dur', 0)}")
        if e["name"] == "gateway_forward":
            # Cross-DC mailbox ship: an instant on the origin gateway's
            # track, peer = destination gateway, a = coalesced message
            # count, b = frame bytes. The 0xB5 frame layout bounds b from
            # below: a 9-byte frame header plus an 8-byte record header
            # per message (payloads only add to that).
            if e["ph"] != "i":
                fail(f"{path}: gateway_forward must be an instant event: {e}")
            args = e.get("args", {})
            if args.get("peer") is None:
                fail(f"{path}: gateway_forward without a peer: {e}")
            if args.get("a", 0) < 1:
                fail(f"{path}: gateway_forward with an empty mailbox: {e}")
            if args.get("b", 0) < 9 + 8 * args.get("a", 0):
                fail(f"{path}: gateway_forward frame bytes below the 0xB5 "
                     f"wire minimum: {e}")
        if e["name"] == "rtt_sample":
            # Adaptive-RTO estimator input: an instant on the data
            # sender's track, a = round-trip sample (µs), b = the RTO the
            # estimator produced from it — both strictly positive.
            if e["ph"] != "i":
                fail(f"{path}: rtt_sample must be an instant event: {e}")
            args = e.get("args", {})
            if args.get("peer") is None:
                fail(f"{path}: rtt_sample without a peer: {e}")
            if args.get("a", 0) <= 0:
                fail(f"{path}: rtt_sample without a positive sample: {e}")
            if args.get("b", 0) <= 0:
                fail(f"{path}: rtt_sample without a positive RTO: {e}")
    if chains:
        fail(f"{path}: {len(chains)} dep_satisfied chain(s) without a "
             f"matching buffered activation: {sorted(chains)[:3]}")
    names = {e["name"] for e in real}
    for required in ("op_issue", "op_complete", "send"):
        if required not in names:
            fail(f"{path}: no '{required}' events")
    dropped = doc.get("causim", {}).get("dropped", 0)
    if dropped > 0:
        fail(f"{path}: trace truncated: ring buffer dropped {dropped} events")
    print(f"check_trace: {path}: OK ({len(real)} events, "
          f"{len(names)} event types)")


def check_metrics_json(path: str) -> None:
    doc = load_json(path)
    for section in ("counters", "gauges", "summaries", "histograms"):
        if section not in doc:
            fail(f"{path}: missing section '{section}'")
    counters = doc["counters"]
    for kind in ("SM", "FM", "RM"):
        name = f"msg.{kind}.count"
        if counters.get(name, 0) <= 0:
            fail(f"{path}: counter '{name}' missing or zero")
    for name, h in doc["histograms"].items():
        q = h.get("quantiles", {})
        # p999 appears in newer exports; guard its absence by defaulting to
        # p99 so the ordering chain stays total.
        chain = [q.get("p50", 0), q.get("p90", 0), q.get("p99", 0),
                 q.get("p999", q.get("p99", 0))]
        if any(a > b for a, b in zip(chain, chain[1:])):
            fail(f"{path}: histogram '{name}' quantiles out of order: {q}")
    if "net.reliable.frames.count" in counters:
        # The reliability layer exported: its wire-frame accounting must
        # balance exactly — every frame is a first DATA transmission, a
        # retransmission, or an ACK/SACK; nothing else touches the wire.
        frames = counters["net.reliable.frames.count"]
        parts = (counters.get("net.reliable.data.count", 0)
                 + counters.get("net.reliable.ack.count", 0)
                 + counters.get("net.reliable.retransmit.count", 0))
        if frames != parts:
            fail(f"{path}: net.reliable.frames.count {frames} != "
                 f"data + ack + retransmit {parts}")
        for gauge in ("net.reliable.srtt.us", "net.reliable.rto.us"):
            value = doc["gauges"].get(gauge, {}).get("value")
            if value is not None and value < 0:
                fail(f"{path}: gauge '{gauge}' negative: {value}")
    print(f"check_trace: {path}: OK ({len(counters)} counters, "
          f"{len(doc['histograms'])} histograms)")


def check_metrics_csv(path: str) -> None:
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
    except OSError as e:
        fail(f"{path}: {e}")
    if not rows:
        fail(f"{path}: no data rows")
    if set(rows[0].keys()) != {"metric", "type", "field", "value"}:
        fail(f"{path}: unexpected header: {list(rows[0].keys())}")
    counts = {r["metric"]: float(r["value"]) for r in rows
              if r["type"] == "counter"}
    for kind in ("SM", "FM", "RM"):
        if counts.get(f"msg.{kind}.count", 0) <= 0:
            fail(f"{path}: counter 'msg.{kind}.count' missing or zero")
    print(f"check_trace: {path}: OK ({len(rows)} rows)")


def check_report(path: str) -> None:
    doc = load_json(path)
    if doc.get("schema") != "causim.analysis.v1":
        fail(f"{path}: not an analysis report: schema={doc.get('schema')!r}")
    for section in ("activation", "metadata_attribution", "faults",
                    "log_occupancy"):
        if section not in doc:
            fail(f"{path}: missing section '{section}'")
    if doc.get("events", 0) <= 0:
        fail(f"{path}: no events analyzed")
    total = doc["activation"]["total"]
    if total.get("buffered", 0) > total.get("applies", 0):
        fail(f"{path}: buffered > applies: {total}")
    lat = total.get("latency_us", {})
    if not lat.get("p50", 0) <= lat.get("p90", 0) <= lat.get("p99", 0):
        fail(f"{path}: activation quantiles out of order: {lat}")
    sm = doc["metadata_attribution"]["per_kind"].get("SM", {})
    if sm.get("count", 0) <= 0:
        fail(f"{path}: no SM sends attributed")
    faults = doc["faults"]
    ftotal = faults.get("total", {})
    for field in ("drops", "dropped_bytes", "retransmits",
                  "retransmitted_bytes"):
        if field not in ftotal:
            fail(f"{path}: faults.total missing '{field}'")
        site_sum = sum(f.get(field, 0) for f in faults["per_site"].values())
        if site_sum != ftotal[field]:
            fail(f"{path}: faults per-site {field} sum {site_sum} != "
                 f"total {ftotal[field]}")
    sites = doc["log_occupancy"]["per_site"]
    for site in range(doc.get("sites", 0)):
        if sites.get(str(site), {}).get("samples", 0) <= 0:
            fail(f"{path}: site {site} has no log_occupancy samples")
    for site, occ in sites.items():
        if occ.get("samples", 0) != occ.get("entries", {}).get("count", -1):
            fail(f"{path}: site {site} sample/summary count mismatch: {occ}")
    print(f"check_trace: {path}: OK ({doc['events']} events, "
          f"{doc['sites']} sites, {len(sites)} occupancy series)")


def check_diff(path: str) -> None:
    doc = load_json(path)
    if doc.get("schema") != "causim.analysis.diff.v1":
        fail(f"{path}: not an analysis diff: schema={doc.get('schema')!r}")
    if not isinstance(doc.get("diff"), dict) or not doc["diff"]:
        fail(f"{path}: missing or empty 'diff' object")
    for side in ("a", "b"):
        if not doc.get(side):
            fail(f"{path}: missing '{side}' name")
    print(f"check_trace: {path}: OK (diff of {doc['a']!r} vs {doc['b']!r}, "
          f"{len(doc['diff'])} top-level keys)")


def check_timeseries(path: str) -> None:
    doc = load_json(path)
    if doc.get("schema") != "causim.timeseries.v1":
        fail(f"{path}: not a timeseries stream: schema={doc.get('schema')!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(f"{path}: no runs")
    for r in runs:
        if "seed" not in r or "run" not in r:
            fail(f"{path}: run entry missing seed/run: {r}")
    samples = doc.get("samples")
    if not isinstance(samples, list) or not samples:
        fail(f"{path}: no samples")
    prev = None
    for s in samples:
        for field in ("run", "ts", "ops", "sends", "applies"):
            if field not in s:
                fail(f"{path}: sample missing '{field}': {s}")
        if prev is not None:
            if s["run"] < prev["run"]:
                fail(f"{path}: run id went backwards: {prev} -> {s}")
            if s["run"] == prev["run"]:
                if s["ts"] < prev["ts"]:
                    fail(f"{path}: timestamp went backwards: {prev} -> {s}")
                # ops/sends/applies are cumulative totals and never reset
                # mid-run.
                for field in ("ops", "sends", "applies"):
                    if s[field] < prev[field]:
                        fail(f"{path}: cumulative '{field}' decreased: "
                             f"{prev} -> {s}")
        prev = s
    print(f"check_trace: {path}: OK ({len(samples)} samples, "
          f"{len(runs)} run(s))")


def check_provenance(path: str) -> None:
    doc = load_json(path)
    if doc.get("schema") != "causim.provenance.v1":
        fail(f"{path}: not a provenance report: schema={doc.get('schema')!r}")
    if doc.get("events", 0) <= 0:
        fail(f"{path}: no events analyzed")
    ops = doc.get("ops")
    if not isinstance(ops, dict):
        fail(f"{path}: missing 'ops' census")
    for field in ("sm_sends", "activated", "buffered", "unmatched_sends",
                  "unresolved", "sum_mismatch", "dropped_first_tx"):
        if field not in ops:
            fail(f"{path}: ops census missing '{field}'")
    if ops["activated"] + ops["unmatched_sends"] != ops["sm_sends"]:
        fail(f"{path}: op census does not balance: {ops}")
    if ops["unmatched_sends"] != 0:
        fail(f"{path}: {ops['unmatched_sends']} SM send(s) never matched an "
             f"activation (a quiesced run activates every send)")
    if ops["buffered"] > ops["activated"]:
        fail(f"{path}: buffered > activated: {ops}")
    if ops["unresolved"] != 0:
        fail(f"{path}: {ops['unresolved']} blocker chain(s) unresolved")
    if ops["sum_mismatch"] != 0:
        fail(f"{path}: {ops['sum_mismatch']} op(s) whose segments do not "
             f"sum to their visibility latency")
    seg = doc.get("segments", {})
    for field in ("sched_us", "wire_us", "arq_us", "dep_wait_us", "apply_us",
                  "visibility_us", "share"):
        if field not in seg:
            fail(f"{path}: segments missing '{field}'")
    vis = seg["visibility_us"]["total"]
    parts = sum(seg[f]["total"]
                for f in ("wire_us", "arq_us", "dep_wait_us", "apply_us"))
    if abs(parts - vis) > 1e-6 * max(1.0, vis):
        fail(f"{path}: segment totals {parts} do not tile the visibility "
             f"total {vis}")
    if vis > 0:
        share = sum(seg["share"][f]
                    for f in ("wire", "arq", "dep_wait", "apply"))
        if abs(share - 1.0) > 1e-9:
            fail(f"{path}: segment shares sum to {share}, expected 1")
    if "wire_lan_us" in seg:
        # Link-scope split (critpath --cells): the four scope aggregates
        # travel together, and each scope pair partitions a subset of its
        # parent aggregate — ops outside the cell map fall in neither
        # bucket, so the split can only undershoot the total.
        for field in ("wire_wan_us", "visibility_lan_us", "visibility_wan_us"):
            if field not in seg:
                fail(f"{path}: scope split missing '{field}'")
        for lan, wan, parent in (("wire_lan_us", "wire_wan_us", "wire_us"),
                                 ("visibility_lan_us", "visibility_wan_us",
                                  "visibility_us")):
            split = seg[lan]["total"] + seg[wan]["total"]
            if split > seg[parent]["total"] * (1 + 1e-9) + 1e-6:
                fail(f"{path}: {lan}+{wan} totals {split} exceed "
                     f"{parent} total {seg[parent]['total']}")
    per_site = doc.get("per_site", {})
    if sum(s.get("activated", 0) for s in per_site.values()) != ops["activated"]:
        fail(f"{path}: per-site activations do not sum to {ops['activated']}")
    site_vis = sum(s.get("visibility_us", 0) for s in per_site.values())
    if abs(site_vis - vis) > 1e-6 * max(1.0, vis):
        fail(f"{path}: per-site visibility {site_vis} != total {vis}")
    dep_total = seg["dep_wait_us"]["total"]
    per_writer = doc.get("blocked_on", {}).get("per_writer", {})
    blocked = sum(w.get("wait_us", 0) for w in per_writer.values())
    if abs(blocked - dep_total) > 1e-6 * max(1.0, dep_total):
        fail(f"{path}: blocked-on attribution {blocked} != dependency-wait "
             f"total {dep_total}")
    for op in doc.get("top_ops", []):
        parts = (op["wire_us"] + op["arq_us"] + op["dep_wait_us"]
                 + op["apply_us"])
        if parts != op["visibility_us"]:
            fail(f"{path}: top op segments sum to {parts}, visibility is "
                 f"{op['visibility_us']}: {op}")
        chain_wait = sum(s["wait_us"] for s in op.get("chain", []))
        if op["chain"] and chain_wait != op["dep_wait_us"]:
            fail(f"{path}: top op chain waits sum to {chain_wait}, dep_wait "
                 f"is {op['dep_wait_us']}: {op}")
    print(f"check_trace: {path}: OK ({ops['activated']} ops, "
          f"{ops['buffered']} buffered, {len(per_site)} site(s), "
          f"{len(doc.get('top_ops', []))} top op(s))")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace")
    parser.add_argument("--metrics")
    parser.add_argument("--report")
    parser.add_argument("--diff")
    parser.add_argument("--timeseries")
    parser.add_argument("--provenance")
    args = parser.parse_args()
    if not (args.trace or args.metrics or args.report or args.diff
            or args.timeseries or args.provenance):
        fail("nothing to check (pass --trace, --metrics, --report, --diff, "
             "--timeseries or --provenance)")
    if args.trace:
        check_trace(args.trace)
    if args.metrics:
        if args.metrics.endswith(".csv"):
            check_metrics_csv(args.metrics)
        else:
            check_metrics_json(args.metrics)
    if args.report:
        check_report(args.report)
    if args.diff:
        check_diff(args.diff)
    if args.timeseries:
        check_timeseries(args.timeseries)
    if args.provenance:
        check_provenance(args.provenance)


if __name__ == "__main__":
    main()
