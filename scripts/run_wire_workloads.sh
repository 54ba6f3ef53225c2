#!/bin/sh
# Runs the wire-serving workload suite and validates the emitted JSON:
#
#   1. closed-loop zipfian and uniform sweeps (in-process cluster, but all
#      measured traffic crosses real TCP sockets via WireClient)
#   2. an open-loop run at a fixed target rate (coordinated-omission
#      resistant latency: measured from scheduled send time)
#   3. an 8-thread smoke that must finish without an error
#   4. an external-process run: couchkv_server in its own process, loadgen
#      attached over --connect, then the server is killed -9 mid-suite and a
#      second loadgen run must fail cleanly (errors, not hangs/crashes)
#   5. each couchkv_top raw flight-recorder dump: both lists present, no
#      record's phases past its total, no op in both lists
#   6. the split of each run's latency: every row carries the request leg,
#      server, reply leg and client parts, none negative, and the legs plus
#      the server add up to no more than the read p50 and the client part;
#      the in-process run's reply polls hit at least once
#
#   run_wire_workloads.sh <build-dir> <out-dir>
#
# Duration per run is COUCHKV_WIRE_DURATION seconds (default 5; CI smoke
# uses 2). BENCH_wire_*.json land in <out-dir> and must parse.
set -eu

BUILD_DIR="$1"
OUT_DIR="$2"
LOADGEN="$BUILD_DIR/tools/loadgen"
SERVER="$BUILD_DIR/tools/couchkv_server"
JSON_CHECK="$BUILD_DIR/bench/json_check"
DURATION="${COUCHKV_WIRE_DURATION:-5}"

mkdir -p "$OUT_DIR"
rm -f "$OUT_DIR"/BENCH_wire_*.json
COUCHKV_BENCH_JSON_DIR="$OUT_DIR"
export COUCHKV_BENCH_JSON_DIR

echo "== wire workload: closed loop, zipfian"
"$LOADGEN" --threads 4 --duration-s "$DURATION" --keys 20000 \
  --dist zipfian --read-pct 80 --name wire_closed_zipfian

echo "== wire workload: closed loop, uniform"
"$LOADGEN" --threads 4 --duration-s "$DURATION" --keys 20000 \
  --dist uniform --read-pct 50 --name wire_closed_uniform

echo "== wire workload: open loop @ 20k ops/s"
"$LOADGEN" --threads 4 --duration-s "$DURATION" --keys 20000 \
  --target-ops 20000 --name wire_open_20k

echo "== wire workload: 8 client threads, 2 s, no errors"
"$LOADGEN" --threads 8 --duration-s 2 --keys 20000 --name wire_threads8
THREADS8_ERRORS="$(sed -n 's/.*"errors":\([0-9]*\).*/\1/p' \
  "$OUT_DIR/BENCH_wire_threads8.json")"
if [ "$THREADS8_ERRORS" != 0 ]; then
  echo "run_wire_workloads: 8-thread run had errors ($THREADS8_ERRORS)" >&2
  exit 1
fi

echo "== wire workload: external server process"
SERVER_OUT="$OUT_DIR/couchkv_server.out"
"$SERVER" --nodes 3 > "$SERVER_OUT" 2>&1 &
SERVER_PID=$!
# trap keeps the server from outliving a failed run.
trap 'kill -9 "$SERVER_PID" 2>/dev/null || true' EXIT
i=0
until grep -q '^READY$' "$SERVER_OUT" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "run_wire_workloads: server never became READY" >&2
    exit 1
  fi
  sleep 0.1
done
PORTS="$(sed -n 's/^WIRE node=[0-9]* port=//p' "$SERVER_OUT" | paste -sd, -)"
"$LOADGEN" --connect "$PORTS" --threads 2 --duration-s "$DURATION" \
  --keys 10000 --name wire_external

echo "== wire workload: couchkv_top smoke against the live server"
TOP="$BUILD_DIR/tools/couchkv_top"
TOP_OUT="$OUT_DIR/couchkv_top.out"
"$TOP" --connect "$PORTS" --interval-ms 200 --count 2 --raw > "$TOP_OUT"
# Every node must have answered with a parsed stats line (no "unreachable")
# and a raw flight-recorder dump.
if grep -q 'unreachable' "$TOP_OUT"; then
  echo "run_wire_workloads: couchkv_top saw unreachable nodes" >&2
  cat "$TOP_OUT" >&2
  exit 1
fi
RAW_LINES="$(grep -c '^  raw\[' "$TOP_OUT" || true)"
if [ "$RAW_LINES" -lt 3 ]; then
  echo "run_wire_workloads: couchkv_top raw dumps missing ($RAW_LINES)" >&2
  cat "$TOP_OUT" >&2
  exit 1
fi
# The first tick has no earlier sample, so each of its rows must show "-"
# for ops/s. The second tick's rows carry interval rates: each must name its
# node and show a nonzero ops/s (couchkv_top's own STAT and OBSERVE_TRACE
# requests are served ops), or the ops/s source is broken.
NPORTS="$(echo "$PORTS" | tr ',' '\n' | grep -c .)"
if ! awk -v n="$NPORTS" '
    NR == 1 || /^  raw\[/ { next }
    ++row <= n { first++; if ($3 != "-") bad++; next }
    { seen++; if ($1 == "?" || $3 + 0 == 0) bad++ }
    END { exit (first == n && seen == n && bad == 0) ? 0 : 1 }' \
    "$TOP_OUT"; then
  echo "run_wire_workloads: couchkv_top first tick does not read \"-\"" \
    "ops/s, or its second tick lacks a node label or reads 0 ops/s" >&2
  cat "$TOP_OUT" >&2
  exit 1
fi

# Every raw dump is one flight-recorder snapshot: it must hold both the
# completed and the inflight array, no record's phases may sum past its
# total, and no op may show in both lists. An op is told by its trace id;
# untraced ops (trace id 0, couchkv_top's own) cannot be told apart.
if ! python3 - "$TOP_OUT" <<'PY'
import json, re, sys

bad = []
for line in open(sys.argv[1]):
    m = re.match(r"  raw\[(\d+)\]: (.*)$", line.rstrip("\n"))
    if not m:
        continue
    where = f"raw[{m.group(1)}]"
    try:
        doc = json.loads(m.group(2))
        missing = [k for k in ("completed", "inflight")
                   if not isinstance(doc.get(k), list)]
        if missing:
            bad.append(f"{where}: no {' or '.join(missing)} array")
            continue
        for r in doc["completed"]:
            phases = sum(r[k] for k in ("dispatch_us", "engine_us",
                                        "replicate_us", "persist_us"))
            if phases > r["total_us"]:
                bad.append(f"{where}: seq {r['seq']} phases sum to "
                           f"{phases} us, past its total_us {r['total_us']}")
        done = {r["trace_id"] for r in doc["completed"]
                if r["trace_id"] != "0"}
        for op in doc["inflight"]:
            if op["trace_id"] in done:
                bad.append(f"{where}: trace {op['trace_id']} is both "
                           f"completed and in flight")
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        bad.append(f"{where}: malformed dump ({type(e).__name__}: {e})")
for b in bad:
    print("run_wire_workloads: couchkv_top " + b, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
then
  exit 1
fi

echo "== wire workload: kill -9 the server, client must fail cleanly"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT
# Every op errors (connection refused), but the generator must terminate on
# schedule and still emit valid JSON — no hang, no crash.
"$LOADGEN" --connect "$PORTS" --threads 1 --duration-s 1 --keys 100 \
  --no-preload --name wire_after_kill
KILLED_OPS="$(sed -n 's/.*"achieved_ops_s":\([0-9.]*\).*/\1/p' \
  "$OUT_DIR/BENCH_wire_after_kill.json")"
case "$KILLED_OPS" in
  0|0.*) ;;
  *) echo "run_wire_workloads: ops flowed to a dead server ($KILLED_OPS)" >&2
     exit 1 ;;
esac

"$JSON_CHECK" "$OUT_DIR"/BENCH_wire_*.json

echo "== wire workload: latency split by leg"
python3 - "$OUT_DIR" <<'PY'
import glob, json, os, sys

bad = []
for path in sorted(glob.glob(os.path.join(sys.argv[1], "BENCH_wire_*.json"))):
    name = os.path.basename(path)
    doc = json.load(open(path))
    for row in doc["rows"]:
        for op in ("read", "write"):
            parts = [op + p for p in ("", "_req_leg", "_server", "_reply_leg",
                                      "_client")]
            missing = [p for p in parts if p not in row]
            if missing:
                bad.append(f"{name}: no {', '.join(missing)}")
                continue
            if any(row[p][k] < 0 for p in parts for k in row[p]):
                bad.append(f"{name}: a negative {op} column")
            if row[op]["count"] == 0:
                continue
            legs = sum(row[op + p]["p50_us"]
                       for p in ("_req_leg", "_server", "_reply_leg"))
            # Medians do not add exactly; the client part is the slack.
            over = legs - row[op]["p50_us"]
            if over > row[op + "_client"]["p50_us"]:
                bad.append(f"{name}: {op} legs + server p50 {legs:.1f} us "
                           f"exceed the {op} p50 {row[op]['p50_us']:.1f} us "
                           f"by more than the client part")
zipf = json.load(open(os.path.join(sys.argv[1],
                                   "BENCH_wire_closed_zipfian.json")))
if zipf["registry_delta"].get("wire.client.spin_hits", 0) == 0:
    bad.append("BENCH_wire_closed_zipfian.json: wire.client.spin_hits is 0")
for b in bad:
    print("run_wire_workloads: " + b, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
echo "run_wire_workloads: OK"
