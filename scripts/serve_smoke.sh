#!/usr/bin/env bash
# End-to-end smoke for the compserve daemon: STREAMS concurrent streams
# over a Unix socket must reproduce compcheck --monitor's per-prefix
# verdicts file by file, the admin plane must answer metrics/health/slow
# scrapes from the live daemon, SIGTERM must drain cleanly (exit 0,
# every queued request answered), and the traced daemon must leave a
# spans/1 dump with the full decode→queue→engine→encode tree.  Run from
# the repository root after `dune build`; binaries are taken from
# _build, not `dune exec`, so the daemon and the client never contend
# for the build lock.
set -euo pipefail

BIN=${BIN:-"$PWD/_build/default/bin"}
STREAMS=${STREAMS:-8}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
SOCK="$DIR/serve.sock"

for i in $(seq 1 "$STREAMS"); do
  # Mixed shapes and seeds: some streams reject on a prefix, some accept
  # through the whole file — parity must hold in both regimes.
  shape=$([ $((i % 2)) -eq 0 ] && echo stack || echo general)
  "$BIN/compgen.exe" --shape "$shape" --levels 2 --roots 4 --seed "$i" \
    > "$DIR/h$i.ct"
done

"$BIN/compserve.exe" --socket "$SOCK" --shards 4 --window 8 \
  --spans "$DIR/spans.json" --slow-ms 0 \
  2> "$DIR/daemon.log" &
DPID=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
if ! [ -S "$SOCK" ]; then
  echo "daemon never bound $SOCK" >&2
  cat "$DIR/daemon.log" >&2
  exit 1
fi

cd "$DIR"
client_rc=0
# --trace makes the client mint a trace context per append, so the
# daemon's span dump below holds the cross-process trees.
"$BIN/compserve.exe" --connect "$SOCK" --trace client_trace.json h*.ct \
  > client.out || client_rc=$?
# exit 1 just means some stream rejected; 2+ is a protocol/usage failure
test "$client_rc" -le 1
python3 -c 'import json; json.load(open("client_trace.json"))'

for i in $(seq 1 "$STREAMS"); do
  grep "^h$i.ct: prefix" client.out | sed "s/^h$i\.ct: //" > "served.$i"
  mon_rc=0
  "$BIN/compcheck.exe" --monitor "h$i.ct" > "mon_raw.$i" || mon_rc=$?
  test "$mon_rc" -le 1
  grep "^prefix" "mon_raw.$i" > "mon.$i" || true
  if ! diff "served.$i" "mon.$i"; then
    echo "verdict divergence on stream h$i.ct" >&2
    exit 1
  fi
done

# Admin plane against the still-live daemon: a Prometheus scrape that
# parses (TYPE headers, the sharded serve.* counters), a healthy health
# document, and — with --slow-ms 0 — a slow log holding every append.
"$BIN/compserve.exe" --connect "$SOCK" --admin metrics > metrics.prom
grep -q '^# TYPE serve_append counter' metrics.prom
grep -q '^# TYPE serve_append_wall_s histogram' metrics.prom
python3 - <<'EOF'
seen = set()
for line in open("metrics.prom"):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# TYPE "):
        name, kind = line.split()[2:4]
        assert kind in ("counter", "gauge", "histogram"), line
        seen.add(name)
        continue
    assert not line.startswith("#"), f"unexpected comment: {line}"
    series, value = line.rsplit(" ", 1)
    float(value)
    base = series.split("{", 1)[0]
    for suffix in ("_bucket", "_sum", "_count"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    assert base in seen, f"sample before its TYPE header: {line}"
EOF
"$BIN/compserve.exe" --connect "$SOCK" --admin health > health.json
python3 - <<'EOF'
import json
d = json.load(open("health.json"))
assert d["schema"] == "compserve-health/1" and d["status"] == "ok"
assert d["protocol"] == 3 and d["shards"] == 4
EOF
"$BIN/compserve.exe" --connect "$SOCK" --admin slow > slow.json
python3 - <<'EOF'
import json
d = json.load(open("slow.json"))
assert d["schema"] == "compserve-slow/1"
assert d["count"] == len(d["events"]) > 0, "slow-ms 0 must log every append"
EOF
"$BIN/compserve.exe" --connect "$SOCK" --admin stats > stats.json
python3 - <<'EOF'
import json
d = json.load(open("stats.json"))
cov = d["coverage"]
assert cov["schema"] == "coverage/1"
assert cov["points"]["serve.append"] > 0
EOF

kill -TERM "$DPID"
drain_rc=0
wait "$DPID" || drain_rc=$?
test "$drain_rc" -eq 0
grep -q "draining" daemon.log
grep -q "drained" daemon.log

# The drained daemon wrote its span dump: every traced append must form
# the connected tree decode → queue_wait → {engine.append, encode}.
python3 - <<'EOF'
import json
d = json.load(open("spans.json"))
assert d["schema"] == "spans/1"
by_trace = {}
for s in d["spans"]:
    by_trace.setdefault(s["trace"], {})[s["name"]] = s
assert by_trace, "traced daemon recorded no spans"
trees = 0
for trace, spans in by_trace.items():
    if "serve.decode" not in spans:
        continue  # open/close frames trace only the decode side
    if "serve.queue_wait" not in spans:
        continue
    dec = spans["serve.decode"]
    qw = spans["serve.queue_wait"]
    eng = spans["engine.append"]
    enc = spans["serve.encode"]
    assert qw["parent"] == dec["span"], (trace, spans)
    assert eng["parent"] == qw["span"], (trace, spans)
    assert enc["parent"] == dec["span"], (trace, spans)
    assert eng["labels"]["path"] in ("initial", "fast", "delta", "kernel", "full")
    trees += 1
assert trees > 0, "no append span tree in the daemon dump"
print(f"span dump OK: {trees} connected append trees")
EOF

echo "serve smoke OK: $STREAMS streams, verdict parity, admin plane, clean drain"
