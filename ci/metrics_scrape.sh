#!/usr/bin/env bash
# Metrics-exposition scrape check: start a durable server with the
# standalone Prometheus listener (`--metrics-addr`), run a small mixed
# workload (create, ops with an idempotency-token replay, warm and cold
# reads, per-tuple ranking), scrape the exposition endpoint twice with
# more traffic in between, and validate both scrapes with the offline
# checker (`metrics_check`): every line parses, the required metric
# families are present, and counters / histogram cumulatives / gauge
# high-water marks are monotone across the two scrapes.
#
# The scrapes land in target/ as metrics_scrape_{1,2}.txt so CI can
# upload them next to the shard matrix's scrapes.
#
# Usage: ci/metrics_scrape.sh [path-to-inconsist-binary] [path-to-metrics_check]
set -euo pipefail

BIN=${1:-target/release/inconsist}
CHECK=${2:-target/release/metrics_check}
OUT_DIR=${OUT_DIR:-target}
WORK=$(mktemp -d)
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill -9 $SERVER_PID 2>/dev/null || true; rm -rf "$WORK"' EXIT

cat > "$WORK/cities.csv" <<'CSV'
City,Country,Pop
Paris,FR,1
Paris,DE,2
Lyon,FR,3
Lyon,FR,4
Nice,FR,5
Nice,IT,6
CSV
cat > "$WORK/rules.dc" <<'DC'
fd: t.City = t'.City & t.Country != t'.Country
DC

echo "== start a durable server with the exposition listener =="
"$BIN" serve --addr 127.0.0.1:0 --addr-file "$WORK/addr.txt" \
    --workers 2 --data-dir "$WORK/state" --fsync always \
    --metrics-addr 127.0.0.1:0 --slow-request-ms 250 \
    --preload "cities=$WORK/cities.csv,$WORK/rules.dc" \
    2> "$WORK/server.log" &
SERVER_PID=$!
for _ in $(seq 1 200); do
    # Both the request listener and the metrics listener report their
    # bound addresses (port 0 picks free ports); wait for the two.
    [ -s "$WORK/addr.txt" ] && grep -q 'metrics listener on ' "$WORK/server.log" && break
    kill -0 $SERVER_PID 2>/dev/null || {
        echo "server died during startup"; cat "$WORK/server.log"; exit 1
    }
    sleep 0.05
done
ADDR=$(cat "$WORK/addr.txt")
METRICS_ADDR=$(grep -o 'metrics listener on .*' "$WORK/server.log" | head -1 | awk '{print $4}')
[ -n "$METRICS_ADDR" ] || { echo "no metrics listener address"; exit 1; }
echo "requests on $ADDR, scrapes on $METRICS_ADDR"

scrape() {
    # The listener speaks raw exposition text: connect, read to EOF.
    if command -v curl >/dev/null 2>&1; then
        curl -s "telnet://$METRICS_ADDR" > "$1" || true
    else
        exec 3<>"/dev/tcp/${METRICS_ADDR%:*}/${METRICS_ADDR##*:}"
        cat <&3 > "$1"
        exec 3<&- 3>&-
    fi
    [ -s "$1" ] || { echo "empty scrape from $METRICS_ADDR"; exit 1; }
}

workload() {
    "$BIN" client "$ADDR" \
        '{"cmd":"op","session":"cities","ops":"update 1 Pop 9","token":"'"$1"'"}' \
        '{"cmd":"op","session":"cities","ops":"update 1 Pop 9","token":"'"$1"'"}' \
        '{"cmd":"measure","session":"cities"}' \
        '{"cmd":"measure","session":"cities"}' \
        '{"cmd":"tuple_measures","session":"cities","k":3}' \
        > /dev/null
}

echo "== workload, scrape, more workload, scrape again =="
workload ci-1
scrape "$OUT_DIR/metrics_scrape_1.txt"
workload ci-2
scrape "$OUT_DIR/metrics_scrape_2.txt"

"$BIN" client "$ADDR" '{"cmd":"shutdown"}' > /dev/null
wait $SERVER_PID 2>/dev/null || true
SERVER_PID=""

echo "== offline validation (grammar, required names, monotone counters) =="
"$CHECK" "$OUT_DIR/metrics_scrape_1.txt" "$OUT_DIR/metrics_scrape_2.txt"
echo "metrics scrape check passed"
