#!/usr/bin/env bash
# Shard matrix: the scale-out topology exercised over real processes,
# in two phases:
#
#   A. spawn-and-supervise — `serve --coordinator --shards 2 --data-dir`
#      spawns two durable workers as child processes. A mixed workload
#      (create / tokened ops with a replay / measure / measure_all /
#      top-k) runs through the coordinator, the worker that owns
#      `alpha` is SIGKILLed, and the supervisor must respawn it on the
#      same port with its sessions recovered: every measure must come
#      back **bit-identical** to the pre-kill baseline, and an
#      idempotency-token replay must still dedup.
#
#   B. externally managed workers — two workers started by this script,
#      a coordinator pointed at them with `--shard-addr`. SIGKILLing a
#      worker with nothing supervising it makes the redirect observable
#      deterministically: exactly the sessions placed on the dead shard
#      must answer kind=unavailable (with retry_after_ms), measure_all
#      must refuse to return a partial aggregate, and a by-hand restart
#      over the same --data-dir must recover to bit-identical measures.
#      A third worker then announces itself with `--join` and must show
#      up in the shard table.
#
# Both phases save metrics scrapes (coordinator exposition listener +
# per-worker `metrics prom`) into $OUT_DIR as metrics_scrape_shard*.txt
# so CI uploads them next to the other scrapes.
#
# Usage: ci/shard_matrix.sh [path-to-inconsist-binary]
set -euo pipefail

BIN=${1:-target/release/inconsist}
OUT_DIR=${OUT_DIR:-target}
WORK=$(mktemp -d)
COORD_PID=""
W0_PID=""
W1_PID=""
W2_PID=""
cleanup() {
    # The phase-A coordinator supervises children of its own; take the
    # whole tree down before the workdir.
    [ -n "$COORD_PID" ] && pkill -9 -P "$COORD_PID" 2>/dev/null || true
    for p in $COORD_PID $W0_PID $W1_PID $W2_PID; do
        kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

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

SESSIONS=(alpha beta gamma delta)
MEASURES='"measures":["I_MI","I_P","I_R","I_R^lin"]'

wait_addr_file() { # FILE PID WHAT
    for _ in $(seq 1 400); do
        [ -s "$1" ] && return 0
        kill -0 "$2" 2>/dev/null || { echo "$3 died during startup"; exit 1; }
        sleep 0.05
    done
    echo "$3 never wrote its addr file"
    exit 1
}

create_sessions() { # COORD_ADDR
    for s in "${SESSIONS[@]}"; do
        "$BIN" client "$1" '{"cmd":"create","session":"'"$s"'","csv_path":"'"$WORK/cities.csv"'","dc_path":"'"$WORK/rules.dc"'"}' \
            | grep -q '"ok":true' || { echo "create $s failed"; exit 1; }
    done
}

mixed_workload() { # COORD_ADDR TOKEN_PREFIX
    local addr=$1 tok=$2
    "$BIN" client "$addr" \
        '{"cmd":"op","session":"alpha","ops":"update 1 Pop 9","token":"'"$tok-a"'"}' \
        '{"cmd":"op","session":"beta","ops":"insert Metz,DE,9"}' \
        '{"cmd":"op","session":"gamma","ops":"update 5 Country FR"}' \
        '{"cmd":"measure","session":"delta",'"$MEASURES"'}' \
        '{"cmd":"measure_all",'"$MEASURES"'}' \
        '{"cmd":"tuple_measures","session":"alpha","k":3}' \
        > /dev/null
    # Exactly-once: replaying the same idempotency token must dedup,
    # not double-apply.
    "$BIN" client "$addr" \
        '{"cmd":"op","session":"alpha","ops":"update 1 Pop 9","token":"'"$tok-a"'"}' \
        | grep -q '"deduped":true' || { echo "token replay was not deduped"; exit 1; }
}

extract_values() {
    grep -o '"values":{[^}]*}' <<< "$1"
}

measure_values() { # COORD_ADDR SESSION -> values json (empty on error)
    local resp
    resp=$("$BIN" client "$1" '{"cmd":"measure","session":"'"$2"'",'"$MEASURES"'}')
    extract_values "$resp" || true
}

snapshot_baseline() { # COORD_ADDR -> writes $WORK/baseline.txt
    : > "$WORK/baseline.txt"
    for s in "${SESSIONS[@]}"; do
        v=$(measure_values "$1" "$s")
        [ -n "$v" ] || { echo "baseline measure for $s failed"; exit 1; }
        echo "$s $v" >> "$WORK/baseline.txt"
    done
    AGG_BASELINE=$(extract_values "$("$BIN" client "$1" '{"cmd":"measure_all",'"$MEASURES"'}')")
    [ -n "$AGG_BASELINE" ] || { echo "baseline measure_all failed"; exit 1; }
}

assert_recovered_bit_identical() { # COORD_ADDR LABEL
    local addr=$1 label=$2 ok=0
    # Recovery is asynchronous (supervisor tick + WAL replay); poll
    # until every session answers, then require bit-identity.
    for _ in $(seq 1 200); do
        ok=1
        for s in "${SESSIONS[@]}"; do
            [ -n "$(measure_values "$addr" "$s")" ] || { ok=0; break; }
        done
        [ "$ok" = 1 ] && break
        sleep 0.1
    done
    [ "$ok" = 1 ] || { echo "FAIL($label): sessions never all recovered"; exit 1; }
    while read -r s want; do
        got=$(measure_values "$addr" "$s")
        if [ "$got" != "$want" ]; then
            echo "FAIL($label): $s diverged after recovery"
            echo "  expected:  $want"
            echo "  recovered: $got"
            exit 1
        fi
    done < "$WORK/baseline.txt"
    local agg
    agg=$(extract_values "$("$BIN" client "$addr" '{"cmd":"measure_all",'"$MEASURES"'}')")
    if [ "$agg" != "$AGG_BASELINE" ]; then
        echo "FAIL($label): measure_all diverged: expected $AGG_BASELINE got $agg"
        exit 1
    fi
    echo "ok($label): recovered bit-identical ($agg)"
}

shard_session_count() { # COORD_ADDR SHARD_IDX
    "$BIN" client "$1" '{"cmd":"shards"}' \
        | grep -o '{"shard":'"$2"',[^}]*}' | grep -o '"sessions":[0-9]*' | cut -d: -f2
}

worker_addrs() { # COORD_ADDR -> one addr per line, shard order
    "$BIN" client "$1" '{"cmd":"shards"}' | grep -o '"addr":"[^"]*"' | cut -d'"' -f4
}

echo "== phase A: spawn-and-supervise (--coordinator --shards 2), SIGKILL + respawn =="
"$BIN" serve --addr 127.0.0.1:0 --addr-file "$WORK/coord_a.addr" \
    --coordinator --shards 2 --workers 2 \
    --data-dir "$WORK/state_a" --fsync never \
    --metrics-addr 127.0.0.1:0 2> "$WORK/coord_a.log" &
COORD_PID=$!
wait_addr_file "$WORK/coord_a.addr" $COORD_PID "coordinator"
COORD=$(cat "$WORK/coord_a.addr")
echo "coordinator on $COORD"

create_sessions "$COORD"
mixed_workload "$COORD" ci-shard-a
snapshot_baseline "$COORD"

mapfile -t WPIDS < <(pgrep -P $COORD_PID)
[ "${#WPIDS[@]}" = 2 ] || { echo "expected 2 spawned workers, found ${#WPIDS[@]}"; exit 1; }
# Kill the worker that owns `alpha` (its shard data dir holds the
# session), so the token replay below crosses that worker's restart.
ALPHA_SHARD=$(dirname "$(ls -d "$WORK"/state_a/shard-*/alpha)")
VICTIM=$(pgrep -P $COORD_PID -f -- "--data-dir $ALPHA_SHARD( |\$)")
[ -n "$VICTIM" ] || { echo "no spawned worker serves $ALPHA_SHARD"; exit 1; }
echo "SIGKILL spawned worker pid $VICTIM (owns alpha, $ALPHA_SHARD)"
kill -9 "$VICTIM"

assert_recovered_bit_identical "$COORD" "phase A respawn"

mapfile -t WPIDS_AFTER < <(pgrep -P $COORD_PID)
[ "${#WPIDS_AFTER[@]}" = 2 ] || { echo "FAIL: supervisor did not respawn (${#WPIDS_AFTER[@]} workers)"; exit 1; }
[ "${WPIDS_AFTER[0]}" != "$VICTIM" ] && [ "${WPIDS_AFTER[1]}" != "$VICTIM" ] \
    || { echo "FAIL: killed pid still in the fleet"; exit 1; }

# A token `alpha` applied before the kill and replayed after the
# respawn must still be recognised (the dedup state survives via the
# WAL).
"$BIN" client "$COORD" \
    '{"cmd":"op","session":"alpha","ops":"update 1 Pop 9","token":"ci-shard-a-a"}' \
    | grep -q '"deduped":true' || { echo "FAIL: token replay after respawn re-applied"; exit 1; }

echo "-- metrics scrapes --"
METRICS_ADDR=$(grep -o 'metrics listener on .*' "$WORK/coord_a.log" | head -1 | awk '{print $4}')
[ -n "$METRICS_ADDR" ] || { echo "no coordinator metrics listener"; exit 1; }
if command -v curl >/dev/null 2>&1; then
    curl -s "telnet://$METRICS_ADDR" > "$OUT_DIR/metrics_scrape_shard_coord.txt" || true
else
    exec 3<>"/dev/tcp/${METRICS_ADDR%:*}/${METRICS_ADDR##*:}"
    cat <&3 > "$OUT_DIR/metrics_scrape_shard_coord.txt"
    exec 3<&- 3>&-
fi
grep -q '^coord_shard_requests_total' "$OUT_DIR/metrics_scrape_shard_coord.txt" \
    || { echo "FAIL: coordinator scrape lacks coord_shard_requests_total"; exit 1; }
grep -q '^coord_shard_alive' "$OUT_DIR/metrics_scrape_shard_coord.txt" \
    || { echo "FAIL: coordinator scrape lacks coord_shard_alive"; exit 1; }
i=0
while read -r waddr; do
    "$BIN" client "$waddr" metrics prom > "$OUT_DIR/metrics_scrape_shard$i.txt"
    [ -s "$OUT_DIR/metrics_scrape_shard$i.txt" ] || { echo "FAIL: empty scrape from shard $i"; exit 1; }
    i=$((i + 1))
done < <(worker_addrs "$COORD")
echo "saved $OUT_DIR/metrics_scrape_shard_coord.txt and $i per-shard scrapes"

"$BIN" client "$COORD" '{"cmd":"shutdown"}' > /dev/null
wait $COORD_PID 2>/dev/null || true
COORD_PID=""

echo
echo "== phase B: external workers (--shard-addr), deterministic redirect + rejoin =="
"$BIN" serve --addr 127.0.0.1:0 --addr-file "$WORK/w0.addr" --workers 2 \
    --data-dir "$WORK/w0" --fsync never 2>/dev/null &
W0_PID=$!
"$BIN" serve --addr 127.0.0.1:0 --addr-file "$WORK/w1.addr" --workers 2 \
    --data-dir "$WORK/w1" --fsync never 2>/dev/null &
W1_PID=$!
wait_addr_file "$WORK/w0.addr" $W0_PID "worker 0"
wait_addr_file "$WORK/w1.addr" $W1_PID "worker 1"
W0_ADDR=$(cat "$WORK/w0.addr")
W1_ADDR=$(cat "$WORK/w1.addr")

"$BIN" serve --addr 127.0.0.1:0 --addr-file "$WORK/coord_b.addr" \
    --coordinator --shard-addr "$W0_ADDR,$W1_ADDR" 2> "$WORK/coord_b.log" &
COORD_PID=$!
wait_addr_file "$WORK/coord_b.addr" $COORD_PID "coordinator"
COORD=$(cat "$WORK/coord_b.addr")
echo "coordinator on $COORD, workers on $W0_ADDR / $W1_ADDR"

create_sessions "$COORD"
mixed_workload "$COORD" ci-shard-b
snapshot_baseline "$COORD"

S0=$(shard_session_count "$COORD" 0)
S1=$(shard_session_count "$COORD" 1)
echo "placement: shard 0 owns $S0 sessions, shard 1 owns $S1"
[ "$S0" -gt 0 ] && [ "$S1" -gt 0 ] \
    || { echo "FAIL: placement left a shard empty — pick session names that split"; exit 1; }

echo "SIGKILL worker 0 ($W0_PID); nothing supervises it, so the redirect is observable"
kill -9 "$W0_PID"
wait "$W0_PID" 2>/dev/null || true
W0_PID=""

UNAVAILABLE=0
for s in "${SESSIONS[@]}"; do
    resp=$("$BIN" client "$COORD" '{"cmd":"measure","session":"'"$s"'",'"$MEASURES"'}')
    if grep -q '"kind":"unavailable"' <<< "$resp"; then
        grep -q '"retry_after_ms"' <<< "$resp" \
            || { echo "FAIL: unavailable redirect for $s lacks retry_after_ms: $resp"; exit 1; }
        UNAVAILABLE=$((UNAVAILABLE + 1))
    fi
done
[ "$UNAVAILABLE" = "$S0" ] \
    || { echo "FAIL: $UNAVAILABLE sessions redirected, expected the dead shard's $S0"; exit 1; }
# No partial aggregates: with a shard down, measure_all must refuse.
"$BIN" client "$COORD" '{"cmd":"measure_all",'"$MEASURES"'}' \
    | grep -q '"kind":"unavailable"' \
    || { echo "FAIL: measure_all returned a partial aggregate with a shard down"; exit 1; }
echo "ok: exactly the $S0 sessions on the dead shard answered kind=unavailable"

echo "restart worker 0 on the same addr over the same --data-dir"
rm -f "$WORK/w0.addr"
"$BIN" serve --addr "$W0_ADDR" --addr-file "$WORK/w0.addr" --workers 2 \
    --data-dir "$WORK/w0" --fsync never 2>/dev/null &
W0_PID=$!
wait_addr_file "$WORK/w0.addr" $W0_PID "restarted worker 0"

assert_recovered_bit_identical "$COORD" "phase B restart"

# A late worker announces itself; the shard table must grow.
"$BIN" serve --addr 127.0.0.1:0 --addr-file "$WORK/w2.addr" --workers 2 \
    --join "$COORD" 2>/dev/null &
W2_PID=$!
wait_addr_file "$WORK/w2.addr" $W2_PID "worker 2"
JOINED=0
for _ in $(seq 1 100); do
    ROWS=$("$BIN" client "$COORD" '{"cmd":"shards"}' | grep -o '{"shard":' | wc -l)
    [ "$ROWS" = 3 ] && { JOINED=1; break; }
    sleep 0.1
done
[ "$JOINED" = 1 ] || { echo "FAIL: --join worker never appeared in the shard table"; exit 1; }
echo "ok: --join grew the shard table to 3 workers"

for p in $COORD_PID $W0_PID $W1_PID $W2_PID; do
    kill "$p" 2>/dev/null || true
done
COORD_PID=""; W0_PID=""; W1_PID=""; W2_PID=""

echo
echo "PASS: shard matrix (supervised respawn + deterministic redirect) is bit-identical"
