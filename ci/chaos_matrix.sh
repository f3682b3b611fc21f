#!/usr/bin/env bash
# Chaos matrix: the durability contract end to end over real processes
# and real files, in a grid of failure shapes:
#
#   kill -9   ×   --fsync {always,never}   ×   torn-tail chop {0,1,3} bytes
#
# Each cell starts a durable server over two constraints, applies an
# acknowledged batch that inserts a tuple, takes a mid-run snapshot,
# applies more acknowledged batches, SIGKILLs it with no clean shutdown,
# optionally tears the final write-ahead-log record by chopping bytes off
# the file, restarts over the same --data-dir and requires:
#
# * the recovered measures to be **bit-identical** to the acknowledged
#   prefix: everything for an intact log, everything minus the whole torn
#   final batch for a chopped one (which recovery must also *report* via
#   `torn_tail_dropped`);
# * recovery to start from the snapshot and replay the log tail past it
#   (`"replayed":N` counts exactly the intact post-snapshot records, so a
#   rebuild from a full dump fails the cell), including at least one
#   intact batch in the chopped cells.
#
# The in-process half of the matrix — injected write/fsync/truncate/
# rename/unlink/read failures at every durable I/O site — runs first via
# the failpoint-instrumented test suite.
#
# Usage: ci/chaos_matrix.sh [path-to-inconsist-binary]
set -euo pipefail

BIN=${1:-target/release/inconsist}

echo "== failpoint matrix (injected faults at every durable I/O site) =="
cargo test --release -p inconsist-server --test chaos

MEASURE='{"cmd":"measure","session":"cities","measures":["I_d","I_MI","I_P","I_R","I_R^lin","raw","components"]}'
SERVER_PID=""
WORK=""
trap '[ -n "$SERVER_PID" ] && kill -9 $SERVER_PID 2>/dev/null || true; [ -n "$WORK" ] && rm -rf "$WORK"' EXIT

start_server() {
    rm -f "$WORK/addr.txt"
    "$BIN" serve --addr 127.0.0.1:0 --addr-file "$WORK/addr.txt" \
        --workers 2 --data-dir "$WORK/state" --fsync "$FSYNC" "$@" &
    SERVER_PID=$!
    for _ in $(seq 1 200); do
        [ -s "$WORK/addr.txt" ] && break
        kill -0 $SERVER_PID 2>/dev/null || { echo "server died during startup"; exit 1; }
        sleep 0.05
    done
    [ -s "$WORK/addr.txt" ] || { echo "server never wrote the addr file"; exit 1; }
    ADDR=$(cat "$WORK/addr.txt")
}

extract_values() {
    # The measure response minus its routing fields ("path" differs
    # between a cold exclusive read and a warm shared one).
    grep -o '"values":{[^}]*}' <<< "$1"
}

for FSYNC in always never; do
    for CHOP in 0 1 3; do
        echo
        echo "== cell: fsync=$FSYNC, chop=$CHOP bytes off the log tail =="
        WORK=$(mktemp -d)
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
pop: t.City = t'.City & t.Pop = t'.Pop
DC
        start_server --preload "cities=$WORK/cities.csv,$WORK/rules.dc"

        # Ops that must survive every cell: a batch with an insert, the
        # snapshot that covers it, and a two-record batch past the
        # snapshot that recovery replays from the log (it also gives the
        # `pop` constraint a two-tuple binding, Nice,FR,6 and Nice,IT,6).
        "$BIN" client "$ADDR" \
            '{"cmd":"op","session":"cities","ops":"update 1 Country FR\ninsert Metz,DE,9"}' \
            snapshot cities \
            '{"cmd":"op","session":"cities","ops":"update 4 Pop 6\ndelete 3"}' \
            > "$WORK/surviving.out"
        [ "$(grep -c '"applied":2' "$WORK/surviving.out")" -eq 2 ] || {
            echo "FAIL(fsync=$FSYNC chop=$CHOP): surviving batches not applied:"
            cat "$WORK/surviving.out"
            exit 1
        }
        grep -q '"session":"cities","seq":2,' "$WORK/surviving.out" || {
            echo "FAIL(fsync=$FSYNC chop=$CHOP): snapshot not at seq 2:"
            cat "$WORK/surviving.out"
            exit 1
        }
        SURVIVING=$("$BIN" client "$ADDR" "$MEASURE")
        # One sacrificial two-op batch: the torn-tail cells chop into its
        # last record, so the whole batch (its intact first record
        # included) must vanish on recovery.
        "$BIN" client "$ADDR" \
            '{"cmd":"op","session":"cities","ops":"update 5 Country FR\nupdate 6 Country FR"}' \
            | grep -q '"applied":2'
        FULL=$("$BIN" client "$ADDR" "$MEASURE")
        # A chopped cell must tell the two prefixes apart.
        if [ "$(extract_values "$SURVIVING")" = "$(extract_values "$FULL")" ]; then
            echo "FAIL(fsync=$FSYNC chop=$CHOP): the sacrificial batch changed no measure"
            exit 1
        fi

        # The crash: no shutdown, no clean-exit snapshot.
        kill -9 $SERVER_PID
        wait $SERVER_PID 2>/dev/null || true
        SERVER_PID=""

        LOG="$WORK/state/cities/ops.log"
        if [ "$CHOP" -gt 0 ]; then
            SIZE=$(stat -c%s "$LOG")
            head -c $((SIZE - CHOP)) "$LOG" > "$LOG.chopped"
            mv "$LOG.chopped" "$LOG"
            EXPECTED=$SURVIVING
            REPLAYED=2
        else
            EXPECTED=$FULL
            REPLAYED=4
        fi

        start_server
        AFTER=$("$BIN" client "$ADDR" "$MEASURE")
        STATS=$("$BIN" client "$ADDR" '{"cmd":"stats","session":"cities"}')
        echo "expected:  $(extract_values "$EXPECTED")"
        echo "recovered: $(extract_values "$AFTER")"
        if [ "$(extract_values "$EXPECTED")" != "$(extract_values "$AFTER")" ]; then
            echo "FAIL(fsync=$FSYNC chop=$CHOP): recovered measures diverge"
            exit 1
        fi
        # Snapshot at seq 2, then exactly the intact records past it.
        echo "$STATS" | grep -q "\"replayed\":$REPLAYED[,}]" || {
            echo "FAIL(fsync=$FSYNC chop=$CHOP): expected a $REPLAYED-record log-tail replay: $STATS"
            exit 1
        }
        if [ "$CHOP" -gt 0 ]; then
            echo "$STATS" | grep -q '"torn_tail_dropped":true' || {
                echo "FAIL(fsync=$FSYNC chop=$CHOP): torn tail not reported: $STATS"
                exit 1
            }
            # The recovered session must keep accepting writes past the
            # truncated tail (the log was re-trimmed to its valid prefix).
            "$BIN" client "$ADDR" \
                '{"cmd":"op","session":"cities","ops":"update 4 Pop 50"}' \
                | grep -q '"ok":true'
        else
            echo "$STATS" | grep -q '"torn_tail_dropped":false' || {
                echo "FAIL(fsync=$FSYNC chop=$CHOP): phantom torn tail: $STATS"
                exit 1
            }
        fi
        "$BIN" client "$ADDR" '{"cmd":"shutdown"}' > /dev/null
        wait $SERVER_PID 2>/dev/null || true
        SERVER_PID=""
        rm -rf "$WORK"
        WORK=""
        echo "ok: fsync=$FSYNC chop=$CHOP recovered bit-identical"
    done
done
echo
echo "PASS: chaos matrix (failpoints + kill -9 x fsync x torn-tail) is bit-identical"
