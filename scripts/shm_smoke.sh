#!/bin/sh
# Cross-process link smoke test: cosim-hw and cosim-board run as two real
# processes, first over shared memory, then over TCP.
#
#  - shm: cosim-hw creates the link file (-shm-path, CreateShm) and
#    cosim-board attaches to it (OpenShm). The in-repo tests cover
#    NewShmPair inside one process; this is the only place the
#    creator/opener rendezvous runs across a real process boundary.
#  - tcp: cosim-hw listens on a free loopback port and cosim-board dials
#    the address it prints, the paper's two-host deployment shape.
#
# Both runs must report 100% packet accuracy, and their protocol traces
# (-trace), hw side and board side, must match line for line once the
# wall-clock timestamp column is stripped: the wire traffic, and the
# order in which the board sends within a grant, do not depend on the
# transport.
#
# Usage: scripts/shm_smoke.sh   (from the repository root)
set -eu

dir=$(mktemp -d)
hw=
cleanup() {
    [ -n "$hw" ] && kill "$hw" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT
path="$dir/link.shm"

go build -o "$dir/cosim-hw" ./cmd/cosim-hw
go build -o "$dir/cosim-board" ./cmd/cosim-board

# wait_for FILE PATTERN WHAT: poll until FILE contains PATTERN; this only
# bounds how long we wait for cosim-hw to start at all.
wait_for() {
    i=0
    until grep -q "$2" "$1" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "link smoke: $3 never appeared" >&2
            cat "$dir"/*.log >&2
            exit 1
        fi
        sleep 0.1
    done
}

# check NAME: the hw side of run NAME reported 100% accuracy.
check() {
    if ! grep -q "accuracy=100.0%" "$dir/$1-hw.log"; then
        echo "link smoke: $1 hw side did not report 100% accuracy" >&2
        cat "$dir/$1-hw.log" "$dir/$1-board.log" >&2
        exit 1
    fi
}

"$dir/cosim-hw" -shm-path "$path" -n 40 -tsync 500 -trace "$dir/shm.trace" >"$dir/shm-hw.log" 2>&1 &
hw=$!
# The board also retries internally while the segment header is being
# stamped, so it only needs the file to exist.
i=0
while [ ! -e "$path" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "link smoke: shm link file never appeared" >&2
        cat "$dir/shm-hw.log" >&2
        exit 1
    fi
    sleep 0.1
done
"$dir/cosim-board" -shm-path "$path" -trace "$dir/shm-board.trace" >"$dir/shm-board.log" 2>&1
wait "$hw"
hw=
check shm

"$dir/cosim-hw" -listen 127.0.0.1:0 -n 40 -tsync 500 -trace "$dir/tcp.trace" >"$dir/tcp-hw.log" 2>&1 &
hw=$!
wait_for "$dir/tcp-hw.log" "listening on" "cosim-hw listen address"
addr=$(sed -n 's/^cosim-hw: listening on \([^ ]*\) .*/\1/p' "$dir/tcp-hw.log")
"$dir/cosim-board" -connect "$addr" -trace "$dir/tcp-board.trace" >"$dir/tcp-board.log" 2>&1
wait "$hw"
hw=
check tcp

# same SIDE SHM TCP: the two transcripts match with timestamps stripped.
same() {
    cut -d' ' -f2- "$2" >"$2.stripped"
    cut -d' ' -f2- "$3" >"$3.stripped"
    if ! cmp -s "$2.stripped" "$3.stripped"; then
        echo "link smoke: shm and tcp $1-side traces differ" >&2
        diff "$2.stripped" "$3.stripped" | head -20 >&2
        exit 1
    fi
}
same hw "$dir/shm.trace" "$dir/tcp.trace"
same board "$dir/shm-board.trace" "$dir/tcp-board.trace"
echo "shm smoke: OK (cross-process CreateShm/OpenShm and TCP links verified, $(wc -l <"$dir/tcp.trace.stripped") identical hw and $(wc -l <"$dir/tcp-board.trace.stripped") identical board trace lines)"
