#!/bin/sh
# Cross-process link smoke test: cosim-hw and cosim-board run as two real
# processes, over shared memory, over TCP and over TCP with -pipelined.
#
#  - shm: cosim-hw creates the link file (-shm-path, CreateShm) and
#    cosim-board attaches to it (OpenShm). The in-repo tests cover
#    NewShmPair inside one process; this is the only place the
#    creator/opener rendezvous runs across a real process boundary.
#  - tcp: cosim-hw listens on a free loopback port and cosim-board dials
#    the address it prints, the paper's two-host deployment shape.
#  - tcp-pipelined: the same with the board's quantum overlapping the
#    simulator's.
#
# Every run must report 100% packet accuracy, and its protocol traces
# (-trace), hw side and board side, must match the golden transcripts in
# scripts/testdata/link/ line for line once the wall-clock timestamp
# column is stripped: the wire traffic, and the order in which the board
# sends within a grant, depend neither on the transport nor on how the
# two sides are written. The shm and tcp runs share hw.trace and
# board.trace; tcp-pipelined has hw-pipelined.trace and
# board-pipelined.trace.
#
# Usage: scripts/shm_smoke.sh   (from the repository root)
#
# Regenerate the goldens, only for a deliberate change of the wire
# traffic (from the repository root):
#
#   d=$(mktemp -d) && go build -o "$d/" ./cmd/cosim-hw ./cmd/cosim-board &&
#   for p in "" -pipelined; do
#     "$d/cosim-hw" -shm-path "$d/l$p" -n 40 -tsync 500 $p -trace "$d/hw" & sleep 1
#     "$d/cosim-board" -shm-path "$d/l$p" -trace "$d/board"; wait
#     for s in hw board; do cut -d' ' -f2- "$d/$s" >"scripts/testdata/link/$s$p.trace"; done
#   done; rm -rf "$d"
set -eu

golden=scripts/testdata/link
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

# same NAME SIDE GOLDEN: run NAME's SIDE transcript matches GOLDEN with
# timestamps stripped.
same() {
    cut -d' ' -f2- "$dir/$1-$2.trace" >"$dir/$1-$2.stripped"
    if ! cmp -s "$golden/$3" "$dir/$1-$2.stripped"; then
        echo "link smoke: $1 $2-side trace differs from $golden/$3" >&2
        diff "$golden/$3" "$dir/$1-$2.stripped" | head -20 >&2
        exit 1
    fi
}

"$dir/cosim-hw" -shm-path "$path" -n 40 -tsync 500 -trace "$dir/shm-hw.trace" >"$dir/shm-hw.log" 2>&1 &
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

# tcp NAME [HWFLAG...]: one TCP run; cosim-hw gets the extra flags.
tcp() {
    name=$1
    shift
    "$dir/cosim-hw" -listen 127.0.0.1:0 -n 40 -tsync 500 "$@" -trace "$dir/$name-hw.trace" >"$dir/$name-hw.log" 2>&1 &
    hw=$!
    wait_for "$dir/$name-hw.log" "listening on" "cosim-hw listen address"
    addr=$(sed -n 's/^cosim-hw: listening on \([^ ]*\) .*/\1/p' "$dir/$name-hw.log")
    "$dir/cosim-board" -connect "$addr" -trace "$dir/$name-board.trace" >"$dir/$name-board.log" 2>&1
    wait "$hw"
    hw=
    check "$name"
}
tcp tcp
tcp tcp-pipelined -pipelined

for side in hw board; do
    same shm "$side" "$side.trace"
    same tcp "$side" "$side.trace"
    same tcp-pipelined "$side" "$side-pipelined.trace"
done
echo "shm smoke: OK (cross-process CreateShm/OpenShm and TCP links verified; shm, tcp and tcp-pipelined match the goldens: $(wc -l <"$golden/hw.trace")+$(wc -l <"$golden/hw-pipelined.trace") hw and $(wc -l <"$golden/board.trace")+$(wc -l <"$golden/board-pipelined.trace") board trace lines)"
