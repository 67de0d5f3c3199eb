package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/router"
)

func TestGate(t *testing.T) {
	tcpName, shmName := transportName(router.TransportTCP), transportName(router.TransportShm)
	kernel := func(ns int64) Result { return Result{Name: "Kernel/x", NsPerOp: ns} }
	tcp := func(ns int64, allocs float64) Result {
		return Result{Name: tcpName, NsPerOp: ns, AllocsPerQuantum: allocs}
	}
	shm := func(ns int64, allocs float64) Result {
		return Result{Name: shmName, NsPerOp: ns, AllocsPerQuantum: allocs}
	}
	baseOf := func(rs ...Result) *File { return &File{Benchmarks: rs} }
	floorBase := baseOf(tcp(3000, 2), shm(1000, 2))
	for _, tc := range []struct {
		name   string
		base   *File // nil: no baseline file
		cur    []Result
		fail   bool
		report string // a substring the report must contain
	}{
		{"ns 1.24x passes", baseOf(kernel(100)), []Result{kernel(124)}, false, "(1.24x)  ok"},
		{"ns 1.26x fails", baseOf(kernel(100)), []Result{kernel(126)}, true, "REGRESSION"},
		{"allocs 1.26x fails", floorBase, []Result{tcp(3000, 2.52), shm(1000, 2)}, true, "allocs/quantum  (1.26x)  REGRESSION"},
		{"allocs skipped without baseline metric", baseOf(tcp(3000, 0), shm(1000, 0)), []Result{tcp(3000, 9), shm(1000, 2)}, false, "2 benchmark(s) within"},
		{"missing entry fails", baseOf(), []Result{kernel(100)}, true, "MISSING FROM BASELINE"},
		{"missing baseline file passes", nil, []Result{kernel(100)}, false, "no baseline"},
		{"floor 3.1x passes", floorBase, []Result{tcp(3100, 2), shm(1000, 2)}, false, "3.10x"},
		{"floor 2.9x fails", floorBase, []Result{tcp(2900, 2), shm(1000, 2)}, true, "TOO SLOW"},
		{"floor checked without baseline", nil, []Result{tcp(2900, 2), shm(1000, 2)}, true, "TOO SLOW"},
		{"fast side allocating more fails", floorBase, []Result{tcp(3100, 2), shm(1000, 2.1)}, true, "worse than"},
		{"absent shm entry skipped", baseOf(tcp(3000, 2)), []Result{tcp(3000, 2)}, false, "skipped"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report, failures := gate(tc.base, tc.cur)
			text := strings.Join(report, "\n")
			if got := failures > 0; got != tc.fail {
				t.Errorf("failed = %v, want %v; report:\n%s", got, tc.fail, text)
			}
			if !strings.Contains(text, tc.report) {
				t.Errorf("report lacks %q:\n%s", tc.report, text)
			}
		})
	}
}

func TestLoadBaselineMissingFile(t *testing.T) {
	base, err := loadBaseline(filepath.Join(t.TempDir(), "absent.json"))
	if base != nil || err != nil {
		t.Fatalf("loadBaseline of a missing file = %v, %v; want nil, nil", base, err)
	}
}
