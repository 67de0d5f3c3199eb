package servo

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func runAt(t *testing.T, tsync uint64) Quality {
	t.Helper()
	rc := DefaultRunConfig()
	rc.TSync = tsync
	q, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestTightLoopSettles(t *testing.T) {
	q := runAt(t, 250)
	if !q.Settled {
		t.Fatalf("tight loop did not settle: %v", q)
	}
	if q.Overshoot > 0.10 {
		t.Fatalf("tight-loop overshoot %.1f%%, want < 10%%", 100*q.Overshoot)
	}
	if q.FinalError > 50 {
		t.Fatalf("final error %.0f", q.FinalError)
	}
	if q.Updates == 0 {
		t.Fatal("controller never ran")
	}
}

func TestQualityPlateauBelowSamplePeriod(t *testing.T) {
	// While T_sync stays below the sensor sample period, the loop cannot
	// tell the coupling tightness apart: quality is bit-identical.
	ref := runAt(t, 100)
	for _, ts := range []uint64{250, 500} {
		q := runAt(t, ts)
		if q.IAE != ref.IAE || q.Overshoot != ref.Overshoot {
			t.Fatalf("quality differs below the sample period: Tsync=%d %v vs ref %v", ts, q, ref)
		}
	}
}

func TestQualityDegradesWithDelay(t *testing.T) {
	tight := runAt(t, 250)
	mid := runAt(t, 2000)
	if mid.Overshoot <= tight.Overshoot {
		t.Fatalf("overshoot did not grow with delay: %v vs %v", mid, tight)
	}
	if !mid.Settled {
		t.Fatalf("loop at Tsync=2000 should still settle: %v", mid)
	}
}

func TestLoopUnstableAtLargeDelay(t *testing.T) {
	q := runAt(t, 6000)
	if q.Settled {
		t.Fatalf("loop settled despite a delay past the stability margin: %v", q)
	}
	if q.IAE < 1000 {
		t.Fatalf("IAE %.0f suspiciously small for an unstable loop", q.IAE)
	}
}

func TestDeterminism(t *testing.T) {
	a := runAt(t, 1000)
	b := runAt(t, 1000)
	if a.IAE != b.IAE || a.Overshoot != b.Overshoot || a.FinalError != b.FinalError {
		t.Fatalf("runs differ:\n%v\n%v", a, b)
	}
}

func TestActuatorSaturation(t *testing.T) {
	rc := DefaultRunConfig()
	rc.Control.Kp = 100 // enormous gain: command must clamp, not explode
	rc.TSync = 250
	rc.TotalCycles = 20000
	q, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	// With saturation the position stays finite and bounded by what
	// MaxDrive can produce over the run.
	if math.IsNaN(q.IAE) || math.IsInf(q.IAE, 0) {
		t.Fatalf("diverged numerically: %v", q)
	}
}

func TestQualityString(t *testing.T) {
	q := Quality{IAE: 12, Overshoot: 0.05, FinalError: 3, Settled: true}
	if q.String() == "" {
		t.Fatal("empty string")
	}
}

// TestRunReleasesPlantThreads: each run builds a plant kernel whose
// thread processes never return on their own; the run must shut them
// down rather than leave their goroutines behind.
func TestRunReleasesPlantThreads(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		runAt(t, 1000)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive three runs", runtime.NumGoroutine()-base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
