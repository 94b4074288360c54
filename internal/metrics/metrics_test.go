package metrics

import (
	"testing"
	"time"
)

func TestRecallAccumulator(t *testing.T) {
	var r RecallAccumulator
	r.Observe(map[int]bool{1: true, 2: true}, map[int]bool{1: true})
	r.Observe(map[int]bool{1: true}, map[int]bool{1: true})
	tp, fn := r.Counts()
	if tp != 2 || fn != 1 {
		t.Fatalf("tp=%d fn=%d", tp, fn)
	}
	if got := r.Recall(); got < 0.66 || got > 0.67 {
		t.Fatalf("recall = %v", got)
	}
}

func TestRecallEmptyIsPerfect(t *testing.T) {
	var r RecallAccumulator
	if r.Recall() != 1 {
		t.Fatalf("empty recall = %v", r.Recall())
	}
	r.Observe(nil, nil)
	if r.Recall() != 1 {
		t.Fatal("no-truth frames should not hurt recall")
	}
}

func TestRecallIgnoresExtraDetections(t *testing.T) {
	var r RecallAccumulator
	// Detections for objects not in truth (e.g. ghosts) do not help or
	// hurt recall.
	r.Observe(map[int]bool{1: true}, map[int]bool{1: true, 99: true})
	if r.Recall() != 1 {
		t.Fatalf("recall = %v", r.Recall())
	}
}

func TestLatencySeriesStats(t *testing.T) {
	var l LatencySeries
	if l.Max() != 0 {
		t.Fatal("empty series not zero")
	}
	for _, v := range []time.Duration{10, 30, 20} {
		l.Add(v * time.Millisecond)
	}
	if l.Max() != 30*time.Millisecond {
		t.Fatalf("max = %v", l.Max())
	}
}

func TestPercentile(t *testing.T) {
	var l LatencySeries
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i))
	}
	p50, err := l.Percentile(50)
	if err != nil || p50 != 50 {
		t.Fatalf("p50 = %v %v", p50, err)
	}
	p99, err := l.Percentile(99)
	if err != nil || p99 != 99 {
		t.Fatalf("p99 = %v %v", p99, err)
	}
	p100, err := l.Percentile(100)
	if err != nil || p100 != 100 {
		t.Fatalf("p100 = %v %v", p100, err)
	}
	if _, err := l.Percentile(0); err == nil {
		t.Fatal("p0 accepted")
	}
	if _, err := l.Percentile(101); err == nil {
		t.Fatal("p101 accepted")
	}
	var empty LatencySeries
	if v, err := empty.Percentile(50); err != nil || v != 0 {
		t.Fatalf("empty percentile = %v %v", v, err)
	}
}

func TestSpeedup(t *testing.T) {
	s, err := Speedup(600*time.Millisecond, 100*time.Millisecond)
	if err != nil || s != 6 {
		t.Fatalf("speedup = %v %v", s, err)
	}
	if _, err := Speedup(time.Second, 0); err == nil {
		t.Fatal("zero improved accepted")
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	// Frame 1: tracking costs 10ms on cam A, 20ms on cam B -> max 20.
	var camA, camB CameraSample
	camA.Observe("tracking", 10*time.Millisecond)
	camB.Observe("tracking", 20*time.Millisecond)
	camB.Observe("batching", 5*time.Millisecond)
	b.Absorb(&camA)
	b.Absorb(&camB)
	b.EndFrame()
	// Frame 2: tracking 30ms.
	camA = CameraSample{}
	camA.Observe("tracking", 30*time.Millisecond)
	b.Absorb(&camA)
	b.EndFrame()
	if got := b.MeanOf("tracking"); got != 25*time.Millisecond {
		t.Fatalf("tracking mean = %v", got)
	}
	if got := b.MeanOf("batching"); got != 5*time.Millisecond {
		t.Fatalf("batching mean = %v", got)
	}
	if got := b.MeanOf("absent"); got != 0 {
		t.Fatalf("absent mean = %v", got)
	}
	if got := b.MeanOf("distributed"); got != 0 {
		t.Fatalf("unobserved component mean = %v", got)
	}
}

// TestCameraSampleAbsorb checks the per-camera sample path: max within a
// camera's frame, max across cameras.
func TestCameraSampleAbsorb(t *testing.T) {
	sharded := NewBreakdown()
	var cam0, cam1 CameraSample
	cam0.Observe("tracking", 4*time.Millisecond)
	cam0.Observe("tracking", 2*time.Millisecond) // within-camera max, not sum
	cam0.Observe("batching", 1*time.Millisecond)
	cam1.Observe("tracking", 6*time.Millisecond)
	sharded.Absorb(&cam0)
	sharded.Absorb(&cam1)
	sharded.EndFrame()

	if got := sharded.MeanOf("tracking"); got != 6*time.Millisecond {
		t.Errorf("tracking mean = %v, want 6ms", got)
	}
	if got := sharded.MeanOf("batching"); got != time.Millisecond {
		t.Errorf("batching mean = %v, want 1ms", got)
	}
}

func TestAbsorbEmptyAndNil(t *testing.T) {
	b := NewBreakdown()
	b.Absorb(nil)
	b.Absorb(&CameraSample{})
	b.EndFrame()
	for i, comp := range componentNames {
		if n := b.slots[i].frames; n != 0 {
			t.Fatalf("%s observed on %d frames after absorbing nothing", comp, n)
		}
	}
}

// TestBreakdownHoldsConstantMemory is the regression test for the
// per-frame series Breakdown used to keep for the life of an engine: a
// frame — observe, absorb, seal — allocates nothing, however many frames
// came before, and the mean over them is the exact integer mean of the
// per-frame maxima.
func TestBreakdownHoldsConstantMemory(t *testing.T) {
	b := NewBreakdown()
	var sum time.Duration
	frame := func(i int) {
		var cam0, cam1 CameraSample
		cam0.Observe(Tracking, time.Duration(i%7)*time.Microsecond)
		cam1.Observe(Tracking, time.Duration(i%11)*time.Microsecond)
		cam1.Observe(Batching, time.Microsecond)
		b.Absorb(&cam0)
		b.Absorb(&cam1)
		b.EndFrame()
	}
	observed := 0
	for i := 0; i < 10000; i++ {
		frame(i)
		if m := max(i%7, i%11); m > 0 { // a zero cost is no observation
			sum += time.Duration(m) * time.Microsecond
			observed++
		}
	}
	if got, want := b.MeanOf(Tracking), sum/time.Duration(observed); got != want {
		t.Fatalf("tracking mean %v, want %v", got, want)
	}
	if got := b.MeanOf(Batching); got != time.Microsecond {
		t.Fatalf("batching mean %v", got)
	}
	if got := b.MeanOf(Central); got != 0 {
		t.Fatalf("central never observed, mean %v", got)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() { frame(i); i++ }); n != 0 {
		t.Fatalf("%v allocations per frame after 10000 frames, want 0", n)
	}
}

func TestUnknownComponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a misspelt component was accepted")
		}
	}()
	var s CameraSample
	s.Observe("trakcing", time.Millisecond)
}
