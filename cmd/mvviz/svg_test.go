package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mvs/internal/workload"
)

func TestWorldMapProducesSVG(t *testing.T) {
	s := workload.S2(1)
	var buf bytes.Buffer
	if err := worldMap(&buf, s.World); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	// Both cameras must be labelled.
	for _, cam := range s.World.Cameras {
		if !strings.Contains(out, cam.Name) {
			t.Errorf("camera %q missing from map", cam.Name)
		}
	}
	if !strings.Contains(out, "<polyline") {
		t.Error("no route polylines")
	}
	if !strings.Contains(out, "fill-opacity") {
		t.Error("no visibility footprints")
	}
}

func TestWorldMapRejectsInvalidWorld(t *testing.T) {
	s := workload.S2(1)
	s.World.Cameras = nil
	if err := worldMap(&bytes.Buffer{}, s.World); err == nil {
		t.Fatal("invalid world accepted")
	}
}

func TestWorkloadChart(t *testing.T) {
	var buf bytes.Buffer
	counts := [][]int{{1, 3, 5, 2}, {0, 2, 4, 6}}
	if err := workloadChart(&buf, []string{"a", "b"}, counts, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Error("series labels missing")
	}
	if strings.Count(out, "<polyline") != 2 {
		t.Errorf("polylines = %d", strings.Count(out, "<polyline"))
	}
}

// A test half of at most 20 frames at 10 fps gives Fig. 2 one sample
// every 2 s, so one sample per series; its point must be finite.
func TestWorkloadChartOneSample(t *testing.T) {
	var buf bytes.Buffer
	if err := workloadChart(&buf, []string{"a", "b"}, [][]int{{3}, {5}}, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("one-sample chart has a non-finite coordinate:\n%s", out)
	}
	if strings.Count(out, "<polyline") != 2 {
		t.Errorf("polylines = %d", strings.Count(out, "<polyline"))
	}
}

func TestWorkloadChartRejectsEmpty(t *testing.T) {
	if err := workloadChart(&bytes.Buffer{}, nil, nil, 2); err == nil {
		t.Fatal("empty series accepted")
	}
	if err := workloadChart(&bytes.Buffer{}, nil, [][]int{{}}, 2); err == nil {
		t.Fatal("zero-length series accepted")
	}
}

func TestLatencyBars(t *testing.T) {
	var buf bytes.Buffer
	labels := []string{"Full", "BALB"}
	lats := []time.Duration{470 * time.Millisecond, 48 * time.Millisecond}
	if err := latencyBars(&buf, labels, lats); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Full") || !strings.Contains(out, "BALB") {
		t.Error("bar labels missing")
	}
	if !strings.Contains(out, "470ms") || !strings.Contains(out, "48ms") {
		t.Error("value annotations missing")
	}
}

func TestLatencyBarsValidation(t *testing.T) {
	if err := latencyBars(&bytes.Buffer{}, []string{"x"}, nil); err == nil {
		t.Fatal("mismatched inputs accepted")
	}
	if err := latencyBars(&bytes.Buffer{}, nil, nil); err == nil {
		t.Fatal("empty inputs accepted")
	}
}

func TestEscape(t *testing.T) {
	if got := escape(`a<b&c>d`); got != "a&lt;b&amp;c&gt;d" {
		t.Fatalf("escape = %q", got)
	}
}
