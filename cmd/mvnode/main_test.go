package main

import (
	"strings"
	"testing"
	"time"

	"mvs/internal/node"
)

// TestSummary pins the summary's network line: the uplink rate is over
// the processed frames' stream time, so a run that processed none — every
// frame lost to a camera outage — prints the byte counts alone rather
// than NaN or +Inf kbit/s.
func TestSummary(t *testing.T) {
	cases := []struct {
		name     string
		st       node.Stats
		sent     int64
		want     []string
		unwanted []string
	}{
		{"no frames, no bytes", node.Stats{OutageFrames: 2}, 0,
			[]string{"frames:            0\n", "2 outage frames", "network:           0 B up, 3 B down\n"},
			[]string{"NaN", "Inf", "kbit/s"}},
		{"no frames, a hello sent", node.Stats{OutageFrames: 2}, 57,
			[]string{"network:           57 B up, 3 B down\n"},
			[]string{"NaN", "Inf", "kbit/s"}},
		{"ten frames", node.Stats{Frames: 10, MeanLatency: 40 * time.Millisecond}, 1000,
			[]string{"frames:            10\n", "mean inference:    40ms/frame\n",
				"network:           1000 B up, 3 B down (8.0 kbit/s uplink)\n"},
			[]string{"resilience"}},
	}
	for _, tc := range cases {
		var b strings.Builder
		summarize(&b, 1, tc.st, tc.sent, 3)
		out := b.String()
		if !strings.HasPrefix(out, "camera 1 summary:\n") {
			t.Fatalf("%s: summary starts %q", tc.name, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: summary lacks %q:\n%s", tc.name, w, out)
			}
		}
		for _, u := range tc.unwanted {
			if strings.Contains(out, u) {
				t.Errorf("%s: summary has %q:\n%s", tc.name, u, out)
			}
		}
	}
}
