package scene_test

import (
	"bytes"
	"math"
	"testing"

	"mvs/internal/scene"
	"mvs/internal/workload"
)

// TestFrameCodecOnTraces is half (a) of scene.FuzzFrameCodec on the
// frames the benchmark's workloads are made of: over every frame of a
// 300-frame Corridor(16) and S4 run, the three encoders write
// encoding/json's bytes for what they encode, and UnmarshalFrame and the
// encoding/json decoder both decode the frame back to the value encoded.
func TestFrameCodecOnTraces(t *testing.T) {
	corridor, err := workload.Corridor(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*workload.Scenario{corridor, workload.S4(1)} {
		trace, err := s.World.Run(300)
		if err != nil {
			t.Fatal(err)
		}
		lists := 0
		for fi := range trace.Frames {
			f := &trace.Frames[fi]
			scene.CheckEncode(t, f)
			for _, obs := range f.PerCamera {
				if len(obs) > 0 {
					lists++
				}
			}
		}
		if lists < len(trace.Frames) {
			t.Fatalf("%s: only %d non-empty observation lists in %d frames", s.Name, lists, len(trace.Frames))
		}
	}
}

// TestAppendFloatOnGeneratedFrames holds the frame encoder's float to
// strconv's bytes on every value of 600 generated frames each of the
// benchmark's corridor and the paper's four scenarios: each object's
// seven fields and each box's four coordinates.
func TestAppendFloatOnGeneratedFrames(t *testing.T) {
	values := 0
	var got, want []byte
	for _, name := range []string{"C16", "S1", "S2", "S3", "S4"} {
		s, err := workload.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := s.World.Run(600)
		if err != nil {
			t.Fatal(err)
		}
		check := func(fi int, f float64) {
			t.Helper()
			got = scene.EncodeFloat(got[:0], f)
			want = scene.StrconvFloat(want[:0], f)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s frame %d: %v (%#x) written %q, strconv %q", name, fi, f, math.Float64bits(f), got, want)
			}
			values++
		}
		for fi := range trace.Frames {
			fr := &trace.Frames[fi]
			for _, o := range fr.Objects {
				for _, f := range []float64{o.Pos.X, o.Pos.Y, o.Heading, o.Speed, o.Dims.W, o.Dims.L, o.Dims.H} {
					check(fi, f)
				}
			}
			for _, obs := range fr.PerCamera {
				for _, o := range obs {
					for _, f := range []float64{o.Box.MinX, o.Box.MinY, o.Box.MaxX, o.Box.MaxY} {
						check(fi, f)
					}
				}
			}
		}
	}
	if values < 500_000 {
		t.Fatalf("only %d values in 3000 frames", values)
	}
}
