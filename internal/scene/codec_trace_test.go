package scene_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"mvs/internal/scene"
	"mvs/internal/workload"
)

// TestFrameCodecOnTraces is half (a) of scene.FuzzFrameCodec on the
// frames the benchmark's workloads are made of: over every frame of a
// 300-frame Corridor(16) and S4 run, the three encoders are json.Marshal
// of the wire structs byte for byte, and the frame decodes to what the
// encoding/json-only decoder returns.
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
		var buf []byte
		lists := 0
		same := func(fi int, what string, got []byte, err error, want []byte, wantErr error) {
			t.Helper()
			if err != nil || wantErr != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s frame %d %s: codec %q (%v), encoding/json %q (%v)", s.Name, fi, what, got, err, want, wantErr)
			}
		}
		for fi := range trace.Frames {
			f := &trace.Frames[fi]
			buf, err = scene.AppendFrame(buf[:0], f)
			want, wantErr := scene.OracleMarshalFrame(f)
			same(fi, "frame", buf, err, want, wantErr)
			got, err := scene.UnmarshalFrame(want, len(trace.Cameras))
			back, wantErr := scene.OracleUnmarshalFrame(want, len(trace.Cameras))
			if err != nil || wantErr != nil || !reflect.DeepEqual(got, back) {
				t.Fatalf("%s frame %d decodes to %+v (%v), encoding/json to %+v (%v)", s.Name, fi, got, err, back, wantErr)
			}
			buf, err = scene.AppendObjects(buf[:0], f.Objects)
			want, wantErr = scene.OracleMarshalObjects(f.Objects)
			same(fi, "objects", buf, err, want, wantErr)
			for _, obs := range f.PerCamera {
				buf, err = scene.AppendObservations(buf[:0], obs)
				want, wantErr = scene.OracleMarshalObservations(obs)
				same(fi, "observations", buf, err, want, wantErr)
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
