package scene

import "testing"

// roundTrip sends a trace's camera roster through MarshalCameras /
// UnmarshalCameras and each frame through AppendFrame / UnmarshalFrame,
// the run store's two codecs.
func roundTrip(t *testing.T, trace *Trace) ([]*Camera, []*FrameTruth) {
	t.Helper()
	roster, err := MarshalCameras(trace.Cameras)
	if err != nil {
		t.Fatal(err)
	}
	cams, err := UnmarshalCameras(roster)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	frames := make([]*FrameTruth, len(trace.Frames))
	for fi := range trace.Frames {
		if buf, err = AppendFrame(buf[:0], &trace.Frames[fi]); err != nil {
			t.Fatal(err)
		}
		if frames[fi], err = UnmarshalFrame(buf, len(cams)); err != nil {
			t.Fatal(err)
		}
	}
	return cams, frames
}

func TestTraceRoundTrip(t *testing.T) {
	trace, err := testWorld(4).Run(50)
	if err != nil {
		t.Fatal(err)
	}
	cams, frames := roundTrip(t, trace)
	if len(cams) != len(trace.Cameras) {
		t.Fatalf("cameras = %d", len(cams))
	}
	for i, c := range cams {
		o := trace.Cameras[i]
		if c.Name != o.Name || c.Pos != o.Pos || c.Focal != o.Focal ||
			c.Height != o.Height || c.Yaw != o.Yaw || c.Pitch != o.Pitch ||
			c.ImageW != o.ImageW || c.MaxRange != o.MaxRange {
			t.Fatalf("camera %d differs: %+v vs %+v", i, c, o)
		}
	}
	for fi := range trace.Frames {
		a, b := &trace.Frames[fi], frames[fi]
		if a.Index != b.Index || len(a.Objects) != len(b.Objects) {
			t.Fatalf("frame %d metadata differs", fi)
		}
		for oi := range a.Objects {
			if a.Objects[oi] != b.Objects[oi] {
				t.Fatalf("frame %d object %d differs: %+v vs %+v",
					fi, oi, a.Objects[oi], b.Objects[oi])
			}
		}
		for ci := range a.PerCamera {
			if len(a.PerCamera[ci]) != len(b.PerCamera[ci]) {
				t.Fatalf("frame %d camera %d obs count differs", fi, ci)
			}
			for oi := range a.PerCamera[ci] {
				if a.PerCamera[ci][oi] != b.PerCamera[ci][oi] {
					t.Fatalf("frame %d camera %d obs %d differs", fi, ci, oi)
				}
			}
		}
	}
}

// TestTraceRoundTripPreservesProjection: a decoded roster projects every
// object of the trace to the box the generating cameras did — the masks
// and coverage a replay rebuilds depend on it.
func TestTraceRoundTripPreservesProjection(t *testing.T) {
	trace, err := testWorld(5).Run(10)
	if err != nil {
		t.Fatal(err)
	}
	cams, _ := roundTrip(t, trace)
	for ci, cam := range cams {
		if err := cam.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, f := range trace.Frames {
			for _, o := range f.Objects {
				want, wantOK := trace.Cameras[ci].ProjectBox(o)
				if got, ok := cam.ProjectBox(o); got != want || ok != wantOK {
					t.Fatalf("camera %d object %d: decoded projects %v %v, original %v %v", ci, o.ID, got, ok, want, wantOK)
				}
			}
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalCameras([]byte("not json")); err == nil {
		t.Fatal("garbage roster accepted")
	}
	// A camera that fails validation.
	bad := `[{"name":"x","height":0,"pitch":0.4,"focal":100,"image_w":10,"image_h":10}]`
	if _, err := UnmarshalCameras([]byte(bad)); err == nil {
		t.Fatal("invalid camera accepted")
	}
	// A frame with the wrong camera-list count.
	if _, err := UnmarshalFrame([]byte(`{"index":0,"per_camera":[[],[]]}`), 1); err == nil {
		t.Fatal("camera-count mismatch accepted")
	}
	if _, err := UnmarshalFrame([]byte("not json"), 1); err == nil {
		t.Fatal("garbage frame accepted")
	}
}
