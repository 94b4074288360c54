package scene

import "testing"

// FuzzUnmarshalCameras feeds arbitrary JSON to the camera-roster decoder
// every run-store open reads a manifest through: it must never panic,
// and anything it accepts must round-trip through MarshalCameras.
func FuzzUnmarshalCameras(f *testing.F) {
	trace, err := testWorld(1).Run(5)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := MarshalCameras(trace.Cameras)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(valid))
	f.Add(`[]`)
	f.Add(`null`)
	f.Add(`garbage`)
	f.Add(`[{"name":"x","height":5,"pitch":0.4,"focal":100,"image_w":10,"image_h":10}]`)

	f.Fuzz(func(t *testing.T, data string) {
		got, err := UnmarshalCameras([]byte(data))
		if err != nil {
			return
		}
		roster, err := MarshalCameras(got)
		if err != nil {
			t.Fatalf("accepted roster failed to encode: %v", err)
		}
		again, err := UnmarshalCameras(roster)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if len(again) != len(got) {
			t.Fatal("round trip changed the roster's length")
		}
	})
}
