package scene_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mvs/internal/scene"
	"mvs/internal/workload"
)

// TestWorldRunDigest pins world generation byte for byte: the SHA-256 of
// the AppendFrame encoding of every frame of a 600-frame World.Run, for
// the benchmark's corridor and the paper's four scenarios at seed 1. Any
// change to the projection, the range test, the occlusion model or the
// traffic that moves one bit of one box changes a digest.
func TestWorldRunDigest(t *testing.T) {
	const frames = 600
	want := map[string]string{
		"C16": "4126fb0ae0ca01a16d84ce22d783af6be09b4305bab10ad199dd2d606a5da635",
		"S1":  "dee1e3063a4024ac82e8a9834db5d19ab1c54a5f1b7a577e38e45ccb418bd395",
		"S2":  "520012c1c840ec8583607a035090fc9a6dcee2b223ff404e44a3b538af8c8adb",
		"S3":  "45f02562c1a8997cc95307cb604a770dd62c9c9c313b86d783568570b9638fcd",
		"S4":  "6c4f6eb38e06c376e276d187dfe19cbf041ea89cbe4f852df9cf1bad080d18c4",
	}
	for _, name := range []string{"C16", "S1", "S2", "S3", "S4"} {
		s, err := workload.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := s.World.Run(frames)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf []byte
		for fi := range trace.Frames {
			if buf, err = scene.AppendFrame(buf[:0], &trace.Frames[fi]); err != nil {
				t.Fatal(err)
			}
			h.Write(buf)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: %d-frame trace digest %s, want %s", name, frames, got, want[name])
		}
	}
}
