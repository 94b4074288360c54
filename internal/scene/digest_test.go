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
// the benchmark's corridor and the paper's four scenarios at seed 1, and
// for the paths none of those takes: occlusion (C16 and S2 at the
// occlusion study's fraction, 0.6) and a camera with no range limit (C16
// with camera 0's MaxRange 0). Any change to the projection, the range
// test, the occlusion model or the traffic that moves one bit of one box
// changes a digest.
func TestWorldRunDigest(t *testing.T) {
	const frames = 600
	for _, c := range []struct {
		name, scenario string
		occlusion      float64
		unlimited0     bool
		want           string
	}{
		{"C16", "C16", 0, false, "4126fb0ae0ca01a16d84ce22d783af6be09b4305bab10ad199dd2d606a5da635"},
		{"S1", "S1", 0, false, "dee1e3063a4024ac82e8a9834db5d19ab1c54a5f1b7a577e38e45ccb418bd395"},
		{"S2", "S2", 0, false, "520012c1c840ec8583607a035090fc9a6dcee2b223ff404e44a3b538af8c8adb"},
		{"S3", "S3", 0, false, "45f02562c1a8997cc95307cb604a770dd62c9c9c313b86d783568570b9638fcd"},
		{"S4", "S4", 0, false, "6c4f6eb38e06c376e276d187dfe19cbf041ea89cbe4f852df9cf1bad080d18c4"},
		{"C16 occlusion", "C16", 0.6, false, "5b4c02e92904a5d094b2b23622cfdfe38347762d44b92aa806a6990e7db14aa6"},
		{"S2 occlusion", "S2", 0.6, false, "c65704acc7494b3d6d8c68a6189fb0b8f7b8b305419f0b22a0d770498bc67daa"},
		{"C16 unlimited camera 0", "C16", 0, true, "a7bcf20f35260766b488d2df1b57d080e51460f4f106dd7dfc0010cf25e0401a"},
	} {
		s, err := workload.ByName(c.scenario, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.World.OcclusionFrac = c.occlusion
		if c.unlimited0 {
			s.World.Cameras[0].MaxRange = 0
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
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: %d-frame trace digest %s, want %s", c.name, frames, got, c.want)
		}
	}
}
