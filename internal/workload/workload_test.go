package workload

import (
	"testing"

	"mvs/internal/profile"
)

// checkWiring is what every built-in scenario must satisfy: a valid
// world and one device per camera.
func checkWiring(t *testing.T, s *Scenario) {
	t.Helper()
	if err := s.World.Validate(); err != nil {
		t.Errorf("%s: %v", s.Name, err)
	}
	if len(s.Devices) != len(s.World.Cameras) {
		t.Errorf("%s has %d devices for %d cameras", s.Name, len(s.Devices), len(s.World.Cameras))
	}
}

func TestAllScenariosValid(t *testing.T) {
	for _, s := range []*Scenario{S1(1), S2(1), S3(1)} {
		checkWiring(t, s)
	}
}

func TestTableIConfigurations(t *testing.T) {
	count := func(devs []profile.DeviceClass, c profile.DeviceClass) int {
		n := 0
		for _, d := range devs {
			if d == c {
				n++
			}
		}
		return n
	}
	s1 := S1(1)
	if len(s1.Devices) != 5 ||
		count(s1.Devices, profile.JetsonXavier) != 2 ||
		count(s1.Devices, profile.JetsonTX2) != 2 ||
		count(s1.Devices, profile.JetsonNano) != 1 {
		t.Errorf("S1 devices = %v", s1.Devices)
	}
	s2 := S2(1)
	if len(s2.Devices) != 2 ||
		count(s2.Devices, profile.JetsonXavier) != 1 ||
		count(s2.Devices, profile.JetsonNano) != 1 {
		t.Errorf("S2 devices = %v", s2.Devices)
	}
	s3 := S3(1)
	if len(s3.Devices) != 3 ||
		count(s3.Devices, profile.JetsonXavier) != 1 ||
		count(s3.Devices, profile.JetsonTX2) != 1 ||
		count(s3.Devices, profile.JetsonNano) != 1 {
		t.Errorf("S3 devices = %v", s3.Devices)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"S1", "S2", "S3"} {
		s, err := ByName(name, 1)
		if err != nil || s.Name != name {
			t.Errorf("ByName(%s) = %v, %v", name, s, err)
		}
	}
	if _, err := ByName("S9", 1); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestProfilesMatchDevices(t *testing.T) {
	s := S1(1)
	profs := s.Profiles()
	if len(profs) != len(s.Devices) {
		t.Fatalf("profiles = %d", len(profs))
	}
	for i, p := range profs {
		if p.Class != s.Devices[i] {
			t.Errorf("profile %d class %v != %v", i, p.Class, s.Devices[i])
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %d: %v", i, err)
		}
	}
}

func TestScenariosProduceTraffic(t *testing.T) {
	for _, s := range []*Scenario{S1(3), S2(3), S3(3)} {
		trace, err := s.World.Run(600)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		total := 0
		for ci := range trace.Cameras {
			for fi := range trace.Frames {
				total += len(trace.Frames[fi].PerCamera[ci])
			}
		}
		if total == 0 {
			t.Errorf("%s: no observations", s.Name)
		}
	}
}

func TestOverlapOrdering(t *testing.T) {
	// Shared-object fraction must be highest in S1 and lowest in S3, the
	// structural property behind the paper's per-scenario speedup
	// ordering.
	frac := func(s *Scenario) float64 {
		trace, err := s.World.Run(1000)
		if err != nil {
			t.Fatal(err)
		}
		shared, total := 0, 0
		for fi := range trace.Frames {
			seen := map[int]int{}
			for _, obs := range trace.Frames[fi].PerCamera {
				for _, o := range obs {
					seen[o.ObjectID]++
				}
			}
			for _, n := range seen {
				total++
				if n > 1 {
					shared++
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s: no visible objects", s.Name)
		}
		return float64(shared) / float64(total)
	}
	f1, f2, f3 := frac(S1(5)), frac(S2(5)), frac(S3(5))
	if !(f1 > f2 && f2 > f3) {
		t.Errorf("overlap fractions not ordered: S1=%.2f S2=%.2f S3=%.2f", f1, f2, f3)
	}
}

func TestS4ScaleScenario(t *testing.T) {
	s := S4(1)
	checkWiring(t, s)
	if len(s.Devices) != 8 {
		t.Fatalf("devices = %d", len(s.Devices))
	}
	trace, err := s.World.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	// Chained overlap: a healthy share of visible objects must be seen by
	// at least two cameras.
	shared, total := 0, 0
	for fi := range trace.Frames {
		seen := map[int]int{}
		for _, obs := range trace.Frames[fi].PerCamera {
			for _, o := range obs {
				seen[o.ObjectID]++
			}
		}
		for _, n := range seen {
			total++
			if n > 1 {
				shared++
			}
		}
	}
	if total == 0 {
		t.Fatal("no visible objects")
	}
	if frac := float64(shared) / float64(total); frac < 0.2 {
		t.Fatalf("S4 overlap too small: %.2f", frac)
	}
	if _, err := ByName("S4", 1); err != nil {
		t.Fatal(err)
	}
}
