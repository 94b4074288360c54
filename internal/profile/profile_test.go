package profile

import (
	"testing"
	"testing/quick"
	"time"
)

func allClasses() []DeviceClass {
	return []DeviceClass{JetsonNano, JetsonTX2, JetsonXavier}
}

func TestDeviceClassString(t *testing.T) {
	cases := map[DeviceClass]string{
		JetsonNano: "nano", JetsonTX2: "tx2", JetsonXavier: "xavier",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q want %q", c, got, want)
		}
	}
	if got := DeviceClass(99).String(); got != "device(99)" {
		t.Errorf("unknown = %q", got)
	}
}

func TestHeterogeneityOrdering(t *testing.T) {
	// Every latency quantity must respect Nano > TX2 > Xavier.
	for _, size := range []int{64, 128, 256, 512} {
		nano := TrueBatchLatency(JetsonNano, size, 1)
		tx2 := TrueBatchLatency(JetsonTX2, size, 1)
		xavier := TrueBatchLatency(JetsonXavier, size, 1)
		if !(nano > tx2 && tx2 > xavier) {
			t.Errorf("size %d: nano=%v tx2=%v xavier=%v not ordered", size, nano, tx2, xavier)
		}
	}
	if !(TrueFullFrameLatency(JetsonNano) > TrueFullFrameLatency(JetsonTX2) &&
		TrueFullFrameLatency(JetsonTX2) > TrueFullFrameLatency(JetsonXavier)) {
		t.Error("full-frame latencies not ordered by device class")
	}
}

func TestLatencyMonotoneInSizeAndBatch(t *testing.T) {
	for _, class := range allClasses() {
		sizes := []int{64, 128, 256, 512}
		for i := 1; i < len(sizes); i++ {
			if TrueBatchLatency(class, sizes[i], 1) <= TrueBatchLatency(class, sizes[i-1], 1) {
				t.Errorf("%s: latency not increasing from size %d to %d", class, sizes[i-1], sizes[i])
			}
		}
		for n := 2; n <= 20; n++ {
			if TrueBatchLatency(class, 128, n) < TrueBatchLatency(class, 128, n-1) {
				t.Errorf("%s: latency decreased from batch %d to %d", class, n-1, n)
			}
		}
	}
}

func TestBatchingIsWorthwhileWithinLimit(t *testing.T) {
	// Within the batch limit, a batch of n must be much cheaper than n
	// serialized singles — the effect the paper exploits.
	for _, class := range allClasses() {
		p := Derived(class)
		for _, size := range p.Sizes {
			limit := p.BatchLimit[size]
			if limit < 2 {
				continue
			}
			batched := TrueBatchLatency(class, size, limit)
			serial := time.Duration(limit) * TrueBatchLatency(class, size, 1)
			if batched >= serial {
				t.Errorf("%s size %d: batch of %d (%v) not cheaper than serial (%v)",
					class, size, limit, batched, serial)
			}
		}
	}
}

func TestInflectionPastBatchLimit(t *testing.T) {
	// Past the batch limit the marginal cost per image must jump.
	p := Derived(JetsonXavier)
	size := 128
	limit := p.BatchLimit[size]
	within := TrueBatchLatency(JetsonXavier, size, limit) - TrueBatchLatency(JetsonXavier, size, limit-1)
	beyond := TrueBatchLatency(JetsonXavier, size, limit+1) - TrueBatchLatency(JetsonXavier, size, limit)
	if beyond <= within*2 {
		t.Errorf("no inflection: marginal within=%v beyond=%v", within, beyond)
	}
}

func TestZeroBatch(t *testing.T) {
	if TrueBatchLatency(JetsonNano, 64, 0) != 0 {
		t.Error("zero batch should cost nothing")
	}
	if TrueBatchLatency(JetsonNano, 64, -3) != 0 {
		t.Error("negative batch should cost nothing")
	}
}

func TestDefaultProfilesValid(t *testing.T) {
	for _, class := range allClasses() {
		p := Derived(class)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", class, err)
		}
		if p.Class != class {
			t.Errorf("class = %v want %v", p.Class, class)
		}
	}
}

func TestProfilerCloseToTruth(t *testing.T) {
	pr := &Profiler{Runs: 200, NoiseFrac: 0.05, Seed: 1}
	for _, class := range allClasses() {
		p, err := pr.Measure(class, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		truth := Derived(class)
		// Averaging 200 runs with 5% noise: mean within ~2%.
		ratio := float64(p.FullFrame) / float64(truth.FullFrame)
		if ratio < 0.97 || ratio > 1.03 {
			t.Errorf("%s full-frame ratio %v", class, ratio)
		}
		for _, s := range p.Sizes {
			r := float64(p.BatchLatency[s]) / float64(truth.BatchLatency[s])
			if r < 0.95 || r > 1.05 {
				t.Errorf("%s size %d ratio %v", class, s, r)
			}
			if p.BatchLimit[s] != truth.BatchLimit[s] {
				t.Errorf("%s size %d limit %d != %d", class, s, p.BatchLimit[s], truth.BatchLimit[s])
			}
		}
	}
}

func TestProfilerDeterministicPerSeed(t *testing.T) {
	a, err := (&Profiler{Seed: 7}).Measure(JetsonTX2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Profiler{Seed: 7}).Measure(JetsonTX2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.FullFrame != b.FullFrame {
		t.Error("same seed produced different profiles")
	}
	c, err := (&Profiler{Seed: 8}).Measure(JetsonTX2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.FullFrame == c.FullFrame {
		t.Error("different seeds produced identical measurements")
	}
}

func TestProfileAccessors(t *testing.T) {
	p := Derived(JetsonXavier)
	b, err := p.BatchLimitFor(64)
	if err != nil || b != 16 {
		t.Fatalf("BatchLimitFor = %v, %v", b, err)
	}
	if _, err := p.BatchLimitFor(100); err == nil {
		t.Error("unknown size accepted")
	}
}

func TestProfileCloneIsDeep(t *testing.T) {
	p := Derived(JetsonNano)
	c := p.Clone()
	c.BatchLimit[64] = 99
	c.BatchLatency[64] = time.Second
	c.Sizes[0] = 1
	if p.BatchLimit[64] == 99 || p.BatchLatency[64] == time.Second || p.Sizes[0] == 1 {
		t.Error("Clone shares state")
	}
}

func TestProfileValidateRejectsBad(t *testing.T) {
	good := Derived(JetsonTX2)
	bad := good.Clone()
	bad.Sizes = nil
	if bad.Validate() == nil {
		t.Error("no sizes accepted")
	}
	bad = good.Clone()
	bad.FullFrame = 0
	if bad.Validate() == nil {
		t.Error("zero full-frame accepted")
	}
	bad = good.Clone()
	bad.Sizes = []int{128, 64}
	if bad.Validate() == nil {
		t.Error("unsorted sizes accepted")
	}
	bad = good.Clone()
	bad.BatchLimit[64] = 0
	if bad.Validate() == nil {
		t.Error("zero batch limit accepted")
	}
	bad = good.Clone()
	bad.BatchLatency[64] = 0
	if bad.Validate() == nil {
		t.Error("zero latency accepted")
	}
}

func TestInflectionLimitKnee(t *testing.T) {
	// The knee detector must stop exactly where the marginal cost
	// inflects, and fall back to 1 on degenerate curves.
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	flat := []time.Duration{ms(10), ms(11), ms(12), ms(13)}
	if got := inflectionLimit(flat); got != 4 {
		t.Errorf("flat curve limit = %d want 4", got)
	}
	knee := []time.Duration{ms(10), ms(11), ms(12), ms(21), ms(30)}
	if got := inflectionLimit(knee); got != 3 {
		t.Errorf("knee curve limit = %d want 3", got)
	}
	steep := []time.Duration{ms(10), ms(19), ms(28)}
	if got := inflectionLimit(steep); got != 1 {
		t.Errorf("steep curve limit = %d want 1", got)
	}
	if got := inflectionLimit(nil); got != 1 {
		t.Errorf("empty curve limit = %d want 1", got)
	}
}

func TestDerivedLimitsAtInflectionPoint(t *testing.T) {
	// The derived batch limits must sit exactly on the ground-truth
	// latency inflection point: the marginal cost of image limit+1 jumps
	// while the marginal cost up to the limit stays shallow. This pins
	// the knee scan to the curve, not to any constant table.
	for _, class := range allClasses() {
		p := Derived(class)
		for _, s := range p.Sizes {
			limit := p.BatchLimit[s]
			single := TrueBatchLatency(class, s, 1)
			beyond := TrueBatchLatency(class, s, limit+1) - TrueBatchLatency(class, s, limit)
			if float64(beyond) < 0.4*float64(single) {
				t.Errorf("%s size %d: no inflection after derived limit %d (marginal %v, single %v)",
					class, s, limit, beyond, single)
			}
			if limit > 1 {
				within := TrueBatchLatency(class, s, limit) - TrueBatchLatency(class, s, limit-1)
				if float64(within) > 0.4*float64(single) {
					t.Errorf("%s size %d: marginal cost %v already inflected before limit %d",
						class, s, within, limit)
				}
			}
		}
	}
	// And the known operating points for the strongest class.
	want := map[int]int{64: 16, 128: 8, 256: 4, 512: 2}
	p := Derived(JetsonXavier)
	for s, lim := range want {
		if p.BatchLimit[s] != lim {
			t.Errorf("xavier size %d derived limit %d want %d", s, p.BatchLimit[s], lim)
		}
	}
}

func TestLatencyPositiveProperty(t *testing.T) {
	f := func(rawClass uint8, rawSize uint8, rawN uint8) bool {
		class := DeviceClass(rawClass % 3)
		size := []int{64, 128, 256, 512}[rawSize%4]
		n := int(rawN%32) + 1
		return TrueBatchLatency(class, size, n) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
