package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// testSnapshot builds a fully populated snapshot so round-trip tests
// cover every field.
func testSnapshot(seq int) Snapshot {
	return Snapshot{
		Source:       SourcePipeline,
		Label:        "modes/BALB",
		Seq:          seq,
		Frame:        seq,
		TP:           10,
		FN:           2,
		Recall:       10.0 / 12.0,
		FrameLatency: 42 * time.Millisecond,
		Cameras: []CameraSnapshot{
			{Camera: 0, Latency: 42 * time.Millisecond, Batches: 3, Images: 7, BatchOccupancy: 0.6, Tracks: 5, Shadows: 1},
			{Camera: 1, Latency: 17 * time.Millisecond, Batches: 1, Images: 2, BatchOccupancy: 0.25, Tracks: 2},
		},
	}
}

func TestChannelSinkForwardsAll(t *testing.T) {
	s := NewChannelSink(1, 8)
	for i := 0; i < 5; i++ {
		s.RecordFrame(testSnapshot(i))
	}
	s.Close()
	var got []int
	for snap := range s.Snapshots() {
		got = append(got, snap.Seq)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("seqs = %v", got)
	}
	if s.Dropped() != 0 {
		t.Fatalf("dropped = %d", s.Dropped())
	}
}

func TestChannelSinkPeriod(t *testing.T) {
	s := NewChannelSink(10, 8)
	for i := 0; i < 25; i++ {
		s.RecordFrame(testSnapshot(i))
	}
	s.Close()
	var got []int
	for snap := range s.Snapshots() {
		got = append(got, snap.Seq)
	}
	if !reflect.DeepEqual(got, []int{0, 10, 20}) {
		t.Fatalf("seqs = %v", got)
	}
}

func TestChannelSinkDropsWhenFull(t *testing.T) {
	s := NewChannelSink(1, 2)
	for i := 0; i < 5; i++ {
		s.RecordFrame(testSnapshot(i)) // no consumer: only 2 fit
	}
	if s.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", s.Dropped())
	}
	s.Close()
	n := 0
	for range s.Snapshots() {
		n++
	}
	if n != 2 {
		t.Fatalf("delivered = %d, want 2", n)
	}
	s.Close() // idempotent
}

func TestChannelSinkConcurrentRecord(t *testing.T) {
	s := NewChannelSink(1, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.RecordFrame(testSnapshot(g*100 + i))
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	n := int64(0)
	for range s.Snapshots() {
		n++
	}
	if n+s.Dropped() != 800 {
		t.Fatalf("delivered %d + dropped %d != 800", n, s.Dropped())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	want := []Snapshot{testSnapshot(0), testSnapshot(1)}
	for _, snap := range want {
		s.RecordFrame(snap)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	for i, line := range lines {
		var got Snapshot
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("line %d round-trip:\ngot  %+v\nwant %+v", i, got, want[i])
		}
	}
}

// TestJSONLSinkRecordFrameAllocatesNothing: a warm sink encodes from its
// own Snapshot field with the one encoder it keeps, so a snapshot costs
// no allocation; the bytes are json.Marshal's; and the field is zeroed
// after the call, so the sink keeps no Cameras slice.
func TestJSONLSinkRecordFrameAllocatesNothing(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	snap := testSnapshot(3)
	s.RecordFrame(snap)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSuffix(buf.Bytes(), []byte("\n")); !bytes.Equal(got, want) {
		t.Fatalf("sink wrote %s\njson.Marshal %s", got, want)
	}
	if s.snap.Cameras != nil {
		t.Fatal("the sink kept the snapshot's Cameras past the call")
	}
	if raceEnabled {
		t.Skip("under -race sync.Pool drops encoding/json's encode state at random")
	}
	s = NewJSONLSink(io.Discard)
	s.RecordFrame(snap)
	if n := testing.AllocsPerRun(100, func() { s.RecordFrame(snap) }); n != 0 {
		t.Fatalf("warm JSONLSink.RecordFrame: %v allocations, want 0", n)
	}
}

// TestJSONLSchemaGolden pins the wire schema: field names and duration
// encoding (integer nanoseconds) are a contract with external consumers
// — changing them silently would break dashboards reading the log.
func TestJSONLSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.RecordFrame(Snapshot{
		Source:       SourceScheduler,
		Label:        "S2",
		Seq:          3,
		Frame:        40,
		FrameLatency: 5 * time.Millisecond,
		RoundLatency: 250 * time.Microsecond,
		Objects:      9,
		Cameras: []CameraSnapshot{
			{Camera: 0, Latency: 5 * time.Millisecond, Batches: 2, Images: 5, BatchOccupancy: 0.625, Assignments: 5},
		},
	})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"source":"scheduler","label":"S2","seq":3,"frame":40,"frame_latency_ns":5000000,"round_latency_ns":250000,"objects":9,"cameras":[{"camera":0,"latency_ns":5000000,"batches":2,"images":5,"batch_occupancy":0.625,"assignments":5}]}`
	if got := strings.TrimSpace(buf.String()); got != want {
		t.Fatalf("schema drifted:\ngot  %s\nwant %s", got, want)
	}
}

// TestJSONLSchemaGoldenResilience pins the fault-tolerance fields added
// alongside degraded mode: they are omitempty, so the legacy golden line
// above stays bit-identical when faults never fire, and they serialize
// under these exact names when they do.
func TestJSONLSchemaGoldenResilience(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.RecordFrame(Snapshot{
		Source:         SourceNode,
		Label:          "camera1",
		Seq:            2,
		Frame:          11,
		Detected:       4,
		DegradedFrames: 6,
		Reconnects:     2,
		FrameLatency:   3 * time.Millisecond,
		Partial:        true,
		Cameras: []CameraSnapshot{
			{Camera: 1, Latency: 3 * time.Millisecond, Tracks: 4},
		},
	})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"source":"node","label":"camera1","seq":2,"frame":11,"detected":4,"degraded_frames":6,"reconnects":2,"frame_latency_ns":3000000,"partial":true,"cameras":[{"camera":1,"latency_ns":3000000,"tracks":4}]}`
	if got := strings.TrimSpace(buf.String()); got != want {
		t.Fatalf("schema drifted:\ngot  %s\nwant %s", got, want)
	}
}

// TestJSONLSchemaGoldenCamFaults pins the data-plane fault counters
// (PR "camera outages"): omitempty, so the fault-free golden lines in
// the two tests above stay bit-identical — asserted explicitly here —
// and these exact names appear when faults fire.
func TestJSONLSchemaGoldenCamFaults(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.RecordFrame(Snapshot{
		Source:          SourcePipeline,
		Label:           "chaos/r=0.1/fo",
		Seq:             7,
		Frame:           30,
		TP:              12,
		FN:              3,
		Recall:          0.8,
		OutageFrames:    5,
		OrphanedObjects: 1,
		Reassignments:   2,
		FrameLatency:    4 * time.Millisecond,
		Cameras: []CameraSnapshot{
			{Camera: 0, Latency: 4 * time.Millisecond, Tracks: 3},
		},
	})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"source":"pipeline","label":"chaos/r=0.1/fo","seq":7,"frame":30,"tp":12,"fn":3,"recall":0.8,"outage_frames":5,"orphaned_objects":1,"reassignments":2,"frame_latency_ns":4000000,"cameras":[{"camera":0,"latency_ns":4000000,"tracks":3}]}`
	if got := strings.TrimSpace(buf.String()); got != want {
		t.Fatalf("schema drifted:\ngot  %s\nwant %s", got, want)
	}

	// Fault-free runs must emit none of the fault keys: re-encode the
	// golden snapshots from the two tests above and scan for them.
	buf.Reset()
	s2 := NewJSONLSink(&buf)
	s2.RecordFrame(Snapshot{
		Source: SourceScheduler, Label: "S2", Seq: 3, Frame: 40,
		FrameLatency: 5 * time.Millisecond, RoundLatency: 250 * time.Microsecond, Objects: 9,
		Cameras: []CameraSnapshot{{Camera: 0, Latency: 5 * time.Millisecond}},
	})
	s2.RecordFrame(Snapshot{
		Source: SourceNode, Label: "camera1", Seq: 2, Frame: 11, Detected: 4,
		FrameLatency: 3 * time.Millisecond,
		Cameras:      []CameraSnapshot{{Camera: 1, Latency: 3 * time.Millisecond}},
	})
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"outage_frames", "orphaned_objects", "reassignments"} {
		if strings.Contains(buf.String(), key) {
			t.Fatalf("fault-free snapshot leaked %q:\n%s", key, buf.String())
		}
	}
}

// TestJSONLSchemaGoldenIngest pins the live-ingest counters
// (docs/STREAMING.md §6): omitempty, so trace- and replay-driven runs —
// including every golden line in the tests above — stay bit-identical,
// and these exact names appear when an IngestSource feeds the engine.
func TestJSONLSchemaGoldenIngest(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.RecordFrame(Snapshot{
		Source:         SourcePipeline,
		Label:          "ingest/drop-oldest",
		Seq:            5,
		Frame:          20,
		TP:             8,
		FN:             2,
		Recall:         0.8,
		IngestedFrames: 64,
		ShedFrames:     16,
		QueueDepth:     4,
		FrameLatency:   2 * time.Millisecond,
		Cameras: []CameraSnapshot{
			{Camera: 0, Latency: 2 * time.Millisecond, Tracks: 2},
		},
	})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"source":"pipeline","label":"ingest/drop-oldest","seq":5,"frame":20,"tp":8,"fn":2,"recall":0.8,"ingested_frames":64,"shed_frames":16,"queue_depth":4,"frame_latency_ns":2000000,"cameras":[{"camera":0,"latency_ns":2000000,"tracks":2}]}`
	if got := strings.TrimSpace(buf.String()); got != want {
		t.Fatalf("schema drifted:\ngot  %s\nwant %s", got, want)
	}

	// Non-ingest (trace/replay) runs must emit none of the ingest keys:
	// re-encode a representative fault-free pipeline snapshot and scan.
	buf.Reset()
	s2 := NewJSONLSink(&buf)
	s2.RecordFrame(Snapshot{
		Source: SourcePipeline, Label: "balb", Seq: 1, Frame: 1,
		TP: 4, FN: 1, Recall: 0.8, FrameLatency: 2 * time.Millisecond,
		Cameras: []CameraSnapshot{{Camera: 0, Latency: 2 * time.Millisecond}},
	})
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ingested_frames", "shed_frames", "queue_depth"} {
		if strings.Contains(buf.String(), key) {
			t.Fatalf("non-ingest snapshot leaked %q:\n%s", key, buf.String())
		}
	}
}

// TestJSONLSchemaGoldenAdapt pins the degradation-control-loop fields
// (docs/FAULTS.md §10): omitempty, so runs with the controller disabled
// or never engaged — including every golden line in the tests above —
// stay bit-identical, and these exact names appear once the ladder
// moves off level 0.
func TestJSONLSchemaGoldenAdapt(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.RecordFrame(Snapshot{
		Source:           SourcePipeline,
		Label:            "adapt/on/load=4",
		Seq:              9,
		Frame:            50,
		TP:               6,
		FN:               2,
		Recall:           0.75,
		QueueDepth:       72,
		AdaptLevel:       2,
		AdaptTransitions: 3,
		SLOViolations:    5,
		FrameLatency:     6 * time.Millisecond,
		Cameras: []CameraSnapshot{
			{Camera: 0, Latency: 6 * time.Millisecond, Tracks: 2},
		},
	})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"source":"pipeline","label":"adapt/on/load=4","seq":9,"frame":50,"tp":6,"fn":2,"recall":0.75,"queue_depth":72,"adapt_level":2,"adapt_transitions":3,"slo_violations":5,"frame_latency_ns":6000000,"cameras":[{"camera":0,"latency_ns":6000000,"tracks":2}]}`
	if got := strings.TrimSpace(buf.String()); got != want {
		t.Fatalf("schema drifted:\ngot  %s\nwant %s", got, want)
	}

	// Undegraded runs must emit none of the adapt keys: re-encode a
	// representative level-0 pipeline snapshot and scan.
	buf.Reset()
	s2 := NewJSONLSink(&buf)
	s2.RecordFrame(Snapshot{
		Source: SourcePipeline, Label: "balb", Seq: 1, Frame: 1,
		TP: 4, FN: 1, Recall: 0.8, FrameLatency: 2 * time.Millisecond,
		Cameras: []CameraSnapshot{{Camera: 0, Latency: 2 * time.Millisecond}},
	})
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"adapt_level", "adapt_transitions", "slo_violations"} {
		if strings.Contains(buf.String(), key) {
			t.Fatalf("undegraded snapshot leaked %q:\n%s", key, buf.String())
		}
	}
}

func TestJSONLOpenAppendClose(t *testing.T) {
	path := t.TempDir() + "/snaps.jsonl"
	for round := 0; round < 2; round++ {
		s, err := OpenJSONL(path)
		if err != nil {
			t.Fatal(err)
		}
		s.RecordFrame(testSnapshot(round))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("appended lines = %d, want 2", len(lines))
	}
}

func TestMulti(t *testing.T) {
	if _, ok := Multi().(NopSink); !ok {
		t.Fatal("Multi() should collapse to NopSink")
	}
	if _, ok := Multi(nil, nil).(NopSink); !ok {
		t.Fatal("Multi(nil, nil) should collapse to NopSink")
	}
	one := NewChannelSink(1, 4)
	if Multi(nil, one) != Sink(one) {
		t.Fatal("Multi with one sink should return it unwrapped")
	}
	two := NewChannelSink(1, 4)
	m := Multi(one, two)
	m.RecordFrame(testSnapshot(0))
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	one.Close()
	two.Close()
	if n := len(one.Snapshots()); n != 1 {
		t.Fatalf("first sink got %d snapshots", n)
	}
	if n := len(two.Snapshots()); n != 1 {
		t.Fatalf("second sink got %d snapshots", n)
	}
}

func TestLatestSinkHTTP(t *testing.T) {
	latest := &LatestSink{}
	rec := httptest.NewRecorder()
	latest.ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	if rec.Code != 404 {
		t.Fatalf("empty sink status = %d, want 404", rec.Code)
	}

	want := testSnapshot(7)
	latest.RecordFrame(testSnapshot(3))
	latest.RecordFrame(want) // only the latest is retained
	if err := latest.Flush(); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	latest.ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var got Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("served snapshot:\ngot  %+v\nwant %+v", got, want)
	}
	if snap, ok := latest.Latest(); !ok || snap.Seq != 7 {
		t.Fatalf("Latest() = %+v, %v", snap, ok)
	}
}

func TestOpenExport(t *testing.T) {
	// Zero config: a NopSink and a no-op Close.
	e, err := OpenExport("", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Sink.(NopSink); !ok {
		t.Fatalf("zero-config sink = %T, want NopSink", e.Sink)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/export.jsonl"
	e, err = OpenExport("127.0.0.1:0", path)
	if err != nil {
		t.Fatal(err)
	}
	if e.Addr == "" {
		t.Fatal("no bound address reported")
	}
	e.Sink.RecordFrame(testSnapshot(0))
	if snap, ok := e.Latest.Latest(); !ok || snap.Seq != 0 {
		t.Fatalf("latest = %+v, %v", snap, ok)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"source":"pipeline"`) {
		t.Fatalf("jsonl file missing snapshot: %q", raw)
	}
}

func TestNopSink(t *testing.T) {
	var s NopSink
	s.RecordFrame(testSnapshot(0))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSinksCopyCameraRows holds ChannelSink and LatestSink to the Sink
// contract: neither keeps the caller's camera rows past RecordFrame, so
// an emitter that overwrites them afterwards does not change what the
// sink reports, and a caller of Latest that writes to its copy does not
// change the retained snapshot.
func TestSinksCopyCameraRows(t *testing.T) {
	want := testSnapshot(1)
	overwrite := func(snap Snapshot) {
		for i := range snap.Cameras {
			snap.Cameras[i] = CameraSnapshot{Camera: 99, Latency: time.Hour}
		}
	}

	ch := NewChannelSink(1, 1)
	snap := testSnapshot(1)
	ch.RecordFrame(snap)
	overwrite(snap)
	ch.Close()
	if got := <-ch.Snapshots(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ChannelSink forwarded rows the emitter overwrote:\ngot  %+v\nwant %+v", got, want)
	}

	latest := &LatestSink{}
	for seq := range 2 { // the second call reuses the sink's row storage
		snap = testSnapshot(1)
		snap.Seq = seq
		latest.RecordFrame(snap)
		overwrite(snap)
	}
	got, ok := latest.Latest()
	want.Seq = 1
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("LatestSink kept rows the emitter overwrote:\ngot  %+v\nwant %+v", got, want)
	}
	overwrite(got)
	if again, _ := latest.Latest(); !reflect.DeepEqual(again, want) {
		t.Fatalf("writing Latest's result changed the retained snapshot:\ngot  %+v\nwant %+v", again, want)
	}
}
