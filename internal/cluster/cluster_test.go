package cluster

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mvs/internal/assoc"
	"mvs/internal/geom"
	"mvs/internal/profile"
	"mvs/internal/scene"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Envelope{
		Type: TypeDetections,
		Detections: &Detections{
			Camera: 2, Frame: 30,
			Tracks: []TrackReport{{TrackID: 7, Box: [4]float64{1, 2, 3, 4}, Size: 128}},
		},
	}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != TypeDetections || out.Detections.Camera != 2 ||
		out.Detections.Tracks[0].Size != 128 {
		t.Fatalf("round trip = %+v", out)
	}
}

// TestWriteMessageRejectsInvalidUTF8: encoding/json would send U+FFFD
// for invalid UTF-8, so such a Type or Error is an error and nothing is
// written.
func TestWriteMessageRejectsInvalidUTF8(t *testing.T) {
	for _, env := range []*Envelope{{Type: "\xff"}, {Type: TypeError, Error: "bad \xc3"}} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, env); err == nil || buf.Len() != 0 {
			t.Fatalf("%q / %q: err %v, %d bytes written", env.Type, env.Error, err, buf.Len())
		}
	}
}

func TestReadMessageRejectsBadLength(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := ReadMessage(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("huge length accepted")
	}
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 5, '{'})); err == nil {
		t.Fatal("truncated body accepted")
	}
	if _, err := ReadMessage(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestReadMessageRejectsGarbageJSON(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 3})
	buf.WriteString("xyz")
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("garbage JSON accepted")
	}
}

// TestReadMessageStalledBody: a header claiming the full 4 MiB, ten
// bytes and then EOF must cost a body step, not the claim, and fail
// typed; a message spanning several steps still arrives whole.
func TestReadMessageStalledBody(t *testing.T) {
	stream := append([]byte{0x00, 0x40, 0x00, 0x00}, "0123456789"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMessage(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Fatalf("a stalled 4 MiB claim allocated %d bytes, want under %d", got, 128<<10)
	}
	if _, err := ReadMessage(bytes.NewReader(stream[:4])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header and nothing else: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}

	in := &Envelope{Type: TypeDetections, Detections: &Detections{Camera: 1, Tracks: make([]TrackReport, 5000)}}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 2*bodyStep {
		t.Fatalf("message is %d bytes; the test wants more than two body steps", buf.Len())
	}
	out, err := ReadMessage(&buf)
	if err != nil || len(out.Detections.Tracks) != 5000 {
		t.Fatalf("large message: %v", err)
	}
}

// testModel returns a small association model trained on a two-camera
// world, trained once for the package (models and profiles are only
// read).
func testModel(t *testing.T) (*assoc.Model, []*profile.Profile) {
	t.Helper()
	twoCameraOnce.Do(func() {
		road := scene.MustPath(geom.Point{X: 5, Y: -40}, geom.Point{X: 5, Y: 40})
		camA := &scene.Camera{
			Name: "a", Pos: geom.Point{X: 0, Y: -50}, Height: 8, Yaw: math.Pi / 2,
			Pitch: 0.4, Focal: 1000, ImageW: 1280, ImageH: 704, MaxRange: 62,
		}
		camB := &scene.Camera{
			Name: "b", Pos: geom.Point{X: 0, Y: 50}, Height: 8, Yaw: -math.Pi / 2,
			Pitch: 0.4, Focal: 1000, ImageW: 1280, ImageH: 704, MaxRange: 62,
		}
		world := &scene.World{
			Routes:  []scene.Route{{Path: road, Speed: 8, Arrivals: scene.Poisson{RatePerSec: 0.6}}},
			Cameras: []*scene.Camera{camA, camB},
			FPS:     10, Seed: 21,
		}
		trace, err := world.Run(400)
		if err != nil {
			twoCameraErr = err
			return
		}
		twoCameraModel, twoCameraErr = assoc.Train(trace, assoc.Factories{})
	})
	if twoCameraErr != nil {
		t.Fatal(twoCameraErr)
	}
	return twoCameraModel, []*profile.Profile{
		profile.Derived(profile.JetsonXavier),
		profile.Derived(profile.JetsonNano),
	}
}

var (
	twoCameraOnce  sync.Once
	twoCameraModel *assoc.Model
	twoCameraErr   error
)

// startScheduler runs a scheduler on a random loopback port.
func startScheduler(t *testing.T, opts ...Option) (*Scheduler, string) {
	t.Helper()
	model, profiles := testModel(t)
	s, err := NewScheduler(model, profiles, 0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = s.Serve(ln)
	}()
	t.Cleanup(func() {
		s.Close()
		ln.Close()
	})
	return s, ln.Addr().String()
}

func TestNewSchedulerValidation(t *testing.T) {
	model, profiles := testModel(t)
	if _, err := NewScheduler(nil, profiles, 0); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewScheduler(model, profiles[:1], 0); err == nil {
		t.Fatal("profile count mismatch accepted")
	}
	if _, err := NewScheduler(model, []*profile.Profile{nil, nil}, 0); err == nil {
		t.Fatal("nil profile accepted")
	}
}

func TestSchedulingRoundOverTCP(t *testing.T) {
	_, addr := startScheduler(t)

	c0, err := Dial(addr, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(addr, 1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// Two cameras report boxes; tracks 11 (cam0) and 21 (cam1) are at
	// locations the association model should merge or at least schedule.
	rep0 := []TrackReport{
		{TrackID: 11, Box: [4]float64{600, 300, 700, 380}, Size: 128},
		{TrackID: 12, Box: [4]float64{100, 500, 160, 560}, Size: 64},
	}
	rep1 := []TrackReport{
		{TrackID: 21, Box: [4]float64{580, 310, 690, 390}, Size: 128},
	}

	var wg sync.WaitGroup
	var a0, a1 *Assignment
	var e0, e1 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		a0, e0 = c0.KeyFrame(0, rep0, 5*time.Second)
	}()
	go func() {
		defer wg.Done()
		a1, e1 = c1.KeyFrame(0, rep1, 5*time.Second)
	}()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatalf("errors: %v / %v", e0, e1)
	}

	// Both replies carry the same priority permutation.
	if len(a0.Priority) != 2 || len(a1.Priority) != 2 {
		t.Fatalf("priorities = %v / %v", a0.Priority, a1.Priority)
	}
	for i := range a0.Priority {
		if a0.Priority[i] != a1.Priority[i] {
			t.Fatalf("inconsistent priorities: %v vs %v", a0.Priority, a1.Priority)
		}
	}
	// Every reported track is either kept or shadowed on its own camera.
	accounted := func(a *Assignment, id int) bool {
		for _, k := range a.Keep {
			if k == id {
				return true
			}
		}
		for _, sh := range a.Shadows {
			if sh.TrackID == id {
				return true
			}
		}
		return false
	}
	for _, tr := range rep0 {
		if !accounted(a0, tr.TrackID) {
			t.Fatalf("cam0 track %d unaccounted: %+v", tr.TrackID, a0)
		}
	}
	for _, tr := range rep1 {
		if !accounted(a1, tr.TrackID) {
			t.Fatalf("cam1 track %d unaccounted: %+v", tr.TrackID, a1)
		}
	}
	// A shadow's assigned camera must be the other one.
	for _, sh := range a0.Shadows {
		if sh.AssignedCamera != 1 {
			t.Fatalf("cam0 shadow assigned to %d", sh.AssignedCamera)
		}
	}
}

func TestMultipleRounds(t *testing.T) {
	_, addr := startScheduler(t)
	c0, err := Dial(addr, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(addr, 1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	for frame := 0; frame < 30; frame += 10 {
		var wg sync.WaitGroup
		var err0, err1 error
		wg.Add(2)
		go func(f int) {
			defer wg.Done()
			_, err0 = c0.KeyFrame(f, []TrackReport{{TrackID: f + 1, Box: [4]float64{100, 100, 150, 150}, Size: 64}}, 5*time.Second)
		}(frame)
		go func(f int) {
			defer wg.Done()
			_, err1 = c1.KeyFrame(f, nil, 5*time.Second)
		}(frame)
		wg.Wait()
		if err0 != nil || err1 != nil {
			t.Fatalf("frame %d: %v / %v", frame, err0, err1)
		}
	}
}

func TestDuplicateCameraTakesOver(t *testing.T) {
	// A second registration for a live camera index is a reconnect: the
	// new connection takes over and the old one is closed, so a node
	// whose old socket is half-dead can rejoin without waiting for the
	// scheduler to notice the corpse.
	_, addr := startScheduler(t)
	c0, err := Dial(addr, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()

	c0again, err := Dial(addr, 0, 0, 0, 0)
	if err != nil {
		t.Fatalf("takeover registration rejected: %v", err)
	}
	defer c0again.Close()

	// The displaced connection is closed by the scheduler: its next read
	// fails rather than hanging.
	if err := c0.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(c0.conn); err == nil {
		t.Fatal("displaced connection still readable, want closed")
	}

	// The new connection is live: a ping round-trips.
	if err := c0again.Ping(0); err != nil {
		t.Fatalf("ping on takeover connection: %v", err)
	}
}

func TestOutOfRangeCameraRejected(t *testing.T) {
	_, addr := startScheduler(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, &Envelope{Type: TypeHello, Hello: &Hello{Camera: 9}}); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestNonHelloFirstMessageRejected(t *testing.T) {
	_, addr := startScheduler(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	env := &Envelope{Type: TypeDetections, Detections: &Detections{Camera: 0}}
	if err := WriteMessage(conn, env); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestCameraIDMismatchInDetections(t *testing.T) {
	_, addr := startScheduler(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, &Envelope{Type: TypeHello, Hello: &Hello{Camera: 0}}); err != nil {
		t.Fatal(err)
	}
	ack, err := ReadMessage(conn)
	if err != nil || ack.Type != TypeHello {
		t.Fatalf("handshake ack = %+v, %v", ack, err)
	}
	env := &Envelope{Type: TypeDetections, Detections: &Detections{Camera: 1, Frame: 0}}
	if err := WriteMessage(conn, env); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestKeyFrameTimeout(t *testing.T) {
	// Camera 1 is connected but never reports: the round cannot complete
	// while it is alive, and the client's deadline must fire.
	_, addr := startScheduler(t)
	c0, err := Dial(addr, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(addr, 1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c0.KeyFrame(0, nil, 50*time.Millisecond); err == nil {
		t.Fatal("incomplete round returned an assignment")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 0, 200*time.Millisecond, 0, 0); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestReportTracksConversion(t *testing.T) {
	reports := ReportTracks(nil)
	if len(reports) != 0 {
		t.Fatal("nil tracks produced reports")
	}
}

func TestHelloWithFrameSizeGetsCoverage(t *testing.T) {
	_, addr := startScheduler(t)
	c, err := Dial(addr, 0, 0, 1280, 704)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ack := c.Ack()
	if ack == nil {
		t.Fatal("no ack payload")
	}
	if ack.GridCols <= 0 || ack.GridRows <= 0 {
		t.Fatalf("grid = %dx%d", ack.GridCols, ack.GridRows)
	}
	if len(ack.Coverage) != ack.GridCols*ack.GridRows {
		t.Fatalf("coverage cells = %d", len(ack.Coverage))
	}
	for i, cover := range ack.Coverage {
		if len(cover) == 0 || cover[0] != 0 {
			t.Fatalf("cell %d coverage %v must start with own camera", i, cover)
		}
	}
}

func TestHelloWithoutFrameSizeOmitsCoverage(t *testing.T) {
	_, addr := startScheduler(t)
	c, err := Dial(addr, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ack := c.Ack()
	if ack == nil {
		t.Fatal("no ack payload")
	}
	if len(ack.Coverage) != 0 {
		t.Fatal("coverage sent without frame size")
	}
}

func TestBandwidthCounters(t *testing.T) {
	_, addr := startScheduler(t)
	c0, err := Dial(addr, 0, 0, 1280, 704)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(addr, 1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if c0.BytesSent() == 0 || c0.BytesReceived() == 0 {
		t.Fatalf("handshake not counted: sent=%d recv=%d", c0.BytesSent(), c0.BytesReceived())
	}
	// Masks were shipped: the frame-sized hello must have received far
	// more than the bare one.
	if c0.BytesReceived() <= c1.BytesReceived() {
		t.Fatalf("mask payload not visible in counters: %d vs %d",
			c0.BytesReceived(), c1.BytesReceived())
	}
	before := c0.BytesSent()
	var wg sync.WaitGroup
	wg.Add(2)
	var e0, e1 error
	go func() {
		defer wg.Done()
		_, e0 = c0.KeyFrame(0, []TrackReport{{TrackID: 1, Box: [4]float64{1, 2, 3, 4}, Size: 64}}, 5*time.Second)
	}()
	go func() {
		defer wg.Done()
		_, e1 = c1.KeyFrame(0, nil, 5*time.Second)
	}()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatalf("round: %v / %v", e0, e1)
	}
	if c0.BytesSent() <= before {
		t.Fatal("key-frame upload not counted")
	}
}

// pendingReports returns how many reports the scheduler holds for a frame
// whose round has not been scheduled yet.
func pendingReports(s *Scheduler, frame int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.machines[0].rounds {
		if r.frame == frame {
			return r.n
		}
	}
	return 0
}

// TestLateRegistrationJoinsFirstRound forces the race the barrier used to
// lose: camera 1 dials only after camera 0's frame-0 report is in. The
// barrier is the configured roster, so round 0 waits for the camera that
// has not registered yet and schedules both together; camera 0 is never
// scheduled alone and camera 1's report never opens a round of its own.
// Once the round is done, a second report for it is refused as stale at
// once instead of waiting for peers that have moved on.
func TestLateRegistrationJoinsFirstRound(t *testing.T) {
	rounds := &roundLog{}
	s, addr := startScheduler(t, WithRounds(rounds))

	c0, err := Dial(addr, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	type reply struct {
		a   *Assignment
		err error
	}
	first := make(chan reply, 1)
	go func() {
		a, err := c0.KeyFrame(0, []TrackReport{{TrackID: 1, Box: [4]float64{600, 300, 700, 380}, Size: 128}}, 10*time.Second)
		first <- reply{a, err}
	}()
	// Hold camera 1 back until the scheduler has camera 0's report.
	for pendingReports(s, 0) == 0 {
		select {
		case r := <-first:
			t.Fatalf("camera 0 was answered (%+v, %v) before camera 1 registered: the barrier is the connections, not the roster", r.a, r.err)
		case <-time.After(time.Millisecond):
		}
	}

	c1, err := Dial(addr, 1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	a1, err := c1.KeyFrame(0, []TrackReport{{TrackID: 2, Box: [4]float64{580, 310, 690, 390}, Size: 128}}, 10*time.Second)
	if err != nil {
		t.Fatalf("late camera: %v", err)
	}
	r0 := <-first
	if r0.err != nil {
		t.Fatalf("early camera: %v", r0.err)
	}
	if len(r0.a.Priority) != 2 || len(a1.Priority) != 2 {
		t.Fatalf("priorities = %v / %v, want both cameras in each", r0.a.Priority, a1.Priority)
	}
	got := rounds.snapshot()
	if len(got) != 1 || got[0].Frame != 0 || got[0].Partial {
		t.Fatalf("rounds = %+v, want one full round for frame 0", got)
	}

	start := time.Now()
	_, err = c1.KeyFrame(0, nil, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), staleRound) {
		t.Fatalf("second report for a scheduled round: err = %v, want %q", err, staleRound)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("stale report answered after %v, want at once", waited)
	}
	if n := pendingReports(s, 0); n != 0 {
		t.Fatalf("stale report opened a round with %d reports", n)
	}
}
