package cluster

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
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
