package pipeline

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"mvs/internal/scene"
)

// These tests hold the lent frame to its specification rather than to
// the code it replaced: a frame Next returns keeps its values until the
// next Next whatever producers offer meanwhile, and it equals the frame
// assembled from parts no storage was ever reused for.

// partForms is one camera's part of one frame in the forms a producer
// can send it.
type partForms struct {
	wire  []byte    // the length-prefixed message
	fresh FramePart // DecodeFramePart of wire: what the TCP path delivers
	plain FramePart // the part as built, what an in-process producer offers
}

// buildForms returns the forms of every camera's part of every frame,
// objects on camera 0's, indexed [frame][camera].
func buildForms(t *testing.T, frames []scene.FrameTruth) [][]partForms {
	t.Helper()
	forms := make([][]partForms, len(frames))
	for fi := range frames {
		for _, p := range AppendFrameParts(nil, fi, &frames[fi]) {
			var wire bytes.Buffer
			if err := EncodeFramePart(&wire, p); err != nil {
				t.Fatal(err)
			}
			fresh, err := DecodeFramePart(bytes.NewReader(wire.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			forms[fi] = append(forms[fi], partForms{wire: wire.Bytes(), fresh: fresh, plain: p})
		}
	}
	return forms
}

// cloneFrame deep-copies f, nil and empty lists kept apart.
func cloneFrame(f *scene.FrameTruth) *scene.FrameTruth {
	c := &scene.FrameTruth{Index: f.Index, Objects: slices.Clone(f.Objects),
		PerCamera: make([][]scene.Observation, len(f.PerCamera))}
	for i, obs := range f.PerCamera {
		c.PerCamera[i] = slices.Clone(obs)
	}
	return c
}

// sameList reports whether got is the list want, or an empty list where
// want is nil (the wire writes a nil list as []).
func sameList[T any](got, want []T) bool {
	return reflect.DeepEqual(got, want) || len(got) == 0 && len(want) == 0
}

// checkFrameSpec checks what any assembled frame must be: each camera's
// list is nil (the camera shed or skipped the frame) or the list of the
// part its camera sent for the frame, and the objects are nil or camera
// 0's part's.
func checkFrameSpec(t *testing.T, f *scene.FrameTruth, forms [][]partForms) {
	t.Helper()
	if f.Index < 0 || f.Index >= len(forms) {
		t.Fatalf("assembled frame %d, never sent", f.Index)
	}
	sent := forms[f.Index]
	for cam, obs := range f.PerCamera {
		if obs != nil && !sameList(obs, sent[cam].plain.Obs) {
			t.Fatalf("frame %d camera %d: %+v, sent %+v", f.Index, cam, obs, sent[cam].plain.Obs)
		}
	}
	if f.Objects != nil && !sameList(f.Objects, sent[0].plain.Objects) {
		t.Fatalf("frame %d objects: %+v, sent %+v", f.Index, f.Objects, sent[0].plain.Objects)
	}
}

// scribble overwrites a producer's buffer once it has been offered.
func scribble[T any](s []T) {
	var zero T
	for i := range s {
		s[i] = zero
	}
}

// readyToAssemble reports, without blocking, whether Next would return.
func readyToAssemble(s *IngestSource) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.ready()
}

// TestIngestLentFrameMatchesFreshParts drives one source with reused
// storage everywhere — parts over TCP through the connection's decoder,
// parts offered in-process from one producer buffer scribbled over after
// each Offer, and a consumer that holds each frame until its next Next —
// and a reference source with the same admission sequence fed
// DecodeFramePart's fresh parts, each of its frames copied the moment it
// is returned. On seeded sequences of reordered, duplicated, re-sent,
// skipped and post-EOS parts, at every shed policy, the held frame must
// keep its values up to the next Next and every frame must equal the
// reference's, nil and empty lists included.
func TestIngestLentFrameMatchesFreshParts(t *testing.T) {
	e := getEnv(t)
	cams := e.test.Cameras
	const frames = 150
	forms := buildForms(t, e.test.Frames[:frames+2])
	for _, policy := range []ShedPolicy{ShedDropOldest, ShedFreshest, ShedStale} {
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(policy) + 11))
			cfg := IngestConfig{Queue: 3, Policy: policy}
			subject, err := NewIngestSource(cams, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer subject.Close()
			ref, err := NewIngestSource(cams, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			subject.Serve(ln)
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			// Every offer of a frame part adds at least one to Ingested+Shed,
			// so the subject has taken the same parts as the reference when
			// the sums are equal.
			var batch bytes.Buffer
			flush := func() {
				if batch.Len() > 0 {
					if _, err := conn.Write(batch.Bytes()); err != nil {
						t.Fatal(err)
					}
					batch.Reset()
				}
				rc := ref.Counters()
				deadline := time.Now().Add(10 * time.Second)
				for c := subject.Counters(); c.Ingested+c.Shed < rc.Ingested+rc.Shed; c = subject.Counters() {
					if time.Now().After(deadline) {
						t.Fatalf("the connection delivered %d of %d parts", c.Ingested+c.Shed, rc.Ingested+rc.Shed)
					}
					time.Sleep(20 * time.Microsecond)
				}
			}
			prodObs := make([]scene.Observation, 0, 4)
			var prodObjs []scene.ObjectState
			offer := func(cam, fi int) {
				pf := &forms[fi][cam]
				if rng.Intn(2) == 0 {
					batch.Write(pf.wire)
					if err := ref.Offer(pf.fresh); err != nil {
						t.Fatal(err)
					}
					return
				}
				flush() // the connection's parts go first
				p := pf.plain
				if p.Obs != nil {
					prodObs = append(prodObs[:0], p.Obs...)
					p.Obs = prodObs
				}
				if p.Objects != nil {
					prodObjs = append(prodObjs[:0], p.Objects...)
					p.Objects = prodObjs
				}
				if err := subject.Offer(p); err != nil {
					t.Fatal(err)
				}
				scribble(prodObs)
				scribble(prodObjs)
				if err := ref.Offer(pf.plain); err != nil {
					t.Fatal(err)
				}
			}
			eos := func(cam int) {
				flush()
				for _, src := range []*IngestSource{subject, ref} {
					if err := src.Offer(FramePart{Cam: cam, EOS: true}); err != nil {
						t.Fatal(err)
					}
				}
			}
			var held, heldCopy *scene.FrameTruth
			emitted, last := 0, -1
			next := func() bool {
				flush()
				if held != nil && !reflect.DeepEqual(held, heldCopy) {
					t.Fatalf("held frame %d changed before the next Next:\nnow  %+v\nwhen %+v", heldCopy.Index, held, heldCopy)
				}
				want, wantErr := ref.Next()
				if wantErr == nil {
					want = cloneFrame(want)
				}
				got, err := subject.Next()
				if err != wantErr {
					t.Fatalf("Next: %v, reference %v", err, wantErr)
				}
				if err == io.EOF {
					return false
				}
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("frame %d:\ngot       %+v\nreference %+v", want.Index, got, want)
				}
				if got.Index <= last {
					t.Fatalf("assembled frame %d after %d", got.Index, last)
				}
				checkFrameSpec(t, got, forms)
				held, heldCopy, last = got, cloneFrame(got), got.Index
				emitted++
				return true
			}

			cursor := make([]int, len(cams)) // each camera's next new frame
			ended := make([]bool, len(cams))
			for steps := 0; steps < 4000; steps++ {
				cam := rng.Intn(len(cams))
				fi := cursor[cam]
				switch r := rng.Intn(100); {
				case fi >= frames:
				case r < 65: // the next frame
					offer(cam, fi)
					cursor[cam]++
				case r < 75: // a duplicate or a re-send of an older frame
					offer(cam, max(0, fi-1-rng.Intn(5)))
				case r < 85: // reordered: the frame after, then its straggler
					offer(cam, fi+1)
					offer(cam, fi)
					cursor[cam] += 2
				case r < 90: // a frame the camera never sends
					cursor[cam]++
				case r < 91 && fi > frames/2 && !ended[cam]: // an early end of stream
					eos(cam)
					ended[cam] = true
				}
				flush()
				if c, rc := subject.Counters(), ref.Counters(); c != rc {
					t.Fatalf("step %d: counters %+v, reference %+v", steps, c, rc)
				}
				if rdy, want := readyToAssemble(subject), readyToAssemble(ref); rdy != want {
					t.Fatalf("step %d: subject ready %v, reference %v", steps, rdy, want)
				} else if rdy && rng.Intn(3) == 0 {
					next()
				}
			}
			for cam := range cams {
				eos(cam)
			}
			for next() {
			}
			if c, rc := subject.Counters(), ref.Counters(); c != rc || c.Shed == 0 || emitted < frames/4 {
				t.Fatalf("counters %+v, reference %+v, %d frames emitted", c, rc, emitted)
			}
		})
	}
}

// TestIngestLentFrameUnderConcurrentOffers runs producers and the
// consumer concurrently (run it under -race): one producer streams parts
// over TCP with re-sends and reordered stragglers, another offers its
// cameras' parts in-process from a buffer it scribbles over after each
// Offer, both end with EOS, and the consumer holds each frame a while
// before its next Next. A held frame must keep its values; every frame
// must ascend and hold only what its cameras sent. The one-camera case is
// mvnode's: a roster of one, the consumer reading frame.PerCamera[0]
// until the next Next.
func TestIngestLentFrameUnderConcurrentOffers(t *testing.T) {
	e := getEnv(t)
	const frames = 300
	forms := buildForms(t, e.test.Frames[:frames+1])
	for _, tc := range []struct {
		name string
		cams int
	}{{"fleet", len(e.test.Cameras)}, {"mvnode", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := NewIngestSource(e.test.Cameras[:tc.cams], IngestConfig{Queue: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			src.Serve(ln)
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			tcpCams := max(1, tc.cams/2) // cameras [0, tcpCams) send over TCP, the rest in-process

			var wg sync.WaitGroup
			errs := make(chan error, 2)
			wg.Add(2)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(5))
				var msgs bytes.Buffer
				for fi := 0; fi < frames; fi++ {
					for cam := 0; cam < tcpCams; cam++ {
						switch r := rng.Intn(20); {
						case r == 0 && fi+1 < frames: // reordered
							msgs.Write(forms[fi+1][cam].wire)
							msgs.Write(forms[fi][cam].wire)
						case r == 1: // re-sent
							msgs.Write(forms[fi][cam].wire)
							msgs.Write(forms[max(0, fi-2)][cam].wire)
						default:
							msgs.Write(forms[fi][cam].wire)
						}
					}
					if fi%4 == 3 {
						if _, err := conn.Write(msgs.Bytes()); err != nil {
							errs <- err
							return
						}
						msgs.Reset()
						time.Sleep(200 * time.Microsecond)
					}
				}
				for cam := 0; cam < tcpCams; cam++ {
					if err := EncodeFramePart(&msgs, FramePart{Cam: cam, EOS: true}); err != nil {
						errs <- err
						return
					}
				}
				_, err := conn.Write(msgs.Bytes())
				errs <- err
			}()
			go func() {
				defer wg.Done()
				var buf []scene.Observation
				for fi := 0; fi < frames; fi++ {
					for cam := tcpCams; cam < tc.cams; cam++ {
						for _, f := range []int{fi, max(0, fi-1)} { // every part re-sent once
							p := forms[f][cam].plain
							if p.Obs != nil {
								buf = append(buf[:0], p.Obs...)
								p.Obs = buf
							}
							if err := src.Offer(p); err != nil {
								errs <- err
								return
							}
							scribble(buf)
						}
					}
					time.Sleep(50 * time.Microsecond)
				}
				for cam := tcpCams; cam < tc.cams; cam++ {
					if err := src.Offer(FramePart{Cam: cam, EOS: true}); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()

			last, emitted := -1, 0
			for {
				f, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if f.Index <= last {
					t.Fatalf("assembled frame %d after %d", f.Index, last)
				}
				last = f.Index
				emitted++
				checkFrameSpec(t, f, forms)
				copied := cloneFrame(f)
				obs := f.PerCamera[0] // what mvnode hands its runtime
				for k := 0; k < 3; k++ {
					time.Sleep(20 * time.Microsecond) // the producers keep offering
					if !reflect.DeepEqual(f, copied) || !reflect.DeepEqual(obs, copied.PerCamera[0]) {
						t.Fatalf("held frame %d changed while it was held:\nnow  %+v\nwhen %+v", copied.Index, f, copied)
					}
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if emitted == 0 {
				t.Fatal("no frame was assembled")
			}
			t.Logf("%d frames assembled, counters %+v", emitted, src.Counters())
		})
	}
}
