package pipeline

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mvs/internal/geom"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

// The frame-part codec as it stood before the hand-written one, kept
// verbatim but for the names and for decoding the two lists here, through
// encoding/json alone, instead of through package scene: what
// FuzzDecodeFramePart and TestEncodeFramePartBytes hold the new codec to.

type wirePart struct {
	Cam     int             `json:"cam"`
	Frame   int             `json:"frame"`
	Obs     json.RawMessage `json:"obs,omitempty"`
	Objects json.RawMessage `json:"objects,omitempty"`
	EOS     bool            `json:"eos,omitempty"`
}

type oracleObs struct {
	ID  int        `json:"id"`
	Box [4]float64 `json:"box"`
}

type oracleObject struct {
	ID      int     `json:"id"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Heading float64 `json:"heading"`
	Speed   float64 `json:"speed"`
	W       float64 `json:"w"`
	L       float64 `json:"l"`
	H       float64 `json:"h"`
}

func oracleEncodeFramePart(w io.Writer, p FramePart) error {
	wp := wirePart{Cam: p.Cam, Frame: p.Frame, EOS: p.EOS}
	var err error
	if !p.EOS {
		out := make([]oracleObs, 0, len(p.Obs))
		for _, o := range p.Obs {
			out = append(out, oracleObs{ID: o.ObjectID, Box: [4]float64{o.Box.MinX, o.Box.MinY, o.Box.MaxX, o.Box.MaxY}})
		}
		if wp.Obs, err = json.Marshal(out); err != nil {
			return err
		}
	}
	if len(p.Objects) > 0 {
		out := make([]oracleObject, 0, len(p.Objects))
		for _, o := range p.Objects {
			out = append(out, oracleObject{ID: o.ID, X: o.Pos.X, Y: o.Pos.Y, Heading: o.Heading,
				Speed: o.Speed, W: o.Dims.W, L: o.Dims.L, H: o.Dims.H})
		}
		if wp.Objects, err = json.Marshal(out); err != nil {
			return err
		}
	}
	body, err := json.Marshal(wp)
	if err != nil {
		return fmt.Errorf("pipeline: encode frame part: %w", err)
	}
	if len(body) > maxWirePart {
		return fmt.Errorf("pipeline: frame part message is %d bytes (max %d)", len(body), maxWirePart)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func oracleDecodeFramePart(r io.Reader) (FramePart, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return FramePart{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxWirePart {
		return FramePart{}, fmt.Errorf("pipeline: frame part length %d out of range (0,%d]", n, maxWirePart)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return FramePart{}, err
	}
	var wp wirePart
	if err := json.Unmarshal(body, &wp); err != nil {
		return FramePart{}, fmt.Errorf("pipeline: decode frame part: %w", err)
	}
	p := FramePart{Cam: wp.Cam, Frame: wp.Frame, EOS: wp.EOS}
	if wp.Obs != nil {
		var in []oracleObs
		if err := json.Unmarshal(wp.Obs, &in); err != nil {
			return FramePart{}, fmt.Errorf("scene: decode observations: %w", err)
		}
		p.Obs = make([]scene.Observation, 0, len(in))
		for _, o := range in {
			p.Obs = append(p.Obs, scene.Observation{ObjectID: o.ID,
				Box: geom.Rect{MinX: o.Box[0], MinY: o.Box[1], MaxX: o.Box[2], MaxY: o.Box[3]}})
		}
	}
	if wp.Objects != nil {
		var in []oracleObject
		if err := json.Unmarshal(wp.Objects, &in); err != nil {
			return FramePart{}, fmt.Errorf("scene: decode objects: %w", err)
		}
		p.Objects = make([]scene.ObjectState, 0, len(in))
		for _, o := range in {
			p.Objects = append(p.Objects, scene.ObjectState{ID: o.ID, Pos: geom.Point{X: o.X, Y: o.Y},
				Heading: o.Heading, Speed: o.Speed, Dims: scene.Dims{W: o.W, L: o.L, H: o.H}})
		}
	}
	return p, nil
}

// framed prefixes body with its length, as the wire does.
func framed(body string) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(out, body...)
}

// genPart draws a frame part of camera 0 or 1: nil, empty and populated
// lists, objects or none, an end of stream now and then.
func genPart(rng *rand.Rand) FramePart {
	fl := func() float64 {
		if rng.Intn(3) == 0 {
			return []float64{0, math.Copysign(0, -1), 1e-7, 0.1, 1e21, 5e-324, 1279.999}[rng.Intn(7)]
		}
		return rng.NormFloat64() * 1000
	}
	p := FramePart{Cam: rng.Intn(2), Frame: rng.Intn(100) - 5, EOS: rng.Intn(8) == 0}
	switch n := rng.Intn(6); n {
	case 0:
	case 1:
		p.Obs = []scene.Observation{}
	default:
		for ; n > 1; n-- {
			p.Obs = append(p.Obs, scene.Observation{ObjectID: rng.Intn(50), Box: geom.Rect{MinX: fl(), MinY: fl(), MaxX: fl(), MaxY: fl()}})
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		p.Objects = append(p.Objects, scene.ObjectState{ID: rng.Intn(50), Pos: geom.Point{X: fl(), Y: fl()},
			Heading: fl(), Speed: fl(), Dims: scene.Dims{W: fl(), L: fl(), H: fl()}})
	}
	return p
}

// atByte is how a decode error names the offset where the scan stopped.
var atByte = regexp.MustCompile(` at byte ([0-9]+)$`)

// samePart holds a decoded part to the one it must equal: the same
// value, nil against empty included, and the same wire bytes, which also
// tell the sign of a zero apart.
func samePart(t *testing.T, msg int, got, want FramePart) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("message %d: decoded %+v, want %+v", msg, got, want)
	}
	var a, b bytes.Buffer
	if err := oracleEncodeFramePart(&a, got); err != nil {
		t.Fatal(err)
	}
	if err := oracleEncodeFramePart(&b, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("message %d: decoded %q, want %q", msg, a.Bytes(), b.Bytes())
	}
}

// checkReusedDecoder reads stream through d, which may have read other
// streams before, and holds each message to what DecodeFramePart reads
// from the same bytes: the same part or the same error, and the same
// bytes left.
func checkReusedDecoder(t *testing.T, d *partDecoder, stream []byte) {
	t.Helper()
	rd, fresh := bytes.NewReader(stream), bytes.NewReader(stream)
	d.r = rd
	for msg := 0; ; msg++ {
		got, err := d.next()
		want, wantErr := DecodeFramePart(fresh)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("message %d: reused decoder error %v, DecodeFramePart's %v", msg, err, wantErr)
		}
		if err != nil {
			return
		}
		samePart(t, msg, got, want)
		if rd.Len() != fresh.Len() {
			t.Fatalf("message %d: %d bytes left unread, DecodeFramePart leaves %d", msg, rd.Len(), fresh.Len())
		}
	}
}

// nonCanonicalParts are message bodies that the encoding/json oracle
// decodes but EncodeFramePart never writes, each with the offset where
// the decoder's scan stops and rejects it.
var nonCanonicalParts = []struct {
	name, body string
	at         int
}{
	{"null obs", `{"cam":0,"frame":1,"obs":null}`, len(`{"cam":0,"frame":1,"obs":`)},
	{"false eos", `{"cam":0,"frame":1,"eos":false}`, len(`{"cam":0,"frame":1`)},
	{"whitespace", ` { "cam" : 0, "frame" : 1, "obs" : [ ` + partObs + ` ] } `, 0},
	{"reordered", `{"frame":1,"cam":1,"obs":[` + partObs + `]}`, 0},
	{"upper-case keys", `{"CAM":1,"Frame":2,"OBS":[` + partObs + `]}`, 0},
	{"repeated key", `{"cam":0,"cam":1,"frame":1,"obs":[]}`, len(`{"cam":0`)},
	{"extra key", `{"cam":0,"frame":1,"obs":[` + partObs + `],"extra":[{"a":{}}]}`, len(`{"cam":0,"frame":1,"obs":[` + partObs + `]`)},
	{"short box", `{"cam":0,"frame":1,"obs":[{"id":1,"box":[1,2,3]}]}`, len(`{"cam":0,"frame":1,"obs":[`)},
}

// partObs is one observation in its wire form.
const partObs = `{"id":1,"box":[1,2.5,3e-7,4]}`

// TestNonCanonicalPartRejected: each of nonCanonicalParts is a message
// the oracle reads, and the decoder rejects it with an error naming the
// offset where its scan stopped.
func TestNonCanonicalPartRejected(t *testing.T) {
	for _, c := range nonCanonicalParts {
		if _, err := oracleDecodeFramePart(bytes.NewReader(framed(c.body))); err != nil {
			t.Fatalf("%s: the oracle rejects %s: %v", c.name, c.body, err)
		}
		_, err := DecodeFramePart(bytes.NewReader(framed(c.body)))
		if want := fmt.Sprintf(" at byte %d", c.at); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%s: DecodeFramePart(%s): %v, want an error ending %q", c.name, c.body, err, want)
		}
	}
}

// FuzzDecodeFramePart feeds arbitrary bytes to the one untrusted surface
// that had no fuzz target (ROADMAP 7(d)): a stream of length-prefixed
// frame parts, read the way a connection reads it — one decoder, buffers
// reused from message to message. It must never panic or hang. It is
// sound: every message it accepts, the encoding/json-only decoder
// accepts, value for value and byte position for byte position. It is
// complete: a message the old decoder accepts and it rejects is not what
// EncodeFramePart writes for the old decoder's part, and the error names
// an offset inside the body. Offering what it accepted to a source must
// not panic either, whatever the camera index. And a decoder whose
// storage a generated part has grown then reads the fuzz bytes and the
// generated part again, each message equal to the part DecodeFramePart
// reads from the same bytes, or failing as it does.
func FuzzDecodeFramePart(f *testing.F) {
	const obs = partObs
	const obj = `{"id":1,"x":1,"y":2,"heading":3,"speed":4,"w":5,"l":6,"h":7}`
	var valid bytes.Buffer
	for _, p := range []FramePart{
		{Cam: 0, Frame: 3, Obs: []scene.Observation{{ObjectID: 7, Box: geom.Rect{MinX: 1, MinY: 2, MaxX: 30.5, MaxY: 4e-9}}},
			Objects: []scene.ObjectState{{ID: 7, Pos: geom.Point{X: 1, Y: -2}, Speed: 8, Dims: scene.Dims{W: 2, L: 4, H: 1.5}}}},
		{Cam: 1, Frame: 3},
		{Cam: 0, EOS: true},
	} {
		if err := EncodeFramePart(&valid, p); err != nil {
			f.Fatal(err)
		}
	}
	seed := int64(0)
	add := func(stream []byte) { f.Add(stream, seed); seed++ }
	add(valid.Bytes())
	add(valid.Bytes()[:valid.Len()-5])                            // truncated body
	add([]byte{0, 0, 0, 0})                                       // zero length
	add([]byte{0, 0, 0})                                          // truncated header
	add([]byte{1, 0, 0, 1, '{', '}'})                             // one past maxWirePart
	add([]byte{0xff, 0xff, 0xff, 0xff})                           // far past it
	add(append([]byte{0, 0xff, 0xff, 0xff}, "0123456789"...))     // large claim, ten bytes, EOF
	add(framed(`{"cam":99,"frame":0,"obs":[]}`))                  // camera out of range
	add(framed(`{"cam":-1,"frame":0,"obs":[]}`))                  //
	add(framed(`{"cam":9223372036854775808,"frame":0,"obs":[]}`)) // does not fit an int
	add(framed(`{"cam":01,"frame":0,"obs":[]}`))                  // not a JSON number
	add(framed(`{"cam":1.0,"frame":0,"obs":[]}`))                 //
	add(framed(`{"cam":0,"frame":-0,"obs":[` + obs + `,` + obs + `]}`))
	add(framed(`{"cam":0,"frame":1,"obs":[` + obs + `],"objects":[` + obj + `]}`))
	add(framed(`{"cam":0,"frame":1,"obs":[],"objects":[]}`))
	add(framed(`{"cam":0,"frame":1,"objects":[` + obj + `],"eos":true}`))
	add(framed(`{"cam":0,"frame":1}`))
	for _, c := range nonCanonicalParts {
		add(framed(c.body))
	}
	add(framed(`{"cam":0,"frame":1,"obs":[` + obs + `]}xyz`)) // canonical prefix, garbage tail
	add(framed(`{"cam":0,"frame":1,"obs":[` + obs + `]}}`))
	add(framed(`{"cam":0,"frame":1,"obs":[` + obs + `]`))
	add(framed(`{"cam":0,"frame":1,"obs":[{"id":1,"box":[1,2,3,+4]}]}`))
	add(framed(`{"cam":0,"frame":1,"obs":[` + strings.Repeat("{", 200) + `}]}`))
	add(append(framed(`{"cam":0,"frame":1,"obs":[`+obs+`]}`), framed(`{"cam":0,"frame":2,"obs":[]}`)...))

	cams := []*scene.Camera{{Name: "a"}, {Name: "b"}}
	f.Fuzz(func(t *testing.T, stream []byte, seed int64) {
		var gen bytes.Buffer
		if err := EncodeFramePart(&gen, genPart(rand.New(rand.NewSource(seed)))); err != nil {
			t.Fatal(err)
		}
		var reused partDecoder
		checkReusedDecoder(t, &reused, gen.Bytes())
		checkReusedDecoder(t, &reused, stream)
		checkReusedDecoder(t, &reused, gen.Bytes())

		src, err := NewIngestSource(cams, IngestConfig{Queue: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		rd, oracle := bytes.NewReader(stream), bytes.NewReader(stream)
		d := partDecoder{r: rd}
		for msg := 0; ; msg++ {
			// The old decoder allocates whatever a header claims; where the
			// claim outruns the stream it can only fail, so say so for it
			// and keep the fuzzer's memory small.
			if rest := stream[len(stream)-oracle.Len():]; len(rest) >= 4 {
				if n := binary.BigEndian.Uint32(rest); n <= maxWirePart && int(n) > len(rest)-4 {
					if _, err := d.next(); err == nil {
						t.Fatalf("message %d: accepted with %d of %d body bytes", msg, len(rest)-4, n)
					}
					return
				}
			}
			start := len(stream) - oracle.Len()
			got, err := d.next()
			want, wantErr := oracleDecodeFramePart(oracle)
			if err == nil && wantErr != nil {
				t.Fatalf("message %d: accepted %+v, encoding/json decoder's error %v", msg, got, wantErr)
			}
			if err != nil {
				if len(stream) > 0 && rd.Len() == len(stream) {
					t.Fatalf("message %d: failed with %v without reading", msg, err)
				}
				if wantErr == nil {
					message := stream[start : len(stream)-oracle.Len()]
					var enc bytes.Buffer
					if EncodeFramePart(&enc, want) == nil && bytes.Equal(enc.Bytes(), message) {
						t.Fatalf("message %d: rejected %q, EncodeFramePart's own bytes for %+v: %v", msg, message, want, err)
					}
					at := -1
					if m := atByte.FindStringSubmatch(err.Error()); m != nil {
						at, _ = strconv.Atoi(m[1])
					}
					if at < 0 || at > len(message)-4 {
						t.Fatalf("message %d: error %q names no offset inside the %d-byte body", msg, err, len(message)-4)
					}
				}
				return
			}
			samePart(t, msg, got, want)
			if rd.Len() != oracle.Len() {
				t.Fatalf("message %d: %d bytes left unread, encoding/json decoder leaves %d", msg, rd.Len(), oracle.Len())
			}
			inRange := got.Cam >= 0 && got.Cam < len(cams)
			if err := src.Offer(got); (err == nil) != inRange {
				t.Fatalf("message %d: Offer of camera %d: %v", msg, got.Cam, err)
			}
		}
	})
}

// TestEncodeFramePartBytes holds EncodeFramePart to the bytes
// json.Marshal made of the same part — what the benchmark pre-encodes
// into parts.bin and what a producer built from the parent sends — and
// the decoder to the parts that went in, over every part of a corridor
// run and an EOS part per camera, in one Write each.
func TestEncodeFramePartBytes(t *testing.T) {
	s, err := workload.Corridor(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := s.World.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	var parts []FramePart
	for fi := range trace.Frames {
		parts = AppendFrameParts(parts, fi, &trace.Frames[fi])
	}
	for cam := range trace.Cameras {
		parts = append(parts, FramePart{Cam: cam, Frame: len(trace.Frames), EOS: true},
			FramePart{Cam: cam, EOS: true, Obs: trace.Frames[0].PerCamera[cam], Objects: trace.Frames[0].Objects})
	}
	var stream bytes.Buffer
	for _, p := range parts {
		var got countingWriter
		var want bytes.Buffer
		if err := EncodeFramePart(&got, p); err != nil {
			t.Fatal(err)
		}
		if err := oracleEncodeFramePart(&want, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("frame %d camera %d:\nEncodeFramePart %q\nencoding/json   %q", p.Frame, p.Cam, got.Bytes(), want.Bytes())
		}
		if got.writes != 1 {
			t.Fatalf("EncodeFramePart made %d writes, want 1", got.writes)
		}
		stream.Write(got.Bytes())
	}
	d := partDecoder{r: &stream}
	for i, want := range parts {
		got, err := d.next()
		if err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
		if want.EOS {
			want.Obs = nil // an EOS part carries no observations
		}
		if len(want.Obs) == 0 && !want.EOS {
			want.Obs = []scene.Observation{} // [] on the wire
		}
		if len(want.Objects) == 0 {
			want.Objects = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("part %d: decoded %+v, sent %+v", i, got, want)
		}
	}
	if _, err := d.next(); err != io.EOF {
		t.Fatalf("after the last part: %v, want io.EOF", err)
	}
	if _, ok := new(partDecoder).scan([]byte(`{"cam":0,"frame":1,"obs":[]}`)); !ok {
		t.Fatal("the canonical body was not scanned")
	}
	bad := FramePart{Obs: []scene.Observation{{Box: geom.Rect{MinX: math.NaN()}}}}
	if err := EncodeFramePart(io.Discard, bad); err == nil {
		t.Fatal("EncodeFramePart accepted a NaN box")
	}
}

type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestDecodeFramePartStalledBody is the regression test of the
// 16-MiB-per-header bug: the old decoder allocated the whole claimed
// length before one body byte had arrived. A header claiming 16 MiB less
// one, ten bytes and then EOF must cost a body step, and fail typed.
func TestDecodeFramePartStalledBody(t *testing.T) {
	stream := append([]byte{0x00, 0xff, 0xff, 0xff}, "0123456789"...)
	rd := bytes.NewReader(stream)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeFramePart(rd)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("error %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Fatalf("a stalled 16 MiB claim allocated %d bytes, want under %d", got, 128<<10)
	}
	// Between messages the end of the stream is still a clean io.EOF, and
	// inside the header it is not.
	if _, err := DecodeFramePart(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	if _, err := DecodeFramePart(bytes.NewReader(stream[:4])); err != io.EOF {
		t.Fatalf("header and nothing else: %v, want io.EOF as before", err)
	}
	if _, err := DecodeFramePart(bytes.NewReader(stream[:2])); err != io.ErrUnexpectedEOF {
		t.Fatalf("half a header: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestDecoderReleasesLargeBody checks the other end of the bound: a
// message larger than a body step arrives whole, and the decoder does
// not keep its buffer for the connection's lifetime.
func TestDecoderReleasesLargeBody(t *testing.T) {
	big := FramePart{Cam: 1, Frame: 9, Obs: make([]scene.Observation, 3000)}
	for i := range big.Obs {
		big.Obs[i] = scene.Observation{ObjectID: i, Box: geom.Rect{MinX: float64(i) / 3, MaxX: 1279.123456789, MaxY: 703.987654321}}
	}
	var stream bytes.Buffer
	if err := EncodeFramePart(&stream, big); err != nil {
		t.Fatal(err)
	}
	if stream.Len() <= 2*bodyStep {
		t.Fatalf("message is %d bytes; the test wants more than two body steps", stream.Len())
	}
	if err := EncodeFramePart(&stream, FramePart{Cam: 0, Frame: 10}); err != nil {
		t.Fatal(err)
	}
	d := partDecoder{r: &stream}
	got, err := d.next()
	if err != nil || !reflect.DeepEqual(got, big) {
		t.Fatalf("large part: %v, equal %v", err, reflect.DeepEqual(got, big))
	}
	if cap(d.body) > bodyStep {
		t.Fatalf("decoder kept a %d-byte body buffer", cap(d.body))
	}
	if got, err := d.next(); err != nil || got.Frame != 10 {
		t.Fatalf("part after the large one: %+v, %v", got, err)
	}
}

// TestPartQueueRing walks the admission ring through growth and wrap
// with the producer's one buffer reused and scribbled over after every
// push: each popped part must still be the list that was pushed, nil and
// empty kept apart; a lent list must keep its values while later parts
// are pushed and dropped, until the next lend; and a slot that holds no
// queued part must hold no list.
func TestPartQueueRing(t *testing.T) {
	obsOf := func(fi int) []scene.Observation {
		if fi%7 == 3 {
			return nil
		}
		obs := make([]scene.Observation, fi%5) // empty when fi%5 == 0
		for k := range obs {
			obs[k] = scene.Observation{ObjectID: fi*10 + k, Box: geom.Rect{MinX: float64(fi), MaxX: float64(k)}}
		}
		return obs
	}
	var q partQueue
	var held, lent []scene.Observation
	lentFrame := -1
	prod := make([]scene.Observation, 0, 8)
	next, want := 0, 0
	for round := 0; round < 60; round++ {
		for k := 0; k < 1+round%7; k++ {
			part := obsOf(next)
			if part != nil {
				part = append(prod[:0], part...)
			}
			q.push(next, part)
			for i := range part {
				part[i] = scene.Observation{ObjectID: -1}
			}
			next++
		}
		if lentFrame >= 0 && !reflect.DeepEqual(lent, obsOf(lentFrame)) {
			t.Fatalf("round %d: lent frame %d changed to %+v while parts were pushed", round, lentFrame, lent)
		}
		for k := 0; k < 1+round%5 && q.n > 0; k++ {
			if head := q.at(0).frame; head != want {
				t.Fatalf("head is frame %d, want %d", head, want)
			}
			if k%3 == 2 {
				q.drop()
			} else {
				lent, lentFrame = q.lend(&held), want
				if got := lent; !reflect.DeepEqual(got, obsOf(want)) || (got == nil) != (obsOf(want) == nil) {
					t.Fatalf("frame %d lent as %+v, pushed as %+v", want, got, obsOf(want))
				}
			}
			want++
		}
		for i := 0; i < len(q.ring); i++ {
			slot := q.at(i)
			if i < q.n && slot.frame != want+i {
				t.Fatalf("slot %d holds frame %d, want %d", i, slot.frame, want+i)
			}
			if i >= q.n && slot.obs.list != nil {
				t.Fatalf("free slot %d still holds a list", i)
			}
		}
	}
}

// TestIngestSteadyStateAllocations: lockstep offer and assembly — the
// live path when the engine keeps up — allocates nothing once warm,
// objects included: the lists are copied into the slots' storage, and
// the frame and its camera table are the source's.
func TestIngestSteadyStateAllocations(t *testing.T) {
	e := getEnv(t)
	src, err := NewIngestSource(e.test.Cameras, IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	fi := 0
	step := func() {
		f := &e.test.Frames[fi%len(e.test.Frames)]
		for cam, obs := range f.PerCamera {
			p := FramePart{Cam: cam, Frame: fi, Obs: obs}
			if cam == 0 {
				p.Objects = f.Objects
			}
			if err := src.Offer(p); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := src.Next(); err != nil || got.Index != fi {
			t.Fatalf("frame %d: assembled %v, %v", fi, got, err)
		}
		fi++
	}
	for range 2 * len(e.test.Frames) {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("%v allocations per offered and assembled frame, want 0", n)
	}
}

// TestPartDecoderAllocatesNothingWhenWarm reads a stream of parts — every
// camera's part of every test frame, objects on camera 0's — through one
// decoder twice: the second pass allocates nothing, and each part is the
// one DecodeFramePart reads from the same bytes.
func TestPartDecoderAllocatesNothingWhenWarm(t *testing.T) {
	e := getEnv(t)
	var stream bytes.Buffer
	var parts []FramePart
	for fi := range e.test.Frames {
		parts = AppendFrameParts(parts[:0], fi, &e.test.Frames[fi])
		for _, p := range parts {
			if err := EncodeFramePart(&stream, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	var rd bytes.Reader
	d := partDecoder{r: &rd}
	pass := func() {
		rd.Reset(stream.Bytes())
		for {
			if _, err := d.next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(3, pass); n != 0 {
		t.Fatalf("%v allocations per pass of %d bytes, want 0", n, stream.Len())
	}
	rd.Reset(stream.Bytes())
	fresh := bytes.NewReader(stream.Bytes())
	for i := 0; ; i++ {
		got, err := d.next()
		want, wantErr := DecodeFramePart(fresh)
		if err != wantErr {
			t.Fatalf("part %d: %v, DecodeFramePart %v", i, err, wantErr)
		}
		if err == io.EOF {
			break
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("part %d: warm decoder %+v, DecodeFramePart %+v", i, got, want)
		}
	}
}
