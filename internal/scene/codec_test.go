package scene

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mvs/internal/geom"
)

// Exported for codec_trace_test.go, which has to live in package
// scene_test to import the workload package.
var (
	OracleMarshalFrame        = oracleMarshalFrame
	OracleUnmarshalFrame      = oracleUnmarshalFrame
	OracleMarshalObservations = oracleMarshalObservations
	OracleMarshalObjects      = oracleMarshalObjects
)

// codecFloats are the values where encoding/json's float rule changes
// its mind: the 'e' cut-offs on both sides, the e-09 clean-up, signed
// zero, subnormals, 17-digit values and the extremes.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.999999999999999e-7, 1e-7, -1e-9, 1e-10,
	1e20, 1e21, 999999999999999868928, -1e21, 1.5e300, math.MaxFloat64, -math.MaxFloat64,
	5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 0.1 + 0.2, 0.30000000000000004,
	123456789.12345678, 1279.9999999999998, 703.0000000000001, 1.7976931348623157e308,
}

var codecIDs = []int{0, -1, 1, 17, -42, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

func genFloat(rng *rand.Rand, nonFinite bool) float64 {
	switch k := rng.Intn(10); {
	case k < 4:
		return codecFloats[rng.Intn(len(codecFloats))]
	case k < 7:
		return rng.NormFloat64() * 1000
	case k < 9:
		return rng.Float64() * 1280
	case nonFinite:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	default:
		// Any bit pattern that is a number.
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
}

func genID(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return codecIDs[rng.Intn(len(codecIDs))]
	}
	return rng.Intn(5000)
}

// genFrame draws a frame of numCams cameras: nil, empty and populated
// lists in every position, values from the awkward sets above, and a NaN
// or Inf now and then when nonFinite is set.
func genFrame(rng *rand.Rand, numCams int, nonFinite bool) *FrameTruth {
	fl := func() float64 { return genFloat(rng, nonFinite && rng.Intn(20) == 0) }
	f := &FrameTruth{Index: genID(rng), PerCamera: make([][]Observation, numCams)}
	switch rng.Intn(4) {
	case 0: // missing
	case 1:
		f.Objects = []ObjectState{}
	default:
		for n := 1 + rng.Intn(4); n > 0; n-- {
			f.Objects = append(f.Objects, ObjectState{ID: genID(rng), Heading: fl(), Speed: fl(),
				Pos: geom.Point{X: fl(), Y: fl()}, Dims: Dims{W: fl(), L: fl(), H: fl()}})
		}
	}
	for ci := range f.PerCamera {
		switch rng.Intn(4) {
		case 0: // nil
		case 1:
			f.PerCamera[ci] = []Observation{}
		default:
			for n := 1 + rng.Intn(4); n > 0; n-- {
				o := Observation{ObjectID: genID(rng)}
				o.Box.MinX, o.Box.MinY, o.Box.MaxX, o.Box.MaxY = fl(), fl(), fl(), fl()
				f.PerCamera[ci] = append(f.PerCamera[ci], o)
			}
		}
	}
	return f
}

// sameBytes holds one Append* result to its oracle: equal bytes when the
// oracle encodes, an error and an untouched dst when it does not.
func sameBytes(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	const prefix = "dst:"
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: codec error %v, encoding/json error %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		if string(got) != prefix {
			t.Fatalf("%s: failed append left dst as %q", what, got)
		}
		return
	}
	if !bytes.HasPrefix(got, []byte(prefix)) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s:\ncodec         %s\nencoding/json %s", what, got, want)
	}
}

// checkEncode is half (a) of the oracle: the three encoders against
// json.Marshal of the wire structs, on one frame.
func checkEncode(t *testing.T, f *FrameTruth) {
	t.Helper()
	dst := func() []byte { return []byte("dst:") }
	got, err := AppendFrame(dst(), f)
	want, wantErr := oracleMarshalFrame(f)
	sameBytes(t, "frame", got, err, want, wantErr)
	got, err = AppendObjects(dst(), f.Objects)
	want, wantErr = oracleMarshalObjects(f.Objects)
	sameBytes(t, "objects", got, err, want, wantErr)
	for _, obs := range f.PerCamera {
		got, err = AppendObservations(dst(), obs)
		want, wantErr = oracleMarshalObservations(obs)
		sameBytes(t, "observations", got, err, want, wantErr)
	}
}

// sameValue is DeepEqual — so nil and empty lists stay apart — plus the
// sign of zero, which == does not see and the wire does.
func sameValue(got, want any, encode func(any) []byte) bool {
	return reflect.DeepEqual(got, want) && bytes.Equal(encode(got), encode(want))
}

// checkDecode is half (b): the three decoders against the ones they
// replaced, on any bytes — the same value, or an error from both.
func checkDecode(t *testing.T, data []byte, numCams int) {
	t.Helper()
	frame, err := UnmarshalFrame(data, numCams)
	wantFrame, wantErr := oracleUnmarshalFrame(data, numCams)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("UnmarshalFrame(%q, %d): error %v, oracle error %v", data, numCams, err, wantErr)
	}
	if err == nil && !sameValue(frame, wantFrame, func(v any) []byte {
		b, _ := oracleMarshalFrame(v.(*FrameTruth))
		return b
	}) {
		t.Fatalf("UnmarshalFrame(%q, %d):\ngot  %+v\nwant %+v", data, numCams, frame, wantFrame)
	}
	obs, err := UnmarshalObservations(data)
	wantObs, wantErr := oracleUnmarshalObservations(data)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("UnmarshalObservations(%q): error %v, oracle error %v", data, err, wantErr)
	}
	if err == nil && !sameValue(obs, wantObs, func(v any) []byte {
		b, _ := oracleMarshalObservations(v.([]Observation))
		return b
	}) {
		t.Fatalf("UnmarshalObservations(%q):\ngot  %#v\nwant %#v", data, obs, wantObs)
	}
	objs, err := UnmarshalObjects(data)
	wantObjs, wantErr := oracleUnmarshalObjects(data)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("UnmarshalObjects(%q): error %v, oracle error %v", data, err, wantErr)
	}
	if err == nil && !sameValue(objs, wantObjs, func(v any) []byte {
		b, _ := oracleMarshalObjects(v.([]ObjectState))
		return b
	}) {
		t.Fatalf("UnmarshalObjects(%q):\ngot  %#v\nwant %#v", data, objs, wantObjs)
	}
}

// checkDecoder holds a FrameDecoder, which may have decoded other frames
// before, to UnmarshalFrame on data: the same value, or an error from
// both.
func checkDecoder(t *testing.T, fd *FrameDecoder, data []byte, numCams int) {
	t.Helper()
	got, err := fd.Decode(data, numCams)
	want, wantErr := UnmarshalFrame(data, numCams)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("FrameDecoder.Decode(%q, %d): error %v, UnmarshalFrame error %v", data, numCams, err, wantErr)
	}
	if err == nil && !sameValue(got, want, func(v any) []byte {
		b, _ := oracleMarshalFrame(v.(*FrameTruth))
		return b
	}) {
		t.Fatalf("FrameDecoder.Decode(%q, %d):\ngot  %+v\nwant %+v", data, numCams, got, want)
	}
}

// codecSeeds are the decoder's hand-picked inputs: every number spelling
// strconv takes and JSON does not, in a box and in an id; keys repeated,
// upper-cased, reordered and unknown; [] against null in each position;
// whitespace, escapes and trailing bytes.
func codecSeeds() []string {
	var seeds []string
	numbers := []string{"01", "1.", "+1", ".5", "0x1p-2", "1_0", "Inf", "-Inf", "NaN", "1.0", "1e2", "1E+2",
		"-0", "-", "1e", "1e+", "1e400", "1e-400", "-0.0e-0", "9223372036854775808", "-9223372036854775809",
		"0.30000000000000004", "1e-7", "1e21", "5e-324", "true", "null", `"1"`, ""}
	for _, n := range numbers {
		seeds = append(seeds,
			fmt.Sprintf(`[{"id":%s,"box":[1,2,3,4]}]`, n),
			fmt.Sprintf(`[{"id":7,"box":[%s,2,3,4]}]`, n),
			fmt.Sprintf(`[{"id":7,"box":[1,2,3,%s]}]`, n),
			fmt.Sprintf(`[{"id":%s,"x":1,"y":2,"heading":3,"speed":4,"w":5,"l":6,"h":7}]`, n),
			fmt.Sprintf(`[{"id":7,"x":1,"y":2,"heading":3,"speed":4,"w":5,"l":6,"h":%s}]`, n),
			fmt.Sprintf(`{"index":%s,"per_camera":[null,[{"id":1,"box":[1,2,3,4]}]]}`, n),
			fmt.Sprintf(`{"index":3,"per_camera":[[{"id":1,"box":[1,%s,3,4]}],null]}`, n),
		)
	}
	const obs = `{"id":1,"box":[1,2,3,4]}`
	const obj = `{"id":1,"x":1,"y":2,"heading":3,"speed":4,"w":5,"l":6,"h":7}`
	seeds = append(seeds,
		`[]`, `null`, `[null]`, `[[]]`, `[{}]`, `{}`, `[`, `]`, `[]]`, `[] `, ` []`, "[]\n", `[]x`,
		`[`+obs+`]`, `[`+obs+`,`+obs+`]`, `[`+obs+`,]`, `[`+obs+obs+`]`, `[`+obs+`]]`, `[`+obs+`] `, `[ `+obs+`]`,
		`[`+obj+`]`, `[`+obj+`,`+obj+`]`, `[`+obj+`]x`,
		`[{"id":1,"id":2,"box":[1,2,3,4]}]`, `[{"ID":1,"box":[1,2,3,4]}]`, `[{"id":1,"Box":[1,2,3,4]}]`,
		`[{"box":[1,2,3,4],"id":1}]`, `[{"id":1,"box":[1,2,3,4],"extra":{"a":[{}]}}]`, `[{"id":1}]`,
		`[{"id":1,"box":[1,2,3]}]`, `[{"id":1,"box":[1,2,3,4,5]}]`, `[{"id":1,"box":null}]`, `[{"id":1,"box":[]}]`,
		`[{"\u0069d":1,"box":[1,2,3,4]}]`, `[{"id":1,"box":[1,2,3,4]},null]`, `[{"id":1,"box":[1,2,3,4}]`,
		`[{"id":1,"x":1,"X":9,"y":2,"heading":3,"speed":4,"w":5,"l":6,"h":7}]`,
		`[{"id":1,"y":2,"x":1,"heading":3,"speed":4,"w":5,"l":6,"h":7}]`, `[{"id":1,"x":1}]`,
		`{"index":0,"per_camera":[]}`, `{"index":0,"per_camera":null}`, `{"index":0}`,
		`{"index":0,"per_camera":[null,null]}`, `{"index":0,"per_camera":[[],null]}`, `{"index":0,"per_camera":[null]}`,
		`{"index":0,"per_camera":[null,null,null]}`, `{"index":0,"per_camera":[null,null]}x`, `{"index":0,"per_camera":[null,null]} `,
		`{"index":0,"objects":[],"per_camera":[null,null]}`, `{"index":0,"objects":null,"per_camera":[null,null]}`,
		`{"index":0,"objects":[`+obj+`],"per_camera":[null,[`+obs+`]]}`,
		`{"index":0,"per_camera":[null,[`+obs+`]],"objects":[`+obj+`]}`,
		`{"index":0,"index":5,"per_camera":[null,[`+obs+`]]}`, `{"Index":4,"PER_CAMERA":[null,[`+obs+`]]}`,
		`{"index":0,"per_camera":[null,[`+obs+`]],"per_camera":[[`+obs+`],null]}`,
		`{"index":0,"objects":[`+obj+`],"per_camera":[[`+obs+`,`+obs+`],[`+obs+`]]}`,
		`{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{}]`, `[{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{}]`, strings.Repeat("[", 100),
	)
	return seeds
}

// FuzzFrameCodec is the codec's oracle (ISSUE 17): (a) on frames
// generated from seed, Append* is json.Marshal of the wire structs byte
// for byte, NaN and Inf failing on both sides; (b) on arbitrary bytes,
// and on what (a) just encoded, Unmarshal* returns what the
// encoding/json-only decoders return, or both fail; (c) one FrameDecoder
// decoding the generated frame, the arbitrary bytes and the generated
// frame again returns what UnmarshalFrame returns each time.
func FuzzFrameCodec(f *testing.F) {
	for i, s := range codecSeeds() {
		f.Add([]byte(s), int64(i), uint8(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64, numCams uint8) {
		cams := int(numCams % 20)
		rng := rand.New(rand.NewSource(seed))
		frame := genFrame(rng, cams, true)
		checkEncode(t, frame)
		if enc, err := AppendFrame(nil, frame); err == nil {
			checkDecode(t, enc, cams)
			checkDecode(t, enc, cams+1)
		}
		if enc, err := AppendObjects(nil, frame.Objects); err == nil {
			checkDecode(t, enc, cams)
		}
		for _, obs := range frame.PerCamera {
			if enc, err := AppendObservations(nil, obs); err == nil {
				checkDecode(t, enc, cams)
			}
		}
		checkDecode(t, data, cams)
		var fd FrameDecoder
		if enc, err := AppendFrame(nil, frame); err == nil {
			checkDecoder(t, &fd, enc, cams)
			checkDecoder(t, &fd, data, cams)
			checkDecoder(t, &fd, enc, cams)
		} else {
			checkDecoder(t, &fd, data, cams)
		}
	})
}

// TestFrameCodecGenerated runs the oracle over many generated frames, so
// plain go test covers more than the seed corpus.
func TestFrameCodecGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		cams := rng.Intn(6)
		frame := genFrame(rng, cams, i%3 == 0)
		checkEncode(t, frame)
		if enc, err := AppendFrame(nil, frame); err == nil {
			checkDecode(t, enc, cams)
		}
	}
	for _, v := range codecFloats {
		for _, x := range []float64{v, -v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			obs := []Observation{{ObjectID: 1}}
			obs[0].Box.MinX, obs[0].Box.MaxY = x, x
			got, err := AppendObservations([]byte("dst:"), obs)
			want, wantErr := oracleMarshalObservations(obs)
			sameBytes(t, fmt.Sprint(x), got, err, want, wantErr)
			if err == nil {
				checkDecode(t, want, 1)
			}
		}
	}
}

// TestSaveMatchesEncoder holds what a run store saves of a trace — the
// roster through MarshalCameras and each frame through MarshalFrame — to
// json.Marshal of the wire structs, on a real trace and on the nil-slice
// corners, and checks a NaN box is refused rather than written.
func TestSaveMatchesEncoder(t *testing.T) {
	trace, err := testWorld(4).Run(40)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Trace{
		"trace":      trace,
		"no frames":  {FPS: trace.FPS, Cameras: trace.Cameras},
		"no cameras": {FPS: 29.97, Frames: []FrameTruth{{Index: 3, PerCamera: [][]Observation{}}, {Index: 4}}},
		"empty":      {},
	} {
		roster, err := MarshalCameras(tr.Cameras)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wire := make([]cameraJSON, 0, len(tr.Cameras))
		for _, c := range tr.Cameras {
			wire = append(wire, toCameraJSON(c))
		}
		want, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(roster, want) {
			t.Fatalf("%s: MarshalCameras wrote\n%.300s\njson.Marshal wrote\n%.300s", name, roster, want)
		}
		for fi := range tr.Frames {
			got, err := MarshalFrame(&tr.Frames[fi])
			want, wantErr := oracleMarshalFrame(&tr.Frames[fi])
			if err != nil || wantErr != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s frame %d: MarshalFrame wrote %.300s (%v), json.Marshal wrote %.300s (%v)", name, fi, got, err, want, wantErr)
			}
		}
	}
	bad := FrameTruth{PerCamera: [][]Observation{{{ObjectID: 1, Box: geom.Rect{MaxX: math.NaN()}}}}}
	if _, err := MarshalFrame(&bad); err == nil {
		t.Fatal("MarshalFrame accepted a NaN box")
	}
}

// TestFrameCodecAllocations pins what the codec is for: a frame encodes
// into a buffer with room without allocating, and decodes into the frame,
// its camera table and one exact-size list per non-empty list.
func TestFrameCodecAllocations(t *testing.T) {
	trace, err := testWorld(4).Run(60)
	if err != nil {
		t.Fatal(err)
	}
	f := &trace.Frames[len(trace.Frames)-1]
	lists := 0
	if len(f.Objects) > 0 {
		lists++
	}
	for _, obs := range f.PerCamera {
		if len(obs) > 0 {
			lists++
		}
	}
	if lists < 2 {
		t.Fatalf("frame has %d non-empty lists; pick a busier one", lists)
	}
	buf, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendFrame(buf[:0], f) }); n != 0 {
		t.Fatalf("AppendFrame into a buffer with room: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = UnmarshalFrame(buf, len(f.PerCamera)) }); n != float64(2+lists) {
		t.Fatalf("UnmarshalFrame: %v allocations, want %d (frame, camera table, %d lists)", n, 2+lists, lists)
	}
}
