package scene

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mvs/internal/geom"
)

// sizedFrame draws a frame of len(perCam) cameras with objs objects and
// perCam[ci] observations on camera ci (0 writes null), all values finite.
func sizedFrame(rng *rand.Rand, index, objs int, perCam []int) *FrameTruth {
	fl := func() float64 { return genFloat(rng, false) }
	f := &FrameTruth{Index: index, PerCamera: make([][]Observation, len(perCam))}
	for ; objs > 0; objs-- {
		f.Objects = append(f.Objects, ObjectState{ID: genID(rng), Heading: fl(), Speed: fl(),
			Pos: geom.Point{X: fl(), Y: fl()}, Dims: Dims{W: fl(), L: fl(), H: fl()}})
	}
	for ci, n := range perCam {
		for ; n > 0; n-- {
			o := Observation{ObjectID: genID(rng)}
			o.Box.MinX, o.Box.MinY, o.Box.MaxX, o.Box.MaxY = fl(), fl(), fl(), fl()
			f.PerCamera[ci] = append(f.PerCamera[ci], o)
		}
	}
	return f
}

// decoderSequence is the wire form of a frame sequence that walks a
// FrameDecoder's storage through its cases: a large frame, then smaller
// ones; objects present, then absent, then back; each camera switching
// between null and a list, its list shrinking and growing past the
// largest before; a non-canonical line in the middle (whitespace, and []
// where the encoder writes null) that encoding/json decodes; and
// generated frames after it. The second result marks the non-canonical
// lines.
func decoderSequence(t *testing.T, rng *rand.Rand) ([][]byte, []bool) {
	t.Helper()
	shapes := []struct {
		objs   int
		perCam []int
	}{
		{40, []int{30, 0, 25, 12}},
		{5, []int{3, 0, 0, 1}},
		{0, []int{0, 0, 0, 0}},
		{0, []int{1, 2, 0, 0}},
		{3, []int{0, 4, 0, 4}},
		{0, []int{2, 2, 2, 2}},
		{60, []int{50, 50, 50, 50}},
		{1, []int{1, 0, 0, 0}},
	}
	var lines [][]byte
	var odd []bool
	add := func(f *FrameTruth, canonical bool) {
		b, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		if !canonical {
			b = append([]byte("{ "), b[1:]...)
			b = bytes.Replace(b, []byte("null"), []byte("[]"), 1)
		}
		lines = append(lines, b)
		odd = append(odd, !canonical)
	}
	for i, s := range shapes {
		add(sizedFrame(rng, i, s.objs, s.perCam), true)
		if i == len(shapes)/2 {
			add(sizedFrame(rng, 100+i, 2, []int{0, 3, 0, 1}), false)
		}
	}
	for i := 0; i < 300; i++ {
		perCam := make([]int, 4)
		for ci := range perCam {
			if rng.Intn(3) > 0 {
				perCam[ci] = rng.Intn(20)
			}
		}
		objs := 0
		if rng.Intn(2) == 0 {
			objs = rng.Intn(30)
		}
		add(sizedFrame(rng, 1000+i, objs, perCam), true)
	}
	return lines, odd
}

// TestFrameDecoderMatchesUnmarshalFrame feeds one decoder a sequence that
// grows, shrinks and empties every list, and holds each frame it lends to
// UnmarshalFrame's under reflect.DeepEqual, nil against empty included —
// checked before the next Decode, as the lend allows. It also checks
// that canonical lines are decoded into the decoder's own frame and the
// non-canonical one into a fresh frame, so the differential covers both
// paths.
func TestFrameDecoderMatchesUnmarshalFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	lines, odd := decoderSequence(t, rng)
	var fd FrameDecoder
	for pass := 0; pass < 2; pass++ {
		for i, line := range lines {
			got, err := fd.Decode(line, 4)
			if err != nil {
				t.Fatalf("pass %d line %d: %v", pass, i, err)
			}
			want, err := UnmarshalFrame(line, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d line %d (%.80s):\ndecoder   %+v\nunmarshal %+v", pass, i, line, got, want)
			}
			if (got == &fd.frame) == odd[i] {
				t.Fatalf("pass %d line %d: decoded into the decoder's frame %v, non-canonical %v", pass, i, got == &fd.frame, odd[i])
			}
		}
	}
	// A wrong camera count or a broken line fails as UnmarshalFrame does,
	// and the decoder still decodes the next frame.
	for _, bad := range []struct {
		line []byte
		cams int
	}{{lines[0], 3}, {lines[0], 5}, {lines[0][:len(lines[0])/2], 4}, {[]byte("not json"), 4}, {lines[0], -1}} {
		_, err := fd.Decode(bad.line, bad.cams)
		_, wantErr := UnmarshalFrame(bad.line, bad.cams)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Decode(%.40q, %d): error %v, UnmarshalFrame's %v", bad.line, bad.cams, err, wantErr)
		}
	}
	got, err := fd.Decode(lines[3], 4)
	want, _ := UnmarshalFrame(lines[3], 4)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after failures: %+v (%v), want %+v", got, err, want)
	}
}

// TestFrameDecoderAllocatesNothingWhenWarm: once a decoder has seen the
// largest frame of a sequence, decoding the sequence again allocates
// nothing, camera table and lists included.
func TestFrameDecoderAllocatesNothingWhenWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lines, odd := decoderSequence(t, rng)
	var canonical [][]byte
	for i, line := range lines {
		if !odd[i] {
			canonical = append(canonical, line)
		}
	}
	var fd FrameDecoder
	decodeAll := func() {
		for _, line := range canonical {
			if _, err := fd.Decode(line, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll()
	if n := testing.AllocsPerRun(10, decodeAll); n != 0 {
		t.Fatalf("a warm decoder made %v allocations over %d frames, want 0", n, len(canonical))
	}
}

// jsonNumber is the number grammar of RFC 8259.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// scanFloatMismatch holds the float scan on s, which is a JSON number
// when grammatical is set, to strconv.ParseFloat: the scan consumes all
// of s exactly when s is a JSON number that ParseFloat takes without
// error, and then its value has ParseFloat's bits. It describes the
// first disagreement, or returns "".
func scanFloatMismatch(s []byte, grammatical bool) string {
	d := dec{b: s}
	var got float64
	ok := d.float(&got) && d.i == len(s)
	want, err := strconv.ParseFloat(string(s), 64)
	if valid := grammatical && err == nil; ok != valid {
		return fmt.Sprintf("scan of %q: ok %v, want %v (ParseFloat error %v)", s, ok, valid, err)
	}
	if ok && math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Sprintf("scan of %q = %v (%#x), ParseFloat %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return ""
}

// TestScanFloatMatchesParseFloat runs the one-pass float scan on over a
// million numbers — frame-range uniforms, random bit patterns, subnormals,
// signed zeros, integers, exponent forms and 18 to 25-digit mantissas, in
// encoding/json's spelling and in longer ones — and requires
// strconv.ParseFloat's value, bit for bit.
func TestScanFloatMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	var buf []byte
	digits := func(k int) {
		for ; k > 0; k-- {
			buf = append(buf, byte('0'+rng.Intn(10)))
		}
	}
	// Each kind's share of the draws, out of 128. Subnormals are few
	// because both sides read them on strconv's slow decimal path.
	const (
		uniform   = 40 // frame range
		normal    = 20
		randBits  = 16
		subnormal = 1
		integer   = 12
		zero      = 3
		long      = 18 // 18 to 25-digit mantissas
	)
	for i := 0; i < n; i++ {
		buf = buf[:0]
		var f float64
		k := i % 128
		switch {
		case k < uniform:
			f = rng.Float64() * 1280
		case k < uniform+normal:
			f = rng.NormFloat64() * 1000
		case k < uniform+normal+randBits:
			f = math.Float64frombits(rng.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				f = 0
			}
		case k < uniform+normal+randBits+subnormal:
			f = math.Float64frombits(rng.Uint64() & (1<<52 - 1))
			if rng.Intn(2) == 0 {
				f = -f
			}
		case k < uniform+normal+randBits+subnormal+integer:
			f = float64(rng.Int63n(1 << uint(rng.Intn(62)+1)))
			if rng.Intn(2) == 0 {
				f = -f
			}
		case k < uniform+normal+randBits+subnormal+integer+zero:
			f = []float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
		}
		switch {
		case k < uniform+normal+randBits+subnormal+integer+zero:
			e := enc{b: buf}
			switch rng.Intn(4) {
			case 0, 1: // the wire's own spelling
				e.float(f)
				buf = e.b
			case 2:
				buf = strconv.AppendFloat(buf, f, 'e', -1, 64)
			default: // fixed-point, up to 25 fraction digits; a value of
				// 1e21 or more would spell hundreds of integer digits,
				// which only the slow path reads
				if math.Abs(f) < 1e21 {
					buf = strconv.AppendFloat(buf, f, 'f', rng.Intn(26), 64)
				} else {
					buf = strconv.AppendFloat(buf, f, 'E', rng.Intn(26), 64)
				}
			}
		case k < uniform+normal+randBits+subnormal+integer+zero+long:
			// the point anywhere in the mantissa
			if rng.Intn(2) == 0 {
				buf = append(buf, '-')
			}
			total := 18 + rng.Intn(8)
			intPart := rng.Intn(total)
			if intPart == 0 {
				buf = append(buf, '0')
			} else {
				buf = append(buf, byte('1'+rng.Intn(9)))
				digits(intPart - 1)
			}
			buf = append(buf, '.')
			digits(total - intPart)
		default: // an exponent form, every spelling JSON allows
			buf = append(buf, byte('1'+rng.Intn(9)))
			if rng.Intn(2) == 0 {
				buf = append(buf, '.')
				digits(1 + rng.Intn(20))
			}
			buf = append(buf, "eE"[rng.Intn(2)])
			buf = append(buf, []string{"", "+", "-"}[rng.Intn(3)]...)
			buf = strconv.AppendInt(buf, int64(rng.Intn(340)), 10)
		}
		if msg := scanFloatMismatch(buf, true); msg != "" {
			t.Fatal(msg)
		}
	}
}

// FuzzScanFloat holds the float scan to the JSON number grammar and to
// strconv.ParseFloat on arbitrary input: whatever the scan consumes
// whole is a grammar-valid number and has ParseFloat's bits, and every
// grammar-valid number in ParseFloat's range is consumed whole.
func FuzzScanFloat(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "-0.0", "1", "1280", "703.0000000000001", "0.30000000000000004", "123456789.12345678",
		"9007199254740993", "9007199254740992.5", "1e21", "1E+2", "5e-324", "2.2250738585072014e-308",
		"1.7976931348623157e308", "1e400", "0.0000000000000000000001", "1234567890123456789012.5",
		"01", "1.", ".5", "+1", "-", "1e", "0x1p-2", "1_0", "Inf", "NaN", "",
		strings.Repeat("9", 25), "0." + strings.Repeat("0", 30) + "1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if msg := scanFloatMismatch([]byte(s), jsonNumber.MatchString(s)); msg != "" {
			t.Fatal(msg)
		}
	})
}
