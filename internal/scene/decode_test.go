package scene

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
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
// where the encoder writes null), valid JSON that the decoder rejects;
// and generated frames after it. The second result marks the
// non-canonical lines.
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
// checked before the next Decode, as the lend allows. Canonical lines
// decode into the decoder's own frame; the non-canonical one fails with
// UnmarshalFrame's error, at its first byte, and the next line decodes.
func TestFrameDecoderMatchesUnmarshalFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	lines, odd := decoderSequence(t, rng)
	var fd FrameDecoder
	for pass := 0; pass < 2; pass++ {
		for i, line := range lines {
			got, err := fd.Decode(line, 4)
			want, wantErr := UnmarshalFrame(line, 4)
			if odd[i] {
				if err == nil || fmt.Sprint(err) != fmt.Sprint(wantErr) || !strings.HasSuffix(err.Error(), " at byte 0") {
					t.Fatalf("pass %d line %d: non-canonical line: error %v, UnmarshalFrame's %v", pass, i, err, wantErr)
				}
				continue
			}
			if err != nil || wantErr != nil {
				t.Fatalf("pass %d line %d: %v, UnmarshalFrame's %v", pass, i, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d line %d (%.80s):\ndecoder   %+v\nunmarshal %+v", pass, i, line, got, want)
			}
			if got != &fd.frame {
				t.Fatalf("pass %d line %d: not decoded into the decoder's frame", pass, i)
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
		if err == nil || fmt.Sprint(err) != fmt.Sprint(wantErr) {
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

// TestFrameDecoderGrowsGeometrically feeds a fresh FrameDecoder frames
// whose object list and observation list grow by one element a frame,
// to 256: each list moves to new storage only when it outgrows the old,
// at twice the old capacity, so the whole sequence allocates a
// logarithmic number of times, not once a frame.
func TestFrameDecoderGrowsGeometrically(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(43))
	lines := make([][]byte, n)
	for i := range lines {
		var err error
		if lines[i], err = AppendFrame(nil, sizedFrame(rng, i, i+1, []int{i + 1})); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		var fd FrameDecoder
		for _, line := range lines {
			if _, err := fd.Decode(line, 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	// two lists (the objects and the observation arena), each
	// reallocated at sizes 1, 2, 4, ..., 256, and the camera table
	if allocs > 2*10+4 {
		t.Fatalf("%v allocations to decode lists growing from 1 to %d, want logarithmically many", allocs, n)
	}
}

// TestFrameDecoderOneArena: a fresh decoder warms on a 16-camera frame
// in three allocations — the camera table, the object list and the one
// arena every camera's observations are cut from — and each list is
// capped at its length, so appending to one cannot overwrite the next
// camera's.
func TestFrameDecoderOneArena(t *testing.T) {
	const cams = 16
	per := make([]int, cams)
	for ci := range per {
		per[ci] = 3 + ci%4
	}
	line, err := AppendFrame(nil, sizedFrame(rand.New(rand.NewSource(5)), 0, 10, per))
	if err != nil {
		t.Fatal(err)
	}
	want, err := UnmarshalFrame(line, cams)
	if err != nil {
		t.Fatal(err)
	}
	var got *FrameTruth
	fresh := make([]FrameDecoder, 2) // AllocsPerRun's warm-up call, and the measured one
	if n := testing.AllocsPerRun(1, func() {
		fd := &fresh[0]
		fresh = fresh[1:]
		if got, err = fd.Decode(line, cams); err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Fatalf("a fresh decoder made %v allocations for a %d-camera frame, want 3", n, cams)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	for ci, obs := range got.PerCamera {
		if cap(obs) != len(obs) {
			t.Fatalf("camera %d: list of %d has capacity %d", ci, len(obs), cap(obs))
		}
	}
}

// TestPow10Table holds every row of the exact step's power table to the
// truncated 128-bit mantissa of 10^e computed with math/big, normalised
// as strconv's table is: 10^e ≈ m·2^(k-127) with 2^127 <= m < 2^128 and
// k = floor(e·log2 10), the exponent exact derives as 217706·e>>16.
func TestPow10Table(t *testing.T) {
	if got, want := len(pow10Table), 1-pow10Min; got != want {
		t.Fatalf("%d rows, want %d, 10^%d to 10^0", got, want, pow10Min)
	}
	one := big.NewInt(1)
	lo, hi := new(big.Int).Lsh(one, 127), new(big.Int).Lsh(one, 128)
	for e := pow10Min; e <= 0; e++ {
		k := 217706 * e >> 16
		if f := math.Floor(float64(e) * math.Log2(10)); float64(k) != f {
			t.Fatalf("217706·%d>>16 = %d, floor(%d·log2 10) = %v", e, k, e, f)
		}
		// m = floor(10^e·2^(127-k)) = floor(2^(127-k) / 10^-e)
		m := new(big.Int).Lsh(one, uint(127-k))
		m.Quo(m, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(-e)), nil))
		if m.Cmp(lo) < 0 || m.Cmp(hi) >= 0 {
			t.Fatalf("10^%d: the mantissa %#x is not normalised to 128 bits", e, m)
		}
		row := pow10Table[e-pow10Min]
		got := new(big.Int).Lsh(new(big.Int).SetUint64(row[1]), 64)
		got.Or(got, new(big.Int).SetUint64(row[0]))
		if got.Cmp(m) != 0 {
			t.Errorf("10^%d: row %#x, want %#x", e, got, m)
		}
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
	for i := 0; i < n/4; i++ {
		buf = edgeNumber(rng, buf[:0], i)
		if msg := scanFloatMismatch(buf, true); msg != "" {
			t.Fatal(msg)
		}
	}
	// The exponent stops growing at seven digits: with a million
	// fraction digits against it, the sum must not land in the table.
	far := "0." + strings.Repeat("0", 1_000_004) + "1"
	for _, s := range []string{far + "e10000000", far + "e1000005", far + "e-10000000"} {
		if msg := scanFloatMismatch([]byte(s), true); msg != "" {
			t.Fatal(msg[:100])
		}
	}
}

// edgeNumber appends the i-th draw of the float scan's edges to buf:
// mantissas of 16 to 20 significant digits around 2^53, 10^19 and 2^64,
// and random ones of that length; the shortest decimal spelling of the
// point halfway between two adjacent float64s, which the exact step must
// leave to ParseFloat; fractions behind leading zeros; negative zeros;
// and exponent forms that land on either side of the table's ends. Each
// is signed at random, and its point is put anywhere in the digits or
// behind leading zeros.
func edgeNumber(rng *rand.Rand, buf []byte, i int) []byte {
	if rng.Intn(2) == 0 {
		buf = append(buf, '-')
	}
	random := func(k int) string {
		b := []byte{byte('1' + rng.Intn(9))}
		for ; k > 1; k-- {
			b = append(b, byte('0'+rng.Intn(10)))
		}
		return string(b)
	}
	var mant string // significant digits, the first non-zero
	switch i % 6 {
	case 0: // around the bounds, with trailing zeros to 20 digits
		base := []*big.Int{
			new(big.Int).Lsh(big.NewInt(1), 53),
			new(big.Int).Exp(big.NewInt(10), big.NewInt(19), nil),
			new(big.Int).Lsh(big.NewInt(1), 64),
		}[rng.Intn(3)]
		mant = new(big.Int).Add(base, big.NewInt(rng.Int63n(2001)-1000)).String()
		if k := 20 - len(mant); k > 0 {
			mant += strings.Repeat("0", rng.Intn(k+1))
		}
	case 1:
		mant = random([]int{16, 17, 18, 19, 20}[rng.Intn(5)])
	case 2: // halfway between f and the next float64 up, f >= 2^50: at
		// most three binary fraction digits, so the 'f' text is exact
		f := math.Ldexp(1+rng.Float64(), 50+rng.Intn(14))
		h := new(big.Float).SetPrec(256).SetFloat64(f)
		h.Add(h, new(big.Float).SetFloat64((math.Nextafter(f, math.Inf(1))-f)/2))
		s := strings.TrimRight(h.Text('f', 3), "0")
		s = strings.TrimSuffix(s, ".")
		if rng.Intn(2) == 0 {
			s += "." + strings.Repeat("0", 1+rng.Intn(3))
		}
		return append(buf, s...)
	case 3: // behind leading zeros
		buf = append(buf, "0."...)
		buf = append(buf, strings.Repeat("0", rng.Intn(9))...)
		return append(buf, random(1+rng.Intn(20))...)
	case 4: // spelled with their own sign
		return append(buf[:0], []string{"-0", "-0.0", "-0.000000", "-0e5", "-0.0e-3", "-0E+0", "-0." + strings.Repeat("0", 24)}[rng.Intn(7)]...)
	default: // an exponent that puts the value's last digit near 10^-22 or 10^0
		mant = random(1 + rng.Intn(20))
		buf = append(buf, mant[0])
		if len(mant) > 1 {
			buf = append(buf, '.')
			buf = append(buf, mant[1:]...)
		}
		buf = append(buf, 'e')
		last := []int{-23, -22, -21, -1, 0, 1}[rng.Intn(6)]
		return strconv.AppendInt(buf, int64(last+len(mant)-1), 10)
	}
	switch point := rng.Intn(len(mant) + 2); {
	case point == 0: // behind up to eight leading zeros
		buf = append(buf, "0."...)
		buf = append(buf, strings.Repeat("0", rng.Intn(9))...)
		buf = append(buf, mant...)
	case point > len(mant):
		buf = append(buf, mant...)
	default:
		buf = append(buf, mant[:point]...)
		if point < len(mant) {
			buf = append(buf, '.')
			buf = append(buf, mant[point:]...)
		}
	}
	return buf
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
		// 16 to 20 significant digits around 2^53, 10^19 and 2^64
		"9007199254740991", "9007199254740992", "900719925474099.3", "90071992547409.9300",
		"1234567890123456.7", "12345678901234567.89", "1234567890123456789", "0.1234567890123456789",
		"9999999999999999999", "10000000000000000000", "10000000000000000001", "999999999999999999.9",
		"18446744073709551615", "18446744073709551616", "1844674407370955161.5",
		// halfway between adjacent float64s: ParseFloat rounds to even
		"9007199254740993", "9007199254740995", "9007199254740993.000", "4503599627370496.5",
		"4503599627370497.5", "2251799813685248.25", "1125899906842624.125", "9223372036854776832",
		// fractions behind leading zeros, and the table's ends
		"0.0000012345678901234567", "0.000001234", "0.00000000000000000000012345678901234567",
		"1e-22", "1e-23", "9e-22", "123456789012345678e-22", "12345678901234567890e-21", "1.5e-7",
		"-0", "-0.0", "-0e5", "-0.000e-3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if msg := scanFloatMismatch([]byte(s), jsonNumber.MatchString(s)); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestIntegerFieldsPinned pins what an integer field reads, through
// ScanInt and through a frame's index and id fields: the value of each
// accepted integer, and for each rejected one the offset where the scan
// stopped. The edges are int's range, a leading zero (read as 0, the
// next byte left for the literal after it) and a lone minus.
func TestIntegerFieldsPinned(t *testing.T) {
	if math.MaxInt != math.MaxInt64 {
		t.Skip("the cases are 64-bit int's edges")
	}
	for _, c := range []struct {
		in   string
		v    int
		ok   bool
		stop int // bytes of in consumed
	}{
		{"0", 0, true, 1},
		{"-0", 0, true, 2},
		{"7", 7, true, 1},
		{"-42", -42, true, 3},
		{"9223372036854775807", math.MaxInt64, true, 19},
		{"-9223372036854775808", math.MinInt64, true, 20},
		{"9223372036854775808", 0, false, 19},
		{"-9223372036854775809", 0, false, 20},
		{"18446744073709551616", 0, false, 20},
		{"99999999999999999999999", 0, false, 23},
		{"01", 0, true, 1},
		{"-", 0, false, 1},
		{"-a", 0, false, 1},
	} {
		v, rest, ok := ScanInt([]byte(c.in))
		if ok != c.ok || ok && v != c.v || len(c.in)-len(rest) != c.stop {
			t.Errorf("ScanInt(%q) = %d, rest %q, %v; want %d, stop at %d, %v", c.in, v, rest, ok, c.v, c.stop, c.ok)
		}
		for _, field := range []struct {
			pre, post string
			get       func(*FrameTruth) int
		}{
			{`{"index":`, `,"per_camera":[null]}`, func(f *FrameTruth) int { return f.Index }},
			{`{"index":0,"per_camera":[[{"id":`, `,"box":[0,0,0,0]}]]}`, func(f *FrameTruth) int { return f.PerCamera[0][0].ObjectID }},
			{`{"index":0,"objects":[{"id":`, `,"x":0,"y":0,"heading":0,"speed":0,"w":0,"l":0,"h":0}],"per_camera":[null]}`, func(f *FrameTruth) int { return f.Objects[0].ID }},
		} {
			data := field.pre + c.in + field.post
			f, err := UnmarshalFrame([]byte(data), 1)
			if c.ok && c.stop == len(c.in) {
				if err != nil || field.get(f) != c.v {
					t.Errorf("UnmarshalFrame(%s): %v, want the field %d", data, err, c.v)
				}
				continue
			}
			if want := fmt.Sprintf(" at byte %d", len(field.pre)+c.stop); err == nil || !strings.HasSuffix(err.Error(), want) {
				t.Errorf("UnmarshalFrame(%s): %v, want an error ending %q", data, err, want)
			}
		}
	}
}
