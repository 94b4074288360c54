package scene

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// EncodeFloat appends f as the frame encoder writes a float field, for
// the package's external tests.
func EncodeFloat(b []byte, f float64) []byte {
	e := enc{b: b}
	e.float(f)
	return e.b
}

// StrconvFloat is enc.float as it stood before appendFixed:
// encoding/json's rule spelled with strconv.AppendFloat alone. The
// printer is held to it byte for byte.
func StrconvFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// floatChecker holds enc.float to StrconvFloat on finite values, both
// writing behind a one-byte prefix into buffers it reuses.
type floatChecker struct{ got, want []byte }

// mismatch describes the first way enc.float's bytes for f differ from
// StrconvFloat's, or returns "". With grow set it also writes f into a
// buffer that has no room for it.
func (c *floatChecker) mismatch(f float64, grow bool) string {
	c.want = StrconvFloat(append(c.want[:0], 'x'), f)
	c.got = EncodeFloat(append(c.got[:0], 'x'), f)
	if grow && bytes.Equal(c.got, c.want) {
		c.got = EncodeFloat([]byte{'x'}, f)
	}
	if !bytes.Equal(c.got, c.want) {
		return fmt.Sprintf("%#x (%v): wrote %q, strconv %q", math.Float64bits(f), f, c.got[1:], c.want[1:])
	}
	return ""
}

// TestShortestTable holds every row of shortestTable to ⌊10^-k·2^-r⌋ + 1
// computed with math/big, r the exponent that puts it in [2^127, 2^128),
// and shortest's three shift-and-multiply logarithms to math/big's over
// every binary exponent of appendFixed's range, whose decimal exponents
// are exactly the table's rows and whose alignment shift h stays in
// [1, 4], so that cb<<h fits 64 bits.
func TestShortestTable(t *testing.T) {
	const maxK = 5
	if got, want := len(shortestTable), maxK-shortestMinK+1; got != want {
		t.Fatalf("%d rows, want %d, k = %d to %d", got, want, shortestMinK, maxK)
	}
	one := big.NewInt(1)
	lo, hi := new(big.Int).Lsh(one, 127), new(big.Int).Lsh(one, 128)
	pow10 := func(e int) *big.Float {
		p := new(big.Float).SetPrec(512).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil))
		if e < 0 {
			p.Quo(new(big.Float).SetPrec(512).SetInt64(1), p)
		}
		return p
	}
	// floorLog2 is ⌊log2 x⌋ for x > 0.
	floorLog2 := func(x *big.Float) int { return x.MantExp(nil) - 1 }
	// floorLog10 is ⌊log10 x⌋ for x > 0.
	floorLog10 := func(x *big.Float) int {
		k := int(math.Floor(float64(floorLog2(x))*math.Log10(2))) - 2
		for pow10(k+1).Cmp(x) <= 0 {
			k++
		}
		return k
	}
	for k := shortestMinK; k <= maxK; k++ {
		r := floorLog2(pow10(-k)) - 127
		// g = ⌊10^-k·2^-r⌋ + 1 = ⌊num/den⌋ + 1
		num, den := new(big.Int).Lsh(one, uint(max(-r, 0))), new(big.Int).Lsh(one, uint(max(r, 0)))
		ten := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil)
		if k < 0 {
			num.Mul(num, ten)
		} else {
			den.Mul(den, ten)
		}
		g := new(big.Int).Quo(num, den)
		g.Add(g, one)
		if g.Cmp(lo) < 0 || g.Cmp(hi) >= 0 {
			t.Fatalf("k = %d: %#x is not 128 bits wide", k, g)
		}
		row := shortestTable[k-shortestMinK]
		got := new(big.Int).Lsh(new(big.Int).SetUint64(row[0]), 64)
		got.Or(got, new(big.Int).SetUint64(row[1]))
		if got.Cmp(g) != 0 {
			t.Errorf("k = %d: row %#x, want %#x", k, got, g)
		}
		if e := (-k * 1741647) >> 19; e != r+127 {
			t.Errorf("-k·1741647>>19 = %d for k = %d, ⌊log2 10^%d⌋ = %d", e, k, -k, r+127)
		}
	}
	// The binary exponents q of appendFixed's range, c·2^q with
	// c in [2^52, 2^53): from the one 1e-6 falls in to the one below 1e21.
	_, qMin := math.Frexp(1e-6)
	_, qMax := math.Frexp(math.Nextafter(1e21, 0))
	for q := qMin - 53; q <= qMax-53; q++ {
		p2 := new(big.Float).SetPrec(512).SetMantExp(big.NewFloat(1), q)
		three4 := new(big.Float).Mul(p2, big.NewFloat(0.75))
		for _, c := range []struct {
			what string
			k    int
			want *big.Float
		}{
			{"q·1262611>>22", q * 1262611 >> 22, p2},
			{"(q·1262611-524031)>>22", (q*1262611 - 524031) >> 22, three4},
		} {
			if want := floorLog10(c.want); c.k != want {
				t.Errorf("q = %d: %s = %d, want %d", q, c.what, c.k, want)
			}
			if c.k < shortestMinK || c.k > maxK {
				t.Errorf("q = %d: %s = %d is outside the table", q, c.what, c.k)
			}
			if h := q + (-c.k*1741647)>>19 + 1; h < 1 || h > 4 {
				t.Errorf("q = %d: %s gives h = %d, outside [1, 4]", q, c.what, h)
			}
		}
	}
}

// fixedRange draws a float64 of appendFixed's range from its bits: a
// random sign and fraction under a biased exponent uniform over the
// range's, redrawn until the value is in it.
func fixedRange(rng *rand.Rand) float64 {
	_, eMin := math.Frexp(1e-6)
	_, eMax := math.Frexp(math.Nextafter(1e21, 0))
	for {
		exp := uint64(eMin + 1021 + rng.Intn(eMax-eMin+1))
		f := math.Float64frombits(rng.Uint64()&(1<<63|1<<52-1) | exp<<52)
		if abs := math.Abs(f); 1e-6 <= abs && abs < 1e21 {
			return f
		}
	}
}

// edgeFloats returns the printer's edge families: the power of two
// (whose rounding interval reaches half as far down as up) at every
// exponent of the range, with its neighbours; the integers and the
// float64s around 2^53, where the integer path ends, and around 2^54 to
// 2^60, where an interval's ends are integers that may be rounder than
// the value; the float64s within 64 ulps of 1e-6 and 1e21, both sides;
// values of few significant bits at every exponent, whose digits can tie
// between two shortest candidates or sit exactly on an interval's end;
// powers of ten and their neighbours; and zeros of both signs.
func edgeFloats() []float64 {
	var out []float64
	around := func(f float64, ulps int) {
		up, down := f, f
		out = append(out, f)
		for i := 0; i < ulps; i++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
			out = append(out, up, down)
		}
	}
	_, eMin := math.Frexp(1e-6)
	_, eMax := math.Frexp(1e21)
	for e := eMin - 2; e <= eMax+1; e++ {
		p := math.Ldexp(1, e-1)
		around(p, 2)
		// c = 2^52 + m·2^t: few significant bits at this exponent
		for t := 36; t < 52; t++ {
			for m := uint64(1); m < 1<<(52-t); m += 1 + m/3 {
				out = append(out, math.Ldexp(float64(uint64(1)<<52+m<<t), e-53))
			}
		}
	}
	for i := int64(-2000); i <= 2000; i++ {
		out = append(out, float64(1<<53+i))
	}
	around(1<<53, 2000)
	for e := 54; e <= 60; e++ {
		around(math.Ldexp(1, e), 500)
		around(math.Ldexp(1.5, e), 500)
	}
	around(1e-6, 64)
	around(1e21, 64)
	for e := -7; e <= 21; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		around(p, 4)
	}
	out = append(out, 0, math.Copysign(0, -1))
	n := len(out)
	for _, f := range out[:n] {
		out = append(out, -f)
	}
	return out
}

// TestAppendFloatMatchesStrconv holds the frame encoder's float to
// strconv's bytes, and with it appendFixed to strconv.AppendFloat(b, f,
// 'f', -1, 64): on edgeFloats, on random bit patterns of the range, on
// uniform draws of the ranges frames carry and on decimals of 15 to 17
// significant digits read back as float64s.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	var c floatChecker
	fails := 0
	check := func(f float64, grow bool) {
		if msg := c.mismatch(f, grow); msg != "" {
			t.Error(msg)
			if fails++; fails == 10 {
				t.FailNow()
			}
		}
	}
	for _, f := range edgeFloats() {
		check(f, true)
	}
	for i := 0; i < n; i++ {
		check(fixedRange(rng), false)
	}
	for i := 0; i < n/10; i++ {
		check((rng.Float64()-0.5)*[]float64{1, 100, 2000, 1e6}[i%4], false)
	}
	var buf []byte
	for i := 0; i < n/10; i++ {
		buf = append(buf[:0], byte('1'+rng.Intn(9)))
		for d := 14 + rng.Intn(3); d > 0; d-- {
			buf = append(buf, byte('0'+rng.Intn(10)))
		}
		buf = append(buf, 'e')
		buf = strconv.AppendInt(buf, int64(rng.Intn(40)-28), 10)
		f, err := strconv.ParseFloat(string(buf), 64)
		if err != nil {
			t.Fatal(err)
		}
		check(f, false)
	}
}

// FuzzAppendFloat holds the frame encoder's float to strconv's bytes on
// any float64: a finite one is written as StrconvFloat writes it, and a
// NaN or infinity marks the encoder bad and writes nothing.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 1e21, 9.999999999999999e20, 9.999999999999999e-7,
		1 << 52, 1 << 53, 1<<53 + 2, 1 << 54, 1<<54 + 4, 9007199254740993, 4503599627370496.5,
		0.1, 0.2, 0.30000000000000004, 123.456, 5e-324, math.MaxFloat64, 1e300, 1e-300,
		703.0000000000001, 549755813888.03125, 2.2250738585072014e-308, math.Inf(1), math.NaN(),
	} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			e := enc{b: []byte("x")}
			if e.float(x); !e.bad || string(e.b) != "x" {
				t.Fatalf("%v: wrote %q, bad %v", x, e.b, e.bad)
			}
			return
		}
		var c floatChecker
		if msg := c.mismatch(x, true); msg != "" {
			t.Fatal(msg)
		}
	})
}
