package scene

import (
	"math"
	"math/bits"
	"slices"
)

// This file is enc.float's printer for the numbers it writes in 'f'
// form, zero and 1e-6 <= |f| < 1e21: the bytes of
// strconv.AppendFloat(b, f, 'f', -1, 64), the shortest digits that read
// back as f, the closest of those to f, ties to even. An integer below
// 2^53 is its own shortest form; every other value takes Schubfach's
// three products (R. Giulietti, "The Schubfach way to render doubles",
// 2020) against shortestTable.

// shortestMinK is k of shortestTable's first row, and the table's last
// row is k = 5: the decimal exponents k = ⌊log10 2^q⌋ (⌊log10 ¾·2^q⌋ at
// a power of two) of the values 1e-6 <= c·2^q < 1e21, c in [2^52, 2^53).
const shortestMinK = -22

// shortestTable holds, for each k in [shortestMinK, 5], g = ⌊10^-k·2^-r⌋
// + 1 with r the one exponent that puts g in [2^127, 2^128), as {g1, g0},
// its high and low words: an overestimate of 10^-k by less than one unit
// of its 128th bit.
var shortestTable = [...][2]uint64{
	{0x878678326EAC9000, 0x0000000000000001}, // 1e22
	{0xD8D726B7177A8000, 0x0000000000000001}, // 1e21
	{0xAD78EBC5AC620000, 0x0000000000000001}, // 1e20
	{0x8AC7230489E80000, 0x0000000000000001}, // 1e19
	{0xDE0B6B3A76400000, 0x0000000000000001}, // 1e18
	{0xB1A2BC2EC5000000, 0x0000000000000001}, // 1e17
	{0x8E1BC9BF04000000, 0x0000000000000001}, // 1e16
	{0xE35FA931A0000000, 0x0000000000000001}, // 1e15
	{0xB5E620F480000000, 0x0000000000000001}, // 1e14
	{0x9184E72A00000000, 0x0000000000000001}, // 1e13
	{0xE8D4A51000000000, 0x0000000000000001}, // 1e12
	{0xBA43B74000000000, 0x0000000000000001}, // 1e11
	{0x9502F90000000000, 0x0000000000000001}, // 1e10
	{0xEE6B280000000000, 0x0000000000000001}, // 1e9
	{0xBEBC200000000000, 0x0000000000000001}, // 1e8
	{0x9896800000000000, 0x0000000000000001}, // 1e7
	{0xF424000000000000, 0x0000000000000001}, // 1e6
	{0xC350000000000000, 0x0000000000000001}, // 1e5
	{0x9C40000000000000, 0x0000000000000001}, // 1e4
	{0xFA00000000000000, 0x0000000000000001}, // 1e3
	{0xC800000000000000, 0x0000000000000001}, // 1e2
	{0xA000000000000000, 0x0000000000000001}, // 1e1
	{0x8000000000000000, 0x0000000000000001}, // 1e0
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCD}, // 1e-1
	{0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A4}, // 1e-2
	{0x83126E978D4FDF3B, 0x645A1CAC083126EA}, // 1e-3
	{0xD1B71758E219652B, 0xD3C36113404EA4A9}, // 1e-4
	{0xA7C5AC471B478423, 0x0FCF80DC33721D54}, // 1e-5
}

// appendFixed appends f, zero or 1e-6 <= |f| < 1e21, as
// strconv.AppendFloat(b, f, 'f', -1, 64) does; -0 keeps its sign.
func appendFixed(b []byte, f float64) []byte {
	fb := math.Float64bits(f)
	if fb>>63 != 0 {
		b = append(b, '-')
	}
	if fb<<1 == 0 {
		return append(b, '0')
	}
	c := fb&(1<<52-1) | 1<<52
	q := int(fb>>52&0x7FF) - 1075
	if -52 <= q && q <= 0 && c&(1<<-q-1) == 0 {
		return appendDecimal(b, c>>-q, 0)
	}
	d, e := shortest(c, q)
	return appendDecimal(b, d, e)
}

// shortest returns the decimal d·10^e that strconv prints for the
// normal value c·2^q in appendFixed's range: of the decimals in its
// rounding interval, one with the fewest digits, and of those the one
// closest to it, ties to the even digit. It is Giulietti's Schubfach
// (figures 4 and 6 of the paper) at four times scale: cbl, cb and cbr
// are the interval's lower end, the value and the upper end in units of
// 2^(q-2), and rop multiplies each by 10^-k into vbl, vb and vbr. The
// interval is closed when c is even, as round-to-even reads it back.
func shortest(c uint64, q int) (uint64, int) {
	out := c & 1 // an odd c reads back from neither end
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	// k is ⌊log10 2^q⌋, and ⌊log10 ¾·2^q⌋ at a power of two, whose
	// interval reaches half as far down as up.
	k := q * 1262611 >> 22
	if c == 1<<52 {
		cbl = cb - 1
		k = (q*1262611 - 524031) >> 22
	}
	// h in [1, 4] aligns 4c with g's 2^-r: ⌊log2 10^-k⌋ = -k·1741647 >> 19.
	h := q + (-k*1741647)>>19 + 1
	g := &shortestTable[k-shortestMinK]
	vb := rop(g, cb<<h)
	vbl := rop(g, cbl<<h) + out
	vbr := rop(g, cbr<<h) - out

	// s = ⌊c·2^q·10^-k⌋ has 16 or more digits here. Its interval is
	// narrower than 10^(k+1), so it holds at most one multiple of
	// 10^(k+1): take that one when it is there.
	s := vb >> 2
	sp := s / 10
	upin := vbl <= 40*sp
	wpin := 40*sp+40 <= vbr
	if upin != wpin {
		if wpin {
			sp++
		}
		return sp, k + 1
	}
	// Else s·10^k or (s+1)·10^k, whichever the interval holds, or the
	// closer of the two when it holds both, the even one at a tie.
	uin := vbl <= 4*s
	win := 4*s+4 <= vbr
	if uin != win {
		if win {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// rop is g·cp/2^128 rounded to odd: its integer part, with the low bit
// set when a fraction is left (Schubfach's round-to-odd product). g's
// overestimate adds less than 2^-69, which leaves the integer part
// alone and the fraction's top 64 bits zero exactly when the product
// of 10^-k itself has no fraction: in appendFixed's range that fraction
// is either zero or at least 2^-53.
func rop(g *[2]uint64, cp uint64) uint64 {
	g1, g0 := g[0], g[1]
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z, carry := bits.Add64(y0, x1, 0)
	vb := y1 + carry
	if z != 0 {
		vb |= 1
	}
	return vb
}

// digitPairs spells 00 to 99, two bytes each.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10Uint64 holds 10^0 to 10^19, every power of ten a uint64 holds.
var pow10Uint64 = [...]uint64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen is the number of digits of d > 0.
func decimalLen(d uint64) int {
	n := bits.Len64(d) * 1233 >> 12 // ⌊log10 2^Len⌋, d's digits or one fewer
	if d >= pow10Uint64[n] {
		n++
	}
	return n
}

// putDigits writes d's digits into dst, which is as long as d has
// digits: from the right, eight at a time while more than eight are
// left, then in pairs, each pair read from digitPairs.
func putDigits(dst []byte, d uint64) {
	i := len(dst)
	for d >= 1e8 {
		q := d / 1e8
		r := uint32(d - q*1e8)
		d = q
		i -= 8
		w := (*[8]byte)(dst[i : i+8])
		hi, lo := r/1e4, r%1e4
		a, b, c, e := 2*(hi/100), 2*(hi%100), 2*(lo/100), 2*(lo%100)
		w[0], w[1], w[2], w[3] = digitPairs[a], digitPairs[a+1], digitPairs[b], digitPairs[b+1]
		w[4], w[5], w[6], w[7] = digitPairs[c], digitPairs[c+1], digitPairs[e], digitPairs[e+1]
	}
	for d >= 100 {
		p := 2 * (d % 100)
		d /= 100
		dst[i-1], dst[i-2] = digitPairs[p+1], digitPairs[p]
		i -= 2
	}
	if d >= 10 {
		dst[i-1], dst[i-2] = digitPairs[2*d+1], digitPairs[2*d]
	} else {
		dst[i-1] = byte('0' + d)
	}
}

// appendDecimal appends d·10^e, d > 0, in 'f' form: d's digits with the
// point e places from their right end, zeros filling in where the point
// falls outside them, and no trailing zero after the point.
func appendDecimal(b []byte, d uint64, e int) []byte {
	n := decimalLen(d)
	at := len(b)
	switch p := n + e; {
	case e >= 0: // an integer: the digits and e zeros
		b = slices.Grow(b, n+e)[:at+n+e]
		putDigits(b[at:at+n], d)
		for i := at + n; i < len(b); i++ {
			b[i] = '0'
		}
		return b
	case p > 0: // the point among the digits: write them one place on, then move the first p back
		b = slices.Grow(b, n+1)[:at+n+1]
		putDigits(b[at+1:], d)
		copy(b[at:at+p], b[at+1:at+1+p])
		b[at+p] = '.'
	default: // "0.", -p zeros, the digits
		b = slices.Grow(b, 2-p+n)[:at+2-p+n]
		b[at], b[at+1] = '0', '.'
		for i := at + 2; i < at+2-p; i++ {
			b[i] = '0'
		}
		putDigits(b[at+2-p:], d)
	}
	// A digit other than 0 stays after the point: a value below 2^53
	// that is no integer is at least 2^q from one, farther than its
	// rounding interval reaches, and every value from 2^53 on has e >= 0.
	for b[len(b)-1] == '0' {
		b = b[:len(b)-1]
	}
	return b
}
