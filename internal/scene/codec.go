package scene

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// This file is the one codec of the frame wire schema
// (docs/STREAMING.md §3): the observation list, the object list and the
// frame around them. The encoders write the canonical shape — the bytes
// json.Marshal makes of the wire structs the tests keep as the oracle —
// and the scanner accepts those bytes and no other spelling: whitespace,
// reordered, unknown or repeated keys, escapes or an empty list where
// null is written are errors naming the byte offset where the scan
// stopped.

var errNonFinite = errors.New("unsupported value: NaN or Inf")

// enc appends wire JSON to b; bad records a float JSON cannot carry.
type enc struct {
	b   []byte
	bad bool
}

func (e *enc) str(s string) { e.b = append(e.b, s...) }

func (e *enc) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

// float appends f under encoding/json's rule: shortest round-trip
// digits, 'f' format unless the exponent is below -6 or at least 21,
// then 'e' with a one-digit negative exponent written as e-9, not e-09.
// The 'f' form is appendFixed's (ftoa.go), the 'e' form strconv's.
func (e *enc) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	if abs := math.Abs(f); abs == 0 || 1e-6 <= abs && abs < 1e21 {
		e.b = appendFixed(e.b, f)
		return
	}
	e.b = strconv.AppendFloat(e.b, f, 'e', -1, 64)
	if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func (e *enc) observations(obs []Observation) {
	e.str("[")
	for i := range obs {
		o := &obs[i]
		if i > 0 {
			e.str(",")
		}
		e.str(`{"id":`)
		e.int(o.ObjectID)
		e.str(`,"box":[`)
		e.float(o.Box.MinX)
		e.str(",")
		e.float(o.Box.MinY)
		e.str(",")
		e.float(o.Box.MaxX)
		e.str(",")
		e.float(o.Box.MaxY)
		e.str("]}")
	}
	e.str("]")
}

func (e *enc) objects(objs []ObjectState) {
	e.str("[")
	for i := range objs {
		o := &objs[i]
		if i > 0 {
			e.str(",")
		}
		e.str(`{"id":`)
		e.int(o.ID)
		e.str(`,"x":`)
		e.float(o.Pos.X)
		e.str(`,"y":`)
		e.float(o.Pos.Y)
		e.str(`,"heading":`)
		e.float(o.Heading)
		e.str(`,"speed":`)
		e.float(o.Speed)
		e.str(`,"w":`)
		e.float(o.Dims.W)
		e.str(`,"l":`)
		e.float(o.Dims.L)
		e.str(`,"h":`)
		e.float(o.Dims.H)
		e.str("}")
	}
	e.str("]")
}

// done returns the grown buffer, or dst as it was given and the error
// when a value could not be written.
func (e *enc) done(dst []byte) ([]byte, error) {
	if e.bad {
		return dst, errNonFinite
	}
	return e.b, nil
}

// AppendObservations appends the wire JSON of one camera's observation
// list to dst, the form ScanObservations reads. An empty list is
// []. A NaN or infinite coordinate is an error and leaves dst as it was.
func AppendObservations(dst []byte, obs []Observation) ([]byte, error) {
	e := enc{b: dst}
	e.observations(obs)
	return e.done(dst)
}

// AppendObjects appends the wire JSON of a ground-truth object list to
// dst, under AppendObservations' rules.
func AppendObjects(dst []byte, objs []ObjectState) ([]byte, error) {
	e := enc{b: dst}
	e.objects(objs)
	return e.done(dst)
}

// AppendFrame appends one frame's wire JSON to dst: the index, the
// object list when there is one, and one observation list per camera
// with null for a camera that sees nothing.
func AppendFrame(dst []byte, f *FrameTruth) ([]byte, error) {
	e := enc{b: dst}
	e.str(`{"index":`)
	e.int(f.Index)
	if len(f.Objects) > 0 {
		e.str(`,"objects":`)
		e.objects(f.Objects)
	}
	e.str(`,"per_camera":[`)
	for ci, obs := range f.PerCamera {
		if ci > 0 {
			e.str(",")
		}
		if len(obs) == 0 {
			e.str("null")
		} else {
			e.observations(obs)
		}
	}
	e.str("]}")
	return e.done(dst)
}

// dec scans canonical wire JSON from b[i:]. Every method reports whether
// the canonical shape continued; after the first false the scan is over
// and i is where it stopped.
type dec struct {
	b []byte
	i int
	// kept marks a scan into a FrameDecoder's storage, which the decoder
	// keeps for its next frame (room).
	kept bool
}

// frameError is the error of a frame scan that stopped at i.
func (d *dec) frameError(numCameras int) error {
	return fmt.Errorf("scene: decode frame: not a canonical frame of %d cameras at byte %d", numCameras, d.i)
}

func (d *dec) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// int scans a JSON integer, an optional minus and then 0 or a digit
// string that does not start with 0, into v, folding the digits as it
// goes. A value outside int's range fails with the scan past its
// digits. A fraction or exponent is left unread, so the literal
// expected next fails there.
func (d *dec) int(v *int) bool {
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	if d.i < len(d.b) && d.b[d.i] == '0' {
		d.i++
		*v = 0
		return true
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	start := d.i
	var n uint64
	over := false
	for ; d.i < len(d.b); d.i++ {
		c := uint64(d.b[d.i] - '0')
		if c > 9 {
			break
		}
		if n > (limit-c)/10 {
			over = true
		}
		n = n*10 + c
	}
	if neg {
		n = -n
	}
	*v = int(n)
	return d.i > start && !over
}

// eightDigits reports whether the eight bytes of x, read little-endian,
// are all ASCII digits: each byte's high nibble is 3, and adding 6 keeps
// it 3 (fast_float's is_made_of_eight_digits_fast).
func eightDigits(x uint64) bool {
	const hi = 0xF0F0F0F0F0F0F0F0
	return x&hi|((x+0x0606060606060606)&hi)>>4 == 0x3333333333333333
}

// eightDigitsValue is the number the eight ASCII digits of x spell, the
// first digit in the low byte: adjacent digits pair up into every other
// byte, then two multiplies weigh the four pairs and sum them into the
// high word (fast_float's parse_eight_digits_unrolled).
func eightDigitsValue(x uint64) uint64 {
	const pairs = 0x000000FF000000FF
	x -= 0x3030303030303030
	x = x*10 + x>>8
	return ((x&pairs)*(100+1000000<<32) + (x>>16&pairs)*(1+10000<<32)) >> 32
}

// mantissa scans a digit string and folds it into m, counting in nd the
// significant digits, those from the first non-zero one on, and returns
// both. Leading zeros are skipped, then digits fold eight at a time
// while eight follow and one at a time after that. m is exact while nd
// is at most 19; past that it wraps and must not be used.
func (d *dec) mantissa(m uint64, nd int) (uint64, int, bool) {
	b, i := d.b, d.i
	if nd == 0 {
		for i < len(b) && b[i] == '0' {
			i++
		}
	}
	for i+8 <= len(b) {
		x := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(x) {
			break
		}
		m = m*100_000_000 + eightDigitsValue(x)
		nd += 8
		i += 8
	}
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		m = m*10 + uint64(c)
		nd++
	}
	ok := i > d.i
	d.i = i
	return m, nd, ok
}

// float scans a number of the strict JSON grammar into v in one pass,
// building the mantissa as it checks the grammar; strconv.ParseFloat
// would also take "+1", ".5", "1.", "0x1p-2", "1_0" and "Inf". The value
// is ParseFloat's, as encoding/json's is, so the float64 round trip is
// exact. A number of at most 19 significant digits is its folded
// mantissa times 10^e, e its exponent less its fraction digits, and
// exact finishes it when e is in [-22, 0], the range every canonical
// fixed-point number falls in. Only what exact declines, a number of
// more digits and one of another e are handed to ParseFloat.
func (d *dec) float(v *float64) bool {
	start := d.i
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	var mant uint64
	var nd, exp10 int
	var ok bool
	if d.i < len(d.b) && d.b[d.i] == '0' {
		d.i++
	} else if mant, nd, ok = d.mantissa(0, 0); !ok {
		return false
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		at := d.i
		if mant, nd, ok = d.mantissa(mant, nd); !ok {
			return false
		}
		exp10 = at - d.i
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		eneg := d.i < len(d.b) && d.b[d.i] == '-'
		if eneg || d.i < len(d.b) && d.b[d.i] == '+' {
			d.i++
		}
		at := d.i
		e := 0
		for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
			if e < 1e6 {
				e = e*10 + int(d.b[d.i]-'0')
			}
		}
		if d.i == at {
			return false
		}
		if e >= 1e6 { // e stopped growing: let ±e alone leave the table
			exp10 = 0
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if nd <= 19 {
		if f, done := exact(mant, exp10, neg); done {
			*v = f
			return true
		}
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	*v = f
	return err == nil
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow10Min is the exponent of pow10Table's first row; its last is 10^0.
const pow10Min = -22

// pow10Table holds, for each e in [pow10Min, 0], the 128-bit mantissa of
// 10^e rounded down, normalised so bit 127 is set, as {low, high} words:
// the rows of strconv's detailedPowersOfTen that exact needs.
var pow10Table = [...][2]uint64{
	{0x5324C68B12DD6338, 0xF1C90080BAF72CB1}, // 1e-22
	{0xD3F6FC16EBCA5E03, 0x971DA05074DA7BEE}, // 1e-21
	{0x88F4BB1CA6BCF584, 0xBCE5086492111AEA}, // 1e-20
	{0x2B31E9E3D06C32E5, 0xEC1E4A7DB69561A5}, // 1e-19
	{0x3AFF322E62439FCF, 0x9392EE8E921D5D07}, // 1e-18
	{0x09BEFEB9FAD487C2, 0xB877AA3236A4B449}, // 1e-17
	{0x4C2EBE687989A9B3, 0xE69594BEC44DE15B}, // 1e-16
	{0x0F9D37014BF60A10, 0x901D7CF73AB0ACD9}, // 1e-15
	{0x538484C19EF38C94, 0xB424DC35095CD80F}, // 1e-14
	{0x2865A5F206B06FB9, 0xE12E13424BB40E13}, // 1e-13
	{0xF93F87B7442E45D3, 0x8CBCCC096F5088CB}, // 1e-12
	{0xF78F69A51539D748, 0xAFEBFF0BCB24AAFE}, // 1e-11
	{0xB573440E5A884D1B, 0xDBE6FECEBDEDD5BE}, // 1e-10
	{0x31680A88F8953030, 0x89705F4136B4A597}, // 1e-9
	{0xFDC20D2B36BA7C3D, 0xABCC77118461CEFC}, // 1e-8
	{0x3D32907604691B4C, 0xD6BF94D5E57A42BC}, // 1e-7
	{0xA63F9A49C2C1B10F, 0x8637BD05AF6C69B5}, // 1e-6
	{0x0FCF80DC33721D53, 0xA7C5AC471B478423}, // 1e-5
	{0xD3C36113404EA4A8, 0xD1B71758E219652B}, // 1e-4
	{0x645A1CAC083126E9, 0x83126E978D4FDF3B}, // 1e-3
	{0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A}, // 1e-2
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x0000000000000000, 0x8000000000000000}, // 1e0
}

// exact returns the float64 nearest man·10^exp10, ties to even, or false
// when it cannot tell it cheaply. A mantissa below 2^53 over a power of
// ten below 10^23 is the quotient of two exactly represented float64s,
// and one correctly rounded division gives the value (Clinger's fast
// path, strconv's atof64exact). Any other mantissa goes through the
// Eisel–Lemire step (Lemire, "Number Parsing at a Gigabyte per Second",
// 2021), as strconv's eiselLemire64 runs it: the 64-bit mantissa times
// 10^exp10's truncated 128-bit mantissa, widened to the low word when
// the high word's low bits cannot rule out a carry, declining when the
// product sits on a halfway point between two float64s or leaves the
// normal range. The section comments are strconv's, which name the
// sections of https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func exact(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < pow10Min || exp10 > 0 {
		return 0, false
	}
	if man < 1<<53 {
		f := float64(man) / float64pow10[-exp10]
		if neg {
			f = -f
		}
		return f, true
	}
	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	pow := &pow10Table[exp10-pow10Min]
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 { // subnormal, or Inf/NaN
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}

// The shortest canonical list elements: no list of n elements is
// shorter than n of these, which bounds what a list allocates by the
// bytes that claim it.
const (
	minObservationJSON = len(`{"id":0,"box":[0,0,0,0]}`)
	minObjectJSON      = len(`{"id":0,"x":0,"y":0,"heading":0,"speed":0,"w":0,"l":0,"h":0}`)
)

// listLen sizes the non-empty list whose elements start at b[start]: a
// canonical element holds no nested object and no list of objects, so
// the list runs to the first "}]" and has one element per '{' before it.
func (d *dec) listLen(start, minElem int) (int, bool) {
	end := bytes.Index(d.b[start:], []byte("}]"))
	if end < 0 {
		return 0, false
	}
	body := d.b[start : start+end+1]
	n := bytes.Count(body, []byte("{"))
	return n, n > 0 && n <= len(body)/minElem
}

// grow returns s resized to n elements, never nil: on its own storage
// when that holds n, else on a new array of at least twice its capacity,
// so a list that keeps growing is reallocated a logarithmic number of
// times. From nil it is one allocation of exactly n. The contents are
// not kept; the caller overwrites every element.
func grow[T any](s []T, n int) []T {
	if s != nil && n <= cap(s) {
		return s[:n]
	}
	return make([]T, n, max(n, 2*cap(s)))
}

// extend returns out one element longer for the next element of the
// list whose elements start at b[start]. Only when out is full is the
// list sized, by listLen, and moved to a new array of room's size, so a
// list allocates as often as sizing it first would: once when its
// storage is too short, at its exact size from nil outside a decoder,
// and never beyond what its bytes can hold.
func extend[T any](d *dec, out []T, start, minElem int) ([]T, bool) {
	if len(out) == cap(out) {
		n, ok := d.listLen(start, minElem)
		if !ok {
			return out, false
		}
		out = append(make([]T, 0, d.room(n, cap(out))), out...)
	}
	return out[:len(out)+1], true
}

// room is the capacity storage of capacity c moves to when it must hold
// n > c elements: the more of n and 2c, so storage that keeps growing
// moves a logarithmic number of times. Storage a decoder keeps gets
// twice the more of n and c: room for the frames of a stream, which vary
// around the one that grew it.
func (d *dec) room(n, c int) int {
	if d.kept {
		return 2 * max(n, c)
	}
	return max(n, 2*c)
}

// listFailed ends a failed scan of the list whose elements start at
// b[start]: where listLen rejects the list, the scan stops at its first
// element, as one that sized the list first would, else where it
// stopped.
func (d *dec) listFailed(start, minElem int) bool {
	if _, ok := d.listLen(start, minElem); !ok {
		d.i = start
	}
	return false
}

// observation scans one element of an observation list into o.
func (d *dec) observation(o *Observation) bool {
	return d.lit(`{"id":`) && d.int(&o.ObjectID) &&
		d.lit(`,"box":[`) && d.float(&o.Box.MinX) &&
		d.lit(",") && d.float(&o.Box.MinY) &&
		d.lit(",") && d.float(&o.Box.MaxX) &&
		d.lit(",") && d.float(&o.Box.MaxY) &&
		d.lit("]}")
}

// object scans one element of an object list into o.
func (d *dec) object(o *ObjectState) bool {
	return d.lit(`{"id":`) && d.int(&o.ID) &&
		d.lit(`,"x":`) && d.float(&o.Pos.X) &&
		d.lit(`,"y":`) && d.float(&o.Pos.Y) &&
		d.lit(`,"heading":`) && d.float(&o.Heading) &&
		d.lit(`,"speed":`) && d.float(&o.Speed) &&
		d.lit(`,"w":`) && d.float(&o.Dims.W) &&
		d.lit(`,"l":`) && d.float(&o.Dims.L) &&
		d.lit(`,"h":`) && d.float(&o.Dims.H) &&
		d.lit("}")
}

// observations scans an observation list into dst's storage, one
// element at a time, growing it when the list is longer. [] yields an
// empty, non-nil list.
func (d *dec) observations(dst []Observation) ([]Observation, bool) {
	if d.lit("[]") {
		return []Observation{}, true
	}
	if !d.lit("[") {
		return nil, false
	}
	start, out, ok := d.i, dst[:0], false
	for {
		if out, ok = extend(d, out, start, minObservationJSON); !ok || !d.observation(&out[len(out)-1]) {
			break
		}
		if d.lit("]") {
			return out, true
		}
		if !d.lit(",") {
			break
		}
	}
	return nil, d.listFailed(start, minObservationJSON)
}

// objects scans an object list under observations' rules.
func (d *dec) objects(dst []ObjectState) ([]ObjectState, bool) {
	if d.lit("[]") {
		return []ObjectState{}, true
	}
	if !d.lit("[") {
		return nil, false
	}
	start, out, ok := d.i, dst[:0], false
	for {
		if out, ok = extend(d, out, start, minObjectJSON); !ok || !d.object(&out[len(out)-1]) {
			break
		}
		if d.lit("]") {
			return out, true
		}
		if !d.lit(",") {
			break
		}
	}
	return nil, d.listFailed(start, minObjectJSON)
}

// frame scans a whole canonical frame of numCameras observation lists
// into f. With a decoder, f's camera table and lists grow from the
// decoder's storage and are kept there for its next frame; with nil,
// each is allocated at its exact size.
func (d *dec) frame(f *FrameTruth, fd *FrameDecoder, numCameras int) bool {
	if numCameras < 0 || !d.lit(`{"index":`) || !d.int(&f.Index) {
		return false
	}
	f.Objects = nil
	if d.lit(`,"objects":`) {
		// The encoder omits an empty object list and writes null for an
		// empty camera, so [] in either place is not canonical.
		var dst []ObjectState
		if fd != nil {
			dst = fd.objs
		}
		var ok bool
		if f.Objects, ok = d.objects(dst); !ok || len(f.Objects) == 0 {
			return false
		}
		if fd != nil {
			fd.objs = f.Objects
		}
	}
	if !d.lit(`,"per_camera":[`) {
		return false
	}
	var arena []Observation // the free tail of fd's arena
	if fd != nil {
		arena = d.arena(fd)
	}
	f.PerCamera = grow(f.PerCamera, numCameras)
	for ci := range f.PerCamera {
		f.PerCamera[ci] = nil
		if ci > 0 && !d.lit(",") {
			return false
		}
		if d.lit("null") {
			continue
		}
		obs, ok := d.observations(arena)
		if !ok || len(obs) == 0 {
			return false
		}
		if len(obs) <= len(arena) {
			// Cut from the arena: capped, so the list cannot reach the
			// next camera's.
			obs, arena = obs[:len(obs):len(obs)], arena[len(obs):]
		}
		f.PerCamera[ci] = obs
	}
	return d.lit("]}") && d.i == len(d.b)
}

// arena returns fd's observation arena at full length, grown to hold the
// observations of the camera table that starts at b[i]: one per '{' a
// canonical table can hold. Only a table that outgrows the arena
// allocates, room's size.
func (d *dec) arena(fd *FrameDecoder) []Observation {
	rest := d.b[d.i:]
	if n := min(bytes.Count(rest, []byte("{")), len(rest)/minObservationJSON); n > cap(fd.obs) {
		fd.obs = make([]Observation, d.room(n, cap(fd.obs)))
	}
	return fd.obs[:cap(fd.obs)]
}

// FrameDecoder decodes frames the way UnmarshalFrame does, into storage
// it keeps: the frame, its camera table, its object list and one arena
// every camera's observation list is cut from are reused from one Decode
// to the next and grow to twice what a frame needs (room), so a warm
// decoder allocates nothing for a frame no larger than the largest it
// has decoded, and warming it takes a few allocations whatever the
// number of cameras. The zero value is ready to use. Not safe for
// concurrent use.
type FrameDecoder struct {
	frame FrameTruth
	objs  []ObjectState // storage of frame.Objects, kept while a frame has none
	obs   []Observation // the arena frame.PerCamera's lists are cut from, in camera order
}

// Decode parses a frame as UnmarshalFrame does and returns a value equal
// to UnmarshalFrame's, nil and empty lists included, or UnmarshalFrame's
// error. The frame is lent: it and its lists are valid until the next
// Decode.
func (fd *FrameDecoder) Decode(data []byte, numCameras int) (*FrameTruth, error) {
	d := dec{b: data, kept: true}
	if !d.frame(&fd.frame, fd, numCameras) {
		return nil, d.frameError(numCameras)
	}
	return &fd.frame, nil
}

// ScanObservations reads a canonical observation list from the front of
// data into dst's storage, growing it when the list is longer, and
// returns it with the bytes that follow: with a nil dst the list is
// allocated at its exact size. ok is false when data does not start with
// one, and rest then starts where the scan stopped. It is exported for a
// message that embeds the list (pipeline's frame part).
func ScanObservations(dst []Observation, data []byte) (obs []Observation, rest []byte, ok bool) {
	d := dec{b: data}
	obs, ok = d.observations(dst)
	return obs, data[d.i:], ok
}

// ScanObjects is ScanObservations for an object list.
func ScanObjects(dst []ObjectState, data []byte) (objs []ObjectState, rest []byte, ok bool) {
	d := dec{b: data}
	objs, ok = d.objects(dst)
	return objs, data[d.i:], ok
}

// ScanInt is ScanObservations for an integer field of the message around
// a list.
func ScanInt(data []byte) (v int, rest []byte, ok bool) {
	d := dec{b: data}
	ok = d.int(&v)
	return v, data[d.i:], ok
}
