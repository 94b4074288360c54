package scene

import (
	"bytes"
	"errors"
	"fmt"
	"math"
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
func (e *enc) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
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

func (d *dec) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// integer scans the integer part of a JSON number: an optional minus,
// then 0 or a digit string that does not start with 0.
func (d *dec) integer() bool {
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	if d.i < len(d.b) && d.b[d.i] == '0' {
		d.i++
		return true
	}
	return d.digits()
}

// int scans a JSON integer into v. A fraction or exponent is left
// unread, so the literal expected next fails there.
func (d *dec) int(v *int) bool {
	start := d.i
	if !d.integer() {
		return false
	}
	n, err := strconv.Atoi(string(d.b[start:d.i]))
	*v = n
	return err == nil
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// mantissa scans a digit string like digits and folds it into *m,
// counting in *nd the significant digits, those from the first non-zero
// one on. *m is exact while *nd is at most 19; past that it wraps and
// must not be used.
func (d *dec) mantissa(m *uint64, nd *int) bool {
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		c := d.b[d.i] - '0'
		if c > 9 {
			break
		}
		if *nd > 0 || c != 0 {
			*nd++
		}
		*m = *m*10 + uint64(c)
	}
	return d.i > start
}

// float scans a number of the strict JSON grammar into v in one pass,
// building the mantissa as it checks the grammar; strconv.ParseFloat
// would also take "+1", ".5", "1.", "0x1p-2", "1_0" and "Inf". The value
// is ParseFloat's, as encoding/json's is, so the float64 round trip is
// exact. A number of at most 19 significant digits whose mantissa is
// below 2^53, with at most 22 fraction digits and no exponent, is the
// quotient of two exactly represented float64s, and one correctly
// rounded division gives the correctly rounded value (Clinger's fast
// path, strconv's atof64exact). Every other number is handed to
// ParseFloat.
func (d *dec) float(v *float64) bool {
	start := d.i
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	var mant uint64
	nd, frac := 0, 0
	if d.i < len(d.b) && d.b[d.i] == '0' {
		d.i++
	} else if !d.mantissa(&mant, &nd) {
		return false
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		at := d.i
		if !d.mantissa(&mant, &nd) {
			return false
		}
		frac = d.i - at
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			return false
		}
	} else if nd <= 19 && mant < 1<<53 && frac < len(float64pow10) {
		f := float64(mant) / float64pow10[frac]
		if neg {
			f = -f
		}
		*v = f
		return true
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	*v = f
	return err == nil
}

// The shortest canonical list elements: no list of n elements is
// shorter than n of these, which bounds what a list allocates by the
// bytes that claim it.
const (
	minObservationJSON = len(`{"id":0,"box":[0,0,0,0]}`)
	minObjectJSON      = len(`{"id":0,"x":0,"y":0,"heading":0,"speed":0,"w":0,"l":0,"h":0}`)
)

// listLen sizes the non-empty list whose elements start at b[i]: a
// canonical element holds no nested object and no list of objects, so
// the list runs to the first "}]" and has one element per '{' before it.
func (d *dec) listLen(minElem int) (int, bool) {
	end := bytes.Index(d.b[d.i:], []byte("}]"))
	if end < 0 {
		return 0, false
	}
	body := d.b[d.i : d.i+end+1]
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

// observations scans an observation list into dst's storage, growing it
// when the list is longer. [] yields an empty, non-nil list.
func (d *dec) observations(dst []Observation) ([]Observation, bool) {
	if d.lit("[]") {
		return []Observation{}, true
	}
	if !d.lit("[") {
		return nil, false
	}
	n, ok := d.listLen(minObservationJSON)
	if !ok {
		return nil, false
	}
	out := grow(dst, n)
	for k := range out {
		o := &out[k]
		if k > 0 && !d.lit(",") ||
			!d.lit(`{"id":`) || !d.int(&o.ObjectID) ||
			!d.lit(`,"box":[`) || !d.float(&o.Box.MinX) ||
			!d.lit(",") || !d.float(&o.Box.MinY) ||
			!d.lit(",") || !d.float(&o.Box.MaxX) ||
			!d.lit(",") || !d.float(&o.Box.MaxY) ||
			!d.lit("]}") {
			return nil, false
		}
	}
	return out, d.lit("]")
}

// objects scans an object list under observations' rules.
func (d *dec) objects(dst []ObjectState) ([]ObjectState, bool) {
	if d.lit("[]") {
		return []ObjectState{}, true
	}
	if !d.lit("[") {
		return nil, false
	}
	n, ok := d.listLen(minObjectJSON)
	if !ok {
		return nil, false
	}
	out := grow(dst, n)
	for k := range out {
		o := &out[k]
		if k > 0 && !d.lit(",") ||
			!d.lit(`{"id":`) || !d.int(&o.ID) ||
			!d.lit(`,"x":`) || !d.float(&o.Pos.X) ||
			!d.lit(`,"y":`) || !d.float(&o.Pos.Y) ||
			!d.lit(`,"heading":`) || !d.float(&o.Heading) ||
			!d.lit(`,"speed":`) || !d.float(&o.Speed) ||
			!d.lit(`,"w":`) || !d.float(&o.Dims.W) ||
			!d.lit(`,"l":`) || !d.float(&o.Dims.L) ||
			!d.lit(`,"h":`) || !d.float(&o.Dims.H) ||
			!d.lit("}") {
			return nil, false
		}
	}
	return out, d.lit("]")
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
	f.PerCamera = grow(f.PerCamera, numCameras)
	for ci := range f.PerCamera {
		f.PerCamera[ci] = nil
		if ci > 0 && !d.lit(",") {
			return false
		}
		if d.lit("null") {
			continue
		}
		var dst []Observation
		if fd != nil {
			dst = fd.obs[ci]
		}
		obs, ok := d.observations(dst)
		if !ok || len(obs) == 0 {
			return false
		}
		f.PerCamera[ci] = obs
		if fd != nil {
			fd.obs[ci] = obs
		}
	}
	return d.lit("]}") && d.i == len(d.b)
}

// FrameDecoder decodes frames the way UnmarshalFrame does, into storage
// it keeps: the frame, its camera table, its object list and each
// camera's observation list are reused from one Decode to the next and
// grow geometrically, so a warm decoder allocates nothing for a frame no
// larger than the largest it has decoded. The zero value is ready to
// use. Not safe for concurrent use.
type FrameDecoder struct {
	frame FrameTruth
	objs  []ObjectState   // storage of frame.Objects, kept while a frame has none
	obs   [][]Observation // per camera: storage of frame.PerCamera[ci], kept while it is null
}

// Decode parses a frame as UnmarshalFrame does and returns a value equal
// to UnmarshalFrame's, nil and empty lists included, or UnmarshalFrame's
// error. The frame is lent: it and its lists are valid until the next
// Decode.
func (fd *FrameDecoder) Decode(data []byte, numCameras int) (*FrameTruth, error) {
	if n := numCameras - len(fd.obs); n > 0 {
		fd.obs = append(fd.obs, make([][]Observation, n)...)
	}
	d := dec{b: data}
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
