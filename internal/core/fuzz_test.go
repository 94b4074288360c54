package core

import (
	"errors"
	"slices"
	"testing"

	"mvs/internal/profile"
)

// fuzzObjects decodes an arbitrary byte stream into a slice of
// ObjectSpecs — deliberately without sanitizing, so malformed coverage
// sets (empty, duplicate cameras, out-of-range indices, negative or
// missing sizes) all occur. The decoding is deterministic, so any
// crasher reproduces from its corpus entry.
func fuzzObjects(data []byte, numCams int) []ObjectSpec {
	var objects []ObjectSpec
	id := 0
	for len(data) > 0 {
		n := int(data[0] % 5) // coverage entries for this object (0..4)
		data = data[1:]
		o := ObjectSpec{ID: id, Size: map[int]int{}}
		for j := 0; j < n && len(data) >= 2; j++ {
			// Spread camera indices around [-2, numCams+2) so both valid
			// and out-of-range values appear; do not deduplicate.
			cam := int(data[0])%(numCams+4) - 2
			size := int(int8(data[1])) * 8 // negatives and zero included
			data = data[2:]
			o.Coverage = append(o.Coverage, cam)
			if size != 0 {
				o.Size[cam] = size
			}
		}
		objects = append(objects, o)
		id++
	}
	return objects
}

func FuzzObjectSpecValidate(f *testing.F) {
	f.Add(uint8(2), []byte{1, 0, 8})             // one valid object
	f.Add(uint8(2), []byte{2, 0, 8, 0, 8})       // duplicate camera
	f.Add(uint8(2), []byte{1, 7, 8})             // out-of-range camera
	f.Add(uint8(2), []byte{1, 0, 0})             // missing size
	f.Add(uint8(2), []byte{0})                   // empty coverage
	f.Add(uint8(0), []byte{1, 0, 8})             // zero-camera roster
	f.Add(uint8(6), []byte{3, 1, 8, 2, 16, 255}) // truncated entry
	f.Fuzz(func(t *testing.T, camsRaw uint8, data []byte) {
		numCams := int(camsRaw % 9)
		for _, o := range fuzzObjects(data, numCams) {
			err := validate(o, numCams)
			if err != nil {
				continue
			}
			// Validate accepted: the invariants it promises must hold.
			if len(o.Coverage) == 0 {
				t.Fatalf("accepted empty coverage: %+v", o)
			}
			seen := map[int]bool{}
			for _, c := range o.Coverage {
				if c < 0 || c >= numCams {
					t.Fatalf("accepted out-of-range camera %d (roster %d): %+v", c, numCams, o)
				}
				if seen[c] {
					t.Fatalf("accepted duplicate camera %d: %+v", c, o)
				}
				seen[c] = true
				if o.Size[c] <= 0 {
					t.Fatalf("accepted non-positive size on camera %d: %+v", c, o)
				}
			}
		}
	})
}

func FuzzCheckFeasible(f *testing.F) {
	f.Add(uint8(3), []byte{1, 0, 8}, []byte{0, 0})
	f.Add(uint8(3), []byte{1, 0, 8}, []byte{})           // unassigned
	f.Add(uint8(3), []byte{1, 0, 8}, []byte{0, 2})       // outside coverage
	f.Add(uint8(3), []byte{2, 0, 8, 1, 8}, []byte{0, 1}) // covered
	f.Fuzz(func(t *testing.T, camsRaw uint8, objData, assignData []byte) {
		numCams := int(camsRaw%8) + 1
		objects := fuzzObjects(objData, numCams)
		// Pairs (object position, camera); -1 leaves an object unassigned,
		// and so does a short slice.
		var a []int
		for len(assignData) >= 2 {
			j := int(assignData[0] % 16)
			cam := int(assignData[1])%(numCams+2) - 1
			assignData = assignData[2:]
			for len(a) <= j {
				a = append(a, -1)
			}
			a[j] = cam
		}
		err := CheckFeasible(NewInstance(objects), a)
		if err != nil {
			return
		}
		// Feasible: every object must be assigned within its coverage.
		for i := range objects {
			if i >= len(a) || a[i] < 0 {
				t.Fatalf("feasible but object %d unassigned", objects[i].ID)
			}
			cam := a[i]
			covered := false
			for _, c := range objects[i].Coverage {
				covered = covered || c == cam
			}
			if !covered {
				t.Fatalf("feasible but object %d on camera %d outside %v",
					objects[i].ID, cam, objects[i].Coverage)
			}
		}
	})
}

func FuzzValidateInstance(f *testing.F) {
	f.Add(uint8(2), false, []byte{1, 0, 8})
	f.Add(uint8(0), false, []byte{})        // empty roster
	f.Add(uint8(2), true, []byte{1, 0, 8})  // nil profile
	f.Add(uint8(4), false, []byte{2, 9, 8}) // bad object
	f.Fuzz(func(t *testing.T, camsRaw uint8, nilProfile bool, objData []byte) {
		numCams := int(camsRaw % 7)
		cams := make([]CameraSpec, numCams)
		classes := []profile.DeviceClass{profile.JetsonNano, profile.JetsonTX2, profile.JetsonXavier}
		for i := range cams {
			cams[i] = CameraSpec{Index: i, Profile: profile.Derived(classes[i%len(classes)])}
		}
		if nilProfile && numCams > 0 {
			cams[numCams-1].Profile = nil
		}
		objects := fuzzObjects(objData, numCams)
		var w Solver
		err := w.prepare(cams, NewInstance(objects))
		if err != nil && !errors.Is(err, ErrInvalidInstance) {
			t.Fatalf("rejection %v does not wrap ErrInvalidInstance", err)
		}
		if want := specValidate(cams, objects); (err == nil) != (want == nil) {
			t.Fatalf("prepare says %v, the specification %v", err, want)
		}
	})
}

// FuzzSolveInstance feeds the solvers what a peer's bytes can become —
// any roster size and device mix, cameras out of range or listed twice,
// sizes that are zero, negative or not profiled, IDs in any order — and
// holds them to the specification: an instance it rejects must be
// rejected with ErrInvalidInstance, never a panic, and one it accepts
// must be solved exactly as specSolve solves it, by Central with and
// without batching and by CentralRedundant at redundancy 2, slack 1.3,
// all on one reused Solver.
func FuzzSolveInstance(f *testing.F) {
	// Camera byte b is camera b%(n+4)-2; size byte v is int8(v)*8.
	f.Add(uint8(2), uint8(0), false, []byte{1, 2, 8, 2, 2, 8, 3, 16})             // valid
	f.Add(uint8(3), uint8(5), true, []byte{2, 2, 16, 4, 32, 3, 2, 8, 3, 8, 4, 8}) // valid, IDs descending
	f.Add(uint8(2), uint8(1), false, []byte{2, 2, 8, 2, 8})                       // duplicate camera
	f.Add(uint8(2), uint8(2), false, []byte{1, 2, 9})                             // unprofiled size
	f.Add(uint8(2), uint8(0), false, []byte{1, 2, 0})                             // size 0
	f.Add(uint8(2), uint8(0), false, []byte{1, 2, 248})                           // negative size
	f.Add(uint8(0), uint8(0), false, []byte{1, 2, 8})                             // no cameras
	f.Fuzz(func(t *testing.T, camsRaw, mix uint8, reverse bool, objData []byte) {
		numCams := int(camsRaw % 9)
		classes := []profile.DeviceClass{profile.JetsonNano, profile.JetsonTX2, profile.JetsonXavier}
		cams := make([]CameraSpec, numCams)
		for i := range cams {
			cams[i] = CameraSpec{Index: i, Profile: profile.Derived(classes[(i+int(mix))%len(classes)])}
		}
		objects := fuzzObjects(objData, numCams)
		if reverse {
			for i := range objects {
				objects[i].ID = len(objects) - i
			}
		}
		var w Solver
		for _, run := range []struct {
			opts       CentralOptions
			redundancy int
		}{{CentralOptions{}, 1}, {CentralOptions{DisableBatching: true}, 1}, {CentralOptions{}, 2}} {
			if err := meetsSpec(&w, cams, objects, run.opts, run.redundancy, 1.3); err != nil {
				t.Fatal(err)
			}
			var err error
			if run.redundancy > 1 {
				_, err = w.CentralRedundant(cams, NewInstance(objects), run.redundancy, 1.3)
			} else {
				_, err = w.Central(cams, NewInstance(objects), run.opts)
			}
			if err != nil && !errors.Is(err, ErrInvalidInstance) {
				t.Fatalf("rejection %v does not wrap ErrInvalidInstance", err)
			}
		}
	})
}

// FuzzCentralOrder holds the packed processing order to the comparator
// it replaces: for instances whose IDs ascend, descend, repeat or are
// negative, and whose coverage sizes and largest sizes sit at and beside
// the 16 bits the key packs them in (0, 0xFFFF, 0x10000), sortObjects
// must list the objects exactly as slices.SortFunc with byFlexibility
// does, with and without the coverage and size keys.
func FuzzCentralOrder(f *testing.F) {
	// Per object: a coverage byte, a size byte and an ID byte (see below).
	f.Add(uint8(0), []byte{1, 2, 0, 1, 3, 1, 2, 2, 2})              // IDs ascend
	f.Add(uint8(1), []byte{1, 2, 0, 1, 3, 1, 2, 2, 2})              // IDs descend
	f.Add(uint8(2), []byte{1, 2, 5, 1, 2, 5, 1, 2, 5, 2, 1, 6})     // IDs repeat
	f.Add(uint8(3), []byte{1, 2, 0x81, 1, 2, 0xF0, 1, 2, 7})        // negative IDs
	f.Add(uint8(0), []byte{253, 253, 0, 254, 254, 1, 1, 255, 2})    // 0xFFFF and 0x10000
	f.Add(uint8(0), []byte{0, 0, 0, 0, 252, 1, 3, 254, 2, 3, 0, 3}) // sizes 0 and below
	f.Add(uint8(0), []byte{1, 252, 0, 1, 253, 1})                   // size -1 would pack as 0xFFFF does
	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		// edge maps the top byte values to the bits' edges.
		edge := func(b byte) int {
			switch b {
			case 252:
				return -1
			case 253:
				return 0xFFFF
			case 254:
				return 0x10000
			case 255:
				return 0
			}
			return int(b)
		}
		var in Instance
		wide := 0 // objects with a coverage set past 64 cameras
		for o := 0; len(data) >= 3 && o < 200; o, data = o+1, data[3:] {
			var id int
			switch mode % 4 {
			case 0: // ascending, with equal runs
				if o > 0 {
					id = in.ID(o-1) + int(data[2]%3)
				}
			case 1: // descending
				id = 1000 - o
			case 2: // from a few values
				id = int(data[2] % 4)
			default: // any, negatives included
				id = int(int8(data[2]))
			}
			in.Add(id)
			cover := max(1, edge(data[0]))
			if cover > 64 {
				if wide++; wide > 2 {
					cover = 64
				}
			}
			for c := 0; c < cover; c++ {
				size := 1
				if c == cover/2 {
					size = edge(data[1]) // the largest, or one below 1
				}
				in.Cover(c, size)
			}
		}
		var w Solver
		for _, keys := range [][2]bool{{true, true}, {false, false}, {true, false}, {false, true}} {
			want := make([]objKey, in.Len())
			for j := range want {
				want[j] = objKeyOf(&in, j, keys[0], keys[1])
			}
			slices.SortFunc(want, byFlexibility)
			got := w.sortObjects(&in, keys[0], keys[1])
			if len(got) != len(want) {
				t.Fatalf("keys %v: %d objects, want %d", keys, len(got), len(want))
			}
			for i := range want {
				if int(uint32(got[i])) != int(want[i].idx) {
					t.Fatalf("keys %v: position %d holds object %d, byFlexibility puts %d there", keys, i, uint32(got[i]), want[i].idx)
				}
			}
		}
	})
}
