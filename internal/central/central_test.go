package central

import (
	"reflect"
	"testing"

	"mvs/internal/geom"
)

// TestViewsSurviveAnUndersizedArena pins the one non-obvious property of
// Views.Add: the per-camera lists are cut from shared arrays, and a
// track count announced too low (a host's estimate, not a contract) may
// reallocate those arrays mid-camera without corrupting any list.
func TestViewsSurviveAnUndersizedArena(t *testing.T) {
	box := func(i int) geom.Rect { return geom.Rect{MinX: float64(i), MaxX: float64(i) + 1, MaxY: 1} }
	v := NewViews(4, 1)
	want := map[int][]int{0: {10, 11, 12}, 2: {20}, 3: {30, 31}}
	for _, cam := range []int{0, 2, 3} {
		for _, id := range want[cam] {
			v.Add(cam, box(id), Track{ID: id, Size: 64})
		}
	}
	for cam := range v.Boxes {
		var ids []int
		for i, tr := range v.Tracks[cam] {
			ids = append(ids, tr.ID)
			if v.Boxes[cam][i] != box(tr.ID) {
				t.Fatalf("camera %d entry %d: box %v does not belong to track %d", cam, i, v.Boxes[cam][i], tr.ID)
			}
		}
		if !reflect.DeepEqual(ids, want[cam]) {
			t.Fatalf("camera %d lists tracks %v, want %v", cam, ids, want[cam])
		}
	}
	if v.Boxes[1] != nil || v.Tracks[1] != nil {
		t.Fatal("a camera without a view must keep nil lists")
	}
}
