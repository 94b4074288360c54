package shard

import (
	"reflect"
	"testing"
)

// chain builds a corridor-like graph: camera i overlaps i+1 only.
func chain(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestPartitionConnectedComponents(t *testing.T) {
	// Two islands: {0,1,2} chained, {3,4} chained, 5 isolated.
	g := NewGraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	m, err := Partition(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	if !reflect.DeepEqual(m.Shards, want) {
		t.Fatalf("shards = %v, want %v", m.Shards, want)
	}
	if len(m.Boundary) != 0 {
		t.Fatalf("pure components must have no boundary, got %v", m.Boundary)
	}
}

func TestPartitionSingleCameraShards(t *testing.T) {
	// No overlaps at all: every camera is its own shard.
	m, err := Partition(NewGraph(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", m.NumShards())
	}
	for i, cams := range m.Shards {
		if len(cams) != 1 || cams[0] != i {
			t.Fatalf("shard %d = %v, want [%d]", i, cams, i)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionFullyConnectedOneShard(t *testing.T) {
	g := NewGraph(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddEdge(i, j)
		}
	}
	m, err := Partition(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 1 || len(m.Shards[0]) != 5 {
		t.Fatalf("fully connected graph must be one shard, got %v", m.Shards)
	}
}

func TestPartitionMaxShardSplit(t *testing.T) {
	// A 10-camera chain split at max size 4: chunks {0..3}, {4..7},
	// {8,9}; boundary edges exactly at the cuts (3-4 and 7-8).
	m, err := Partition(chain(10), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}
	if !reflect.DeepEqual(m.Shards, want) {
		t.Fatalf("shards = %v, want %v", m.Shards, want)
	}
	wantB := []Edge{{A: 3, B: 4}, {A: 7, B: 8}}
	if !reflect.DeepEqual(m.Boundary, wantB) {
		t.Fatalf("boundary = %v, want %v", m.Boundary, wantB)
	}
	if got := m.BoundaryCameras(1); !reflect.DeepEqual(got, []int{4, 7}) {
		t.Fatalf("BoundaryCameras(1) = %v, want [4 7]", got)
	}
	// Shard 1's neighbors: foreign 3 overlaps local 4, foreign 8
	// overlaps local 7.
	if got := m.Neighbors(1); !reflect.DeepEqual(got, []Edge{{A: 3, B: 4}, {A: 8, B: 7}}) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := chain(16)
	g.AddEdge(2, 9) // a long-range edge merging would-be chunks' components
	first, err := Partition(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := Partition(g, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d: partition differs:\n%v\nvs\n%v", i, first, again)
		}
	}
}

func TestFromCoObservation(t *testing.T) {
	counts := [][]int{
		{0, 5, 0},
		{5, 0, 1},
		{0, 1, 0},
	}
	g, err := FromCoObservation(counts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Adj[0][1] || g.Adj[1][2] || g.Adj[0][2] {
		t.Fatalf("threshold 2: want only edge (0,1), got %v", g.Adj)
	}
	g1, err := FromCoObservation(counts, 0) // defaults to 1
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Adj[1][2] {
		t.Fatal("threshold default: edge (1,2) missing")
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	g := chain(6)
	m, err := ParseSpec("0,1,2|3,4|5", 6, g)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != "0,1,2|3,4|5" {
		t.Fatalf("String = %q", m.String())
	}
	// The chain edges 2-3 and 4-5 cross the spec's cuts.
	wantB := []Edge{{A: 2, B: 3}, {A: 4, B: 5}}
	if !reflect.DeepEqual(m.Boundary, wantB) {
		t.Fatalf("boundary = %v, want %v", m.Boundary, wantB)
	}
	if _, err := ParseSpec("0,1|1,2", 3, nil); err == nil {
		t.Fatal("duplicate camera must fail")
	}
	if _, err := ParseSpec("0,1", 3, nil); err == nil {
		t.Fatal("missing camera must fail")
	}
	if _, err := ParseSpec("0,x", 2, nil); err == nil {
		t.Fatal("non-numeric camera must fail")
	}
}

func TestSingleAndLocal(t *testing.T) {
	m, err := Single(3)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 1 || len(m.Shards[0]) != 3 {
		t.Fatalf("Single(3) = %v", m.Shards)
	}
	if _, err := Single(0); err == nil {
		t.Fatal("Single(0) must fail")
	}
}

func TestValidateRejectsCorruptMaps(t *testing.T) {
	m := &Map{Shards: [][]int{{0}, {}}, ShardOf: []int{0}}
	if err := m.Validate(); err == nil {
		t.Fatal("empty shard must fail validation")
	}
	m = &Map{Shards: [][]int{{0, 0}}, ShardOf: []int{0}}
	if err := m.Validate(); err == nil {
		t.Fatal("duplicate member must fail validation")
	}
}
