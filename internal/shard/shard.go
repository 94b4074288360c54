// Package shard partitions a camera fleet into overlap groups — shards —
// so that no scheduling round barrier has to span the whole fleet.
//
// The paper's BALB central stage runs one global round per key frame:
// every camera reports, the scheduler associates and assigns, every
// camera waits. That is faithful at testbed scale (≤ 8 cameras) and
// hopeless at fleet scale, because both the barrier (one straggler
// stalls everyone) and the association (O(N²) camera pairs) touch every
// camera. The structural escape is that real coverage graphs are nearly
// block-diagonal: a corridor camera overlaps only its neighbours, a
// grid intersection overlaps its own cross-street cluster. Cameras
// that never co-observe an object never need to be in the same
// scheduling round.
//
// This package builds that decomposition:
//
//   - a Graph records which camera pairs overlap (can co-observe an
//     object), extracted either from a trained association model's
//     cell-coverage predictions (Model.OverlapAdjacency) or from
//     ground-truth co-observation counts (scene.Trace.CoObservation);
//   - Partition splits the fleet into the Graph's connected components,
//     subdividing any component larger than a configured maximum shard
//     size along the camera-index order (dense blobs get chunked, which
//     trades some boundary traffic for a bounded barrier);
//   - a Map is the resulting assignment of cameras to shards, with
//     lookups both ways (Shards, ShardOf) and the Boundary edge list —
//     the overlapping camera pairs that ended up in different shards,
//     which is exactly where cross-shard hand-off happens.
//
// Consumers: pipeline.Config.Sched.Shards runs one in-process central stage
// per shard; cluster.NewShardedScheduler runs one independent round
// machine (barrier, leases, dead broadcast) per shard, the machines
// sharing the boundary hand-off claims.
//
// # Determinism
//
// Everything here is a pure function of its inputs: Partition visits
// cameras in ascending index order, components are numbered by their
// smallest member, and oversized components are split into
// ascending-index chunks. The same adjacency and the same MaxShard
// always produce the identical Map — which is what lets a sharded run
// promise "same seed + same shard map → same trace"
// (docs/ARCHITECTURE.md, determinism contract).
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Graph is an undirected overlap graph over the camera fleet: Adj[i][j]
// reports whether cameras i and j can co-observe an object (an edge).
// The diagonal is ignored. Build one with NewGraph and AddEdge, from
// assoc.(*Model).OverlapAdjacency, or from FromCoObservation.
type Graph struct {
	// Adj is the symmetric adjacency matrix. Adj[i][j] == Adj[j][i].
	Adj [][]bool
}

// NewGraph returns an edgeless graph over n cameras.
func NewGraph(n int) *Graph {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	return &Graph{Adj: adj}
}

// NumCameras returns the fleet size the graph covers.
func (g *Graph) NumCameras() int { return len(g.Adj) }

// AddEdge marks cameras a and b as overlapping. Self-edges and
// out-of-range indices are ignored.
func (g *Graph) AddEdge(a, b int) {
	if a == b || a < 0 || b < 0 || a >= len(g.Adj) || b >= len(g.Adj) {
		return
	}
	g.Adj[a][b] = true
	g.Adj[b][a] = true
}

// FromAdjacency wraps a (possibly asymmetric) adjacency matrix as a
// Graph, symmetrizing it: a directed overlap prediction in either
// direction makes the unordered pair an edge. The matrix must be
// square.
func FromAdjacency(adj [][]bool) (*Graph, error) {
	n := len(adj)
	g := NewGraph(n)
	for i, row := range adj {
		if len(row) != n {
			return nil, fmt.Errorf("shard: adjacency row %d has %d entries for %d cameras", i, len(row), n)
		}
		for j, v := range row {
			if v {
				g.AddEdge(i, j)
			}
		}
	}
	return g, nil
}

// FromCoObservation builds the overlap graph from pairwise
// co-observation counts (e.g. scene.Trace.CoObservation): cameras i and
// j are connected when counts[i][j] >= minCount. minCount <= 0 defaults
// to 1 (any co-observation at all makes an edge).
func FromCoObservation(counts [][]int, minCount int) (*Graph, error) {
	if minCount <= 0 {
		minCount = 1
	}
	n := len(counts)
	g := NewGraph(n)
	for i, row := range counts {
		if len(row) != n {
			return nil, fmt.Errorf("shard: co-observation row %d has %d entries for %d cameras", i, len(row), n)
		}
		for j, c := range row {
			if i != j && c >= minCount {
				g.AddEdge(i, j)
			}
		}
	}
	return g, nil
}

// Edge is one overlapping camera pair that crosses a shard boundary:
// the pair can co-observe an object, but A and B were placed in
// different shards (a dense component was split, or the graph was
// overridden by an explicit spec). A < B always.
type Edge struct {
	// A, B are the overlapping cameras (global indices, A < B).
	A, B int
}

// Map is a partition of the camera fleet into shards. Build one with
// Partition or ParseSpec; the zero value is invalid.
type Map struct {
	// Shards lists each shard's cameras in ascending global index;
	// shards are ordered by their smallest member.
	Shards [][]int
	// ShardOf maps a global camera index to its shard.
	ShardOf []int
	// Boundary lists the overlap edges that cross shards, ascending by
	// (A, B). Empty when the partition follows the graph's connected
	// components exactly (no component was split).
	Boundary []Edge
}

// NumShards returns the shard count.
func (m *Map) NumShards() int { return len(m.Shards) }

// NumCameras returns the fleet size.
func (m *Map) NumCameras() int { return len(m.ShardOf) }

// Validate checks internal consistency: every camera in exactly one
// shard, shards non-empty and ascending, ShardOf matching.
func (m *Map) Validate() error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: map has no shards")
	}
	seen := make([]bool, len(m.ShardOf))
	for si, cams := range m.Shards {
		if len(cams) == 0 {
			return fmt.Errorf("shard: shard %d is empty", si)
		}
		for k, c := range cams {
			if c < 0 || c >= len(m.ShardOf) {
				return fmt.Errorf("shard: shard %d camera %d out of range [0,%d)", si, c, len(m.ShardOf))
			}
			if seen[c] {
				return fmt.Errorf("shard: camera %d appears in two shards", c)
			}
			seen[c] = true
			if k > 0 && cams[k-1] >= c {
				return fmt.Errorf("shard: shard %d cameras not ascending", si)
			}
			if m.ShardOf[c] != si {
				return fmt.Errorf("shard: ShardOf[%d] = %d, want %d", c, m.ShardOf[c], si)
			}
		}
	}
	for c, ok := range seen {
		if !ok {
			return fmt.Errorf("shard: camera %d in no shard", c)
		}
	}
	return nil
}

// String renders the map as a spec string ("0,1,2|3,4"), parseable by
// ParseSpec.
func (m *Map) String() string {
	var b strings.Builder
	for si, cams := range m.Shards {
		if si > 0 {
			b.WriteByte('|')
		}
		for k, c := range cams {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(c))
		}
	}
	return b.String()
}

// Partition splits the fleet into the overlap graph's connected
// components and subdivides any component larger than maxShard into
// ascending-index chunks of at most maxShard cameras. maxShard <= 0
// means unlimited (pure connected components). Component discovery,
// ordering, and splitting are all deterministic: shards are ordered by
// their smallest member, and the same inputs always produce the same
// Map. Boundary records every graph edge whose endpoints landed in
// different shards (only splits can create them).
func Partition(g *Graph, maxShard int) (*Map, error) {
	n := g.NumCameras()
	if n == 0 {
		return nil, fmt.Errorf("shard: empty graph")
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var components [][]int
	// BFS from each unvisited camera in ascending order: components come
	// out ordered by smallest member, members ascending (the queue only
	// ever holds ascending frontiers, but sort anyway for clarity).
	for start := 0; start < n; start++ {
		if comp[start] != -1 {
			continue
		}
		id := len(components)
		queue := []int{start}
		comp[start] = id
		var members []int
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			members = append(members, c)
			for d := 0; d < n; d++ {
				if comp[d] == -1 && g.Adj[c][d] {
					comp[d] = id
					queue = append(queue, d)
				}
			}
		}
		sort.Ints(members)
		components = append(components, members)
	}

	m := &Map{ShardOf: make([]int, n)}
	for _, members := range components {
		if maxShard <= 0 || len(members) <= maxShard {
			m.addShard(members)
			continue
		}
		// Dense blob: chunk along the index order. Index order follows
		// physical placement in the corridor/grid generators, so chunks
		// cut the fewest overlap edges a blind split can.
		for off := 0; off < len(members); off += maxShard {
			end := off + maxShard
			if end > len(members) {
				end = len(members)
			}
			m.addShard(members[off:end])
		}
	}
	m.Boundary = boundaryEdges(g, m)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseSpec parses an explicit shard spec — shards separated by '|',
// cameras by ',' (e.g. "0,1,2|3,4,5") — against a fleet of numCams
// cameras. Every camera must appear exactly once. The graph, when
// non-nil, supplies the boundary edges; nil leaves Boundary empty.
func ParseSpec(spec string, numCams int, g *Graph) (*Map, error) {
	m := &Map{ShardOf: make([]int, numCams)}
	for i := range m.ShardOf {
		m.ShardOf[i] = -1
	}
	for _, part := range strings.Split(spec, "|") {
		var cams []int
		for _, tok := range strings.Split(part, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			c, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("shard: bad camera %q in spec: %v", tok, err)
			}
			cams = append(cams, c)
		}
		if len(cams) == 0 {
			return nil, fmt.Errorf("shard: empty shard in spec %q", spec)
		}
		sort.Ints(cams)
		m.addShard(cams)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if g != nil {
		if g.NumCameras() != numCams {
			return nil, fmt.Errorf("shard: graph covers %d cameras, spec expects %d", g.NumCameras(), numCams)
		}
		m.Boundary = boundaryEdges(g, m)
	}
	return m, nil
}

// Single returns the trivial one-shard map over n cameras — the legacy
// global-barrier deployment expressed in the sharded vocabulary.
func Single(n int) (*Map, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: fleet size %d", n)
	}
	cams := make([]int, n)
	for i := range cams {
		cams[i] = i
	}
	m := &Map{ShardOf: make([]int, n)}
	m.addShard(cams)
	return m, nil
}

func (m *Map) addShard(cams []int) {
	id := len(m.Shards)
	m.Shards = append(m.Shards, append([]int(nil), cams...))
	for _, c := range cams {
		if c >= 0 && c < len(m.ShardOf) {
			m.ShardOf[c] = id
		}
	}
}

// boundaryEdges lists the graph edges crossing shards, ascending.
func boundaryEdges(g *Graph, m *Map) []Edge {
	var out []Edge
	n := g.NumCameras()
	if n > len(m.ShardOf) {
		n = len(m.ShardOf)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if g.Adj[a][b] && m.ShardOf[a] != m.ShardOf[b] {
				out = append(out, Edge{A: a, B: b})
			}
		}
	}
	return out
}

// BoundaryCameras returns, ascending, the cameras of the given shard
// that sit on at least one boundary edge — the cameras whose reports
// must be published as hand-off claims.
func (m *Map) BoundaryCameras(shard int) []int {
	set := map[int]bool{}
	for _, e := range m.Boundary {
		if m.ShardOf[e.A] == shard {
			set[e.A] = true
		}
		if m.ShardOf[e.B] == shard {
			set[e.B] = true
		}
	}
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Neighbors returns, ascending, the foreign cameras connected to the
// given shard by a boundary edge, paired with the local camera each one
// overlaps: the digests a shard's scheduler must consult before
// assigning. Pairs are ordered by (foreign, local).
func (m *Map) Neighbors(shard int) []Edge {
	var out []Edge
	for _, e := range m.Boundary {
		switch {
		case m.ShardOf[e.A] == shard:
			out = append(out, Edge{A: e.B, B: e.A}) // foreign, local
		case m.ShardOf[e.B] == shard:
			out = append(out, Edge{A: e.A, B: e.B})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
