// Package hungarian implements the Kuhn–Munkres assignment algorithm
// (potentials and shortest augmenting paths, one augmentation per row).
// The framework uses it in two places the paper calls out explicitly:
// associating detections with predicted track locations inside each
// camera (tracking-by-detection), and matching projected bounding boxes
// to detections during cross-camera object association.
//
// The solver minimizes total cost over a rectangular cost matrix; use
// MaximizeProfit for the IoU-matching (max-profit) form. A cost equal to
// Forbidden (math.MaxFloat64, compared with ==) marks a pairing that must
// not be selected; no other value — +Inf and NaN included — is treated
// specially.
//
// MaximizeProfit solves one connected component of the feasible-pair
// graph at a time. Its cost matrix prices a matched pair maxP − p, an
// unmatched row maxP + 1 (a "stay unmatched" dummy column) and a pair
// with p <= minProfit Forbidden, so an assignment M of n rows costs
// n(maxP+1) − Σ_M (1+p). That sum is additive over the components of the
// graph whose edges are the feasible pairs, so optimal assignments of the
// components together are an optimal assignment of the whole; a component
// of one row and one column is assigned without the solver. One solve of
// the whole matrix could differ only by breaking an exact tie between
// optima differently; the tests certify each answer optimal in that dense
// form from the solver's own row and column potentials. A tracker's matrices
// are sparse — most components are one track and one detection — so the
// work falls from O(n·(n+m)²) for n tracks and m detections to one scan
// of the matrix plus a solve per contested component.
//
// All work runs on a Solver, a reusable workspace: a Solver that has
// grown to the largest problem it sees allocates nothing, which is how the
// per-camera tracker and the key-frame association call it. The package
// function Solve runs the same code on a fresh Solver.
package hungarian

import (
	"fmt"
	"math"
)

// Forbidden marks a pairing that must never be selected.
const Forbidden = math.MaxFloat64

// Solver is the reusable workspace of the assignment algorithm. The zero
// value is ready to use; buffers grow to the largest problem solved and
// are kept. A Solver is not safe for concurrent use, and the slices its
// methods return (Matrix rows, assignment vectors) are the Solver's own:
// they are valid until the next call of any method on the same Solver.
type Solver struct {
	a      []float64 // rows x cols cost matrix, row-major
	u, v   []float64 // row / column potentials, 1-indexed
	minv   []float64
	p, way []int
	used   []bool
	assign []int

	// MaximizeProfit's component labelling and its row-indexed result,
	// kept apart from assign, which every component's solve overwrites.
	uf, start, order, match []int

	in     []float64 // backing array of Matrix
	inRows [][]float64
}

// Matrix returns a zeroed rows x cols matrix backed by the Solver, for
// the caller to fill and hand to Solve or MaximizeProfit on the same
// Solver without allocating an input of its own.
func (s *Solver) Matrix(rows, cols int) [][]float64 {
	s.in = grow(s.in, rows*cols)
	clear(s.in)
	s.inRows = grow(s.inRows, rows)
	for i := range s.inRows {
		s.inRows[i] = s.in[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return s.inRows
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is too small, and then to at least twice the old capacity, so
// a workspace fed slowly growing problems reallocates a logarithmic
// number of times rather than at every new largest size. The contents
// are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// Solve is Solver.Solve on a fresh workspace; the caller owns the
// returned slice.
func Solve(cost [][]float64) ([]int, float64, error) {
	var s Solver
	return s.Solve(cost)
}

// Solve returns, for each row of the cost matrix, the column assigned to
// it (or -1 when rows > cols and the row is unmatched), along with the
// total cost of the assignment. The matrix may be rectangular. Solve
// returns an error when cost is empty or ragged, when no feasible
// assignment exists (every complete matching uses a Forbidden pair), or
// when non-finite costs leave a row no column at finite reduced cost. The
// returned slice belongs to the Solver and is valid until its next call.
func (s *Solver) Solve(cost [][]float64) ([]int, float64, error) {
	nRows := len(cost)
	if nRows == 0 {
		return nil, 0, fmt.Errorf("hungarian: empty cost matrix")
	}
	nCols := len(cost[0])
	if nCols == 0 {
		return nil, 0, fmt.Errorf("hungarian: zero-width cost matrix")
	}
	for i, row := range cost {
		if len(row) != nCols {
			return nil, 0, fmt.Errorf("hungarian: ragged row %d: %d vs %d", i, len(row), nCols)
		}
	}
	// More rows than columns: pad with zero-cost dummy columns, so the
	// surplus rows have somewhere to go. Rows are never padded.
	m := max(nRows, nCols)
	s.a = grow(s.a, nRows*m)
	for i, row := range cost {
		n := copy(s.a[i*m:(i+1)*m], row)
		clear(s.a[i*m+n : (i+1)*m])
	}
	return s.solve(nRows, nCols, m)
}

// MaximizeProfit solves the maximum-total-profit assignment over a profit
// matrix (e.g. IoU scores). Pairs with profit <= minProfit are treated as
// forbidden and left unmatched. The returned slice maps each row to its
// matched column or -1; it belongs to the Solver and is valid until its
// next call.
//
// The problem is solved one connected component of the feasible-pair
// graph at a time (see the package doc for why that is exact): a pass
// over the matrix finds the largest profit and unions the endpoints of
// every feasible pair, a counting sort groups rows and columns by
// component, a one-row/one-column component is assigned directly, and
// every larger one is solved on its own sub-matrix.
func (s *Solver) MaximizeProfit(profit [][]float64, minProfit float64) ([]int, float64, error) {
	if len(profit) == 0 {
		return nil, 0, fmt.Errorf("hungarian: empty profit matrix")
	}
	nRows := len(profit)
	nCols := len(profit[0])
	for i, row := range profit {
		if len(row) != nCols {
			return nil, 0, fmt.Errorf("hungarian: ragged profit row %d", i)
		}
	}
	// Nodes 0..nRows-1 are rows, nRows.. are columns. A pair is an edge
	// exactly when the dense form would not price it Forbidden.
	n := nRows + nCols
	s.uf = grow(s.uf, n)
	uf := s.uf
	for k := range uf {
		uf[k] = k
	}
	var maxP float64
	for i, row := range profit {
		for j, p := range row {
			if p > maxP {
				maxP = p
			}
			if !(p <= minProfit) {
				union(uf, i, nRows+j)
			}
		}
	}

	// Group the nodes by component root: count, prefix-sum, place. Node
	// order is kept within a component, so each group lists its rows
	// ascending, then its columns ascending.
	s.start = grow(s.start, n+1)
	start := s.start
	clear(start)
	for k := range uf {
		r := find(uf, k)
		uf[k] = r
		start[r+1]++
	}
	for r := 1; r <= n; r++ {
		start[r] += start[r-1]
	}
	s.order = grow(s.order, n)
	order := s.order
	for k, r := range uf {
		order[start[r]] = k
		start[r]++
	}

	s.match = grow(s.match, nRows)
	match := s.match
	for i := range match {
		match[i] = -1
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && uf[order[hi]] == uf[order[lo]] {
			hi++
		}
		group := order[lo:hi]
		lo = hi
		k := 0 // rows in the group
		for k < len(group) && group[k] < nRows {
			k++
		}
		rows, cols := group[:k], group[k:]
		switch {
		case len(rows) == 0 || len(cols) == 0:
			// An isolated row stays unmatched; an isolated column is free.
		case len(rows) == 1 && len(cols) == 1:
			// One feasible pair: the 1 x 2 sub-problem's answer, without
			// the solver (the real column wins a tie with the dummy).
			i, j := rows[0], cols[0]-nRows
			if maxP-profit[i][j] <= maxP+1 {
				match[i] = j
			}
		default:
			if err := s.solveComponent(profit, minProfit, maxP, rows, cols, nRows); err != nil {
				return nil, 0, err
			}
		}
	}

	var total float64
	for i, j := range match {
		if j < 0 || profit[i][j] <= minProfit {
			match[i] = -1
			continue
		}
		total += profit[i][j]
	}
	return match, total, nil
}

// solveComponent solves one contested component of MaximizeProfit's
// feasible-pair graph and writes its rows' columns into s.match. The
// sub-matrix is priced exactly as the whole matrix would be — the global
// maxP, Forbidden below the threshold — and augmented with one "stay
// unmatched" dummy column per row, priced just above the worst feasible
// match so real pairings are always preferred. cols holds column node
// numbers, offset by nRows.
func (s *Solver) solveComponent(profit [][]float64, minProfit, maxP float64, rows, cols []int, nRows int) error {
	k, c := len(rows), len(cols)
	m := c + k
	s.a = grow(s.a, k*m)
	for r, i := range rows {
		out := s.a[r*m : (r+1)*m]
		for x, j := range cols {
			if p := profit[i][j-nRows]; p <= minProfit {
				out[x] = Forbidden
			} else {
				out[x] = maxP - p
			}
		}
		for x := c; x < m; x++ {
			out[x] = maxP + 1
		}
	}
	assign, _, err := s.solve(k, m, m)
	if err != nil {
		return err
	}
	for r, x := range assign {
		if x >= 0 && x < c {
			s.match[rows[r]] = cols[x] - nRows
		}
	}
	return nil
}

// find returns the root of node k's set, halving the path on the way.
func find(uf []int, k int) int {
	for uf[k] != k {
		uf[k] = uf[uf[k]]
		k = uf[k]
	}
	return k
}

// union merges the sets of nodes a and b under the smaller root.
func union(uf []int, a, b int) {
	ra, rb := find(uf, a), find(uf, b)
	if ra < rb {
		uf[rb] = ra
	} else {
		uf[ra] = rb
	}
}

// solve runs the potentials-based Hungarian algorithm (Jonker-style
// shortest augmenting paths) over s.a, an nRows x m matrix with
// nRows <= m whose columns from nCols on are zero-cost dummies. One
// augmentation per row, each O(m^2) at worst: a wide matrix is solved as
// the rectangle it is.
func (s *Solver) solve(nRows, nCols, m int) ([]int, float64, error) {
	// Scale Forbidden down to a large-but-safe sentinel so potentials
	// can't overflow. No feasible cost reaches the sentinel, so after the
	// substitution "== big" still identifies exactly the forbidden pairs.
	a := s.a[:nRows*m]
	big := forbiddenCeiling(a, m)
	for k, c := range a {
		if c == Forbidden {
			a[k] = big
		}
	}

	// u/v are row/col potentials; p[j] is the row matched to column j, all
	// 1-indexed with 0 as the "no row / virtual column" sentinel.
	s.u = grow(s.u, nRows+1)
	s.v = grow(s.v, m+1)
	s.p = grow(s.p, m+1)
	s.way = grow(s.way, m+1)
	s.minv = grow(s.minv, m+1)
	s.used = grow(s.used, m+1)
	u, v, p, way, minv, used := s.u, s.v, s.p, s.way, s.minv, s.used
	clear(u)
	clear(v)
	clear(p)
	clear(way)
	inf := math.Inf(1)
	for i := 1; i <= nRows; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
		}
		clear(used)
		for {
			used[j0] = true
			i0 := p[j0]
			row := a[(i0-1)*m : i0*m]
			delta := inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if j1 == 0 {
				// Every unused column is out of reach at +Inf or NaN
				// reduced cost, which only non-finite costs produce; the
				// search would spin on the virtual column forever.
				return nil, 0, fmt.Errorf("hungarian: no finite augmenting path from row %d", i)
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	s.assign = grow(s.assign, nRows)
	assign := s.assign
	for i := range assign {
		assign[i] = -1
	}
	var total float64
	for j := 1; j <= nCols; j++ {
		i := p[j] - 1
		if i < 0 {
			continue // column left free
		}
		c := a[i*m+j-1]
		if c == big {
			// The only complete matchings route through a forbidden pair.
			// When the matrix is square this means infeasible; when
			// rectangular, treat the row as unmatched.
			if nRows == nCols {
				return nil, 0, fmt.Errorf("hungarian: no feasible assignment")
			}
			continue
		}
		assign[i] = j - 1
		total += c
	}
	return assign, total, nil
}

// forbiddenCeiling picks a sentinel larger than any feasible assignment
// cost so forbidden pairs are only chosen when unavoidable. a is a
// row-major matrix of row length m.
func forbiddenCeiling(a []float64, m int) float64 {
	var maxAbs float64 = 1
	for _, c := range a {
		if c == Forbidden {
			continue
		}
		if v := math.Abs(c); v > maxAbs {
			maxAbs = v
		}
	}
	return maxAbs * float64(m+1) * 16
}
