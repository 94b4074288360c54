package hungarian

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSolveTrivial(t *testing.T) {
	assign, total, err := Solve([][]float64{{3}})
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 0 || total != 3 {
		t.Fatalf("assign=%v total=%v", assign, total)
	}
}

func TestSolveClassic(t *testing.T) {
	// Classic 3x3 example: optimal is 1+2+1 = 4 on the anti-diagonal-ish.
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 { // 1 + 2 + 2
		t.Fatalf("total = %v assign = %v", total, assign)
	}
	wantRow := []int{1, 0, 2}
	for i, j := range assign {
		if j != wantRow[i] {
			t.Fatalf("assign = %v", assign)
		}
	}
}

func TestSolveRectangularWide(t *testing.T) {
	// 2 rows, 3 cols: every row matched, best columns chosen.
	cost := [][]float64{
		{10, 2, 8},
		{7, 3, 1},
	}
	assign, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || assign[0] != 1 || assign[1] != 2 {
		t.Fatalf("assign=%v total=%v", assign, total)
	}
}

func TestSolveRectangularTall(t *testing.T) {
	// 3 rows, 2 cols: one row must stay unmatched.
	cost := [][]float64{
		{1, 9},
		{9, 1},
		{5, 5},
	}
	assign, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, j := range assign {
		if j >= 0 {
			matched++
		}
	}
	if matched != 2 || total != 2 {
		t.Fatalf("assign=%v total=%v", assign, total)
	}
	if assign[2] != -1 {
		t.Fatalf("expensive row should be unmatched: %v", assign)
	}
}

func TestSolveErrors(t *testing.T) {
	if _, _, err := Solve(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, _, err := Solve([][]float64{{}}); err == nil {
		t.Fatal("zero-width accepted")
	}
	if _, _, err := Solve([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged accepted")
	}
}

func TestSolveForbidden(t *testing.T) {
	// Forbidden diagonal forces the swap.
	cost := [][]float64{
		{Forbidden, 2},
		{3, Forbidden},
	}
	assign, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 || assign[1] != 0 || total != 5 {
		t.Fatalf("assign=%v total=%v", assign, total)
	}
}

func TestSolveInfeasible(t *testing.T) {
	cost := [][]float64{
		{Forbidden, Forbidden},
		{3, Forbidden},
	}
	if _, _, err := Solve(cost); err == nil {
		t.Fatal("infeasible square matrix accepted")
	}
}

func bruteForceMin(cost [][]float64) float64 {
	n := len(cost)
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	best := math.Inf(1)
	var permute func(k int)
	permute = func(k int) {
		if k == n {
			var sum float64
			feasible := true
			for i, j := range cols {
				if cost[i][j] == Forbidden {
					feasible = false
					break
				}
				sum += cost[i][j]
			}
			if feasible && sum < best {
				best = sum
			}
			return
		}
		for i := k; i < n; i++ {
			cols[k], cols[i] = cols[i], cols[k]
			permute(k + 1)
			cols[k], cols[i] = cols[i], cols[k]
		}
	}
	permute(0)
	return best
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(50))
			}
		}
		want := bruteForceMin(cost)
		_, got, err := Solve(cost)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Solve=%v brute=%v cost=%v", trial, got, want, cost)
		}
	}
}

func TestSolveAssignmentIsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = rng.Float64() * 100
			}
		}
		assign, _, err := Solve(cost)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, j := range assign {
			if j < 0 || j >= n || seen[j] {
				return false
			}
			seen[j] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMaximizeProfitIoUStyle(t *testing.T) {
	// Typical IoU matrix: rows = predictions, cols = detections.
	profit := [][]float64{
		{0.9, 0.1, 0.0},
		{0.2, 0.8, 0.0},
		{0.0, 0.0, 0.05}, // below threshold
	}
	assign, total, err := new(Solver).MaximizeProfit(profit, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 0 || assign[1] != 1 || assign[2] != -1 {
		t.Fatalf("assign = %v", assign)
	}
	if math.Abs(total-1.7) > 1e-9 {
		t.Fatalf("total = %v", total)
	}
}

func TestMaximizeProfitPrefersGlobalOptimum(t *testing.T) {
	// Greedy would take (0,0)=0.6 then leave row 1 with 0.0; Hungarian
	// should take (0,1)=0.5 and (1,0)=0.55 for 1.05 total.
	profit := [][]float64{
		{0.6, 0.5},
		{0.55, 0.0},
	}
	assign, total, err := new(Solver).MaximizeProfit(profit, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 || assign[1] != 0 {
		t.Fatalf("assign = %v", assign)
	}
	if math.Abs(total-1.05) > 1e-9 {
		t.Fatalf("total = %v", total)
	}
}

func TestMaximizeProfitAllBelowThreshold(t *testing.T) {
	profit := [][]float64{{0.01, 0.02}, {0.0, 0.01}}
	assign, total, err := new(Solver).MaximizeProfit(profit, 0.3)
	if err != nil {
		// Acceptable: a fully-forbidden square matrix may be reported
		// infeasible. But if it succeeds, nothing may be matched.
		return
	}
	for _, j := range assign {
		if j != -1 {
			t.Fatalf("assign = %v total = %v", assign, total)
		}
	}
}

func TestMaximizeProfitEmpty(t *testing.T) {
	if _, _, err := new(Solver).MaximizeProfit(nil, 0); err == nil {
		t.Fatal("nil accepted")
	}
}

// --- The oracle: the previous solver, verbatim. ---

// referenceSolve is the solver this package shipped before the reusable
// workspace and the rectangular solve, kept verbatim as the oracle: the
// square-padded, allocate-per-row form.
func referenceSolve(cost [][]float64) ([]int, float64, error) {
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
	n := nRows
	if nCols > n {
		n = nCols
	}

	// Scale Forbidden down to a large-but-safe sentinel so potentials
	// can't overflow; remember real forbidden pairs to validate at the
	// end.
	big := referenceForbiddenCeiling(cost, n)
	// Square padded matrix, 1-indexed for the classical potential-based
	// implementation.
	a := make([][]float64, n+1)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i >= nRows || j >= nCols:
				a[i+1][j+1] = 0 // dummy row/col
			case cost[i][j] == Forbidden:
				a[i+1][j+1] = big
			default:
				a[i+1][j+1] = cost[i][j]
			}
		}
	}

	// Potentials-based Hungarian algorithm (Jonker-style shortest
	// augmenting paths). u/v are row/col potentials; p[j] is the row
	// matched to column j.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := a[i0][j] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
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

	assign := make([]int, nRows)
	for i := range assign {
		assign[i] = -1
	}
	var total float64
	for j := 1; j <= n; j++ {
		i := p[j] - 1
		if i < 0 || i >= nRows {
			continue // dummy row
		}
		if j-1 >= nCols {
			continue // dummy column: row stays unmatched
		}
		if cost[i][j-1] == Forbidden {
			// The only complete matchings route through a forbidden pair.
			// When the matrix is square this means infeasible; when
			// rectangular, treat the row as unmatched.
			if nRows == nCols {
				return nil, 0, fmt.Errorf("hungarian: no feasible assignment")
			}
			continue
		}
		assign[i] = j - 1
		total += cost[i][j-1]
	}
	// Square infeasibility check (rectangular matrices legitimately leave
	// rows unmatched through dummy columns).
	if nRows == nCols {
		for i, j := range assign {
			if j == -1 {
				return nil, 0, fmt.Errorf("hungarian: row %d has no feasible column", i)
			}
		}
	}
	return assign, total, nil
}

// referenceForbiddenCeiling is the old forbiddenCeiling, over the
// unpadded row slices.
func referenceForbiddenCeiling(cost [][]float64, n int) float64 {
	var maxAbs float64 = 1
	for _, row := range cost {
		for _, c := range row {
			if c == Forbidden {
				continue
			}
			if v := math.Abs(c); v > maxAbs {
				maxAbs = v
			}
		}
	}
	return maxAbs * float64(n+1) * 16
}

// referenceMaximizeProfit is the old MaximizeProfit, verbatim: a fresh
// T x (D+T) cost matrix handed to referenceSolve.
func referenceMaximizeProfit(profit [][]float64, minProfit float64) ([]int, float64, error) {
	if len(profit) == 0 {
		return nil, 0, fmt.Errorf("hungarian: empty profit matrix")
	}
	var maxP float64
	for _, row := range profit {
		for _, p := range row {
			if p > maxP {
				maxP = p
			}
		}
	}
	// Augment with one "stay unmatched" dummy column per row, priced just
	// above the worst feasible match so real pairings are always
	// preferred. This lets any subset of rows opt out, which is exactly
	// the semantics of thresholded IoU matching.
	nRows := len(profit)
	nCols := len(profit[0])
	cost := make([][]float64, nRows)
	for i, row := range profit {
		if len(row) != nCols {
			return nil, 0, fmt.Errorf("hungarian: ragged profit row %d", i)
		}
		cost[i] = make([]float64, nCols+nRows)
		for j, p := range row {
			if p <= minProfit {
				cost[i][j] = Forbidden
			} else {
				cost[i][j] = maxP - p
			}
		}
		for k := 0; k < nRows; k++ {
			cost[i][nCols+k] = maxP + 1
		}
	}
	assign, _, err := referenceSolve(cost)
	if err != nil {
		return nil, 0, err
	}
	var total float64
	for i, j := range assign {
		if j < 0 || j >= nCols || profit[i][j] <= minProfit {
			assign[i] = -1
			continue
		}
		total += profit[i][j]
	}
	return assign, total, nil
}

// randomProfit fills a rows x cols IoU-like matrix: a share `density` of
// the entries is drawn from (0, 1), the rest are zero (no overlap). With
// quantize, values snap to a grid of 1/8 so that exact ties — between
// real pairings, and between a pairing and the threshold — are common.
func randomProfit(rng *rand.Rand, rows, cols int, density float64, quantize bool) [][]float64 {
	profit := make([][]float64, rows)
	for i := range profit {
		profit[i] = make([]float64, cols)
		for j := range profit[i] {
			if rng.Float64() >= density {
				continue
			}
			v := rng.Float64()
			if quantize {
				v = math.Round(v*8) / 8
			}
			profit[i][j] = v
		}
	}
	return profit
}

// TestSolverMatchesReference is the tie-break oracle: on every shape
// 1..24 x 1..24, sparse and dense, continuous and tie-rich, at both
// thresholds the system uses (0.1 association, 0.25 tracking), one reused
// Solver must return exactly the assignment vector of the old
// square-padded solver — not merely one of equal profit.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240914))
	var s Solver
	cases := 0
	for rows := 1; rows <= 24; rows++ {
		for cols := 1; cols <= 24; cols++ {
			for _, density := range []float64{0.15, 0.5, 1} {
				for _, quantize := range []bool{false, true} {
					for _, minProfit := range []float64{0.1, 0.25} {
						for rep := 0; rep < 2; rep++ {
							profit := randomProfit(rng, rows, cols, density, quantize)
							want, wantTotal, wantErr := referenceMaximizeProfit(profit, minProfit)
							got, gotTotal, gotErr := s.MaximizeProfit(profit, minProfit)
							if (wantErr == nil) != (gotErr == nil) {
								t.Fatalf("%dx%d: error %v, reference %v", rows, cols, gotErr, wantErr)
							}
							if !slices.Equal(got, want) || gotTotal != wantTotal {
								t.Fatalf("%dx%d density %v quantize %v min %v:\nprofit %v\n got %v (%v)\nwant %v (%v)",
									rows, cols, density, quantize, minProfit, profit, got, gotTotal, want, wantTotal)
							}
							cases++
						}
					}
				}
			}
		}
	}
	if cases < 10000 {
		t.Fatalf("only %d cases", cases)
	}
}

// TestSolveMatchesReference does the same for the min-cost form, which
// bench and the square / tall callers use: wide, square and tall
// matrices, with Forbidden entries sprinkled in.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Solver
	for trial := 0; trial < 4000; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		cost := make([][]float64, rows)
		for i := range cost {
			cost[i] = make([]float64, cols)
			for j := range cost[i] {
				switch {
				case rng.Intn(8) == 0:
					cost[i][j] = Forbidden
				case trial%2 == 0:
					cost[i][j] = float64(rng.Intn(6)) // tie-rich
				default:
					cost[i][j] = rng.Float64() * 100
				}
			}
		}
		want, wantTotal, wantErr := referenceSolve(cost)
		got, gotTotal, gotErr := s.Solve(cost)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error %v, reference %v, cost %v", trial, gotErr, wantErr, cost)
		}
		if wantErr != nil {
			continue
		}
		if !slices.Equal(got, want) || gotTotal != wantTotal {
			t.Fatalf("trial %d: cost %v\n got %v (%v)\nwant %v (%v)", trial, cost, got, gotTotal, want, wantTotal)
		}
	}
}

// piecewiseProfit lays out the feasible-pair graph shapes the component
// decomposition must get right, each piece on rows and columns of its
// own: blocks of 1 to 6 rows and columns at random density, path-shaped
// chains, isolated rows and columns, rows whose every entry is exactly
// minProfit, and at most one fully dense block. Feasible profits are
// sometimes the float just above minProfit. Every other cell holds a
// value in [0, minProfit], often minProfit itself, so the edge predicate
// is exercised at its boundary. Rows and columns are then shuffled so the
// components interleave. With quantize, feasible profits snap up to a
// grid of 1/8 and exact ties are common.
func piecewiseProfit(rng *rand.Rand, minProfit float64, quantize bool) [][]float64 {
	type cell struct {
		i, j int
		p    float64
	}
	var cells []cell
	var atThreshold []int
	rows, cols, dense := 0, 0, false
	value := func() float64 {
		if rng.Intn(10) == 0 {
			return math.Nextafter(minProfit, 2)
		}
		v := minProfit + (1-minProfit)*rng.Float64()
		if quantize {
			v = math.Ceil(v*8) / 8
		}
		if v <= minProfit {
			v = math.Nextafter(minProfit, 2)
		}
		return v
	}
	for pieces := 1 + rng.Intn(8); pieces > 0; pieces-- {
		switch kind := rng.Intn(6); {
		case kind == 0 || (kind == 5 && dense):
			a, b, density := 1+rng.Intn(6), 1+rng.Intn(6), 0.3+0.7*rng.Float64()
			for i := 0; i < a; i++ {
				for j := 0; j < b; j++ {
					if rng.Float64() < density {
						cells = append(cells, cell{rows + i, cols + j, value()})
					}
				}
			}
			rows, cols = rows+a, cols+b
		case kind == 1:
			// A path: row t touches columns t and t+1.
			l := 1 + rng.Intn(6)
			for t := 0; t < l; t++ {
				cells = append(cells, cell{rows + t, cols + t, value()}, cell{rows + t, cols + t + 1, value()})
			}
			rows, cols = rows+l, cols+l+1
		case kind == 2:
			rows++
		case kind == 3:
			cols++
		case kind == 4:
			atThreshold = append(atThreshold, rows)
			rows++
		case kind == 5:
			dense = true
			a, b := 3+rng.Intn(4), 3+rng.Intn(4)
			for i := 0; i < a; i++ {
				for j := 0; j < b; j++ {
					cells = append(cells, cell{rows + i, cols + j, value()})
				}
			}
			rows, cols = rows+a, cols+b
		}
	}
	rows = max(rows, 1)
	profit := make([][]float64, rows)
	for i := range profit {
		profit[i] = make([]float64, cols)
		for j := range profit[i] {
			switch rng.Intn(3) {
			case 0:
				profit[i][j] = minProfit
			case 1:
				profit[i][j] = minProfit * rng.Float64()
			}
		}
	}
	for _, c := range cells {
		profit[c.i][c.j] = c.p
	}
	for _, i := range atThreshold {
		for j := range profit[i] {
			profit[i][j] = minProfit
		}
	}
	rowPerm, colPerm := rng.Perm(rows), rng.Perm(cols)
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
		for j := range out[i] {
			out[i][j] = profit[rowPerm[i]][colPerm[j]]
		}
	}
	return out
}

// TestSolverMatchesReferenceOnComponents holds the per-component solve to
// the dense oracle on the shapes it decomposes: interleaved blocks,
// chains, isolated rows and columns, at-threshold rows and a dense block,
// continuous and tie-rich, at both thresholds the system uses. The
// assignment vector, not merely its profit, must be the reference's.
func TestSolverMatchesReferenceOnComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var s Solver
	for trial := 0; trial < 3000; trial++ {
		for _, quantize := range []bool{false, true} {
			for _, minProfit := range []float64{0.1, 0.25} {
				profit := piecewiseProfit(rng, minProfit, quantize)
				want, wantTotal, wantErr := referenceMaximizeProfit(profit, minProfit)
				got, gotTotal, gotErr := s.MaximizeProfit(profit, minProfit)
				if wantErr != nil || gotErr != nil {
					t.Fatalf("trial %d: errors %v / %v", trial, gotErr, wantErr)
				}
				if !slices.Equal(got, want) || gotTotal != wantTotal {
					t.Fatalf("trial %d quantize %v min %v:\nprofit %v\n got %v (%v)\nwant %v (%v)",
						trial, quantize, minProfit, profit, got, gotTotal, want, wantTotal)
				}
			}
		}
	}
}

// fuzzProfit maps one byte to a profit: mostly a tie-rich grid of eighths
// in [-1, 2], then large finite values, and from 253 up NaN, +Inf and
// -Inf.
func fuzzProfit(b byte) float64 {
	switch {
	case b >= 253:
		return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[b-253]
	case b >= 240:
		return float64(int(b)-246) * 1e6
	default:
		return float64(int(b%25)-8) / 8
	}
}

// FuzzMaximizeProfit decodes bytes into a matrix of up to 8 x 8 profits
// and a threshold. On finite input the assignment and its total must be
// bit-equal to the dense reference's. With NaN or an infinity anywhere it
// must not panic, and whatever it returns must be a matching over the
// same edge predicate: no column twice, no pair with profit <= minProfit.
func FuzzMaximizeProfit(f *testing.F) {
	f.Add([]byte{2, 2, 14, 20, 16, 19, 8})                           // 2x2, tie-free
	f.Add([]byte{3, 3, 10, 12, 12, 0, 12, 12, 12, 0, 12, 12})        // ties
	f.Add([]byte{4, 5, 10, 16, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0}) // sparse
	f.Add([]byte{2, 3, 10, 253, 12, 0, 0, 254, 12})                  // NaN, +Inf
	f.Add([]byte{3, 2, 255, 16, 16, 16, 16, 16, 16})                 // -Inf threshold
	f.Add([]byte{2, 2, 8, 240, 252, 246, 250})                       // large values
	f.Add([]byte{1, 0, 8})                                           // zero columns
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows, cols := 1+int(data[0]%8), int(data[1]%9)
		minProfit := fuzzProfit(data[2])
		data = data[3:]
		finite := !math.IsNaN(minProfit) && !math.IsInf(minProfit, 0)
		profit := make([][]float64, rows)
		for i := range profit {
			profit[i] = make([]float64, cols)
			for j := range profit[i] {
				if len(data) > 0 {
					profit[i][j], data = fuzzProfit(data[0]), data[1:]
				}
				finite = finite && !math.IsNaN(profit[i][j]) && !math.IsInf(profit[i][j], 0)
			}
		}
		var s Solver
		got, gotTotal, err := s.MaximizeProfit(profit, minProfit)
		if finite {
			want, wantTotal, wantErr := referenceMaximizeProfit(profit, minProfit)
			if err != nil || wantErr != nil {
				t.Fatalf("errors %v / %v on %v (min %v)", err, wantErr, profit, minProfit)
			}
			if !slices.Equal(got, want) || math.Float64bits(gotTotal) != math.Float64bits(wantTotal) {
				t.Fatalf("profit %v min %v\n got %v (%v)\nwant %v (%v)", profit, minProfit, got, gotTotal, want, wantTotal)
			}
		}
		if err != nil {
			return // non-finite input may find no finite augmenting path
		}
		if len(got) != rows {
			t.Fatalf("%d rows, assignment of %d", rows, len(got))
		}
		taken := make([]bool, cols)
		for i, j := range got {
			if j < 0 {
				continue
			}
			if j >= cols || taken[j] || profit[i][j] <= minProfit {
				t.Fatalf("row %d -> column %d is not a matching edge: profit %v min %v assign %v", i, j, profit, minProfit, got)
			}
			taken[j] = true
		}
	})
}

// TestSolverReuseAllocatesNothing is the budget: once a Solver has seen
// its largest problem, neither form allocates — on a random matrix and on
// one that decomposes into many components of different sizes.
func TestSolverReuseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, profit := range map[string][][]float64{
		"random":     randomProfit(rng, 12, 14, 0.5, false),
		"components": componentRich(),
	} {
		rows, cols := len(profit), len(profit[0])
		var s Solver
		if _, _, err := s.MaximizeProfit(profit, 0.25); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			m := s.Matrix(rows, cols)
			for i := range m {
				copy(m[i], profit[i])
			}
			if _, _, err := s.MaximizeProfit(m, 0.25); err != nil {
				panic(err)
			}
		}); n != 0 {
			t.Errorf("%s: MaximizeProfit on a reused Solver: %v allocs/run, want 0", name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := s.Solve(profit); err != nil {
				panic(err)
			}
		}); n != 0 {
			t.Errorf("%s: Solve on a reused Solver: %v allocs/run, want 0", name, n)
		}
	}
}

// componentRich is the piecewise matrix the reuse budget runs on; its
// seed is chosen for 7 components, 5 of them contested.
func componentRich() [][]float64 {
	return piecewiseProfit(rand.New(rand.NewSource(7)), 0.25, true)
}

// TestPiecewiseProfitHasContestedComponents keeps the generator honest:
// the reuse budget only tests the decomposition if its matrix holds
// several components, some of them contested. It labels the feasible-pair
// graph by flood fill, independently of the solver.
func TestPiecewiseProfitHasContestedComponents(t *testing.T) {
	profit := componentRich()
	rows, cols := len(profit), len(profit[0])
	label := make([]int, rows+cols) // 0 = unvisited
	var fill func(node, l int) int
	fill = func(node, l int) int {
		if label[node] != 0 {
			return 0
		}
		label[node] = l
		size := 1
		for other := 0; other < rows+cols; other++ {
			i, j := node, other-rows
			if node >= rows {
				i, j = other, node-rows
			}
			if (node < rows) != (other < rows) && profit[i][j] > 0.25 {
				size += fill(other, l)
			}
		}
		return size
	}
	groups, contested := 0, 0
	for node := range label {
		if size := fill(node, groups+1); size > 0 {
			groups++
			if size > 2 {
				contested++
			}
		}
	}
	if groups < 4 || contested < 2 {
		t.Fatalf("%dx%d matrix has %d components, %d contested", rows, cols, groups, contested)
	}
}

// TestSolverMatrixIsZeroedAndDisjoint guards the input scratch: a
// Matrix handed out after a larger one must not show its leftovers, and
// rows must not be able to grow into each other.
func TestSolverMatrixIsZeroedAndDisjoint(t *testing.T) {
	var s Solver
	m := s.Matrix(3, 3)
	for i := range m {
		for j := range m[i] {
			m[i][j] = 9
		}
	}
	m = s.Matrix(2, 2)
	for i := range m {
		if len(m[i]) != 2 || cap(m[i]) != 2 {
			t.Fatalf("row %d: len %d cap %d", i, len(m[i]), cap(m[i]))
		}
		for j, v := range m[i] {
			if v != 0 {
				t.Fatalf("m[%d][%d] = %v after reuse", i, j, v)
			}
		}
	}
}

func ExampleSolver() {
	var s Solver // one per goroutine; reuse it across calls
	iou := s.Matrix(2, 2)
	iou[0][0], iou[0][1] = 0.6, 0.5
	iou[1][0], iou[1][1] = 0.55, 0
	assign, total, _ := s.MaximizeProfit(iou, 0.1)
	fmt.Println(assign, total)
	// Output: [1 0] 1.05
}
