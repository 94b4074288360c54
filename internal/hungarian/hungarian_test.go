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

// --- The optimality certificate. ---

// certify checks, after s solved the nRows x m min-cost problem want
// (rows <= m, Forbidden marking forbidden pairs), that the row and column
// potentials the solver leaves in s.u and s.v prove the assignment in
// s.p optimal, and returns that assignment as row -> column of want.
//
// The solver's matrix is want, with Forbidden replaced by a sentinel
// larger than any feasible assignment costs. The potentials are a
// feasible dual: every reduced cost a_ij - u_i - v_j is >= 0, and no
// column potential is above 0. Complementary slackness holds: the
// reduced cost is 0 on every matched pair and v_j is 0 on every free
// column. Then sum(u) + sum(v), a lower bound on the cost of every
// assignment of all rows, is the cost of this one, so it is optimal.
// Equalities hold to a rounding tolerance.
func certify(t testing.TB, s *Solver, want [][]float64) []int {
	t.Helper()
	nRows, m := len(want), len(want[0])
	var maxAbs float64 = 1
	for _, row := range want {
		for _, c := range row {
			if c != Forbidden {
				maxAbs = max(maxAbs, math.Abs(c))
			}
		}
	}
	tol := func(x ...float64) float64 {
		sum := 1.0
		for _, v := range x {
			sum += math.Abs(v)
		}
		return 1e-9 * sum
	}
	a, u, v, p := s.a[:nRows*m], s.u, s.v, s.p
	col := make([]int, nRows)
	for i := range col {
		col[i] = -1
	}
	for j := 1; j <= m; j++ {
		switch i := p[j] - 1; {
		case i < 0:
			if v[j] != 0 {
				t.Fatalf("free column %d has potential %v", j-1, v[j])
			}
		case col[i] >= 0:
			t.Fatalf("row %d matched to columns %d and %d", i, col[i], j-1)
		default:
			col[i] = j - 1
		}
		if v[j] > tol(v[j]) {
			t.Fatalf("column %d has positive potential %v", j-1, v[j])
		}
	}
	for i := range nRows {
		if col[i] < 0 {
			t.Fatalf("row %d unmatched in %v", i, want)
		}
		for j, w := range want[i] {
			c := a[i*m+j]
			switch {
			case w == Forbidden && c < 16*float64(m+1)*maxAbs:
				t.Fatalf("forbidden pair (%d,%d) priced %v, below the sentinel bound", i, j, c)
			case w != Forbidden && c != w:
				t.Fatalf("pair (%d,%d) priced %v, want %v", i, j, c, w)
			}
			red := c - u[i+1] - v[j+1]
			if red < -tol(c, u[i+1], v[j+1]) {
				t.Fatalf("pair (%d,%d): reduced cost %v < 0 (cost %v, u %v, v %v)", i, j, red, c, u[i+1], v[j+1])
			}
			if j == col[i] && math.Abs(red) > tol(c, u[i+1], v[j+1]) {
				t.Fatalf("matched pair (%d,%d): reduced cost %v, want 0", i, j, red)
			}
		}
	}
	return col
}

// denseProfit is MaximizeProfit's problem as one min-cost matrix (package
// doc): a matched pair costs maxP - p, a pair with p <= minProfit is
// Forbidden, and each row has a "stay unmatched" column of its own at
// maxP + 1. Its cost for an assignment is what the certificate bounds.
func denseProfit(profit [][]float64, minProfit float64) (cost [][]float64, maxP float64) {
	for _, row := range profit {
		for _, p := range row {
			maxP = max(maxP, p)
		}
	}
	nCols := len(profit[0])
	cost = make([][]float64, len(profit))
	for i, row := range profit {
		cost[i] = make([]float64, nCols+len(profit))
		for j := range cost[i] {
			switch {
			case j >= nCols:
				cost[i][j] = maxP + 1
			case row[j] <= minProfit:
				cost[i][j] = Forbidden
			default:
				cost[i][j] = maxP - row[j]
			}
		}
	}
	return cost, maxP
}

// checkMaximizeProfit holds one MaximizeProfit answer to its
// specification: a matching over the pairs above minProfit, its total the
// row-order sum of their profits, and optimal — its cost in the dense
// form equals the certified optimum of a dense Solve.
func checkMaximizeProfit(t testing.TB, profit [][]float64, minProfit float64, got []int, total float64) {
	t.Helper()
	if len(got) != len(profit) {
		t.Fatalf("%d rows, assignment of %d", len(profit), len(got))
	}
	taken := make([]bool, len(profit[0]))
	var sum float64
	for i, j := range got {
		if j < 0 {
			continue
		}
		if j >= len(taken) || taken[j] || profit[i][j] <= minProfit {
			t.Fatalf("row %d -> column %d is not a matching edge: profit %v min %v assign %v", i, j, profit, minProfit, got)
		}
		taken[j] = true
		sum += profit[i][j]
	}
	if math.Float64bits(sum) != math.Float64bits(total) {
		t.Fatalf("total %v, matched profits sum to %v", total, sum)
	}
	cost, maxP := denseProfit(profit, minProfit)
	var d Solver
	if _, _, err := d.Solve(cost); err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	opt := certify(t, &d, cost)
	var gotCost, optCost float64
	for i, j := range got {
		if j < 0 {
			gotCost += maxP + 1
		} else {
			gotCost += cost[i][j]
		}
		optCost += cost[i][opt[i]]
	}
	if math.Abs(gotCost-optCost) > 1e-9*(1+math.Abs(optCost)) {
		t.Fatalf("profit %v min %v: assignment %v costs %v in the dense form, the certified optimum %v",
			profit, minProfit, got, gotCost, optCost)
	}
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

// TestMaximizeProfitIsCertified holds one reused Solver to the
// specification on every shape 1..24 x 1..24, sparse and dense,
// continuous and tie-rich, at both thresholds the system uses (0.1
// association, 0.25 tracking).
func TestMaximizeProfitIsCertified(t *testing.T) {
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
							got, total, err := s.MaximizeProfit(profit, minProfit)
							if err != nil {
								t.Fatalf("%dx%d: %v", rows, cols, err)
							}
							checkMaximizeProfit(t, profit, minProfit, got, total)
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

// TestSolveIsCertified does the same for the min-cost form, which bench
// and the square and tall callers use: wide, square and tall matrices,
// with Forbidden entries sprinkled in. Where the certified optimum needs
// a forbidden pair, a square matrix is an error and a tall one leaves
// that row unmatched.
func TestSolveIsCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Solver
	for trial := 0; trial < 4000; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		cost := make([][]float64, rows)
		padded := make([][]float64, rows)
		for i := range cost {
			cost[i] = make([]float64, cols)
			padded[i] = make([]float64, max(rows, cols))
			for j := range cost[i] {
				switch {
				case rng.Intn(8) == 0:
					cost[i][j] = Forbidden
				case trial%2 == 0:
					cost[i][j] = float64(rng.Intn(6)) // tie-rich
				default:
					cost[i][j] = rng.Float64() * 100
				}
				padded[i][j] = cost[i][j]
			}
		}
		got, total, err := s.Solve(cost)
		if err != nil && rows != cols {
			t.Fatalf("trial %d: %v on %v", trial, err, cost)
		}
		opt := certify(t, &s, padded)
		var want float64
		infeasible := false
		for i, j := range opt {
			switch {
			case j >= cols:
				opt[i] = -1
			case cost[i][j] == Forbidden:
				opt[i], infeasible = -1, true
			default:
				want += cost[i][j]
			}
		}
		if rows == cols && infeasible != (err != nil) {
			t.Fatalf("trial %d: error %v, but the optimum uses a forbidden pair: %v", trial, err, infeasible)
		}
		if err != nil {
			continue
		}
		if !slices.Equal(got, opt) || math.Abs(total-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: cost %v\n got %v (%v)\ncertified %v (%v)", trial, cost, got, total, opt, want)
		}
	}
}

// TestTiesTakeTheLowestColumn: among columns of equal reduced cost the
// augmenting search takes the lowest index, so a matrix of equal costs
// is solved by the identity, in both forms.
func TestTiesTakeTheLowestColumn(t *testing.T) {
	var s Solver
	for _, n := range []int{2, 3, 5} {
		equal := s.Matrix(n, n+1)
		for i := range equal {
			for j := range equal[i] {
				equal[i][j] = 0.5
			}
		}
		for name, solve := range map[string]func() ([]int, float64, error){
			"Solve":          func() ([]int, float64, error) { return s.Solve(equal) },
			"MaximizeProfit": func() ([]int, float64, error) { return s.MaximizeProfit(equal, 0.1) },
		} {
			got, _, err := solve()
			if err != nil {
				t.Fatal(err)
			}
			for i, j := range got {
				if j != i {
					t.Fatalf("%s on %d x %d equal costs: %v, want the identity", name, n, n+1, got)
				}
			}
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

// TestMaximizeProfitIsCertifiedOnComponents holds the per-component
// solve to the specification on the shapes it decomposes: interleaved
// blocks, chains, isolated rows and columns, at-threshold rows and a
// dense block, continuous and tie-rich, at both thresholds the system
// uses.
func TestMaximizeProfitIsCertifiedOnComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var s Solver
	for trial := 0; trial < 3000; trial++ {
		for _, quantize := range []bool{false, true} {
			for _, minProfit := range []float64{0.1, 0.25} {
				profit := piecewiseProfit(rng, minProfit, quantize)
				got, total, err := s.MaximizeProfit(profit, minProfit)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				checkMaximizeProfit(t, profit, minProfit, got, total)
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
// and a threshold. On finite input the answer must meet the
// specification (checkMaximizeProfit), its optimality certified. With
// NaN or an infinity anywhere it must not panic, and whatever it returns
// must be a matching over the same edge predicate: no column twice, no
// pair with profit <= minProfit.
func FuzzMaximizeProfit(f *testing.F) {
	f.Add([]byte{2, 2, 14, 20, 16, 19, 8})                           // 2x2, tie-free
	f.Add([]byte{3, 3, 10, 12, 12, 0, 12, 12, 12, 0, 12, 12})        // ties
	f.Add([]byte{4, 5, 10, 16, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0}) // sparse
	f.Add([]byte{2, 3, 10, 253, 12, 0, 0, 254, 12})                  // NaN, +Inf
	f.Add([]byte{3, 2, 255, 16, 16, 16, 16, 16, 16})                 // -Inf threshold
	f.Add([]byte{2, 2, 8, 240, 252, 246, 250})                       // large values
	f.Add([]byte{1, 0, 8})                                           // zero columns
	f.Add([]byte{0, 1, 0, 7})                                        // one pair, p < 0 above min
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
			if err != nil {
				t.Fatalf("%v on %v (min %v)", err, profit, minProfit)
			}
			checkMaximizeProfit(t, profit, minProfit, got, gotTotal)
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
