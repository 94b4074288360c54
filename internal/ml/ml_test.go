package ml

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// linearlySeparable builds a 2D dataset where class is x0 + x1 > 100,
// scaled like pixel coordinates.
func linearlySeparable(n int, seed int64) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		a, b := rng.Float64()*200, rng.Float64()*200
		// Margin: push points away from the boundary so every model can
		// separate them.
		if a+b > 200 {
			a += 30
			y[i] = true
		} else {
			a -= 30
		}
		x[i] = []float64{a, b}
	}
	return x, y
}

func classifiers() []Classifier {
	return []Classifier{
		&KNNClassifier{K: 5},
		&LogisticClassifier{},
		&SVMClassifier{},
		&TreeClassifier{},
	}
}

func TestClassifiersSeparableData(t *testing.T) {
	xTrain, yTrain := linearlySeparable(300, 1)
	xTest, yTest := linearlySeparable(200, 2)
	for _, c := range classifiers() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			if err := c.Fit(xTrain, yTrain); err != nil {
				t.Fatal(err)
			}
			m, err := EvaluateClassifier(c, xTest, yTest)
			if err != nil {
				t.Fatal(err)
			}
			if m.Accuracy < 0.9 {
				t.Fatalf("%s accuracy %.3f < 0.9 (%+v)", c.Name(), m.Accuracy, m)
			}
		})
	}
}

func TestClassifiersNotFitted(t *testing.T) {
	for _, c := range classifiers() {
		if _, err := c.Predict([]float64{1, 2}); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%s: err = %v, want ErrNotFitted", c.Name(), err)
		}
	}
}

func TestClassifiersBadInputs(t *testing.T) {
	for _, c := range classifiers() {
		if err := c.Fit(nil, nil); err == nil {
			t.Errorf("%s: empty fit accepted", c.Name())
		}
		if err := c.Fit([][]float64{{1, 2}}, []bool{true, false}); err == nil {
			t.Errorf("%s: mismatched labels accepted", c.Name())
		}
		if err := c.Fit([][]float64{{1, 2}, {3}}, []bool{true, false}); err == nil {
			t.Errorf("%s: ragged rows accepted", c.Name())
		}
	}
	for _, c := range classifiers() {
		x, y := linearlySeparable(50, 3)
		if err := c.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Predict([]float64{1}); err == nil {
			t.Errorf("%s: wrong predict dim accepted", c.Name())
		}
	}
}

func TestKNNClassifierExactNeighbors(t *testing.T) {
	x := [][]float64{{0, 0}, {0, 1}, {10, 10}, {10, 11}, {10, 12}}
	y := []bool{false, false, true, true, true}
	c := &KNNClassifier{K: 3}
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := c.Predict([]float64{10, 10.5})
	if err != nil || !got {
		t.Fatalf("predict near positives = %v, %v", got, err)
	}
	got, err = c.Predict([]float64{0, 0.5})
	if err != nil || got {
		t.Fatalf("predict near negatives = %v, %v", got, err)
	}
}

func TestKNNClassifierTieBreaksPositive(t *testing.T) {
	x := [][]float64{{0, 0}, {2, 0}}
	y := []bool{false, true}
	c := &KNNClassifier{K: 2}
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := c.Predict([]float64{1, 0})
	if err != nil || !got {
		t.Fatalf("tie should break positive, got %v, %v", got, err)
	}
}

func TestKNNRegressorLookupBehaviour(t *testing.T) {
	x := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	y := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	r := &KNNRegressor{K: 2}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Exact match returns the stored case.
	pred, err := r.Predict(nil, []float64{10, 0})
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] != 3 || pred[1] != 4 {
		t.Fatalf("exact lookup = %v", pred)
	}
	// Near a point, prediction is pulled toward its target.
	pred, err = r.Predict(nil, []float64{9, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred[0]-3) > 1 {
		t.Fatalf("near lookup = %v", pred)
	}
}

func TestKNNRegressorWeightsAreConvex(t *testing.T) {
	// Prediction always lies within the convex hull of neighbor targets.
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := [][]float64{{0}, {10}, {20}, {30}}
	r := &KNNRegressor{K: 4}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	f := func(q float64) bool {
		q = math.Mod(math.Abs(q), 3)
		pred, err := r.Predict(nil, []float64{q})
		if err != nil {
			return false
		}
		return pred[0] >= -1e-9 && pred[0] <= 30+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearRegressorRecoversPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y [][]float64
	for i := 0; i < 100; i++ {
		a, b := rng.Float64()*100, rng.Float64()*100
		x = append(x, []float64{a, b})
		y = append(y, []float64{2*a - b + 3, a + 4})
	}
	r := &LinearRegressor{}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, err := r.Predict(nil, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred[0]-3) > 1e-6 || math.Abs(pred[1]-14) > 1e-6 {
		t.Fatalf("pred = %v", pred)
	}
	mae, err := EvaluateRegressor(r, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if mae > 1e-6 {
		t.Fatalf("mae = %v", mae)
	}
}

func TestRANSACIgnoresOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var x [][]float64
	var y [][]float64
	// 80 clean points on y = 3x + 1, 20 wild outliers.
	for i := 0; i < 80; i++ {
		a := rng.Float64() * 100
		x = append(x, []float64{a})
		y = append(y, []float64{3*a + 1})
	}
	for i := 0; i < 20; i++ {
		a := rng.Float64() * 100
		x = append(x, []float64{a})
		y = append(y, []float64{3*a + 1 + 500 + rng.Float64()*500})
	}
	var plain LinearRegressor
	if err := plain.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	ransac := &RANSACRegressor{Seed: 1}
	if err := ransac.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p1, _ := plain.Predict(nil, []float64{50})
	p2, _ := ransac.Predict(nil, []float64{50})
	truth := 151.0
	if math.Abs(p2[0]-truth) > 5 {
		t.Fatalf("ransac pred = %v, want ~%v", p2[0], truth)
	}
	if math.Abs(p1[0]-truth) < math.Abs(p2[0]-truth) {
		t.Fatalf("plain OLS (%v) beat RANSAC (%v) on outlier data", p1[0], p2[0])
	}
}

func TestRANSACFallbackOnTinyData(t *testing.T) {
	// Fewer points than the default sample size: must still fit.
	x := [][]float64{{0}, {1}, {2}}
	y := [][]float64{{0}, {2}, {4}}
	r := &RANSACRegressor{Seed: 2}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, err := r.Predict(nil, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred[0]-6) > 1e-6 {
		t.Fatalf("pred = %v", pred)
	}
}

func TestHomographyRegressorAffineBoxes(t *testing.T) {
	// Boxes mapped by a pure translation: homography fits exactly.
	rng := rand.New(rand.NewSource(7))
	var x, y [][]float64
	for i := 0; i < 30; i++ {
		x1, y1 := rng.Float64()*500, rng.Float64()*500
		w, h := 20+rng.Float64()*50, 20+rng.Float64()*50
		x = append(x, []float64{x1, y1, x1 + w, y1 + h})
		y = append(y, []float64{x1 + 100, y1 - 50, x1 + w + 100, y1 + h - 50})
	}
	r := &HomographyRegressor{}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	mae, err := EvaluateRegressor(r, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if mae > 1e-3 {
		t.Fatalf("mae = %v", mae)
	}
}

func TestHomographyRegressorRejectsBadDims(t *testing.T) {
	r := &HomographyRegressor{}
	if err := r.Fit([][]float64{{1, 2}}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("2-dim features accepted")
	}
	if _, err := r.Predict(nil, []float64{1, 2, 3, 4}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v", err)
	}
}

func TestHomographyRegressorNormalizesCorners(t *testing.T) {
	// A homography that flips the plane must still yield min<=max boxes.
	var x, y [][]float64
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		x1, y1 := rng.Float64()*100, rng.Float64()*100
		x = append(x, []float64{x1, y1, x1 + 10, y1 + 10})
		y = append(y, []float64{-x1 - 10, -y1 - 10, -x1, -y1}) // mirrored
	}
	r := &HomographyRegressor{}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, err := r.Predict(nil, []float64{5, 5, 15, 15})
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] > pred[2] || pred[1] > pred[3] {
		t.Fatalf("unnormalized box %v", pred)
	}
}

func TestRegressorsBadInputs(t *testing.T) {
	regs := []Regressor{&KNNRegressor{}, &LinearRegressor{}, &RANSACRegressor{}}
	for _, r := range regs {
		if err := r.Fit(nil, nil); err == nil {
			t.Errorf("%s: empty fit accepted", r.Name())
		}
		if err := r.Fit([][]float64{{1}}, [][]float64{{1}, {2}}); err == nil {
			t.Errorf("%s: mismatched fit accepted", r.Name())
		}
		if _, err := r.Predict(nil, []float64{1}); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%s: err = %v, want ErrNotFitted", r.Name(), err)
		}
	}
}

// TestRegressorsPredictIntoDst pins the append form of Regressor.Predict
// for every regressor: with room in dst, Predict(dst[:0], x) allocates
// nothing and yields exactly the values of Predict(nil, x), and a
// non-empty dst keeps its prefix.
func TestRegressorsPredictIntoDst(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var x, y [][]float64
	for i := 0; i < 40; i++ {
		x1, y1 := rng.Float64()*500, rng.Float64()*500
		w, h := 20+rng.Float64()*50, 20+rng.Float64()*50
		x = append(x, []float64{x1, y1, x1 + w, y1 + h})
		y = append(y, []float64{0.9*x1 + 30, y1 - 20, 0.9*(x1+w) + 30, y1 + h - 20 + rng.Float64()})
	}
	for _, r := range []Regressor{&KNNRegressor{K: 5}, &LinearRegressor{}, &RANSACRegressor{Seed: 1}, &HomographyRegressor{}} {
		if err := r.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		// A training point (KNN's exact-match lookup) and a fresh one.
		for _, q := range [][]float64{x[3], {111, 222, 150, 260}} {
			want, err := r.Predict(nil, q)
			if err != nil {
				t.Fatalf("%s: %v", r.Name(), err)
			}
			dst := make([]float64, 0, 8)
			var got []float64
			if n := testing.AllocsPerRun(100, func() {
				got, err = r.Predict(dst[:0], q)
			}); n != 0 || err != nil {
				t.Errorf("%s: Predict into a roomy dst: %v allocs, err %v; want 0, nil", r.Name(), n, err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: Predict(dst[:0], %v) = %v, Predict(nil, ..) = %v", r.Name(), q, got, want)
			}
			prefixed, err := r.Predict([]float64{-1}, q)
			if err != nil || prefixed[0] != -1 || !slices.Equal(prefixed[1:], want) {
				t.Errorf("%s: Predict after a prefix = %v, %v; want [-1 %v]", r.Name(), prefixed, err, want)
			}
		}
	}
}

func TestEvaluateClassifierCounts(t *testing.T) {
	c := &KNNClassifier{K: 1}
	x := [][]float64{{0}, {10}}
	y := []bool{false, true}
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Test points: two right, one wrong on each side.
	tx := [][]float64{{1}, {9}, {2}, {8}}
	ty := []bool{false, true, true, false}
	m, err := EvaluateClassifier(c, tx, ty)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP != 1 || m.TN != 1 || m.FP != 1 || m.FN != 1 {
		t.Fatalf("counts = %+v", m)
	}
	if m.Precision != 0.5 || m.Recall != 0.5 || m.Accuracy != 0.5 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestEvaluateRegressorErrors(t *testing.T) {
	r := &LinearRegressor{}
	if _, err := EvaluateRegressor(r, [][]float64{{1}}, nil); err == nil {
		t.Fatal("mismatched eval accepted")
	}
	if _, err := EvaluateRegressor(r, nil, nil); err == nil {
		t.Fatal("empty eval accepted")
	}
}

// nodeDepth is the depth of a fitted (sub)tree, 0 for a single leaf.
func nodeDepth(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	return 1 + max(nodeDepth(n.left), nodeDepth(n.right))
}

// TestTreeDepthBounded fits labels that are noise, which a tree without
// the depth bound chases well past treeMaxDepth, and checks that the
// fitted tree stops at the bound.
func TestTreeDepthBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([][]float64, 2000)
	y := make([]bool, len(x))
	idx := make([]int, len(x))
	for i := range x {
		x[i] = []float64{rng.Float64() * 200, rng.Float64() * 200}
		y[i] = rng.Intn(2) == 0
		idx[i] = i
	}
	if d := nodeDepth(grow(x, y, idx, 64, treeMinSamplesLeaf)); d <= treeMaxDepth {
		t.Fatalf("unbounded tree reaches depth %d: this data cannot catch a bound of %d", d, treeMaxDepth)
	}
	tr := &TreeClassifier{}
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if d := nodeDepth(tr.root); d > treeMaxDepth {
		t.Fatalf("depth %d > %d", d, treeMaxDepth)
	}
}

func TestTreePureNodeIsLeaf(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []bool{true, true, true}
	tr := &TreeClassifier{}
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if d := nodeDepth(tr.root); d != 0 {
		t.Fatalf("pure data should yield a leaf, depth=%d", d)
	}
	got, err := tr.Predict([]float64{99})
	if err != nil || !got {
		t.Fatalf("pure-positive tree predicted %v, %v", got, err)
	}
}

func TestSigmoid(t *testing.T) {
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0) = %v", s)
	}
	if s := sigmoid(100); s <= 0.999 {
		t.Fatalf("sigmoid(100) = %v", s)
	}
	if s := sigmoid(-100); s >= 0.001 {
		t.Fatalf("sigmoid(-100) = %v", s)
	}
	// Symmetric: sigmoid(-z) = 1 - sigmoid(z).
	f := func(z float64) bool {
		z = math.Mod(z, 50)
		return math.Abs(sigmoid(-z)-(1-sigmoid(z))) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScalerConstantFeature(t *testing.T) {
	x := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	s := fitScaler(x)
	out := s.apply([]float64{5, 2})
	if out[0] != 0 {
		t.Fatalf("constant feature should centre to 0, got %v", out[0])
	}
	if math.IsNaN(out[1]) || math.IsInf(out[1], 0) {
		t.Fatalf("scaled = %v", out)
	}
}
