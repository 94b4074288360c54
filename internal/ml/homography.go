package ml

import "fmt"

// HomographyRegressor maps bounding boxes between cameras through a
// single planar homography fitted on box corner correspondences. It is
// the paper's weakest regression baseline: a homography "can only map
// points in a 2D plane like ground in two cameras but not the bounding
// box coordinates, which can be affected by the object sizes (in all
// three dimensions including height) and facing directions" — so it
// systematically mis-places boxes for tall or rotated objects.
//
// Features must be 4-vectors [MinX, MinY, MaxX, MaxY]; both corners of
// each training box contribute a point correspondence.
type HomographyRegressor struct {
	h      homography
	fitted bool
}

// Name implements Regressor.
func (h *HomographyRegressor) Name() string { return "homography" }

// Fit estimates a single homography from all corner correspondences.
func (h *HomographyRegressor) Fit(x [][]float64, y [][]float64) error {
	dim, out, err := checkXYReg(x, y)
	if err != nil {
		return fmt.Errorf("homography regressor: %w", err)
	}
	if dim != 4 || out != 4 {
		return fmt.Errorf("homography regressor: needs 4-dim boxes, got dim=%d out=%d", dim, out)
	}
	src := make([][2]float64, 0, 2*len(x))
	dst := make([][2]float64, 0, 2*len(x))
	for i := range x {
		src = append(src, [2]float64{x[i][0], x[i][1]}, [2]float64{x[i][2], x[i][3]})
		dst = append(dst, [2]float64{y[i][0], y[i][1]}, [2]float64{y[i][2], y[i][3]})
	}
	hom, err := estimateHomography(src, dst)
	if err != nil {
		return fmt.Errorf("homography regressor: %w", err)
	}
	h.h = hom
	h.fitted = true
	return nil
}

// Predict maps both corners of the box through the homography and
// appends the normalized (min, max) box to dst.
func (h *HomographyRegressor) Predict(dst, x []float64) ([]float64, error) {
	if !h.fitted {
		return dst, ErrNotFitted
	}
	if len(x) != 4 {
		return dst, fmt.Errorf("homography regressor: feature dim %d, want 4", len(x))
	}
	x1, y1 := h.h.apply(x[0], x[1])
	x2, y2 := h.h.apply(x[2], x[3])
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return append(dst, x1, y1, x2, y2), nil
}
