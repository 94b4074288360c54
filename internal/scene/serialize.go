package scene

import (
	"encoding/json"
	"fmt"

	"mvs/internal/geom"
)

// The wire representation of a camera roster and of a frame, decoupled
// from the runtime structs so the run store's on-disk format stays stable
// if internals evolve.

type cameraJSON struct {
	Name         string  `json:"name"`
	PosX         float64 `json:"pos_x"`
	PosY         float64 `json:"pos_y"`
	Height       float64 `json:"height"`
	Yaw          float64 `json:"yaw"`
	Pitch        float64 `json:"pitch"`
	Focal        float64 `json:"focal"`
	ImageW       float64 `json:"image_w"`
	ImageH       float64 `json:"image_h"`
	MaxRange     float64 `json:"max_range,omitempty"`
	MinPixelArea float64 `json:"min_pixel_area,omitempty"`
}

type frameJSON struct {
	Index     int          `json:"index"`
	Objects   []objectJSON `json:"objects,omitempty"`
	PerCamera [][]obsJSON  `json:"per_camera"`
}

type objectJSON struct {
	ID      int     `json:"id"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Heading float64 `json:"heading"`
	Speed   float64 `json:"speed"`
	W       float64 `json:"w"`
	L       float64 `json:"l"`
	H       float64 `json:"h"`
}

type obsJSON struct {
	ID  int        `json:"id"`
	Box [4]float64 `json:"box"`
}

func toCameraJSON(c *Camera) cameraJSON {
	return cameraJSON{
		Name: c.Name, PosX: c.Pos.X, PosY: c.Pos.Y,
		Height: c.Height, Yaw: c.Yaw, Pitch: c.Pitch, Focal: c.Focal,
		ImageW: c.ImageW, ImageH: c.ImageH,
		MaxRange: c.MaxRange, MinPixelArea: c.MinPixelArea,
	}
}

func fromCameraJSON(c cameraJSON) (*Camera, error) {
	cam := &Camera{
		Name: c.Name, Pos: geom.Point{X: c.PosX, Y: c.PosY},
		Height: c.Height, Yaw: c.Yaw, Pitch: c.Pitch, Focal: c.Focal,
		ImageW: c.ImageW, ImageH: c.ImageH,
		MaxRange: c.MaxRange, MinPixelArea: c.MinPixelArea,
	}
	if err := cam.Validate(); err != nil {
		return nil, err
	}
	return cam, nil
}

func fromFrameJSON(jf frameJSON, numCameras int) (*FrameTruth, error) {
	if len(jf.PerCamera) != numCameras {
		return nil, fmt.Errorf("scene: frame %d has %d camera lists, want %d",
			jf.Index, len(jf.PerCamera), numCameras)
	}
	f := &FrameTruth{Index: jf.Index, PerCamera: make([][]Observation, numCameras)}
	for _, o := range jf.Objects {
		f.Objects = append(f.Objects, ObjectState{
			ID: o.ID, Pos: geom.Point{X: o.X, Y: o.Y},
			Heading: o.Heading, Speed: o.Speed,
			Dims: Dims{W: o.W, L: o.L, H: o.H},
		})
	}
	for ci, obs := range jf.PerCamera {
		for _, o := range obs {
			f.PerCamera[ci] = append(f.PerCamera[ci], Observation{
				ObjectID: o.ID,
				Box:      geom.Rect{MinX: o.Box[0], MinY: o.Box[1], MaxX: o.Box[2], MaxY: o.Box[3]},
			})
		}
	}
	return f, nil
}

// MarshalCameras returns the wire JSON for a camera roster, so other
// packages (the run store's manifest) can persist cameras without
// coupling to runtime structs.
func MarshalCameras(cams []*Camera) (json.RawMessage, error) {
	out := make([]cameraJSON, 0, len(cams))
	for _, c := range cams {
		out = append(out, toCameraJSON(c))
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("scene: encode cameras: %w", err)
	}
	return data, nil
}

// UnmarshalCameras parses a roster written by MarshalCameras, validating
// each camera.
func UnmarshalCameras(data json.RawMessage) ([]*Camera, error) {
	var in []cameraJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("scene: decode cameras: %w", err)
	}
	cams := make([]*Camera, 0, len(in))
	for _, c := range in {
		cam, err := fromCameraJSON(c)
		if err != nil {
			return nil, err
		}
		cams = append(cams, cam)
	}
	return cams, nil
}

// MarshalFrame returns one frame's wire JSON (one line of a run-store
// frame segment).
func MarshalFrame(f *FrameTruth) ([]byte, error) {
	data, err := AppendFrame(nil, f)
	if err != nil {
		return nil, fmt.Errorf("scene: encode frame: %w", err)
	}
	return data, nil
}

// UnmarshalFrame parses a frame written by MarshalFrame, checking it
// carries exactly numCameras observation lists. MarshalFrame's own bytes
// are scanned (codec.go); any other JSON spelling of the schema goes
// through encoding/json. It is the allocating form of FrameDecoder: the
// frame, its camera table and each non-empty list are the caller's, each
// allocated once at its exact size.
func UnmarshalFrame(data []byte, numCameras int) (*FrameTruth, error) {
	f := new(FrameTruth)
	d := dec{b: data}
	if d.frame(f, nil, numCameras) {
		return f, nil
	}
	return unmarshalFrameJSON(data, numCameras)
}

// unmarshalFrameJSON decodes a frame with encoding/json, the path for
// anything the scanner reports as not canonical.
func unmarshalFrameJSON(data []byte, numCameras int) (*FrameTruth, error) {
	var jf frameJSON
	if err := json.Unmarshal(data, &jf); err != nil {
		return nil, fmt.Errorf("scene: decode frame: %w", err)
	}
	return fromFrameJSON(jf, numCameras)
}

// UnmarshalObservations parses the wire JSON of one camera's
// observation list (AppendObservations) — the per-camera element of
// MarshalFrame's schema — so a live ingest protocol can ship a frame
// camera by camera without coupling to runtime structs.
func UnmarshalObservations(data json.RawMessage) ([]Observation, error) {
	if obs, rest, ok := ScanObservations(nil, data); ok && len(rest) == 0 {
		return obs, nil
	}
	var in []obsJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("scene: decode observations: %w", err)
	}
	obs := make([]Observation, 0, len(in))
	for _, o := range in {
		obs = append(obs, Observation{
			ObjectID: o.ID,
			Box:      geom.Rect{MinX: o.Box[0], MinY: o.Box[1], MaxX: o.Box[2], MaxY: o.Box[3]},
		})
	}
	return obs, nil
}

// UnmarshalObjects parses the wire JSON of a ground-truth object list
// (AppendObjects) — the objects element of MarshalFrame's schema.
func UnmarshalObjects(data json.RawMessage) ([]ObjectState, error) {
	if objs, rest, ok := ScanObjects(nil, data); ok && len(rest) == 0 {
		return objs, nil
	}
	var in []objectJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("scene: decode objects: %w", err)
	}
	objs := make([]ObjectState, 0, len(in))
	for _, o := range in {
		objs = append(objs, ObjectState{
			ID: o.ID, Pos: geom.Point{X: o.X, Y: o.Y},
			Heading: o.Heading, Speed: o.Speed,
			Dims: Dims{W: o.W, L: o.L, H: o.H},
		})
	}
	return objs, nil
}
