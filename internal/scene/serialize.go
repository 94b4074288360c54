package scene

import (
	"encoding/json"
	"fmt"

	"mvs/internal/geom"
)

// The wire representation of a camera roster, decoupled from the
// runtime struct so the run store's manifest stays stable if internals
// evolve. A frame's wire form is codec.go's.

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
// carries exactly numCameras observation lists. Only MarshalFrame's own
// bytes are a frame (codec.go): anything else is an error naming the
// byte offset where the scan stopped. It is the allocating form of
// FrameDecoder: the frame, its camera table and each non-empty list are
// the caller's, each allocated once at its exact size.
func UnmarshalFrame(data []byte, numCameras int) (*FrameTruth, error) {
	f := new(FrameTruth)
	d := dec{b: data}
	if !d.frame(f, nil, numCameras) {
		return nil, d.frameError(numCameras)
	}
	return f, nil
}
