package scene

import (
	"encoding/json"
	"fmt"

	"mvs/internal/geom"
)

// The frame decoders as they stood before codec.go, kept verbatim but for
// the names: encoding/json over intermediate copies of the wire structs.
// They are the specification FuzzFrameCodec holds the scanners to (sound
// and complete, value for value), and json.Marshal of the same structs
// the one the encoders are held to (checkEncode).

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

func oracleUnmarshalFrame(data []byte, numCameras int) (*FrameTruth, error) {
	var jf frameJSON
	if err := json.Unmarshal(data, &jf); err != nil {
		return nil, fmt.Errorf("scene: decode frame: %w", err)
	}
	return oracleFromFrameJSON(jf, numCameras)
}

func oracleFromFrameJSON(jf frameJSON, numCameras int) (*FrameTruth, error) {
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

func oracleUnmarshalObservations(data json.RawMessage) ([]Observation, error) {
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

func oracleUnmarshalObjects(data json.RawMessage) ([]ObjectState, error) {
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
