package scene

import (
	"encoding/json"
	"fmt"

	"mvs/internal/geom"
)

// The frame codec as it stood before codec.go, kept verbatim but for the
// names: reflection-driven encoding/json over intermediate copies of the
// wire structs. It is what FuzzFrameCodec and the trace tests hold the
// hand-written codec to, byte for byte and value for value.

func oracleToFrameJSON(f *FrameTruth) frameJSON {
	jf := frameJSON{Index: f.Index, PerCamera: make([][]obsJSON, len(f.PerCamera))}
	for _, o := range f.Objects {
		jf.Objects = append(jf.Objects, objectJSON{
			ID: o.ID, X: o.Pos.X, Y: o.Pos.Y, Heading: o.Heading,
			Speed: o.Speed, W: o.Dims.W, L: o.Dims.L, H: o.Dims.H,
		})
	}
	for ci, obs := range f.PerCamera {
		for _, o := range obs {
			jf.PerCamera[ci] = append(jf.PerCamera[ci], obsJSON{
				ID:  o.ObjectID,
				Box: [4]float64{o.Box.MinX, o.Box.MinY, o.Box.MaxX, o.Box.MaxY},
			})
		}
	}
	return jf
}

func oracleMarshalFrame(f *FrameTruth) ([]byte, error) {
	data, err := json.Marshal(oracleToFrameJSON(f))
	if err != nil {
		return nil, fmt.Errorf("scene: encode frame: %w", err)
	}
	return data, nil
}

func oracleUnmarshalFrame(data []byte, numCameras int) (*FrameTruth, error) {
	var jf frameJSON
	if err := json.Unmarshal(data, &jf); err != nil {
		return nil, fmt.Errorf("scene: decode frame: %w", err)
	}
	return fromFrameJSON(jf, numCameras)
}

func oracleMarshalObservations(obs []Observation) (json.RawMessage, error) {
	out := make([]obsJSON, 0, len(obs))
	for _, o := range obs {
		out = append(out, obsJSON{
			ID:  o.ObjectID,
			Box: [4]float64{o.Box.MinX, o.Box.MinY, o.Box.MaxX, o.Box.MaxY},
		})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("scene: encode observations: %w", err)
	}
	return data, nil
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

func oracleMarshalObjects(objs []ObjectState) (json.RawMessage, error) {
	out := make([]objectJSON, 0, len(objs))
	for _, o := range objs {
		out = append(out, objectJSON{
			ID: o.ID, X: o.Pos.X, Y: o.Pos.Y, Heading: o.Heading,
			Speed: o.Speed, W: o.Dims.W, L: o.Dims.L, H: o.Dims.H,
		})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("scene: encode objects: %w", err)
	}
	return data, nil
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
