package main

// The three SVG views mvviz writes, using only the standard library:
//
//   - a world map: roads, camera positions/orientations, and each
//     camera's ground-visibility footprint — the fastest way to sanity-
//     check a scenario's overlap structure;
//   - a workload chart: the per-camera object-count series of Fig. 2;
//   - a latency bar chart: the per-algorithm comparison of Fig. 13.

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"mvs/internal/geom"
	"mvs/internal/scene"
)

// palette are the series colours, chosen to stay distinguishable when
// printed.
var palette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

func color(i int) string { return palette[i%len(palette)] }

// svgWriter accumulates SVG elements so call sites stay linear.
type svgWriter struct {
	sb strings.Builder
}

func newSVG(w, h float64) *svgWriter {
	s := &svgWriter{}
	fmt.Fprintf(&s.sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n", w, h, w, h)
	fmt.Fprintf(&s.sb, `<rect width="%.0f" height="%.0f" fill="white"/>`+"\n", w, h)
	return s
}

func (s *svgWriter) line(x1, y1, x2, y2 float64, stroke string, width float64) {
	fmt.Fprintf(&s.sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n",
		x1, y1, x2, y2, stroke, width)
}

func (s *svgWriter) circle(x, y, r float64, fill string) {
	fmt.Fprintf(&s.sb, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s"/>`+"\n", x, y, r, fill)
}

func (s *svgWriter) rect(x, y, w, h float64, fill string) {
	fmt.Fprintf(&s.sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
		x, y, w, h, fill)
}

func (s *svgWriter) rectOp(x, y, w, h float64, fill string, opacity float64) {
	fmt.Fprintf(&s.sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" fill-opacity="%.2f"/>`+"\n",
		x, y, w, h, fill, opacity)
}

func (s *svgWriter) text(x, y float64, size float64, fill, anchor, msg string) {
	fmt.Fprintf(&s.sb, `<text x="%.1f" y="%.1f" font-size="%.0f" font-family="sans-serif" fill="%s" text-anchor="%s">%s</text>`+"\n",
		x, y, size, fill, anchor, escape(msg))
}

func (s *svgWriter) polyline(points []geom.Point, stroke string, width float64) {
	var pts []string
	for _, p := range points {
		pts = append(pts, fmt.Sprintf("%.1f,%.1f", p.X, p.Y))
	}
	fmt.Fprintf(&s.sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="%.1f"/>`+"\n",
		strings.Join(pts, " "), stroke, width)
}

func (s *svgWriter) flush(w io.Writer) error {
	s.sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, s.sb.String())
	return err
}

func escape(msg string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(msg)
}

// worldMap renders the deployment's ground plane: routes as grey
// polylines, cameras as coloured dots with heading arrows, and each
// camera's visibility footprint (sampled on a ground grid) as a
// translucent region.
func worldMap(w io.Writer, world *scene.World) error {
	if err := world.Validate(); err != nil {
		return fmt.Errorf("world map: %w", err)
	}
	// World bounds: all route waypoints and camera positions, padded.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	grow := func(p geom.Point) {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	for _, r := range world.Routes {
		for d := 0.0; d <= r.Path.Length(); d += r.Path.Length() / 16 {
			if p, _, ok := r.Path.PosAt(d); ok {
				grow(p)
			}
		}
	}
	for _, c := range world.Cameras {
		grow(c.Pos)
	}
	pad := 15.0
	minX -= pad
	minY -= pad
	maxX += pad
	maxY += pad

	const size = 720.0
	scale := size / math.Max(maxX-minX, maxY-minY)
	// SVG y grows downward; world y grows up. Flip.
	toSVG := func(p geom.Point) geom.Point {
		return geom.Point{X: (p.X - minX) * scale, Y: (maxY - p.Y) * scale}
	}

	svg := newSVG((maxX-minX)*scale, (maxY-minY)*scale)

	// Visibility footprints: sample a ground grid per camera.
	step := (maxX - minX) / 90
	for ci, cam := range world.Cameras {
		var cells []geom.Point
		for x := minX; x < maxX; x += step {
			for y := minY; y < maxY; y += step {
				if cam.SeesGround(geom.Point{X: x, Y: y}) {
					cells = append(cells, geom.Point{X: x, Y: y})
				}
			}
		}
		for _, c := range cells {
			p := toSVG(c)
			svg.rectOp(p.X, p.Y-step*scale, step*scale, step*scale, color(ci), 0.10)
		}
	}

	// Routes.
	for _, r := range world.Routes {
		var pts []geom.Point
		n := int(r.Path.Length())
		if n < 2 {
			n = 2
		}
		for i := 0; i <= n; i++ {
			d := r.Path.Length() * float64(i) / float64(n)
			if p, _, ok := r.Path.PosAt(d); ok {
				pts = append(pts, toSVG(p))
			}
		}
		svg.polyline(pts, "#333333", 3)
	}

	// Cameras.
	for ci, cam := range world.Cameras {
		p := toSVG(cam.Pos)
		svg.circle(p.X, p.Y, 7, color(ci))
		dir := geom.Point{X: math.Cos(cam.Yaw), Y: math.Sin(cam.Yaw)}
		tip := toSVG(cam.Pos.Add(dir.Scale(12)))
		svg.line(p.X, p.Y, tip.X, tip.Y, color(ci), 3)
		svg.text(p.X+10, p.Y-8, 14, "#000000", "start", cam.Name)
	}
	svg.text(10, 20, 16, "#000000", "start", "deployment map (shaded = camera visibility footprints)")
	return svg.flush(w)
}

// workloadChart renders the Fig. 2 per-camera object-count series. A
// series of one sample sits on the left axis.
func workloadChart(w io.Writer, names []string, counts [][]int, sampleEverySec float64) error {
	if len(counts) == 0 || len(counts[0]) == 0 {
		return fmt.Errorf("empty workload series")
	}
	const width, height, margin = 860.0, 360.0, 50.0
	svg := newSVG(width, height)

	maxCount := 1
	for _, series := range counts {
		for _, v := range series {
			if v > maxCount {
				maxCount = v
			}
		}
	}
	plotW := width - 2*margin
	plotH := height - 2*margin
	x := func(i int) float64 {
		if len(counts[0]) == 1 {
			return margin
		}
		return margin + plotW*float64(i)/float64(len(counts[0])-1)
	}
	y := func(v int) float64 {
		return height - margin - plotH*float64(v)/float64(maxCount)
	}

	// Axes.
	svg.line(margin, height-margin, width-margin, height-margin, "#000000", 1)
	svg.line(margin, margin, margin, height-margin, "#000000", 1)
	svg.text(width/2, height-10, 13, "#000000", "middle",
		fmt.Sprintf("time (1 sample = %.0f s)", sampleEverySec))
	svg.text(14, height/2, 13, "#000000", "middle", "objects")
	for v := 0; v <= maxCount; v += max(1, maxCount/5) {
		svg.text(margin-8, y(v)+4, 11, "#555555", "end", fmt.Sprintf("%d", v))
		svg.line(margin, y(v), width-margin, y(v), "#eeeeee", 1)
	}

	for ci, series := range counts {
		var pts []geom.Point
		for i, v := range series {
			pts = append(pts, geom.Point{X: x(i), Y: y(v)})
		}
		svg.polyline(pts, color(ci), 2)
		label := fmt.Sprintf("cam %d", ci)
		if ci < len(names) {
			label = names[ci]
		}
		svg.text(width-margin+4, margin+float64(ci)*16, 12, color(ci), "start", label)
	}
	svg.text(margin, 24, 15, "#000000", "start", "per-camera object workload (Fig. 2)")
	return svg.flush(w)
}

// latencyBars renders the Fig. 13 per-algorithm latency comparison.
func latencyBars(w io.Writer, labels []string, latencies []time.Duration) error {
	if len(labels) != len(latencies) || len(labels) == 0 {
		return fmt.Errorf("%d labels for %d latencies", len(labels), len(latencies))
	}
	const width, height, margin = 640.0, 360.0, 60.0
	svg := newSVG(width, height)

	var maxLat time.Duration = 1
	for _, l := range latencies {
		if l > maxLat {
			maxLat = l
		}
	}
	plotW := width - 2*margin
	plotH := height - 2*margin
	barW := plotW / float64(len(labels)) * 0.6
	gap := plotW / float64(len(labels))

	svg.line(margin, height-margin, width-margin, height-margin, "#000000", 1)
	for i, l := range latencies {
		h := plotH * float64(l) / float64(maxLat)
		x := margin + gap*float64(i) + (gap-barW)/2
		svg.rect(x, height-margin-h, barW, h, color(i))
		svg.text(x+barW/2, height-margin+16, 12, "#000000", "middle", labels[i])
		svg.text(x+barW/2, height-margin-h-6, 11, "#333333", "middle",
			fmt.Sprintf("%.0fms", float64(l)/1e6))
	}
	svg.text(margin, 24, 15, "#000000", "start", "per-frame inference latency, slowest camera (Fig. 13)")
	return svg.flush(w)
}
