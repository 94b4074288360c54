package experiments

import (
	"fmt"

	"mvs/internal/adapt"
	"mvs/internal/pipeline"
	"mvs/internal/pool"
	"mvs/internal/serve"
)

// A Study is one table of the evaluation as data: a title, the arms it
// runs, its columns, and the shape the paper (or the design) predicts
// for it.
type Study struct {
	// Name is the study's mvexp -exp name and its CSV stem
	// (<Name>_<scenario>.csv).
	Name  string
	Title string
	// Columns head the table: a row holds one cell per column.
	Columns []Column
	// Expect is the expected-shape sentence.
	Expect string
	// Paper marks the paper's own tables and figures (mvexp -exp all).
	Paper bool
	// scenarios is what the study runs on when mvexp names none (nil:
	// S1, S2, S3); a pinned study runs on them whatever it is given.
	scenarios []string
	pinned    bool
	// plan adds the study's arms and rows on one scenario.
	plan func(*plan) error
}

// Column is one column of a study's table. A cell is a string, an int,
// a float64 (printed with Prec decimals) or a time.Duration (printed in
// whole microseconds, so its column name ends in _us).
type Column struct {
	Name string
	Prec int
}

// ScenariosFor resolves mvexp's -scenario value for this study: "all"
// means the study's own default scenarios, any other name just that
// scenario — except for a study pinned to its own fleet.
func (st *Study) ScenariosFor(scenario string) []string {
	switch {
	case st.pinned || scenario == "all" && st.scenarios != nil:
		return st.scenarios
	case scenario == "all":
		return []string{"S1", "S2", "S3"}
	}
	return []string{scenario}
}

// Harness runs studies on scenarios. It prepares each scenario's Setup
// once and keeps its finished arms by label while successive studies run
// on it, so studies that share arms (Figs. 12, 13 and Table II all read
// the five "modes/…" runs) run them once.
type Harness struct {
	// Seed and Frames generate every scenario world (Generate).
	Seed   int64
	Frames int
	// Opts bounds and observes every arm.
	Opts Options
	// Adapt is the adapt study's controller; the zero policy selects
	// slo=500ms, window=20, cooldown=2, max=3 with QueueHigh at half the
	// fleet's total queue capacity.
	Adapt adapt.Policy

	scenario string
	prepared *Setup
	runs     map[string]*outcome // the scenario's finished arms, by label
}

// on is a harness already prepared on s.
func on(s *Setup, opts Options) *Harness {
	return &Harness{Seed: s.Seed, Opts: opts, scenario: s.Scenario.Name, prepared: s, runs: map[string]*outcome{}}
}

// Run runs st on the named scenario and returns its table: one row per
// table line, one cell per column.
func (h *Harness) Run(st *Study, scenario string) ([][]any, error) {
	if scenario != h.scenario || h.runs == nil {
		h.scenario, h.prepared, h.runs = scenario, nil, map[string]*outcome{}
	}
	p := &plan{Harness: h}
	if err := st.plan(p); err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", st.Name, scenario, err)
	}
	if err := runArms(p.arms, h.Opts.Workers); err != nil {
		return nil, err
	}
	for _, a := range p.arms {
		h.runs[a.label] = a.out
	}
	rows := make([][]any, len(p.rows))
	for i, row := range p.rows {
		rows[i] = row()
	}
	return rows, nil
}

// plan assembles one study on one scenario: the arms the runner will run
// and the rows that read their outcomes once it has.
type plan struct {
	*Harness
	arms []arm
	rows []func() []any
}

// row adds a table row whose cells are known now.
func (p *plan) row(cells ...any) { p.rows = append(p.rows, func() []any { return cells }) }

// later adds a table row computed once the arms have run.
func (p *plan) later(cells func() []any) { p.rows = append(p.rows, cells) }

// setup returns the scenario's prepared setup, preparing it on first use.
func (p *plan) setup() (*Setup, error) {
	if p.prepared == nil {
		s, err := Prepare(p.scenario, p.Seed, p.Frames, p.Opts.Workers)
		if err != nil {
			return nil, err
		}
		p.prepared = s
	}
	return p.prepared, nil
}

// An arm is one run of a study under its snapshot label.
type arm struct {
	label string
	run   func() (outcome, error)
	out   *outcome // filled in by the runner
}

// outcome is what an arm produced: its report, or for a pool arm the
// tenants' reports in registration order and the pool's counters, plus
// the admission counters of an ingest-fed arm.
type outcome struct {
	rep     *pipeline.Report
	ingest  pipeline.IngestCounters
	tenants []*pipeline.Report
	pool    serve.PoolStats
}

// runArms is the one runner: it executes arms on at most workers
// goroutines (in arm order when workers is 1) and fills each arm's
// outcome.
func runArms(arms []arm, workers int) error {
	return pool.Do(workers, len(arms), func(i int) error {
		o, err := arms[i].run()
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", arms[i].label, err)
		}
		*arms[i].out = o
		return nil
	})
}

// add schedules an arm, unless one of this label already ran on the
// scenario, and returns the outcome its rows read.
func (p *plan) add(label string, run func() (outcome, error)) *outcome {
	if o, ok := p.runs[label]; ok {
		return o
	}
	o := &outcome{}
	p.arms = append(p.arms, arm{label: label, run: run, out: o})
	return o
}

// config is where every pipeline arm's configuration starts: the mode,
// the harness seed, the worker bound, the shared sink and the label.
func (p *plan) config(label string, mode pipeline.Mode) pipeline.Config {
	cfg := pipeline.NewConfig(mode, p.Seed)
	cfg.Sched.Workers = p.Opts.Workers
	cfg.Obs.Sink, cfg.Obs.Label = p.Opts.Sink, label
	return cfg
}

// pipe adds an arm that runs cfg over s's evaluation half.
func (p *plan) pipe(s *Setup, cfg pipeline.Config) *outcome {
	return p.add(cfg.Obs.Label, func() (outcome, error) {
		rep, err := pipeline.Run(s.Test, s.Scenario.Profiles(), s.Model, cfg)
		return outcome{rep: rep}, err
	})
}

// feed adds an arm that runs cfg on an in-process IngestSource under the
// given admission policy, fed s's evaluation frames in lockstep, no
// sockets: before every engine step it offers the next arrivals(src)
// frames' parts, and the end of stream once the trace is exhausted.
func (p *plan) feed(s *Setup, policy pipeline.ShedPolicy, cfg pipeline.Config, arrivals func(*pipeline.IngestSource) int) *outcome {
	return p.add(cfg.Obs.Label, func() (outcome, error) {
		src, err := pipeline.NewIngestSource(s.Test.Cameras, pipeline.IngestConfig{Policy: policy})
		if err != nil {
			return outcome{}, err
		}
		defer src.Close()
		eng, err := pipeline.NewEngine(src, s.Scenario.Profiles(), s.Model, cfg)
		if err != nil {
			return outcome{}, err
		}
		frames := s.Test.Frames
		var parts []pipeline.FramePart
		for fi, eos := 0, false; ; {
			parts = parts[:0]
			for n := arrivals(src); n > 0 && fi < len(frames); n-- {
				parts = pipeline.AppendFrameParts(parts, fi, &frames[fi])
				fi++
			}
			if fi >= len(frames) && !eos {
				eos = true
				parts = pipeline.AppendEOSParts(parts, len(s.Test.Cameras))
			}
			for _, part := range parts {
				if err := src.Offer(part); err != nil {
					return outcome{}, err
				}
			}
			more, err := eng.Step()
			if err != nil {
				return outcome{}, err
			}
			if !more {
				break
			}
		}
		rep, err := eng.Report()
		return outcome{rep: rep, ingest: src.Counters()}, err
	})
}

// serve adds an arm that drives the tenants' engines against one shared
// executor pool built from cfg.
func (p *plan) serve(label string, cfg serve.Config, tenants []serve.TenantSpec) *outcome {
	return p.add(label, func() (outcome, error) {
		pl, err := serve.NewPool(cfg)
		if err != nil {
			return outcome{}, err
		}
		results, err := serve.Run(pl, tenants)
		if err != nil {
			return outcome{}, err
		}
		o := outcome{pool: pl.Stats()}
		for _, r := range results {
			o.tenants = append(o.tenants, r.Report)
		}
		return o, nil
	})
}
