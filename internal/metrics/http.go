package metrics

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
)

// LatestSink retains the most recent snapshot and serves it as JSON over
// HTTP — the /metricsz endpoint of the long-running binaries. It is safe
// for concurrent RecordFrame and ServeHTTP calls.
type LatestSink struct {
	mu     sync.RWMutex
	latest Snapshot
	ok     bool
}

// RecordFrame replaces the retained snapshot, copying its camera rows
// into the sink's own storage.
func (s *LatestSink) RecordFrame(snap Snapshot) {
	s.mu.Lock()
	rows := s.latest.Cameras
	s.latest = snap
	if snap.Cameras != nil {
		s.latest.Cameras = append(rows[:0], snap.Cameras...)
	}
	s.ok = true
	s.mu.Unlock()
}

// Flush reports no error; the latest snapshot needs no persistence.
func (s *LatestSink) Flush() error { return nil }

// Latest returns a copy of the retained snapshot, camera rows included,
// and whether one has arrived yet.
func (s *LatestSink) Latest() (Snapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := s.latest
	snap.Cameras = slices.Clone(snap.Cameras)
	return snap, s.ok
}

// ServeHTTP writes the latest snapshot as a JSON document, or 404 until
// the first snapshot arrives.
func (s *LatestSink) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	snap, ok := s.Latest()
	if !ok {
		http.Error(w, "no snapshot recorded yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

// Export is the live-metrics stack a binary assembles from its
// -metrics-addr / -metrics-jsonl flags: a LatestSink served at
// <addr>/metricsz, a JSONL append log, either, or neither. Sink is never
// nil — with both flags empty it is a NopSink, so callers attach it
// unconditionally.
type Export struct {
	// Sink fans out to every configured destination.
	Sink Sink
	// Latest backs the HTTP endpoint; nil unless an address was given.
	Latest *LatestSink
	// Addr is the bound address of the HTTP server ("" when disabled) —
	// useful when the caller asked for port 0.
	Addr string

	srv   *http.Server
	jsonl *JSONLSink
}

// OpenExport builds the export stack. httpAddr != "" starts an HTTP
// server on that address serving the latest snapshot at /metricsz;
// jsonlPath != "" appends every snapshot to that file. Close releases
// both.
func OpenExport(httpAddr, jsonlPath string) (*Export, error) {
	e := &Export{}
	var sinks []Sink
	if jsonlPath != "" {
		js, err := OpenJSONL(jsonlPath)
		if err != nil {
			return nil, err
		}
		e.jsonl = js
		sinks = append(sinks, js)
	}
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			if e.jsonl != nil {
				_ = e.jsonl.Close()
			}
			return nil, fmt.Errorf("metrics: listen %s: %w", httpAddr, err)
		}
		e.Latest = &LatestSink{}
		mux := http.NewServeMux()
		mux.Handle("/metricsz", e.Latest)
		e.srv = &http.Server{Handler: mux}
		e.Addr = ln.Addr().String()
		go func() { _ = e.srv.Serve(ln) }()
		sinks = append(sinks, e.Latest)
	}
	e.Sink = Multi(sinks...)
	return e, nil
}

// Close flushes and closes the JSONL log and shuts the HTTP server down.
// It is safe on a zero-config export.
func (e *Export) Close() error {
	var first error
	if e.jsonl != nil {
		if err := e.jsonl.Close(); err != nil {
			first = err
		}
	}
	if e.srv != nil {
		if err := e.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
