package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mvs/internal/scene"
)

// Recovery reports what Recover salvaged from a crashed run.
type Recovery struct {
	// Frames is the replayable frame count after recovery.
	Frames int
	// Snapshots and Rounds are the surviving record counts.
	Snapshots int
	Rounds    int
	// TruncatedBytes is the total torn-tail bytes cut across all logs.
	TruncatedBytes int64
	// DroppedFrames counts valid frame records excluded from the index
	// to align the frame log with the snapshot log (a frame whose
	// snapshot never hit disk cannot be part of a verifiable prefix).
	DroppedFrames int
}

// Recover repairs a run directory after a crash (docs/STREAMING.md §5):
// it validates every log line against its CRC32 (format version 2;
// version-1 lines are validated as JSON only), physically truncates each
// log's torn tail to the last valid record, aligns the frame index to
// the longest prefix covered by both the frame log and the snapshot
// log, writes frames/index.json (which a killed writer never got to;
// when no frame survives it removes the index instead), and rewrites the
// manifest with Recovered set. A manifest Open refuses is refused before
// any file is touched. After Recover, Open sees a sealed run whose
// replay yields Recovery.Frames frames, and mvsim -replay -verify passes
// on the recovered prefix. Recover is idempotent: on a healthy sealed
// run it validates and rewrites the index without dropping anything.
func Recover(dir string) (*Recovery, error) {
	man, cams, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	segSize := man.SegmentSize
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}

	rec := &Recovery{}

	// Frame segments: walk in ordinal order, keep the longest valid
	// chain of records, truncate the first torn tail, ignore anything
	// after it.
	segs, err := recoverSegments(dir, man.Version, len(cams), segSize, rec)
	if err != nil {
		return nil, err
	}
	frames := 0
	for _, s := range segs {
		frames += s.Count
	}

	// Snapshots and rounds: truncate each to its valid prefix.
	snapPath := filepath.Join(dir, snapshotsFile)
	snaps, err := truncateLog(snapPath, man.Version, -1, rec)
	if err != nil {
		return nil, err
	}
	rounds, err := truncateLog(filepath.Join(dir, roundsFile), man.Version, -1, rec)
	if err != nil {
		return nil, err
	}
	rec.Rounds = rounds

	// Align frame index and snapshot log on their common prefix: a
	// frame without its snapshot (or vice versa) cannot be part of a
	// byte-verifiable replay.
	if len(segs) > 0 && snaps > 0 {
		if snaps > frames {
			if _, err := truncateLog(snapPath, man.Version, frames, rec); err != nil {
				return nil, err
			}
			snaps = frames
		} else if frames > snaps {
			rec.DroppedFrames = frames - snaps
			segs = capSegments(segs, snaps)
			frames = snaps
		}
	}
	rec.Frames = frames
	rec.Snapshots = snaps

	if err := writeIndex(dir, segs); err != nil {
		return nil, err
	}
	man.Recovered = true
	if err := writeJSON(filepath.Join(dir, manifestFile), man); err != nil {
		return nil, err
	}
	return rec, nil
}

// recoverSegments scans frames/seg-*.jsonl in ordinal order and returns
// the surviving segment directory. The writer rolls exactly every
// segSize frames with monotonic ordinals, so segment k starts at stream
// frame k*segSize even when retention deleted earlier files; a torn or
// short segment ends the chain (later segments cannot follow a gap).
func recoverSegments(dir string, version, numCams, segSize int, rec *Recovery) ([]Segment, error) {
	fdir := filepath.Join(dir, framesDir)
	entries, err := os.ReadDir(fdir)
	if os.IsNotExist(err) {
		return nil, nil // capture-only run
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type segFile struct {
		name string
		ord  int
	}
	var files []segFile
	for _, e := range entries {
		if ord, ok := segmentOrdinal(e.Name()); ok {
			files = append(files, segFile{name: e.Name(), ord: ord})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].ord < files[j].ord })

	var segs []Segment
	var fd scene.FrameDecoder // every record is decoded into the same storage
	prevOrd := -1
	for _, sf := range files {
		if prevOrd >= 0 && sf.ord != prevOrd+1 {
			break // ordinal gap: the chain ends at the last contiguous segment
		}
		valid, clean, err := truncateFileN(filepath.Join(fdir, sf.name), func(line []byte) bool {
			body, err := parseLine(line, version)
			if err != nil {
				return false
			}
			_, err = fd.Decode(body, numCams)
			return err == nil
		}, -1, rec)
		if err != nil {
			return nil, err
		}
		if valid > 0 {
			segs = append(segs, Segment{File: sf.name, First: sf.ord * segSize, Count: valid})
		}
		prevOrd = sf.ord
		// A torn or short segment ends the chain: a later segment would
		// leave a hole in the stream.
		if !clean || valid < segSize {
			break
		}
	}
	return segs, nil
}

// capSegments trims the segment directory so the total count is at most
// keep frames, dropping later segments entirely (Replay honors Count,
// so surplus valid lines need no physical removal).
func capSegments(segs []Segment, keep int) []Segment {
	out := segs[:0]
	for _, s := range segs {
		if keep <= 0 {
			break
		}
		if s.Count > keep {
			s.Count = keep
		}
		keep -= s.Count
		out = append(out, s)
	}
	return out
}

// truncateLog truncates a JSONL log to its valid prefix — and, when
// maxLines >= 0, to at most that many lines — returning the surviving
// line count. A missing file is zero lines, no error.
func truncateLog(path string, version, maxLines int, rec *Recovery) (int, error) {
	valid, _, err := truncateFileN(path, func(line []byte) bool {
		body, err := parseLine(line, version)
		if err != nil {
			return false
		}
		return json.Valid(body)
	}, maxLines, rec)
	return valid, err
}

// truncateFileN scans path line by line, counts the prefix of lines
// accepted by ok (at most maxLines when >= 0), and physically truncates
// the file right after that prefix. It returns the surviving line count
// and whether the whole file survived.
func truncateFileN(path string, ok func([]byte) bool, maxLines int, rec *Recovery) (int, bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, true, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("store: %w", err)
	}
	valid, off := 0, 0
	for off < len(data) {
		if maxLines >= 0 && valid >= maxLines {
			break
		}
		nl := bytes.IndexByte(data[off:], '\n')
		var line []byte
		var next int
		if nl < 0 {
			line, next = data[off:], len(data)
		} else {
			line, next = data[off:off+nl], off+nl+1
		}
		if len(bytes.TrimSpace(line)) == 0 || !ok(line) {
			break
		}
		valid++
		off = next
	}
	if off == len(data) {
		return valid, true, nil
	}
	rec.TruncatedBytes += int64(len(data) - off)
	if err := os.Truncate(path, int64(off)); err != nil {
		return 0, false, fmt.Errorf("store: %w", err)
	}
	return valid, false, nil
}
