package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"syscall"
	"time"
)

// sleepUntil blocks the thread until t. The sender is one goroutine, so
// it can afford a plain nanosleep, which wakes within tens of
// microseconds; the runtime's timers wake about half a millisecond late
// on this host, and every microsecond the generator is late is charged
// to the frame's latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just loops
	}
}

// The sender's probe of the reference kernel: one call after frames
// 2, 7, 12, ... (horizon is 10, so frames 0, 1, 10, 11, ... are spared).
const (
	probeEvery     = 5
	probePhase     = 2
	probeWarmCalls = 10
)

// senderMain is `mvbench -role sender`: the open-loop load generator of
// corridor16-live-record, run as a process of its own so that a slow
// engine cannot slow it. It replays pre-encoded frame records over one
// TCP connection, record i at T0 + i·interval, sleeping in between, then
// the EOS record; it never waits for the receiver beyond what the socket
// buffer forces. It reports how late it ran against its own schedule.
//
// It also carries the pass's yardstick. After every fifth frame — never
// a key frame or the frame behind one — it wakes once more halfway to
// the next frame, when the engine has as a rule gone back to waiting,
// and times one call of the reference kernel: an idle-started call on
// the engine's own schedule, which is what an open-loop frame is. The
// median goes into the report.
func senderMain(args []string) error {
	fs := flag.NewFlagSet("sender", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "ingest listener to dial")
		parts    = fs.String("parts", "", "file of length-prefixed frame records, the EOS record last")
		frames   = fs.Int("frames", 0, "frame records to send before the EOS record")
		interval = fs.Duration("interval", 0, "time between frames")
		t0ns     = fs.Int64("t0", 0, "Unix nanoseconds at which frame 0 is due")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := os.ReadFile(*parts)
	if err != nil {
		return err
	}
	var records [][]byte
	for len(data) >= 4 {
		n := int(binary.BigEndian.Uint32(data))
		if n > len(data)-4 {
			return fmt.Errorf("%s: truncated record", *parts)
		}
		records = append(records, data[4:4+n])
		data = data[4+n:]
	}
	if *frames <= 0 || *frames >= len(records) {
		return fmt.Errorf("%s holds %d frame records, asked to send %d", *parts, len(records)-1, *frames)
	}
	eos := records[len(records)-1]
	conn, err := net.DialTimeout("tcp", *addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()

	kernel := newRefKernel()
	for i := 0; i < probeWarmCalls; i++ {
		kernel.call() // page in the kernel's data before the schedule starts
	}
	t0 := time.Unix(0, *t0ns)
	var rep senderReport
	late := make([]float64, 0, *frames)
	probe := make([]float64, 0, *frames/probeEvery+1)
	for i := 0; i < *frames; i++ {
		due := t0.Add(time.Duration(i) * *interval)
		sleepUntil(due)
		late = append(late, float64(time.Since(due))/1e3)
		if _, err := conn.Write(records[i]); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		rep.Frames++
		if i%probeEvery == probePhase {
			sleepUntil(due.Add(*interval / 2))
			start := time.Now()
			kernel.call()
			probe = append(probe, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	rep.ProbeUS = median(probe)
	if _, err := conn.Write(eos); err != nil {
		return fmt.Errorf("eos: %w", err)
	}
	rep.LateP50US = percentile(late, 50)
	rep.LateP99US = percentile(late, 99)
	return json.NewEncoder(os.Stdout).Encode(rep)
}
