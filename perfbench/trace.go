package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// span is one timed call into a layer. Spans of one unit of work (a grid
// cell, a torture or fuzz call, an oracle program) share Unit.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Unit   int    `json:"unit"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	// total sums span durations by name.
	total map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), total: map[string]time.Duration{}}
}

// begin opens a span and returns its id (ids start at 1; 0 means none).
func (t *tracer) begin(name string, parent, unit int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: unit,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	t.total[s.Name] += time.Duration(s.End - s.Start)
}

// seconds is the summed duration of the spans named name.
func (t *tracer) seconds(name string) float64 {
	if t == nil {
		return 0
	}
	return t.total[name].Seconds()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeCounters sums Go runtime metrics over the traced iterations.
type runtimeCounters struct {
	start []metrics.Sample
	sum   []float64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// runtimeValue reads a runtime metric sample as a float.
func runtimeValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func (c *runtimeCounters) begin() { c.start = readRuntime() }

func (c *runtimeCounters) end() {
	now := readRuntime()
	if c.sum == nil {
		c.sum = make([]float64, len(now))
	}
	for i := range now {
		c.sum[i] += runtimeValue(now[i]) - runtimeValue(c.start[i])
	}
}

// report writes the sums into m. runtime.allocs is an intermediate the
// caller divides by the events simulated. The runtime's CPU classes are
// estimates refreshed at each collection, so gc_cpu_frac is coarse.
func (c *runtimeCounters) report(m metricSet) {
	if c.sum == nil {
		return
	}
	d := c.sum
	m["runtime.gc_cycles"] = d[0]
	if d[2] > 0 {
		m["runtime.gc_cpu_frac"] = d[1] / d[2]
	}
	m["runtime.alloc_mb"] = d[3] / (1 << 20)
	m["runtime.allocs"] = d[4]
}

// profile is a CPU profile of this process, kept in memory.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends profiling and returns the samples' leaf functions.
func (p *profile) stop() ([]leafSample, error) {
	pprof.StopCPUProfile()
	return decodeProfile(p.buf.Bytes())
}
