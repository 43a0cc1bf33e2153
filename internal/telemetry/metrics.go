package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"simtmp/internal/stats"
)

// Registry holds named metrics with preallocated storage. Metrics are
// created (find-or-create by name) at setup time; the returned handles
// are then updated on hot paths without any map access. Like the
// Recorder, a nil *Registry is a valid no-op: Counter/Histogram
// return nil handles whose update methods are nil-safe, so
// instrumented code registers and updates unconditionally.
//
// Updates are race-safe without allocating — counters are atomics,
// histograms take a mutex — so a supervisor goroutine may call
// Snapshots (or Recorder.Snapshot) concurrently with the runtime's
// hot-path updates. Determinism of exported values still
// relies on the runtime driving all updates from one goroutine.
type Registry struct {
	mu         sync.Mutex
	counters   []*Counter
	histograms []*Histogram
}

// Counter is an int64 metric holding the absolute value its owner
// publishes with Set. The runtime's counters mirror mpx.Stats fields,
// so each follows ResetStats: a reset publishes zero.
type Counter struct {
	name string
	v    atomic.Int64
}

// Histogram is a named fixed-bucket distribution metric over a
// stats.Histogram.
type Histogram struct {
	name string
	mu   sync.Mutex
	h    *stats.Histogram
}

// Counter finds or creates the named counter. Setup path (linear scan,
// may allocate); returns nil on a nil registry.
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name}
	g.counters = append(g.counters, c)
	return c
}

// Histogram finds or creates the named histogram with the given bucket
// bounds (bounds are only used on creation; see stats.NewHistogram).
// Returns nil on a nil registry.
func (g *Registry) Histogram(name string, bounds []float64) *Histogram {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, h := range g.histograms {
		if h.name == name {
			return h
		}
	}
	h := &Histogram{name: name, h: stats.NewHistogram(bounds)}
	g.histograms = append(g.histograms, h)
	return h
}

// Set stores the counter value (no-op on nil). Never allocates.
func (c *Counter) Set(v int64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Value returns the counter value (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the counter name ("" for nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Observe records one sample (no-op on nil). Never allocates.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Observe(x)
	h.mu.Unlock()
}

// Reset zeroes the distribution, keeping the bucket layout (no-op on
// nil). The runtime re-bases its queue-depth histograms through this
// when ResetStats excludes a warmup phase from steady-state accounting.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Reset()
	h.mu.Unlock()
}

// Summary derives the distribution summary (zero for nil).
func (h *Histogram) Summary() stats.Summary {
	if h == nil {
		return stats.Summary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Summary()
}

// Name returns the histogram name ("" for nil).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Snapshot is one exported metric value.
type Snapshot struct {
	Name  string
	Kind  string // "counter" or "histogram"
	Value float64
	Dist  stats.Summary // histograms only
}

// Snapshots returns all metrics sorted by (kind, name) — a stable,
// deterministic export order.
func (g *Registry) Snapshots() []Snapshot {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Snapshot, 0, len(g.counters)+len(g.histograms))
	for _, c := range g.counters {
		out = append(out, Snapshot{Name: c.name, Kind: "counter", Value: float64(c.v.Load())})
	}
	for _, h := range g.histograms {
		h.mu.Lock()
		n, dist := h.h.N(), h.h.Summary()
		h.mu.Unlock()
		out = append(out, Snapshot{Name: h.name, Kind: "histogram", Value: float64(n), Dist: dist})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}
