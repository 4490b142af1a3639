package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Gauge is an atomic instantaneous value (queue depth, in-flight count):
// unlike Counter it goes both ways.
type Gauge struct{ v int64 }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { atomic.AddInt64(&g.v, n) }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { atomic.StoreInt64(&g.v, n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return atomic.LoadInt64(&g.v) }

// ServiceMeters is the metering surface of a request-serving process
// (cmd/dipserve): admission counters, load gauges, and per-protocol
// latency accumulators. The zero value is ready to use. All methods are
// safe for concurrent use from request handlers and workers.
type ServiceMeters struct {
	// Requests counts every admitted run request; Rejected counts requests
	// turned away at admission (queue full or draining); RateLimited
	// counts requests refused by the per-client quota (429); Failures
	// counts admitted requests whose run returned an error. All four are
	// in request units: a batch of k items moves them by k.
	Requests    Counter
	Rejected    Counter
	RateLimited Counter
	Failures    Counter
	// InFlight is the number of bodies currently running (a batch counts
	// once); QueueDepth the number admitted but still waiting to run.
	InFlight   Gauge
	QueueDepth Gauge

	mu       sync.Mutex
	perProto map[string]*ProtocolMeter
}

// ProtocolMeter accumulates per-protocol request metrics.
type ProtocolMeter struct {
	Requests Counter
	Errors   Counter
	Latency  Timer
}

// Protocol returns the meter for name, creating it on first use.
func (m *ServiceMeters) Protocol(name string) *ProtocolMeter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.perProto == nil {
		m.perProto = make(map[string]*ProtocolMeter)
	}
	p, ok := m.perProto[name]
	if !ok {
		p = &ProtocolMeter{}
		m.perProto[name] = p
	}
	return p
}

// ServiceMetrics is a JSON-able snapshot of a ServiceMeters.
type ServiceMetrics struct {
	Requests    int64                   `json:"requests"`
	Rejected    int64                   `json:"rejected"`
	RateLimited int64                   `json:"rate_limited"`
	Failures    int64                   `json:"failures"`
	InFlight    int64                   `json:"in_flight"`
	QueueDepth  int64                   `json:"queue_depth"`
	Protocols   []ProtocolMetricsRecord `json:"protocols,omitempty"`
}

// ProtocolMetricsRecord is the per-protocol slice of a snapshot.
type ProtocolMetricsRecord struct {
	Protocol string `json:"protocol"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	// LatencyMeanMS is total latency over completed requests, in
	// milliseconds (0 when none completed yet).
	LatencyMeanMS float64 `json:"latency_mean_ms"`
}

// SnapshotService returns the current values, protocols sorted by name.
func (m *ServiceMeters) SnapshotService() ServiceMetrics {
	s := ServiceMetrics{
		Requests:    m.Requests.Value(),
		Rejected:    m.Rejected.Value(),
		RateLimited: m.RateLimited.Value(),
		Failures:    m.Failures.Value(),
		InFlight:    m.InFlight.Value(),
		QueueDepth:  m.QueueDepth.Value(),
	}
	m.mu.Lock()
	names := make([]string, 0, len(m.perProto))
	for name := range m.perProto {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := m.perProto[name]
		rec := ProtocolMetricsRecord{
			Protocol: name,
			Requests: p.Requests.Value(),
			Errors:   p.Errors.Value(),
		}
		if n := p.Latency.Count(); n > 0 {
			rec.LatencyMeanMS = float64(p.Latency.Total()) / float64(n) / float64(time.Millisecond)
		}
		s.Protocols = append(s.Protocols, rec)
	}
	m.mu.Unlock()
	return s
}
