package obs

// Wide events: one canonical structured record per served request.
//
// Where the Tracer journals what happened *inside* one request (phase
// by phase, admission by admission) and the Registry aggregates
// across all of them, a WideEvent is the request's one-line summary —
// endpoint, status, duration, byte count, per-phase timings, cache
// and incremental tiers, slice size, and how the request ended. It is
// the record an operator greps for ("show me every 5xx slower than
// 50ms on /slice") and the record the access log emits, so the log
// line and the queryable ring never disagree.
//
// Events are kept in a RequestLog, a bounded mutex-guarded ring of
// the most recent N events. Unlike the FlightRecorder the write rate
// here is one event per *request* (not per phase or per jump), so a
// plain mutex costs nothing measurable and keeps readers exactly
// consistent. The nil *RequestLog and nil *SpanLog are valid no-ops,
// matching the package's one-nil-check discipline.

import (
	"sync"
)

// PhaseDur is one completed phase of a request: the span name as the
// tracer published it, and its elapsed nanoseconds.
type PhaseDur struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// SpanLog accumulates the completed phase spans of one request, in
// completion order. A Tracer returned by WithSpans tees every span it
// publishes into the log, so the daemon can attach exact per-phase
// timings to the request's wide event without scanning the (lossy,
// shared) flight recorder. The nil SpanLog is a valid no-op.
type SpanLog struct {
	mu    sync.Mutex
	spans []PhaseDur
}

// Add records one completed phase. No-op on a nil log.
func (l *SpanLog) Add(name string, ns int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, PhaseDur{Name: name, NS: ns})
	l.mu.Unlock()
}

// Spans returns a copy of the recorded phases, in completion order
// (nil for a nil or empty log).
func (l *SpanLog) Spans() []PhaseDur {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) == 0 {
		return nil
	}
	out := make([]PhaseDur, len(l.spans))
	copy(out, l.spans)
	return out
}

// WideEvent is the canonical one-record-per-request summary. Fields
// that do not apply to a request (a /metrics scrape has no algorithm,
// a cache-off daemon has no tier) are empty and omitted from JSON.
type WideEvent struct {
	// Req is the request ID — the same number X-Request-ID carries, so
	// the event joins against /debug/trace?id= and the access log.
	Req uint64 `json:"req"`
	// TimeNS is the request's arrival time, nanoseconds since the
	// Unix epoch.
	TimeNS int64 `json:"ts_ns"`
	// Method and Path are the raw request; Endpoint is the normalized
	// route ("/session/{id}" for any session, "(other)" for unknown
	// paths) — the bounded-cardinality key SLO windows aggregate by.
	Method   string `json:"method"`
	Path     string `json:"path"`
	Endpoint string `json:"endpoint"`
	// Status is the response status; DurationNS the wall-clock time to
	// serve it; BytesOut the response body size actually written.
	Status     int   `json:"status"`
	DurationNS int64 `json:"duration_ns"`
	BytesOut   int64 `json:"bytes_out"`
	// Outcome classifies how the request ended: "ok", "client_error",
	// "error", "shed" (admission gate), "timeout" (analysis deadline),
	// "canceled" (client disconnect), or "panic" (recovered).
	Outcome string `json:"outcome"`
	// ErrorCode is the envelope code of a non-2xx response
	// ("invalid_program", "overloaded", ...).
	ErrorCode string `json:"error_code,omitempty"`
	// Algo, Stmts and SliceLines describe slicing requests: the
	// algorithm served, the program's statement count, and the line
	// count of the resulting slice.
	Algo       string `json:"algo,omitempty"`
	Stmts      int    `json:"stmts,omitempty"`
	SliceLines int    `json:"slice_lines,omitempty"`
	// Cache is the cache tier that answered: "result" (a stored reply,
	// from memory: no slice, render or encode ran), "disk" and
	// "peer-fill" (a stored reply read back from the disk store or
	// fetched off a peer), or "hit", "coalesced", "miss" (the analysis
	// was reused, shared with a concurrent request, or built; the
	// slice was computed). Incremental is the session reuse tier
	// ("patched", "partial", "full").
	Cache       string `json:"cache,omitempty"`
	Incremental string `json:"incremental,omitempty"`
	// Route says how cluster routing placed the request: "local"
	// (served by this node), "proxied" (forwarded to the ring owner),
	// or "peer-fill" (served locally from a record fetched off a
	// peer). Empty outside cluster mode. Peer names the other node
	// involved: the proxy target or the fill source.
	Route string `json:"route,omitempty"`
	Peer  string `json:"peer,omitempty"`
	// Phases are the request's completed pipeline phase durations, in
	// completion order (empty on cache hits — no pipeline ran).
	Phases []PhaseDur `json:"phases,omitempty"`
}

// RequestLog is a bounded ring of the most recent wide events. All
// methods are safe for concurrent use; the nil log is a valid no-op.
type RequestLog struct {
	mu      sync.Mutex
	slots   []WideEvent
	written uint64
}

// NewRequestLog returns a log keeping the most recent capacity events
// (minimum 1).
func NewRequestLog(capacity int) *RequestLog {
	if capacity < 1 {
		capacity = 1
	}
	return &RequestLog{slots: make([]WideEvent, capacity)}
}

// Record appends one event, evicting the oldest when full. No-op on a
// nil log.
func (l *RequestLog) Record(e WideEvent) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.slots[l.written%uint64(len(l.slots))] = e
	l.written++
	l.mu.Unlock()
}

// Written returns the number of events ever recorded (0 on nil).
func (l *RequestLog) Written() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// Cap returns the ring capacity (0 on nil).
func (l *RequestLog) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}

// Events returns a copy of the buffered events, oldest first (nil on
// a nil log).
func (l *RequestLog) Events() []WideEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.written
	capc := uint64(len(l.slots))
	if n > capc {
		out := make([]WideEvent, 0, capc)
		start := n % capc // oldest surviving slot
		out = append(out, l.slots[start:]...)
		out = append(out, l.slots[:start]...)
		return out
	}
	out := make([]WideEvent, n)
	copy(out, l.slots[:n])
	return out
}
