package main

import (
	"net/http"
	"sync/atomic"

	"repro/internal/httpjson"
)

// Default per-plane concurrency limits. The read plane is sized for the
// serving hot path (cheap, latency-sensitive); the control plane is sized
// down so a burst of management calls cannot starve serving.
const (
	defaultReadConcurrency    = 64
	defaultControlConcurrency = 16
)

// planeLimits configures the per-plane admission control: maximum in-flight
// requests for the read plane (predict/select/policies) and the control
// plane (train/models/observe/adapt). /healthz is outside both, so
// liveness probes survive saturation. 0 selects the defaults; negative
// disables the limit.
type planeLimits struct {
	Read    int
	Control int
}

// planeLimiter is one handler group's admission control: a semaphore sized
// to the concurrency limit. Requests over the limit are shed immediately
// with 503 + Retry-After rather than queued, so an overloaded control
// plane fails fast and an overloaded read plane never builds an unbounded
// goroutine backlog. A nil semaphore means unlimited.
type planeLimiter struct {
	name string
	sem  chan struct{}
	shed atomic.Uint64
}

// newPlaneLimiter builds a limiter. limit 0 selects def; negative
// disables limiting.
func newPlaneLimiter(name string, limit, def int) *planeLimiter {
	if limit == 0 {
		limit = def
	}
	l := &planeLimiter{name: name}
	if limit > 0 {
		l.sem = make(chan struct{}, limit)
	}
	return l
}

// limit returns the configured concurrency bound (0 = unlimited).
func (l *planeLimiter) limit() int { return cap(l.sem) }

// wrap applies the limiter to a handler.
func (l *planeLimiter) wrap(h http.HandlerFunc) http.HandlerFunc {
	if l.sem == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case l.sem <- struct{}{}:
			defer func() { <-l.sem }()
			h(w, r)
		default:
			l.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			httpjson.Error(w, http.StatusServiceUnavailable,
				"%s plane at its concurrency limit (%d in flight); retry", l.name, cap(l.sem))
		}
	}
}

// planeInfo is one plane's admission-control accounting on /healthz.
type planeInfo struct {
	// Limit is the maximum in-flight requests (0 = unlimited).
	Limit int `json:"limit"`
	// Shed counts requests rejected with 503 since boot.
	Shed uint64 `json:"shed"`
}

// planesInfo reports both planes' admission control on /healthz.
type planesInfo struct {
	Read    planeInfo `json:"read"`
	Control planeInfo `json:"control"`
}

func (l *planeLimiter) info() planeInfo {
	return planeInfo{Limit: l.limit(), Shed: l.shed.Load()}
}
