package main

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
)

func TestPlaneLimiterShedsOverLimit(t *testing.T) {
	l := newPlaneLimiter("read", 2, defaultReadConcurrency)
	if l.limit() != 2 {
		t.Fatalf("limit = %d, want 2", l.limit())
	}
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	h := l.wrap(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &discardWriter{h: make(http.Header)}
			h(w, nil)
		}()
		<-started
	}
	// Both slots taken: the third request is shed immediately.
	w := &discardWriter{h: make(http.Header)}
	h(w, nil)
	if w.code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit request status %d, want 503", w.code)
	}
	if w.h.Get("Retry-After") == "" {
		t.Fatal("shed response has no Retry-After header")
	}
	if got := l.info(); got.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", got.Shed)
	}
	close(release)
	wg.Wait()

	// With the slots free again, requests pass.
	w = &discardWriter{h: make(http.Header)}
	l.wrap(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })(w, nil)
	if w.code != http.StatusOK {
		t.Fatalf("post-drain request status %d, want 200", w.code)
	}
}

func TestPlaneLimiterDefaultsAndUnlimited(t *testing.T) {
	if l := newPlaneLimiter("read", 0, defaultReadConcurrency); l.limit() != defaultReadConcurrency {
		t.Fatalf("0 limit = %d, want default %d", l.limit(), defaultReadConcurrency)
	}
	l := newPlaneLimiter("control", -1, defaultControlConcurrency)
	if l.limit() != 0 {
		t.Fatalf("negative limit = %d, want 0 (unlimited)", l.limit())
	}
	// Unlimited wrap is the identity: no shedding ever.
	w := &discardWriter{h: make(http.Header)}
	l.wrap(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })(w, nil)
	if w.code != http.StatusOK || l.info().Shed != 0 {
		t.Fatalf("unlimited limiter interfered: code %d, shed %d", w.code, l.info().Shed)
	}
}

// TestPlaneSplitIndependence saturates the control plane and checks the
// read plane keeps serving: the two handler groups draw from independent
// semaphores.
func TestPlaneSplitIndependence(t *testing.T) {
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(engine.NewDefault(engine.Options{
		Workers: 2,
		Core:    core.Options{SettingsPerKernel: 4},
	}), store, "titanx", adapt.Config{}, planeLimits{Read: 4, Control: 2}, nil)

	// Fill every control-plane slot.
	for i := 0; i < cap(s.control.sem); i++ {
		s.control.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.control.sem); i++ {
			<-s.control.sem
		}
	}()

	rec := get(t, s, "/models")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated control plane served /models: %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("control shed has no Retry-After")
	}

	// The read plane is unaffected.
	rec = get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("read plane blocked by control saturation: %d: %s", rec.Code, rec.Body)
	}
	var hr struct {
		Planes struct {
			Read    planeInfo `json:"read"`
			Control planeInfo `json:"control"`
		} `json:"planes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Planes.Read.Limit != 4 || hr.Planes.Control.Limit != 2 {
		t.Fatalf("healthz planes = %+v, want limits 4/2", hr.Planes)
	}
	if hr.Planes.Control.Shed != 1 || hr.Planes.Read.Shed != 0 {
		t.Fatalf("healthz shed accounting = %+v, want control=1 read=0", hr.Planes)
	}
}

func TestHealthzDefaultPlaneLimits(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/healthz")
	var hr struct {
		Planes struct {
			Read    planeInfo `json:"read"`
			Control planeInfo `json:"control"`
		} `json:"planes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Planes.Read.Limit != defaultReadConcurrency || hr.Planes.Control.Limit != defaultControlConcurrency {
		t.Fatalf("default plane limits = %+v, want %d/%d",
			hr.Planes, defaultReadConcurrency, defaultControlConcurrency)
	}
}

// TestHealthzSurvivesReadSaturation pins that /healthz sits outside the
// plane limiters: with every read-plane slot taken, liveness probes keep
// answering 200 (an orchestrator must not restart a busy-but-healthy
// instance) while read-plane routes shed.
func TestHealthzSurvivesReadSaturation(t *testing.T) {
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(engine.NewDefault(engine.Options{
		Workers: 2,
		Core:    core.Options{SettingsPerKernel: 4},
	}), store, "titanx", adapt.Config{}, planeLimits{Read: 2, Control: 2}, nil)

	for i := 0; i < cap(s.read.sem); i++ {
		s.read.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.read.sem); i++ {
			<-s.read.sem
		}
	}()

	if rec := get(t, s, "/policies"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated read plane served /policies: %d", rec.Code)
	}
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz shed under read saturation: %d: %s", rec.Code, rec.Body)
	}
	var hr struct {
		Planes struct {
			Read planeInfo `json:"read"`
		} `json:"planes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Planes.Read.Shed != 1 {
		t.Fatalf("read shed counter = %d, want 1", hr.Planes.Read.Shed)
	}
}
