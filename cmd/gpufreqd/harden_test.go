package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/registry"
	"repro/internal/svm"
)

// hardenedServer makes a server of either daemon mode behind the real
// timeout-carrying http.Server on a fresh loopback listener.
func hardenedServer(t *testing.T, agentMode bool, timeouts httpTimeouts) string {
	t.Helper()
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewDefault(engine.Options{})
	var s *server
	if agentMode {
		s = newAgentServer(eng, store, "titanx", planeLimits{})
	} else {
		s = newServer(eng, store, "titanx", adapt.Config{}, planeLimits{}, nil)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := timeouts.server("", s.handler())
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestStalledHeaderConnectionClosed is the slow-loris regression test for
// both daemon modes: a client that opens a connection and never finishes
// its request header must be disconnected by ReadHeaderTimeout, not hold a
// connection slot forever. This is what the -http-read-header-timeout flag
// (and the harness timeouts mirroring it) exists for.
func TestStalledHeaderConnectionClosed(t *testing.T) {
	for _, mode := range []struct {
		name  string
		agent bool
	}{{"default", false}, {"agent", true}} {
		t.Run(mode.name, func(t *testing.T) {
			addr := hardenedServer(t, mode.agent, httpTimeouts{
				ReadHeader: 100 * time.Millisecond,
				Read:       time.Second,
				Write:      time.Second,
				Idle:       time.Second,
			})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// Half a request line, then stall: a well-behaved server must
			// cut us off once ReadHeaderTimeout elapses.
			if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: stall")); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			start := time.Now()
			if _, err := conn.Read(make([]byte, 1)); err == nil {
				t.Fatal("server answered a half-written request header")
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("server kept the stalled-header connection open past 2s")
			}
			if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
				t.Fatalf("stalled-header connection closed after %v, want ~ReadHeaderTimeout (100ms)", elapsed)
			}
		})
	}
}

// TestPanicRecoveryMiddleware pins the hardened handler contract: a
// panicking handler costs that request a structured JSON 500 — not a
// killed connection — and the incident is counted on /healthz.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s := testServer(t)
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	h := s.handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500: %s", rec.Code, rec.Body)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("panic response is not a structured error: %q (%v)", rec.Body, err)
	}
	if !strings.Contains(body.Error, "panic") {
		t.Fatalf("panic response %q does not say a panic was recovered", body.Error)
	}

	// The incident shows up on /healthz, and a healthy request still works:
	// the middleware recovered the goroutine, not just the one response.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after a recovered panic: %d: %s", rec.Code, rec.Body)
	}
	var health struct {
		Panics int64 `json:"panics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Panics != 1 {
		t.Fatalf("healthz panics = %d after one recovered panic, want 1", health.Panics)
	}
}

// TestPanicRecoveryHonorsAbortHandler: http.ErrAbortHandler is the
// sanctioned abort-this-response panic and must pass through uncounted.
func TestPanicRecoveryHonorsAbortHandler(t *testing.T) {
	s := testServer(t)
	s.mux.HandleFunc("/abort", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	h := s.handler()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("handler() swallowed http.ErrAbortHandler")
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/abort", nil))
	}()
	if got := s.panics.Load(); got != 0 {
		t.Fatalf("ErrAbortHandler counted as %d panics, want 0", got)
	}
}

// constServing installs a support-vector-free model set (speedup and
// energy 1 everywhere) as the serving version, so source-carrying
// endpoints get past their "no active model" check without training.
func constServing(t *testing.T, s *server) {
	t.Helper()
	build := func() *svm.Model {
		m, err := svm.Load(strings.NewReader(`{"kernel":{"type":"linear"},"support_vectors":[],"coefs":[],"b":1}`))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if err := s.install("v0001", &core.Models{Speedup: build(), Energy: build()}, nil); err != nil {
		t.Fatal(err)
	}
}

// deepKernel is a kernel whose one statement nests n parentheses.
func deepKernel(n int) string {
	return "__kernel void k(__global float* o){ o[0] = " +
		strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }"
}

// TestDeepNestingIsBadRequest is the parser stack-overflow regression
// test: a million nested parentheses (2 MB of source, under the body cap)
// used to crash the whole daemon with a fatal, unrecoverable stack
// overflow. Every source-carrying endpoint now answers 400, and the
// daemon keeps serving.
func TestDeepNestingIsBadRequest(t *testing.T) {
	s := testServer(t)
	constServing(t, s)
	srv := httptest.NewServer(s.handler())
	defer srv.Close()
	minEnergy := map[string]string{"name": "min-energy"}
	postBody := func(path string, body any) (int, string) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/select", map[string]any{"policy": minEnergy, "source": deepKernel(1000000)}},
		{"/predict", map[string]string{"source": deepKernel(10000)}},
		{"/observe", map[string]any{
			"source": deepKernel(10000), "config": map[string]int{"mem": 3505, "core": 1000},
			"speedup": 1, "norm_energy": 1,
		}},
	} {
		if code, msg := postBody(tc.path, tc.body); code != http.StatusBadRequest || !strings.Contains(msg, "nesting deeper than") {
			t.Errorf("%s with deep source: %d %q, want 400 naming the nesting limit", tc.path, code, msg)
		}
	}
	if code, msg := postBody("/select", map[string]any{"policy": minEnergy, "source": deepKernel(10)}); code != http.StatusOK {
		t.Fatalf("/select after the deep requests: %d %q", code, msg)
	}
}

// TestOversizedBodiesAre413: every JSON route of both daemon modes reads
// its body through the 8 MiB cap and answers a larger one with a
// structured 413 instead of buffering it.
func TestOversizedBodiesAre413(t *testing.T) {
	big := `{"source": "` + strings.Repeat("x", 9<<20) + `"}`
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	agent := newAgentServer(engine.NewDefault(engine.Options{}), store, "titanx", planeLimits{})
	agent.agent = &fleet.Agent{}
	for _, tc := range []struct {
		name string
		s    *server
		path string
	}{
		{"observe", testServer(t), "/observe"},
		{"predict", testServer(t), "/predict"},
		{"select", testServer(t), "/select"},
		{"train", testServer(t), "/train"},
		{"agent observe", agent, "/observe"},
	} {
		rec := request(t, tc.s, http.MethodPost, tc.path, big)
		var e struct {
			Error string `json:"error"`
		}
		if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &e) != nil ||
			!strings.Contains(e.Error, "request body over") {
			t.Errorf("%s: 9 MiB body answered %d: %.200s", tc.name, rec.Code, rec.Body)
		}
	}
}
