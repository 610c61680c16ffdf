package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/engine"
	"repro/internal/registry"
)

// docsServer builds a server purely for route introspection.
func docsServer(t *testing.T) *server {
	t.Helper()
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	return newServer(engine.NewDefault(engine.Options{}), store, "titanx", adapt.Config{}, planeLimits{}, nil)
}

// agentDocsServer builds an -agent mode server for route introspection.
func agentDocsServer(t *testing.T) *server {
	t.Helper()
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	return newAgentServer(engine.NewDefault(engine.Options{}), store, "titanx", planeLimits{})
}

// TestAPIDocsCoverRoutes keeps docs/API.md honest in both directions:
// every route the server actually registers must be mentioned there, and
// every route the doc's table claims must actually be registered — so CI
// fails on undocumented routes and on documentation for routes that no
// longer exist.
func TestAPIDocsCoverRoutes(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("reading docs/API.md: %v", err)
	}
	// The documented surface is the union of the two modes: the default
	// control-plane server and the -agent node server (whose /fleet/snapshot
	// push target exists only there).
	var routes []string
	for _, s := range []*server{docsServer(t), agentDocsServer(t)} {
		if len(s.routes) == 0 {
			t.Fatal("server registered no routes")
		}
		routes = append(routes, s.routes...)
	}
	registered := map[string]bool{}
	for _, route := range routes {
		if registered[route] {
			continue
		}
		registered[route] = true
		if !strings.Contains(string(doc), "`"+route+"`") {
			t.Errorf("docs/API.md does not document route %s", route)
		}
	}

	// The routes table: | METHOD | `path` | purpose |
	rowRe := regexp.MustCompile(`(?m)^\|\s*(GET|POST|PUT|DELETE|PATCH)\s*\|\s*` + "`([^`]+)`")
	rows := rowRe.FindAllStringSubmatch(string(doc), -1)
	if len(rows) == 0 {
		t.Fatal("docs/API.md has no routes table rows")
	}
	if len(rows) < len(registered) {
		t.Errorf("routes table has %d rows but the two modes register %d routes", len(rows), len(registered))
	}
	for _, row := range rows {
		if path := row[2]; !registered[path] {
			t.Errorf("docs/API.md documents %s %s, which the server does not register", row[1], path)
		}
	}
}
