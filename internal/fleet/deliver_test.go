package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/httpjson"
	"repro/internal/registry"
)

// writeWire lets test sinks reply in the daemon's JSON format.
var writeWire = httpjson.Write

// deliveryKinds are the two documents the fleet delivers over one
// fan-out: each names its agent route, runs one push round on a control
// plane with a fronted titanx snapshot and one registered node, and says
// what a successful {"version": "v-ack", "hash": "h-ack"} ack must leave
// in a node registered as (v-old, h-old, plan p-old).
var deliveryKinds = []struct {
	name  string
	route string
	push  func(t *testing.T, c *Control) PushReport
	acked NodeInfo
}{
	{
		name:  "snapshot",
		route: "/fleet/snapshot",
		push: func(t *testing.T, c *Control) PushReport {
			return c.PushDevice(context.Background(), "titanx")
		},
		acked: NodeInfo{Version: "v-ack", Hash: "h-ack", Plan: "p-old"},
	},
	{
		name:  "decision-table",
		route: "/fleet/decisions",
		push: func(t *testing.T, c *Control) PushReport {
			st, err := c.SetBudget(context.Background(), budget.Budget{Total: 1})
			if err != nil {
				t.Fatal(err)
			}
			if st.LastPush == nil {
				t.Fatal("budget set without a push round")
			}
			return *st.LastPush
		},
		acked: NodeInfo{Version: "v-old", Hash: "h-old", Plan: "h-ack"},
	},
}

// newFanoutControl builds a control plane whose breakers open after one
// failure and stay open for the test, with a fronted titanx snapshot
// active and node n1 registered at addr.
func newFanoutControl(t *testing.T, addr string) *Control {
	t.Helper()
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	c := NewControl(store, ControlConfig{
		Opts:             engine.Options{Workers: 1, Core: core.Options{SettingsPerKernel: 2}},
		TrainKernels:     engine.TrainingKernels()[:2],
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	publishFronted(t, c, "titanx")
	if _, err := c.Register(RegisterRequest{
		Node: "n1", Addr: addr, Device: "titanx",
		Version: "v-old", Hash: "h-old", Plan: "p-old",
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// sink serves route with reply and fails the test on any other path.
func sink(t *testing.T, route string, reply http.HandlerFunc) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != route {
			t.Errorf("push sent %s %s, want POST %s", r.Method, r.URL.Path, route)
		}
		reply(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func onlyNode(t *testing.T, c *Control) NodeInfo {
	t.Helper()
	nodes := c.Nodes()
	if len(nodes) != 1 {
		t.Fatalf("nodes: %+v", nodes)
	}
	return nodes[0]
}

func TestFanOutBothDocumentKinds(t *testing.T) {
	for _, kind := range deliveryKinds {
		t.Run(kind.name+"/breaker-open", func(t *testing.T) {
			c := newFanoutControl(t, sink(t, kind.route, func(w http.ResponseWriter, r *http.Request) {
				t.Error("an open breaker's node was contacted")
			}))
			c.breakers.Get("n1").Record(errors.New("down"))
			r := kind.push(t, c)
			if r.Targets != 1 || r.Skipped != 1 || r.Pushed != 0 || len(r.Errors) != 0 {
				t.Fatalf("report: %+v", r)
			}
			if n := onlyNode(t, c); n.Pushes != 0 || n.Breaker != "open" {
				t.Fatalf("skipped node: %+v", n)
			}
		})
		t.Run(kind.name+"/unreachable", func(t *testing.T) {
			c := newFanoutControl(t, "http://127.0.0.1:1")
			r := kind.push(t, c)
			n := onlyNode(t, c)
			if r.Targets != 1 || r.Pushed != 0 || n.Pushes != 1 || n.PushErrors != 1 || n.LastError == "" {
				t.Fatalf("report %+v, node %+v", r, n)
			}
			if len(r.Errors) != 1 || r.Errors[0] != "n1: "+n.LastError {
				t.Fatalf("report errors %q, want [n1: %s]", r.Errors, n.LastError)
			}
		})
		t.Run(kind.name+"/error-reply", func(t *testing.T) {
			c := newFanoutControl(t, sink(t, kind.route, func(w http.ResponseWriter, r *http.Request) {
				httpjson.Error(w, http.StatusConflict, "document refused by the sink")
			}))
			r := kind.push(t, c)
			n := onlyNode(t, c)
			if !strings.Contains(n.LastError, "document refused by the sink") || strings.Contains(n.LastError, "{") {
				t.Fatalf("LastError %q does not surface the reply's error message", n.LastError)
			}
			if len(r.Errors) != 1 || r.Errors[0] != "n1: "+n.LastError {
				t.Fatalf("report errors %q", r.Errors)
			}
		})
		t.Run(kind.name+"/success", func(t *testing.T) {
			c := newFanoutControl(t, sink(t, kind.route, func(w http.ResponseWriter, r *http.Request) {
				writeWire(w, http.StatusOK, map[string]string{"version": "v-ack", "hash": "h-ack"})
			}))
			r := kind.push(t, c)
			if r.Targets != 1 || r.Pushed != 1 || r.Skipped != 0 || len(r.Errors) != 0 {
				t.Fatalf("report: %+v", r)
			}
			n := onlyNode(t, c)
			if n.Version != kind.acked.Version || n.Hash != kind.acked.Hash || n.Plan != kind.acked.Plan {
				t.Fatalf("after ack: version %q hash %q plan %q, want %q %q %q",
					n.Version, n.Hash, n.Plan, kind.acked.Version, kind.acked.Hash, kind.acked.Plan)
			}
			if n.Pushes != 1 || n.PushErrors != 0 || n.LastError != "" {
				t.Fatalf("push accounting: %+v", n)
			}
		})
	}
}
