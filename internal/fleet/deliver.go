package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/budget"
	"repro/internal/httpjson"
	"repro/internal/registry"
)

// maxAckBody caps a push reply: an ack is a few hundred bytes.
const maxAckBody = 1 << 20

// pushTarget is one stale node a fan-out round delivers doc to.
type pushTarget struct {
	node, addr string
	doc        []byte
}

// pushAck is what a fan-out records from a push reply: the version and
// content hash fields SnapshotResponse and DecisionsResponse share (a
// decision table has no version).
type pushAck struct {
	Version string `json:"version"`
	Hash    string `json:"hash"`
}

// fanOut delivers each target's document to route on its node,
// concurrently, and reports the round. Targets counts every stale node
// considered; a node whose breaker is open is skipped without contact, so
// a dead agent never delays the healthy rest of the round, and converges
// via its own heartbeat or the breaker's probe once the cool-down elapses.
// Every contacted node's result is recorded on its breaker and in its push
// accounting, failures prefixed with what; apply records a successful ack
// on the node's NodeInfo (called under c.mu).
func (c *Control) fanOut(ctx context.Context, route, what string, stale []pushTarget, apply func(*NodeInfo, pushAck)) PushReport {
	report := PushReport{Targets: len(stale)}
	var contact []pushTarget
	for _, t := range stale {
		if c.breakers.Get(t.node).Allow() {
			contact = append(contact, t)
		} else {
			report.Skipped++
		}
	}
	type outcome struct {
		node string
		ack  pushAck
		err  error
	}
	results := make(chan outcome, len(contact))
	for _, t := range contact {
		go func(t pushTarget) {
			var ack pushAck
			err := post(ctx, c.cfg.Client, strings.TrimSuffix(t.addr, "/")+route, t.doc, maxAckBody, &ack, what)
			results <- outcome{node: t.node, ack: ack, err: err}
		}(t)
	}
	for range contact {
		o := <-results
		c.breakers.Get(o.node).Record(o.err)
		c.mu.Lock()
		if ns := c.nodes[o.node]; ns != nil {
			ns.info.Pushes++
			if o.err != nil {
				ns.info.PushErrors++
				ns.info.LastError = o.err.Error()
			} else {
				ns.info.LastError = ""
				apply(&ns.info, o.ack)
			}
		}
		c.mu.Unlock()
		if o.err != nil {
			report.Errors = append(report.Errors, fmt.Sprintf("%s: %v", o.node, o.err))
		} else {
			report.Pushed++
		}
	}
	return report
}

// post sends doc as a JSON POST body to url and decodes a 200 reply into
// out, reading at most limit reply bytes. A non-200 reply fails with the
// reply's {"error"} message when it carries one, else with the status and
// the trimmed body; reply failures are prefixed with what.
func post(ctx context.Context, client *http.Client, url string, doc []byte, limit int64, out any, what string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(doc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", what, e.Error)
		}
		return fmt.Errorf("%s: %s: %s", what, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s: decoding response: %v", what, err)
	}
	return nil
}

// serveInstall is the agent's side of a push: it reads the document
// (capped at maxWireBody), hands it to install, and writes install's ack.
// A document that fails verification — a content-hash or schema mismatch,
// or a decision table that is invalid or meant for another node or device
// — is refused with 409 Conflict and the installed one keeps serving; any
// other failure is a 400.
func serveInstall(w http.ResponseWriter, r *http.Request, install func(doc []byte) (ack any, err error)) {
	doc, ok := httpjson.ReadBody(w, r, maxWireBody)
	if !ok {
		return
	}
	ack, err := install(doc)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, registry.ErrCorrupt) || errors.Is(err, registry.ErrIncompatible) || errors.Is(err, budget.ErrBadTable) {
			status = http.StatusConflict
		}
		httpjson.Error(w, status, "%v", err)
		return
	}
	httpjson.Write(w, http.StatusOK, ack)
}
