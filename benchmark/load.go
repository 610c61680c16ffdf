package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// call is one HTTP request the generator sends and how to judge its reply.
// check returns an error for a wrong answer; a non-200 status is always a
// failure.
type call struct {
	op    string // series the latency is recorded under
	units int    // kernels (or other work units) the request carries
	path  string
	ctype string // "" means application/json
	body  []byte
	check func(body []byte) error
}

// conn is one client connection: its own keep-alive transport, so the
// generator never holds more than one socket per conn.
type conn struct {
	c   *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	return &conn{c: &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}}
}

// close drops the connection's idle socket.
func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request and returns the response body (valid until the next
// do on this conn).
func (c *conn) do(ctx context.Context, method, url, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		if ctype == "" {
			ctype = "application/json"
		}
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// send runs one call against base and judges it.
func (c *conn) send(ctx context.Context, base string, cl call) error {
	status, body, err := c.do(ctx, http.MethodPost, base+cl.path, cl.ctype, cl.body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", cl.path, status, body)
	}
	if cl.check != nil {
		if err := cl.check(body); err != nil {
			return fmt.Errorf("%s: %w", cl.path, err)
		}
	}
	return nil
}

// recorder accumulates one phase's outcomes. Each connection goroutine owns
// one, so recording takes no lock; merge folds them together afterwards.
type recorder struct {
	lat       map[string][]time.Duration
	units     map[string]int
	attempted int
	failed    int
	errs      []string
	late      []time.Duration // generator wake-up lateness (open loop only)
	spans     []span          // client-side request spans (traced runs only)
}

// span is one client-side request span of a traced run.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Req   int64  `json:"req"`
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]time.Duration{}, units: map[string]int{}}
}

// maxErrs bounds the failure messages kept for the report.
const maxErrs = 8

func (r *recorder) add(op string, units int, lat time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < maxErrs {
			r.errs = append(r.errs, err.Error())
		}
		return
	}
	r.lat[op] = append(r.lat[op], lat)
	r.units[op] += units
}

// fail records a failed check that belongs to no single request.
func (r *recorder) fail(format string, args ...any) {
	r.add("", 0, 0, fmt.Errorf(format, args...))
}

func (r *recorder) merge(o *recorder) {
	for op, l := range o.lat {
		r.lat[op] = append(r.lat[op], l...)
	}
	for op, u := range o.units {
		r.units[op] += u
	}
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < maxErrs {
			r.errs = append(r.errs, e)
		}
	}
	r.late = append(r.late, o.late...)
	r.spans = append(r.spans, o.spans...)
}

// loop carries what both load shapes share: the daemon's address and the
// client-side spans of a traced run.
type loop struct {
	base   string
	traced bool
	epoch  time.Time // span clock origin
	reqs   atomic.Int64
}

func newLoop(base string, traced bool) *loop {
	return &loop{base: base, traced: traced, epoch: time.Now()}
}

// one sends a call and records it on rec, with t0 the instant latency is
// measured from.
func (l *loop) one(ctx context.Context, c *conn, rec *recorder, cl call, t0 time.Time) {
	start := time.Now()
	err := c.send(ctx, l.base, cl)
	end := time.Now()
	rec.add(cl.op, cl.units, end.Sub(t0), err)
	if l.traced {
		rec.spans = append(rec.spans, span{
			Name: "client." + cl.op, Start: start.Sub(l.epoch).Nanoseconds(),
			End: end.Sub(l.epoch).Nanoseconds(), Req: l.reqs.Add(1),
		})
	}
}

// closed runs a closed loop: every connection sends its next request as
// soon as the previous one completes, until d has passed. next(c, i) is
// the i-th call of connection c. Latency is timed from the send.
func (l *loop) closed(ctx context.Context, conns []*conn, d time.Duration, next func(c, i int) call) (*recorder, time.Duration) {
	recs := make([]*recorder, len(conns))
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for ci := range conns {
		recs[ci] = newRecorder()
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := 0; time.Now().Before(end) && ctx.Err() == nil; i++ {
				l.one(ctx, conns[ci], recs[ci], next(ci, i), time.Now())
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, r := range recs[1:] {
		recs[0].merge(r)
	}
	return recs[0], elapsed
}

// arrivals returns a seeded Poisson schedule: send offsets for a mean rate
// of perSec requests per second over d.
func arrivals(seed int64, perSec float64, d time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		t += r.ExpFloat64() / perSec
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// open runs an open loop: call i is due at due[i] after the start whether
// or not earlier calls have returned. The connections form a pool: each
// takes the next due call as soon as it is free. Latency is timed from the
// due instant, so a stall is charged to every call it delays. A free
// connection sleeps until the due instant; the timer's overshoot is the
// generator's own lateness, recorded apart as a validity check and not
// charged to the daemon (such a call is timed from when it was sent).
func (l *loop) open(ctx context.Context, conns []*conn, due []time.Duration, callAt func(i int) call) *recorder {
	recs := make([]*recorder, len(conns))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range conns {
		recs[ci] = newRecorder()
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				cl := callAt(i)
				at := start.Add(due[i])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
					woke := time.Now()
					recs[ci].late = append(recs[ci].late, woke.Sub(at))
					at = woke
				}
				l.one(ctx, conns[ci], recs[ci], cl, at)
			}
		}(ci)
	}
	wg.Wait()
	for _, r := range recs[1:] {
		recs[0].merge(r)
	}
	return recs[0]
}
