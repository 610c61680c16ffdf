// Command benchmark is gpufreqd's end-to-end benchmark. It builds
// cmd/gpufreqd from the tree under test, launches it as a subprocess, and
// drives it over its public HTTP API through one of four workloads,
// checking every response. With -trace 1 it also replays the workload
// inputs in-process through each layer (the benchmark/trace program) and
// reports per-layer numbers instead of end-to-end ones.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload select-known --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1                # all four workloads
//	bash benchmark/run.sh -compare .bench_build/A.jsonl .bench_build/B.jsonl
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// See benchmark/README.md for the workloads, metrics and their meaning.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads in the order "all" runs them.
var workloads = []struct {
	name string
	run  func(context.Context, *env) (*outcome, error)
}{
	{"select-known", selectKnown},
	{"select-novel", selectNovel},
	{"observe-drift", observeDrift},
	{"fleet-budget", fleetBudget},
}

// env is what a workload runs with.
type env struct {
	r       *runner
	seed    int64
	seconds time.Duration
	traced  bool
	conns   []*conn
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// outcome is what a workload measured.
type outcome struct {
	rec    *recorder         // every request sent and every failed check
	e2e    map[string]metric // end-to-end metrics
	layers map[string]metric // counters scraped from the daemon (per-layer)
	digest string            // SHA-256 of the validation pass's decisions
	report []string          // further lines for the human-readable report
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"digest,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxRun bounds one workload run, set-up included (builds excluded).
const maxRun = 170 * time.Second

func main() {
	workload := flag.String("workload", "all", "workload to run: select-known, select-novel, observe-drift, fleet-budget, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds per workload run")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run and an in-process replay")
	out := flag.String("out", "", "append each run's record (JSON lines) to this file")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare A.jsonl B.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two record files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	dir, err := findRoot()
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r, err := newRunner(dir)
	if err != nil {
		fatal(err)
	}
	err = run(ctx, r, names, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	r.close()
	if err != nil {
		fatal(err)
	}
}

// run builds the daemon and runs each named workload, printing its report
// and result line.
func run(ctx context.Context, r *runner, names []string, seed int64, seconds time.Duration, traced bool, out string) error {
	sp, err := loadSpec(r.root)
	if err != nil {
		return err
	}
	if err := r.buildDaemon(); err != nil {
		return err
	}
	tracer := ""
	if traced {
		var err error
		if tracer, err = r.goBuild(filepath.Join(r.root, "benchmark"), "./trace", "trace"); err != nil {
			return err
		}
	}
	for _, name := range names {
		rec, err := runOne(ctx, r, sp, name, seed, seconds, traced, tracer)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if out != "" {
			if err := appendRecord(out, rec); err != nil {
				return err
			}
		}
		printed := map[string]metric{}
		for k, m := range rec.Metrics {
			printed[k] = metric{Value: m.Value, Unit: m.Unit}
		}
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, printed})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// runOne runs one workload and prints its human-readable report.
func runOne(ctx context.Context, r *runner, sp spec, name string, seed int64, seconds time.Duration, traced bool, tracer string) (record, error) {
	ctx, cancel := context.WithTimeout(ctx, maxRun)
	defer cancel()
	e := &env{r: r, seed: seed, seconds: seconds, traced: traced, conns: []*conn{newConn(), newConn()}}
	defer func() {
		for _, c := range e.conns {
			c.close()
		}
	}()
	var o *outcome
	var err error
	for _, w := range workloads {
		if w.name == name {
			o, err = w.run(ctx, e)
		}
	}
	if err != nil {
		return record{}, err
	}
	fmt.Printf("workload %s  seed %d\n", name, seed)
	for _, l := range o.report {
		fmt.Printf("  %s\n", l)
	}
	if o.digest != "" {
		fmt.Printf("  validation digest sha256:%s\n", o.digest)
	}
	want, got := sp.EndToEnd, o.e2e
	if traced {
		fmt.Println("  traced run (client-side spans on); compare with an untraced run for the tracing overhead:")
		printMetrics(o.e2e)
		if err := writeSpans(filepath.Join(r.build, fmt.Sprintf("trace-%s-%d-client.jsonl", name, seed)), o.rec.spans); err != nil {
			return record{}, err
		}
		if got, err = replay(ctx, r, tracer, seed); err != nil {
			return record{}, err
		}
		for k, m := range o.layers {
			got[k] = m
		}
		want = sp.PerLayer
	}
	ms, err := declared(want, got, o.rec)
	if err != nil {
		return record{}, err
	}
	rec := record{
		Workload: name, Seed: seed, Trace: traced,
		Attempted: o.rec.attempted, Failed: o.rec.failed, Correct: o.rec.failed == 0,
		Digest: o.digest, Metrics: ms,
	}
	fmt.Printf("  %d requests and checks, %d failed\n", rec.Attempted, rec.Failed)
	for _, e := range o.rec.errs {
		fmt.Printf("  failure: %s\n", e)
	}
	printMetrics(rec.Metrics)
	if rec.Attempted < 1 {
		return record{}, errors.New("no requests were sent")
	}
	return rec, nil
}

// printMetrics lists metrics by name with unit and sample count.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Printf("  %-36s %14.6g %-6s %s\n", k, m.Value, m.Unit, n)
	}
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes client-side request spans as JSON lines.
func writeSpans(path string, spans []span) error {
	var b strings.Builder
	for _, s := range spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// findRoot locates the repository root: the first of . and .. that holds
// cmd/gpufreqd (the root when run from there, benchmark/ under go test).
func findRoot() (string, error) {
	for _, c := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(c, "cmd", "gpufreqd")); err == nil && st.IsDir() {
			return filepath.Abs(c)
		}
	}
	return "", errors.New("no repository root with cmd/gpufreqd found (run from the repository root)")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}
