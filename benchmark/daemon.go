package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/benchmark/gen"
)

// runner owns one benchmark invocation's builds, scratch files and child
// processes. Everything it writes lives under the repository's
// .bench_build directory.
type runner struct {
	root   string // repository root: holds go.mod and cmd/gpufreqd
	build  string // <root>/.bench_build: binaries and the cached base snapshot
	dir    string // this invocation's scratch directory, removed by close
	daemon string // the gpufreqd binary built from root

	mu   sync.Mutex
	live map[*daemon]bool
}

func newRunner(root string) (*runner, error) {
	build, err := filepath.Abs(filepath.Join(root, ".bench_build"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &runner{root: root, build: build, dir: dir, live: map[*daemon]bool{}}, nil
}

// close stops every daemon still running and removes the scratch files.
func (r *runner) close() {
	r.mu.Lock()
	ds := make([]*daemon, 0, len(r.live))
	for d := range r.live {
		ds = append(ds, d)
	}
	r.mu.Unlock()
	for _, d := range ds {
		d.stop()
	}
	os.RemoveAll(r.dir)
}

// goBuild compiles a main package (a path relative to dir) into the build
// directory and returns the binary's path.
func (r *runner) goBuild(dir, pkg, name string) (string, error) {
	out := filepath.Join(r.build, name)
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	var log bytes.Buffer
	cmd.Stdout, cmd.Stderr = &log, &log
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building %s: %v\n%s", pkg, err, log.Bytes())
	}
	return out, nil
}

// buildDaemon compiles cmd/gpufreqd from the tree under test.
func (r *runner) buildDaemon() error {
	bin, err := r.goBuild(r.root, "./cmd/gpufreqd", "gpufreqd")
	r.daemon = bin
	return err
}

// daemon is one running gpufreqd.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  string
	done chan struct{}
	r    *runner
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// start launches gpufreqd with args plus a fresh loopback -addr. The child
// is killed if the benchmark process dies.
func (r *runner) start(name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(r.dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(r.daemon, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan struct{}), r: r}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	r.mu.Lock()
	r.live[d] = true
	r.mu.Unlock()
	return d, nil
}

// pid is the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the daemon down gracefully, killing it if it has not exited
// ten seconds after SIGTERM, and waits for it to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.r.mu.Lock()
	delete(d.r.live, d)
	d.r.mu.Unlock()
}

// logTail returns the end of the daemon's log, for error reports.
func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpu returns the daemon's consumed CPU time so far.
func (d *daemon) cpu() (time.Duration, error) { return cpuTime(d.pid()) }

// boot starts a daemon and waits until it serves a model, returning the
// time from exec to the first successful request: a GET /healthz that
// reports a trained, active model.
func (r *runner) boot(ctx context.Context, c *conn, name string, args ...string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := r.start(name, args...)
	if err != nil {
		return nil, 0, err
	}
	for {
		status, body, err := c.do(ctx, http.MethodGet, d.base+"/healthz", "", nil)
		if err == nil && status == http.StatusOK && bytes.Contains(body, []byte(`"trained": true`)) {
			return d, time.Since(t0), nil
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("gpufreqd exited during start-up:\n%s", d.logTail())
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// bootMedian boots the daemon three times with fresh arguments from args
// and keeps the last one running. It returns that daemon and the median
// boot time: the benchmark's set-up time.
func (r *runner) bootMedian(ctx context.Context, c *conn, name string, args func(i int) ([]string, error)) (*daemon, []time.Duration, error) {
	const boots = 3
	var times []time.Duration
	for i := 0; i < boots; i++ {
		a, err := args(i)
		if err != nil {
			return nil, nil, err
		}
		d, t, err := r.boot(ctx, c, fmt.Sprintf("%s-%d", name, i), a...)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
		if i == boots-1 {
			return d, times, nil
		}
		d.stop()
		c.close()
	}
	panic("unreachable")
}

// baseSnapshot returns a model directory holding the base snapshot the
// select and fleet workloads boot from: the active version a fresh training
// deployment at the daemon's default settings publishes. Training is
// deterministic, so the directory is cached per daemon binary and copied
// for each boot.
func (r *runner) baseSnapshot(ctx context.Context, c *conn) (string, error) {
	bin, err := os.ReadFile(r.daemon)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(r.build, "base-"+hex.EncodeToString(sum[:6]))
	if _, err := os.Stat(filepath.Join(dir, gen.Device, "ACTIVE.json")); err == nil {
		return dir, nil
	}
	tmp := filepath.Join(r.dir, "base")
	d, _, err := r.boot(ctx, c, "base", "-model-dir", tmp, "-train-on-start")
	if err != nil {
		return "", err
	}
	d.stop()
	c.close()
	if err := os.Rename(tmp, dir); err != nil && !errors.Is(err, os.ErrExist) {
		return "", err
	}
	return dir, nil
}

// copyDir copies a model directory tree (regular files only).
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
