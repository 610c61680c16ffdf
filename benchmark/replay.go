package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
)

// replay runs the trace program, which replays the workloads' validation
// inputs in-process through each layer, prints its self-time table, and
// returns the per-layer metrics it reports on its last line.
func replay(ctx context.Context, r *runner, bin string, seed int64) (map[string]metric, error) {
	dir := filepath.Join(r.dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, "-seed", fmt.Sprint(seed),
		"-dir", dir, "-out", filepath.Join(r.build, fmt.Sprintf("trace-%d.jsonl", seed)))
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("trace: %v\n%s", err, errb.Bytes())
	}
	text := strings.TrimSpace(out.String())
	i := strings.LastIndexByte(text, '\n')
	for _, l := range strings.Split(text[:i+1], "\n") {
		if l != "" {
			fmt.Println("  " + l)
		}
	}
	var ms map[string]metric
	if err := json.Unmarshal([]byte(text[i+1:]), &ms); err != nil {
		return nil, fmt.Errorf("trace: reading its metrics: %v", err)
	}
	return ms, nil
}
