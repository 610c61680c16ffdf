package adapt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Spool is the agent-side observation queue: observations that could not
// be forwarded to the control plane are enqueued here and flushed in order
// on reconnect — never silently dropped. With a directory it is disk-backed
// (an append-only JSONL file plus an atomically written ack offset, so a
// partitioned agent that also crashes still flushes everything on the next
// boot); without one it degrades to an in-memory queue that survives the
// partition but not the process. All methods are safe for concurrent use.
type Spool struct {
	dir string

	mu    sync.Mutex
	f     *os.File      // nil in memory mode
	queue []Observation // un-acked, oldest first
	acked int           // records at the head of the file already flushed

	enqueued, flushed int // lifetime counters
	truncated         bool
	closed            bool
}

// SpoolStats is the spool's accounting, reported on the agent's /healthz.
type SpoolStats struct {
	// Dir is the backing directory ("" for a memory-only spool).
	Dir string `json:"dir,omitempty"`
	// Depth is the number of queued, not-yet-flushed observations.
	Depth int `json:"depth"`
	// Enqueued and Flushed are lifetime counts (Enqueued - Flushed = Depth,
	// across restarts when disk-backed).
	Enqueued int `json:"enqueued"`
	Flushed  int `json:"flushed"`
	// Truncated reports whether the last open had to cut a corrupt tail.
	Truncated bool `json:"truncated,omitempty"`
}

// spool file names inside the directory.
const (
	spoolFile = "spool.wal"
	ackFile   = "spool.ack"
)

// OpenSpool opens (creating if needed) a disk-backed spool in dir,
// replaying any queued observations a previous process left behind —
// truncating a torn tail, and skipping the prefix the ack offset marks as
// already flushed. An empty dir returns a memory-only spool.
func OpenSpool(dir string) (*Spool, error) {
	s := &Spool{dir: dir}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("adapt: creating spool dir: %w", err)
	}
	path := filepath.Join(dir, spoolFile)
	obs, truncAt, err := readSpoolFile(path)
	if err != nil {
		return nil, err
	}
	if truncAt >= 0 {
		s.truncated = true
		if err := os.Truncate(path, truncAt); err != nil {
			return nil, fmt.Errorf("adapt: truncating corrupt spool tail: %w", err)
		}
	}
	acked := readAck(filepath.Join(dir, ackFile))
	if acked > len(obs) {
		acked = len(obs) // the ack can only run ahead after tail truncation
	}
	s.queue = append(s.queue, obs[acked:]...)
	s.acked = acked
	s.enqueued, s.flushed = len(obs), acked
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("adapt: opening spool file: %w", err)
	}
	s.f = f
	return s, nil
}

// readSpoolFile parses the spool's JSONL file, returning the valid
// observations and truncAt >= 0 when a torn or corrupt tail must be cut.
func readSpoolFile(path string) (obs []Observation, truncAt int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, -1, nil
	}
	if err != nil {
		return nil, -1, fmt.Errorf("adapt: reading spool file: %w", err)
	}
	obs, truncAt = scanJSONL[Observation](data)
	return obs, truncAt, nil
}

// readAck reads the persisted ack offset (0 when absent or unreadable —
// re-flushing already-delivered observations is safe, losing queued ones
// is not, so every failure mode rounds down).
func readAck(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Enqueue queues observations for a later flush. Disk-backed spools fsync
// before returning — this path only runs when forwarding already failed,
// so durability wins over latency here.
func (s *Spool) Enqueue(obs ...Observation) error {
	if len(obs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("adapt: spool is closed")
	}
	if s.f != nil {
		var buf bytes.Buffer
		for _, o := range obs {
			line, err := json.Marshal(o)
			if err != nil {
				return fmt.Errorf("adapt: encoding spooled observation: %w", err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if _, err := s.f.Write(buf.Bytes()); err != nil {
			return fmt.Errorf("adapt: appending to spool: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("adapt: fsyncing spool: %w", err)
		}
	}
	s.queue = append(s.queue, obs...)
	s.enqueued += len(obs)
	return nil
}

// Depth is the number of queued, not-yet-flushed observations.
func (s *Spool) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Pending copies out up to max queued observations, oldest first, without
// dequeuing them — the caller forwards the batch and then Acks exactly how
// many the control plane accepted.
func (s *Spool) Pending(max int) []Observation {
	s.mu.Lock()
	defer s.mu.Unlock()
	if max <= 0 || max > len(s.queue) {
		max = len(s.queue)
	}
	out := make([]Observation, max)
	copy(out, s.queue[:max])
	return out
}

// Ack marks the n oldest queued observations as flushed. Disk-backed
// spools persist the offset atomically (temp file + rename) and compact
// the file away entirely once the queue drains, so the spool's footprint
// is zero in the healthy steady state.
func (s *Spool) Ack(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		return nil
	}
	if n > len(s.queue) {
		n = len(s.queue)
	}
	s.queue = s.queue[n:]
	s.acked += n
	s.flushed += n
	if s.f == nil {
		return nil
	}
	if len(s.queue) == 0 {
		// Drained: drop the file and the offset instead of growing forever.
		if err := s.f.Truncate(0); err != nil {
			return fmt.Errorf("adapt: compacting drained spool: %w", err)
		}
		s.acked = 0
		os.Remove(filepath.Join(s.dir, ackFile))
		return nil
	}
	return s.writeAck()
}

// writeAck persists the ack offset atomically. Caller holds mu.
func (s *Spool) writeAck() error {
	path := filepath.Join(s.dir, ackFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.Itoa(s.acked)), 0o644); err != nil {
		return fmt.Errorf("adapt: writing spool ack: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("adapt: committing spool ack: %w", err)
	}
	return nil
}

// Stats snapshots the spool's accounting.
func (s *Spool) Stats() SpoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpoolStats{
		Dir: s.dir, Depth: len(s.queue),
		Enqueued: s.enqueued, Flushed: s.flushed,
		Truncated: s.truncated,
	}
}

// Close releases the backing file; queued observations stay on disk for
// the next process. Memory-mode spools forget their queue.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}
