package adapt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// WAL durability defaults, applied by WALConfig.withDefaults.
const (
	// DefaultSegmentRecords rotates a segment file after this many records.
	DefaultSegmentRecords = 512
	// DefaultSyncEvery fsyncs after this many appended records (group
	// commit); the sync interval bounds the window for slow trickles.
	DefaultSyncEvery = 16
	// DefaultSyncInterval bounds how long an appended record can sit
	// un-fsynced waiting for a group commit to fill.
	DefaultSyncInterval = 100 * time.Millisecond
)

// WALConfig tunes the observation write-ahead log. Zero values select the
// documented defaults; Dir is required.
type WALConfig struct {
	// Dir is the log directory (created if missing).
	Dir string
	// SegmentRecords rotates segments after this many records.
	SegmentRecords int
	// Capacity is the observation ring bound the log compacts past: whole
	// segments whose newest record has been evicted from the ring are
	// deleted. It should match (and is defaulted to) the store capacity.
	Capacity int
	// SyncEvery fsyncs after this many appended records; SyncInterval
	// bounds the wait for a partial batch. Together they define the
	// durability window: a crash loses at most the records appended since
	// the last group commit.
	SyncEvery    int
	SyncInterval time.Duration
}

// withDefaults resolves the zero values.
func (c WALConfig) withDefaults() WALConfig {
	if c.SegmentRecords <= 0 {
		c.SegmentRecords = DefaultSegmentRecords
	}
	if c.Capacity <= 0 {
		c.Capacity = DefaultCapacity
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = DefaultSyncEvery
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = DefaultSyncInterval
	}
	return c
}

// WALStats is the log's accounting, reported under /adapt/status.
type WALStats struct {
	// Dir is the log directory.
	Dir string `json:"dir"`
	// Segments is the number of live segment files; Records the records
	// they hold.
	Segments int `json:"segments"`
	Records  int `json:"records"`
	// LastSeq is the newest appended sequence number (== the store's Total
	// after a clean replay).
	LastSeq int `json:"last_seq"`
	// Pending is how many appended records await the next group commit.
	Pending int `json:"pending"`
	// Truncated reports whether the last replay had to cut a corrupt tail.
	Truncated bool `json:"truncated,omitempty"`
	// LastError is the most recent append/sync failure ("" when healthy).
	LastError string `json:"last_error,omitempty"`
}

// walRecord is one JSONL line: a sequence number plus the observation. The
// sequence lets replay reconstruct the ring's lifetime accounting (Total,
// Dropped) even after compaction has deleted the oldest segments.
type walRecord struct {
	Seq int         `json:"seq"`
	Obs Observation `json:"obs"`
}

// walSegment is one on-disk segment's bookkeeping.
type walSegment struct {
	path        string
	first, last int // sequence range (inclusive); first > last for empty
	records     int
}

// WAL is a crash-safe append-only observation log: JSONL records in
// rotating segment files, group-committed with fsync, compacted past the
// observation ring's bound, and truncated at the first corrupt record on
// replay (a torn tail from a crash never poisons recovery — the longest
// valid prefix wins). It makes the adaptation loop's drift window durable:
// a daemon restart replays the window bit-identically instead of starting
// the hours-long accumulation over. All methods are safe for concurrent
// use.
type WAL struct {
	cfg WALConfig

	mu        sync.Mutex
	f         *os.File
	cur       walSegment   // the open segment
	old       []walSegment // closed segments, oldest first
	seq       int          // last assigned sequence number
	pending   int          // records written but not yet fsynced
	timer     *time.Timer  // pending group-commit deadline
	truncated bool
	lastErr   string
	closed    bool

	recovered []Observation // replayed window, consumed by the controller
}

// OpenWAL opens (creating if needed) the log directory, replays every
// segment — truncating the log at the first corrupt or torn record — and
// returns the WAL positioned to append after the last valid record. The
// recovered window is handed to the adaptation controller via Recovered.
func OpenWAL(cfg WALConfig) (*WAL, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("adapt: WAL needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("adapt: creating WAL dir: %w", err)
	}
	w := &WAL{cfg: cfg}
	if err := w.replay(); err != nil {
		return nil, err
	}
	w.compact()
	return w, nil
}

// segmentPath names a segment by its first sequence number, so a sorted
// directory listing is replay order.
func (w *WAL) segmentPath(firstSeq int) string {
	return filepath.Join(w.cfg.Dir, fmt.Sprintf("obs-%016d.wal", firstSeq))
}

// replay scans the segments in order, recovering the longest valid prefix:
// the first record that is torn (no trailing newline) or corrupt (bad
// JSON) truncates its file there, and every later segment is deleted —
// they are past the valid prefix. The newest Capacity recovered
// observations become the controller's seed window.
func (w *WAL) replay() error {
	entries, err := os.ReadDir(w.cfg.Dir)
	if err != nil {
		return fmt.Errorf("adapt: reading WAL dir: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "obs-") && strings.HasSuffix(e.Name(), ".wal") {
			paths = append(paths, filepath.Join(w.cfg.Dir, e.Name()))
		}
	}
	sort.Strings(paths)

	var obs []Observation
	for i, path := range paths {
		recs, truncAt, err := readSegment(path)
		seg := walSegment{path: path, first: 1, last: 0, records: len(recs)}
		if len(recs) > 0 {
			seg.first, seg.last = recs[0].Seq, recs[len(recs)-1].Seq
			w.seq = recs[len(recs)-1].Seq
		}
		for _, r := range recs {
			obs = append(obs, r.Obs)
		}
		w.old = append(w.old, seg)
		if err != nil {
			return err
		}
		if truncAt >= 0 {
			// Corrupt or torn tail: cut this file at the last valid record
			// and drop everything past it.
			w.truncated = true
			if err := os.Truncate(path, truncAt); err != nil {
				return fmt.Errorf("adapt: truncating corrupt WAL tail %s: %w", path, err)
			}
			for _, later := range paths[i+1:] {
				if err := os.Remove(later); err != nil {
					return fmt.Errorf("adapt: removing WAL segment past corruption %s: %w", later, err)
				}
			}
			break
		}
	}
	if n := len(obs); n > w.cfg.Capacity {
		obs = obs[n-w.cfg.Capacity:]
	}
	w.recovered = obs

	// Append into the newest segment if it has room, else start fresh.
	if n := len(w.old); n > 0 && w.old[n-1].records < w.cfg.SegmentRecords {
		w.cur = w.old[n-1]
		w.old = w.old[:n-1]
		f, err := os.OpenFile(w.cur.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("adapt: reopening WAL segment: %w", err)
		}
		w.f = f
		return nil
	}
	return w.openSegment()
}

// openSegment starts a new segment for the next sequence number. Caller
// holds mu (or is still single-threaded in OpenWAL).
func (w *WAL) openSegment() error {
	path := w.segmentPath(w.seq + 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("adapt: creating WAL segment: %w", err)
	}
	w.f = f
	w.cur = walSegment{path: path, first: w.seq + 1, last: w.seq, records: 0}
	return nil
}

// readSegment parses one segment file. It returns the valid records, and
// truncAt >= 0 when the file must be cut there (torn or corrupt tail);
// parse problems are recovery work, not errors — only I/O failures error.
func readSegment(path string) (recs []walRecord, truncAt int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, -1, fmt.Errorf("adapt: reading WAL segment %s: %w", path, err)
	}
	recs, truncAt = scanJSONL[walRecord](data)
	return recs, truncAt, nil
}

// scanJSONL parses newline-terminated JSON records, the on-disk format of
// both the WAL and the spool. It stops at the first record without a
// newline (a torn tail) or that does not decode (a corrupt one) and
// returns the byte offset the file must be cut at; truncAt is -1 when
// every byte parsed.
func scanJSONL[T any](data []byte) (recs []T, truncAt int64) {
	var off int64
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return recs, off
		}
		var rec T
		if json.Unmarshal(data[:nl], &rec) != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off += int64(nl + 1)
		data = data[nl+1:]
	}
	return recs, -1
}

// Recovered returns the replayed window (newest Capacity observations,
// oldest first) and the lifetime ingest total, releasing the buffer. The
// adaptation controller consumes it exactly once to seed its store.
func (w *WAL) Recovered() (obs []Observation, total int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	obs, w.recovered = w.recovered, nil
	return obs, w.seq
}

// Append logs a batch of observations as one group: the records are
// written together and fsync'd by the group-commit policy (immediately
// when SyncEvery records are pending, otherwise within SyncInterval). An
// I/O failure is recorded in Stats and returned, but the caller's
// in-memory ingest stands — durability degrades, serving does not.
func (w *WAL) Append(obs ...Observation) error {
	if len(obs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("adapt: WAL is closed")
	}
	var buf bytes.Buffer
	for i, o := range obs {
		line, err := json.Marshal(walRecord{Seq: w.seq + 1 + i, Obs: o})
		if err != nil {
			return w.fail(fmt.Errorf("adapt: encoding WAL record: %w", err))
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if _, err := w.f.Write(buf.Bytes()); err != nil {
		return w.fail(fmt.Errorf("adapt: appending to WAL: %w", err))
	}
	w.seq += len(obs)
	w.cur.last = w.seq
	w.cur.records += len(obs)
	w.pending += len(obs)

	if w.cur.records >= w.cfg.SegmentRecords {
		if err := w.rotate(); err != nil {
			return w.fail(err)
		}
	} else if w.pending >= w.cfg.SyncEvery {
		// A full group commit is due: fsync off the hot path so ingest
		// latency stays near the memory-only ring's. The write above has
		// already reached the kernel — only a machine crash (not a killed
		// process) can lose records inside the commit window.
		w.scheduleSync(0)
	} else {
		w.scheduleSync(w.cfg.SyncInterval)
	}
	w.lastErr = ""
	return nil
}

// scheduleSync arms the background group commit, pulling an already armed
// timer forward when the commit becomes due now. Caller holds mu.
func (w *WAL) scheduleSync(d time.Duration) {
	if w.timer == nil {
		w.timer = time.AfterFunc(d, w.timedSync)
	} else if d == 0 {
		w.timer.Reset(0)
	}
}

// fail records an error for Stats and returns it. Caller holds mu.
func (w *WAL) fail(err error) error {
	w.lastErr = err.Error()
	return err
}

// timedSync is the group-commit timer body.
func (w *WAL) timedSync() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.timer = nil
	if w.closed || w.pending == 0 {
		return
	}
	if err := w.syncLocked(); err != nil {
		w.lastErr = err.Error()
	}
}

// syncLocked fsyncs the current segment and clears the pending count.
// Caller holds mu.
func (w *WAL) syncLocked() error {
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("adapt: fsyncing WAL: %w", err)
	}
	w.pending = 0
	return nil
}

// Sync forces the group commit now — tests and shutdown paths use it to
// pin the durability point.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return w.fail(err)
	}
	return nil
}

// rotate fsyncs and closes the current segment, starts the next one, and
// compacts segments the ring bound has fully evicted. Caller holds mu.
func (w *WAL) rotate() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("adapt: closing WAL segment: %w", err)
	}
	w.old = append(w.old, w.cur)
	if err := w.openSegment(); err != nil {
		return err
	}
	w.compact()
	return nil
}

// compact deletes whole segments whose newest record has fallen out of the
// observation ring (seq <= lastSeq - Capacity): replay can never need
// them, so the log's disk footprint stays proportional to the ring, not to
// the daemon's uptime. Deletion failures are recorded, not fatal — an
// over-retained segment only costs disk. Caller holds mu.
func (w *WAL) compact() {
	bound := w.seq - w.cfg.Capacity
	kept := w.old[:0]
	for _, seg := range w.old {
		if seg.records > 0 && seg.last <= bound {
			if err := os.Remove(seg.path); err != nil {
				w.lastErr = fmt.Sprintf("adapt: compacting WAL segment: %v", err)
				kept = append(kept, seg)
			}
			continue
		}
		kept = append(kept, seg)
	}
	w.old = kept
}

// Stats snapshots the log's accounting.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WALStats{
		Dir:       w.cfg.Dir,
		Segments:  len(w.old) + 1,
		Records:   w.cur.records,
		LastSeq:   w.seq,
		Pending:   w.pending,
		Truncated: w.truncated,
		LastError: w.lastErr,
	}
	for _, seg := range w.old {
		st.Records += seg.records
	}
	return st
}

// Close fsyncs outstanding records and closes the log. Appends after Close
// fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("adapt: fsyncing WAL at close: %w", err)
	}
	return w.f.Close()
}
