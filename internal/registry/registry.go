// Package registry is the persistence and versioning layer between the
// model internals (internal/svm, internal/core) and the serving layers
// (internal/engine, internal/policy, cmd/gpufreqd): versioned, on-disk
// snapshots of trained model sets, and an in-process hot-swap holder that
// lets a server replace its active predictor and governor without ever
// blocking prediction traffic.
//
// A snapshot is one JSON document per version containing a manifest
// (version id, device, creation time, training metadata, per-model solver
// statistics, the feature schema the models were trained against, and a
// SHA-256 content hash of the serialized models) plus the models
// themselves, serialized by the existing internal/svm persistence code.
// Snapshots are published atomically — written to a temporary file in the
// destination directory, synced, then renamed into place — so a crash
// mid-write can never corrupt a previously published version, and a
// half-written temporary is simply ignored on the next boot.
//
// The Store organizes snapshots per device profile:
//
//	<dir>/
//	  titanx/
//	    v0001.json        one immutable snapshot per version
//	    v0002.json
//	    ACTIVE.json       {"version", "previous", "activated_at"}
//	  p100/
//	    ...
//
// ACTIVE.json is the activation pointer, also written atomically; its
// "previous" field is what makes one-step rollback durable across process
// restarts. A Store opened with an empty directory path keeps everything
// in memory — same API, no files — which is how gpufreqd runs when no
// -model-dir is configured.
//
// Every read re-reads the document and re-hashes all of its bytes. The
// Store keeps the decodes of the last few documents that passed the full
// integrity check, keyed by that SHA-256, and reuses one only for a
// byte-identical document: a repeat read costs a read plus a hash, and a
// file damaged in place still fails its next read.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/freq"
)

// ErrNoSnapshot is returned when the requested version (or any active
// version) does not exist in the store.
var ErrNoSnapshot = errors.New("registry: no such snapshot")

// ErrCorrupt wraps all snapshot-integrity failures: unreadable JSON,
// truncated files, and content-hash mismatches. A corrupt snapshot is
// never partially loaded.
var ErrCorrupt = errors.New("registry: corrupt snapshot")

// Training records how a snapshot's models were produced.
type Training struct {
	// SettingsPerKernel is the number of sampled frequency settings per
	// training micro-benchmark.
	SettingsPerKernel int `json:"settings_per_kernel"`
	// Kernels is the number of training micro-benchmarks.
	Kernels int `json:"kernels"`
	// Samples is the total supervised sample count.
	Samples int `json:"samples"`
	// DurationMS is the wall-clock training time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Observations is how many live observations were folded into the
	// training set (0 for purely synthetic training runs).
	Observations int `json:"observations,omitempty"`
	// SpeedupRMSE and EnergyRMSE are the models' fractional residual RMSEs
	// on their own training set (core.ResidualRMSE) — the drift detector's
	// baseline. Zero in snapshots published before residual recording.
	SpeedupRMSE float64 `json:"speedup_rmse,omitempty"`
	EnergyRMSE  float64 `json:"energy_rmse,omitempty"`
	// WarmStart records that the fit was seeded from a prior snapshot's
	// models instead of starting cold. Nil for cold fits.
	WarmStart *WarmStartInfo `json:"warm_start,omitempty"`
}

// WarmStartInfo records a warm-started training run's seeding provenance in
// the snapshot manifest. The model weights themselves are identical in form
// to a cold fit's — this is metadata about how the solve started, not about
// the solution.
type WarmStartInfo struct {
	// FromVersion is the snapshot version whose models seeded the fit.
	FromVersion string `json:"from_version"`
	// MatchedRows is the total number of prior support vectors re-matched
	// against the new design matrix, summed over both models.
	MatchedRows int `json:"matched_rows"`
}

// ModelInfo is one model's solver statistics, frozen into the manifest.
type ModelInfo struct {
	// SupportVectors is the trained model's support-vector count.
	SupportVectors int `json:"support_vectors"`
	// Iters is the number of SMO iterations the fit performed.
	Iters int `json:"iters"`
	// Converged reports whether the fit reached the KKT tolerance rather
	// than the iteration cap.
	Converged bool `json:"converged"`
}

// Schema pins the feature representation a snapshot's models expect:
// the input dimension, the static feature names, and the frequency
// normalization intervals baked into the combined feature vector. Load
// rejects snapshots whose schema disagrees with the running binary, so a
// model trained against a different feature layout can never be served.
type Schema struct {
	// Dim is the full model input dimension (static features + 2).
	Dim int `json:"dim"`
	// Names lists the static feature names in vector order.
	Names []string `json:"names"`
	// CoreLo/CoreHi and MemLo/MemHi are the [0,1] normalization intervals
	// applied to the core and memory clock features.
	CoreLo freq.MHz `json:"core_lo"`
	CoreHi freq.MHz `json:"core_hi"`
	MemLo  freq.MHz `json:"mem_lo"`
	MemHi  freq.MHz `json:"mem_hi"`
}

// CurrentSchema returns the feature schema of the running binary.
func CurrentSchema() Schema {
	return Schema{
		Dim:    features.Dim,
		Names:  append([]string(nil), features.Names...),
		CoreLo: freq.CoreBounds.Lo,
		CoreHi: freq.CoreBounds.Hi,
		MemLo:  freq.MemBounds.Lo,
		MemHi:  freq.MemBounds.Hi,
	}
}

// Equal reports whether two schemas describe the same feature layout.
func (s Schema) Equal(o Schema) bool {
	if s.Dim != o.Dim || s.CoreLo != o.CoreLo || s.CoreHi != o.CoreHi ||
		s.MemLo != o.MemLo || s.MemHi != o.MemHi || len(s.Names) != len(o.Names) {
		return false
	}
	for i := range s.Names {
		if s.Names[i] != o.Names[i] {
			return false
		}
	}
	return true
}

// Manifest is a snapshot's metadata: everything about a trained model set
// except the model weights themselves.
type Manifest struct {
	// Version is the snapshot's id, unique per device ("v0001", "v0002", …).
	Version string `json:"version"`
	// Device names the GPU profile the models were trained for.
	Device string `json:"device"`
	// CreatedAt is the snapshot's publication time.
	CreatedAt time.Time `json:"created_at"`
	// Hash is the SHA-256 hex digest of the canonical serialized models;
	// Load recomputes and verifies it.
	Hash string `json:"hash"`
	// Training records how the models were produced.
	Training Training `json:"training"`
	// SpeedupModel and EnergyModel freeze the per-model solver statistics.
	SpeedupModel ModelInfo `json:"speedup_model"`
	EnergyModel  ModelInfo `json:"energy_model"`
	// Schema pins the feature representation the models expect.
	Schema Schema `json:"schema"`
	// Fronts summarizes the precomputed per-kernel Pareto fronts, when the
	// snapshot carries them; nil for snapshots published without fronts,
	// which load and serve unchanged (the governor falls back to live
	// sweeps).
	Fronts *FrontsInfo `json:"fronts,omitempty"`
}

// snapshotFile is the on-disk document: manifest, the raw models JSON,
// and (for snapshots published with precomputed fronts) the raw fronts
// table.
type snapshotFile struct {
	Manifest Manifest        `json:"manifest"`
	Models   json.RawMessage `json:"models"`
	Fronts   json.RawMessage `json:"fronts,omitempty"`
}

// ActiveState is a device's activation pointer: which version serving
// should use, which one was active before it (the rollback target), and
// when the switch happened. It is also the on-disk ACTIVE.json format.
type ActiveState struct {
	// Version is the currently active snapshot version.
	Version string `json:"version"`
	// Previous is the version that was active before this one, if any.
	Previous string `json:"previous,omitempty"`
	// ActivatedAt is when the activation was recorded.
	ActivatedAt time.Time `json:"activated_at"`
}

// Entry is one row of a store listing: the manifest, whether the version
// is the device's active one, and a non-empty Err when the snapshot file
// is unreadable or corrupt.
type Entry struct {
	Manifest
	// Active marks the device's currently activated version.
	Active bool `json:"active"`
	// Err describes why the snapshot could not be read, if it could not.
	Err string `json:"error,omitempty"`
}

// versionRe matches snapshot version ids and their file names.
var versionRe = regexp.MustCompile(`^v(\d{4,})$`)

// HashModels returns the SHA-256 hex digest of the canonical (compacted)
// JSON serialization of a model set — the content hash recorded in
// manifests and verified on load.
func HashModels(m *core.Models) (string, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return "", err
	}
	return hashRaw(buf.Bytes())
}

// hashRaw compacts raw models JSON and hashes it, so the digest is
// independent of insignificant whitespace introduced by re-encoding.
func hashRaw(raw []byte) (string, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return "", fmt.Errorf("registry: canonicalizing models: %w", err)
	}
	sum := sha256.Sum256(compact.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// Store is a versioned snapshot store for one model directory (or, with an
// empty directory, an in-memory store with the same behavior). All methods
// are safe for concurrent use within one process; concurrent writers from
// multiple processes are not coordinated — run one publisher per model
// directory (see docs/OPERATIONS.md).
type Store struct {
	dir string // "" = memory-only

	mu       sync.Mutex
	mem      map[string]map[string][]byte // device -> version -> snapshot doc (memory mode)
	seq      map[string]int               // device -> highest allocated sequence number
	active   map[string]ActiveState       // device -> activation state (memory mode cache)
	manCache map[string]manCacheEntry     // device/version -> verified manifest
	memo     []*verified                  // verified decodes, least recently used first
}

// memoSize bounds the decode memo: the active and previous version of two
// devices.
const memoSize = 4

// verified is one snapshot document that passed decode, memoized under the
// SHA-256 of its exact bytes. It keeps what readers need — the manifest,
// the raw models (re-deserialized per LoadFull, so every caller gets its
// own *core.Models) and the decoded front table, which callers share — but
// neither the document nor its raw fronts section.
type verified struct {
	sum    [sha256.Size]byte
	man    Manifest
	models json.RawMessage
	fronts *Fronts
}

// manCacheEntry caches one verified manifest so the /models polling hot
// path does not re-read and re-hash every snapshot on every call.
// Snapshots are immutable once published; for the disk-backed store the
// (size, mtime) pair still guards against out-of-band file replacement.
type manCacheEntry struct {
	man   Manifest
	size  int64
	mtime time.Time
}

// Open opens (creating if needed) a snapshot store rooted at dir. An empty
// dir selects the in-memory mode: fully functional versioning with no
// persistence, used when no model directory is configured.
func Open(dir string) (*Store, error) {
	s := &Store{
		dir:      dir,
		mem:      map[string]map[string][]byte{},
		seq:      map[string]int{},
		active:   map[string]ActiveState{},
		manCache: map[string]manCacheEntry{},
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: creating %s: %w", dir, err)
		}
	}
	return s, nil
}

// Dir returns the store's root directory ("" for the in-memory mode).
func (s *Store) Dir() string { return s.dir }

// Persistent reports whether the store writes snapshots to disk.
func (s *Store) Persistent() bool { return s.dir != "" }

// deviceDir returns (creating if needed) the per-device directory.
func (s *Store) deviceDir(device string) (string, error) {
	d := filepath.Join(s.dir, device)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", fmt.Errorf("registry: creating %s: %w", d, err)
	}
	return d, nil
}

// versionNum extracts a version id's sequence number (0 if malformed).
func versionNum(v string) int {
	var n int
	fmt.Sscanf(v, "v%d", &n)
	return n
}

// versionsLocked lists the existing version ids for a device, oldest
// first. The sort is numeric, not lexicographic, so ordering survives the
// sequence passing v9999. Caller holds mu.
func (s *Store) versionsLocked(device string) ([]string, error) {
	var out []string
	if !s.Persistent() {
		for v := range s.mem[device] {
			out = append(out, v)
		}
	} else {
		ents, err := os.ReadDir(filepath.Join(s.dir, device))
		if err != nil {
			if os.IsNotExist(err) {
				return nil, nil
			}
			return nil, err
		}
		for _, e := range ents {
			name := strings.TrimSuffix(e.Name(), ".json")
			if strings.HasSuffix(e.Name(), ".json") && versionRe.MatchString(name) {
				out = append(out, name)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return versionNum(out[i]) < versionNum(out[j]) })
	return out, nil
}

// Reserve allocates and returns the device's next version id without
// writing anything. gpufreqd reserves the id when a background training
// run starts, so the id can be returned immediately from POST /train; the
// snapshot is published under it when (and only when) the run succeeds.
func (s *Store) Reserve(device string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq[device] == 0 {
		versions, err := s.versionsLocked(device)
		if err != nil {
			return "", err
		}
		for _, v := range versions {
			if n := versionNum(v); n > s.seq[device] {
				s.seq[device] = n
			}
		}
	}
	s.seq[device]++
	return fmt.Sprintf("v%04d", s.seq[device]), nil
}

// Save publishes a snapshot of the model set under the given version
// (previously obtained from Reserve; "" reserves one automatically) and
// returns its manifest. Publication is atomic: the document is written to
// a temporary file in the device directory, synced, then renamed into
// place, so readers and crash recovery only ever see complete snapshots.
// Save never activates — call Activate to point serving at the version.
// Snapshots published by Save carry no precomputed fronts; publishers on
// the serving path use SaveWithFronts.
func (s *Store) Save(device, version string, m *core.Models, tr Training) (Manifest, error) {
	return s.SaveWithFronts(device, version, m, tr, nil)
}

// SaveWithFronts is Save plus a publish-time front table: the per-kernel
// ladder sweeps and Pareto sets computed from the model set being
// published (ComputeFronts). The table is serialized into the snapshot
// document and summarized in the manifest with its own content hash, so
// load verifies it exactly like the models. A nil table publishes the
// pre-fronts document layout byte-identically to Save.
func (s *Store) SaveWithFronts(device, version string, m *core.Models, tr Training, fronts *Fronts) (Manifest, error) {
	if version == "" {
		var err error
		if version, err = s.Reserve(device); err != nil {
			return Manifest{}, err
		}
	}
	if !versionRe.MatchString(version) {
		return Manifest{}, fmt.Errorf("registry: invalid version id %q", version)
	}

	var models bytes.Buffer
	if err := m.Save(&models); err != nil {
		return Manifest{}, fmt.Errorf("registry: serializing models: %w", err)
	}
	hash, err := hashRaw(models.Bytes())
	if err != nil {
		return Manifest{}, err
	}
	man := Manifest{
		Version:   version,
		Device:    device,
		CreatedAt: time.Now().UTC(),
		Hash:      hash,
		Training:  tr,
		SpeedupModel: ModelInfo{
			SupportVectors: m.Speedup.NumSV(), Iters: m.Speedup.Iters, Converged: m.Speedup.Converged,
		},
		EnergyModel: ModelInfo{
			SupportVectors: m.Energy.NumSV(), Iters: m.Energy.Iters, Converged: m.Energy.Converged,
		},
		Schema: CurrentSchema(),
	}
	var frontsRaw json.RawMessage
	if fronts != nil {
		doc, fhash, err := encodeFronts(fronts)
		if err != nil {
			return Manifest{}, err
		}
		frontsRaw = doc
		man.Fronts = &FrontsInfo{Kernels: len(fronts.Kernels), Hash: fhash}
	}
	doc, err := json.MarshalIndent(snapshotFile{Manifest: man, Models: models.Bytes(), Fronts: frontsRaw}, "", "  ")
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: encoding snapshot: %w", err)
	}
	doc = append(doc, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.Persistent() {
		if s.mem[device] == nil {
			s.mem[device] = map[string][]byte{}
		}
		if _, exists := s.mem[device][version]; exists {
			return Manifest{}, fmt.Errorf("registry: version %s already exists for %s", version, device)
		}
		s.mem[device][version] = doc
		return man, nil
	}
	devDir, err := s.deviceDir(device)
	if err != nil {
		return Manifest{}, err
	}
	final := filepath.Join(devDir, version+".json")
	if _, err := os.Stat(final); err == nil {
		return Manifest{}, fmt.Errorf("registry: version %s already exists for %s", version, device)
	}
	if err := writeAtomic(final, doc); err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// writeAtomic publishes data at path via a temporary file in the same
// directory, an fsync, and a rename — the crash-safety contract every
// registry write (snapshots and the ACTIVE pointer) relies on.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("registry: creating temporary file in %s: %w", dir, err)
	}
	tmp := f.Name()
	cleanup := func() { f.Close(); os.Remove(tmp) }
	if _, err := f.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("registry: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("registry: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("registry: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("registry: publishing %s: %w", path, err)
	}
	return nil
}

// readDoc returns the raw snapshot document for (device, version).
func (s *Store) readDoc(device, version string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.Persistent() {
		doc, ok := s.mem[device][version]
		if !ok {
			return nil, fmt.Errorf("%w: %s/%s", ErrNoSnapshot, device, version)
		}
		return doc, nil
	}
	doc, err := os.ReadFile(filepath.Join(s.dir, device, version+".json"))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoSnapshot, device, version)
	}
	return doc, err
}

// decode parses and integrity-checks a snapshot document and returns it
// with the front table it verified (nil for pre-fronts snapshots), so no
// caller decodes the fronts section twice.
func decode(device, version string, doc []byte) (snapshotFile, *Fronts, error) {
	var sf snapshotFile
	if err := json.Unmarshal(doc, &sf); err != nil {
		return sf, nil, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, device, version, err)
	}
	fronts, err := sf.check(device, version)
	return sf, fronts, err
}

// check integrity-checks a parsed snapshot document read as
// (device, version): the manifest version, the models hash and the fronts
// section. It returns the decoded front table.
func (sf *snapshotFile) check(device, version string) (*Fronts, error) {
	if sf.Manifest.Version != version {
		return nil, errVersion(device, version, sf.Manifest.Version)
	}
	if len(sf.Models) == 0 {
		return nil, fmt.Errorf("%w: %s/%s: snapshot has no models", ErrCorrupt, device, version)
	}
	hash, err := hashRaw(sf.Models)
	if err != nil {
		return nil, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, device, version, err)
	}
	if hash != sf.Manifest.Hash {
		return nil, fmt.Errorf("%w: %s/%s: content hash mismatch (manifest %.8s…, computed %.8s…)",
			ErrCorrupt, device, version, sf.Manifest.Hash, hash)
	}
	return decodeFronts(device, version, sf.Fronts, sf.Manifest.Fronts)
}

// errVersion reports a document read as (device, version) whose manifest
// claims another version.
func errVersion(device, version, claimed string) error {
	return fmt.Errorf("%w: %s/%s: manifest claims version %q", ErrCorrupt, device, version, claimed)
}

// verify returns the verified decode of doc, read as (device, version).
// Every call hashes all of doc; only a document byte-identical to one that
// already passed decode skips the JSON decode and the section hashes, and
// it still gets the manifest-version check. Only successful decodes are
// memoized.
func (s *Store) verify(device, version string, doc []byte) (*verified, error) {
	sum := sha256.Sum256(doc)
	if v := s.recall(sum); v != nil {
		if v.man.Version != version {
			return nil, errVersion(device, version, v.man.Version)
		}
		return v, nil
	}
	sf, fronts, err := decode(device, version, doc)
	if err != nil {
		return nil, err
	}
	return s.remember(sum, &sf, fronts), nil
}

// read reads and verifies the snapshot for (device, version); an empty
// version reads the device's active snapshot.
func (s *Store) read(device, version string) ([]byte, *verified, error) {
	if version == "" {
		st, ok := s.ActiveState(device)
		if !ok {
			return nil, nil, fmt.Errorf("%w: %s has no active version", ErrNoSnapshot, device)
		}
		version = st.Version
	}
	doc, err := s.readDoc(device, version)
	if err != nil {
		return nil, nil, err
	}
	v, err := s.verify(device, version, doc)
	return doc, v, err
}

// recall returns the memoized decode of the document with this digest,
// marking it most recently used, or nil.
func (s *Store) recall(sum [sha256.Size]byte) *verified {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, v := range s.memo {
		if v.sum == sum {
			copy(s.memo[i:], s.memo[i+1:])
			s.memo[len(s.memo)-1] = v
			return v
		}
	}
	return nil
}

// remember memoizes a successfully decoded document, evicting the least
// recently used entry beyond memoSize, and returns the entry now held for
// its digest (a concurrent decode of the same bytes may have won).
func (s *Store) remember(sum [sha256.Size]byte, sf *snapshotFile, fronts *Fronts) *verified {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.memo {
		if v.sum == sum {
			return v
		}
	}
	v := &verified{sum: sum, man: sf.Manifest, models: sf.Models, fronts: fronts}
	if len(s.memo) == memoSize {
		s.memo = append(s.memo[:0], s.memo[1:]...)
	}
	s.memo = append(s.memo, v)
	return v
}

// Load reads, integrity-checks, and deserializes the snapshot for
// (device, version). An empty version loads the device's active snapshot.
// The returned models predict bit-identically to the set that was saved.
// Corrupt or truncated snapshots are rejected with an error wrapping
// ErrCorrupt; snapshots recorded under a different feature schema are
// rejected as incompatible.
func (s *Store) Load(device, version string) (*core.Models, Manifest, error) {
	m, _, man, err := s.LoadFull(device, version)
	return m, man, err
}

// LoadFull is Load plus the snapshot's precomputed front table. The table
// is nil for snapshots published without fronts (the pre-fronts format),
// which remain fully loadable — callers fall back to live sweeps.
func (s *Store) LoadFull(device, version string) (*core.Models, *Fronts, Manifest, error) {
	_, v, err := s.read(device, version)
	if err != nil {
		return nil, nil, Manifest{}, err
	}
	if !v.man.Schema.Equal(CurrentSchema()) {
		return nil, nil, Manifest{}, fmt.Errorf("registry: %s/%s: snapshot feature schema is incompatible with this binary",
			device, v.man.Version)
	}
	m, err := core.Load(bytes.NewReader(v.models))
	if err != nil {
		return nil, nil, Manifest{}, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, device, v.man.Version, err)
	}
	return m, v.fronts, v.man, nil
}

// LoadFronts reads, integrity-checks, and returns only the snapshot's
// precomputed front table (nil for pre-fronts snapshots). An empty version
// loads the device's active snapshot. Activation paths use it to hydrate
// the governor without re-deserializing the models they already hold.
// The table is shared with every other caller that read the same
// document; see Fronts.
func (s *Store) LoadFronts(device, version string) (*Fronts, error) {
	_, v, err := s.read(device, version)
	if err != nil {
		return nil, err
	}
	return v.fronts, nil
}

// GetManifest reads and integrity-checks one snapshot's manifest. Verified
// manifests are cached (snapshots are immutable; on disk the file's size
// and mtime guard the entry), so status polling does not re-read every
// snapshot per request. Every other read re-hashes the document bytes, and
// reuses a decode only for byte-identical documents.
func (s *Store) GetManifest(device, version string) (Manifest, error) {
	key := device + "/" + version
	var size int64
	var mtime time.Time
	if s.Persistent() {
		fi, err := os.Stat(filepath.Join(s.dir, device, version+".json"))
		if os.IsNotExist(err) {
			return Manifest{}, fmt.Errorf("%w: %s/%s", ErrNoSnapshot, device, version)
		} else if err != nil {
			return Manifest{}, err
		}
		size, mtime = fi.Size(), fi.ModTime()
	}
	s.mu.Lock()
	e, ok := s.manCache[key]
	s.mu.Unlock()
	if ok && (!s.Persistent() || (e.size == size && e.mtime.Equal(mtime))) {
		return e.man, nil
	}

	doc, err := s.readDoc(device, version)
	if err != nil {
		return Manifest{}, err
	}
	v, err := s.verify(device, version, doc)
	if err != nil {
		return Manifest{}, err
	}
	s.mu.Lock()
	s.manCache[key] = manCacheEntry{man: v.man, size: size, mtime: mtime}
	s.mu.Unlock()
	return v.man, nil
}

// List returns every version recorded for the device, oldest first.
// Unreadable or corrupt snapshots appear with their Err set instead of
// being silently skipped, so operators can spot damage from a listing.
func (s *Store) List(device string) ([]Entry, error) {
	s.mu.Lock()
	versions, err := s.versionsLocked(device)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	activeVersion := ""
	if st, ok := s.ActiveState(device); ok {
		activeVersion = st.Version
	}
	out := make([]Entry, 0, len(versions))
	for _, v := range versions {
		e := Entry{Active: v == activeVersion}
		man, err := s.GetManifest(device, v)
		if err != nil {
			e.Manifest = Manifest{Version: v, Device: device}
			e.Err = err.Error()
		} else {
			e.Manifest = man
		}
		out = append(out, e)
	}
	return out, nil
}

// FindByHash returns the version id of a snapshot whose content hash
// matches, if any — used to deduplicate imports of externally supplied
// model files.
func (s *Store) FindByHash(device, hash string) (string, bool) {
	entries, err := s.List(device)
	if err != nil {
		return "", false
	}
	for _, e := range entries {
		if e.Err == "" && e.Hash == hash {
			return e.Version, true
		}
	}
	return "", false
}

// activePath returns the ACTIVE pointer path for a device.
func (s *Store) activePath(device string) string {
	return filepath.Join(s.dir, device, "ACTIVE.json")
}

// ActiveState returns the device's current activation state (active and
// previous version) and whether any version is active.
func (s *Store) ActiveState(device string) (ActiveState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeStateLocked(device)
}

func (s *Store) activeStateLocked(device string) (ActiveState, bool) {
	if !s.Persistent() {
		st, ok := s.active[device]
		return st, ok && st.Version != ""
	}
	doc, err := os.ReadFile(s.activePath(device))
	if err != nil {
		return ActiveState{}, false
	}
	var af ActiveState
	if err := json.Unmarshal(doc, &af); err != nil || af.Version == "" {
		return ActiveState{}, false
	}
	return af, true
}

// Active returns the device's active version id, if any version is active.
func (s *Store) Active(device string) (string, bool) {
	st, ok := s.ActiveState(device)
	return st.Version, ok
}

// Activate points the device's ACTIVE pointer at the given version,
// recording the outgoing version as "previous" for Rollback. The version
// must exist and pass the integrity check. The pointer write is atomic.
func (s *Store) Activate(device, version string) error {
	if _, err := s.GetManifest(device, version); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, _ := s.activeStateLocked(device)
	af := ActiveState{Version: version, ActivatedAt: time.Now().UTC()}
	if cur.Version != "" && cur.Version != version {
		af.Previous = cur.Version
	} else if cur.Version == version {
		af.Previous = cur.Previous // re-activating is a no-op for history
	}
	return s.writeActiveLocked(device, af)
}

func (s *Store) writeActiveLocked(device string, af ActiveState) error {
	if !s.Persistent() {
		s.active[device] = af
		return nil
	}
	if _, err := s.deviceDir(device); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(af, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(s.activePath(device), append(doc, '\n'))
}

// Previous returns the version that was active before the current one —
// the rollback target — if one is recorded. Rollback itself is just
// Activate(Previous): Activate records the outgoing version as the new
// "previous", so a second rollback toggles back.
func (s *Store) Previous(device string) (string, bool) {
	st, ok := s.ActiveState(device)
	if !ok || st.Previous == "" {
		return "", false
	}
	return st.Previous, true
}
