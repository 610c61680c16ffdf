package registry

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// ErrIncompatible marks a snapshot whose feature schema disagrees with the
// running binary: the document is intact (the content hash verifies) but
// its models expect a different input layout, so importing or serving it
// would silently mispredict. Distinct from ErrCorrupt so callers can tell
// "damaged in transit" from "trained by an incompatible build".
var ErrIncompatible = errors.New("registry: incompatible snapshot schema")

// ErrNoDonor is returned by Nearest when no other device has a
// schema-compatible active snapshot to bootstrap from.
var ErrNoDonor = errors.New("registry: no compatible donor model")

// deviceRe constrains device keys that arrive over the wire: they become
// path components of the store directory, so path separators and dot-dot
// must never pass.
var deviceRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// validDevice reports whether a wire-supplied device key is safe to use as
// a store path component.
func validDevice(device string) bool {
	return device != "." && device != ".." && deviceRe.MatchString(device)
}

// ExportDoc returns the verified raw snapshot document for
// (device, version) — the push/pull wire format of the fleet layer. An
// empty version exports the device's active snapshot. The returned bytes
// are exactly what ImportDoc on another store accepts, and the embedded
// content hash lets the receiver verify them independently.
func (s *Store) ExportDoc(device, version string) ([]byte, error) {
	doc, _, err := s.read(device, version)
	if err != nil {
		return nil, err
	}
	return doc, nil
}

// ImportDoc verifies a snapshot document produced by ExportDoc on another
// store and publishes it here under its manifest's (device, version),
// byte-for-byte — models, fronts, and manifest survive the transfer
// unchanged, so the importing store serves bit-identically to the
// exporting one. Verification order: the device and version ids must be
// well formed, the content hash must match and the models must decode
// (ErrCorrupt otherwise), and the feature schema and the models' input
// width must match the running binary (ErrIncompatible).
// Re-importing a version that already exists with the same content hash
// is an idempotent no-op; a version-id collision with different content
// is an error. ImportDoc never activates — callers decide what to serve.
func (s *Store) ImportDoc(doc []byte) (Manifest, error) {
	sum := sha256.Sum256(doc)
	v := s.recall(sum)
	if v == nil {
		var sf snapshotFile
		if err := json.Unmarshal(doc, &sf); err != nil {
			return Manifest{}, fmt.Errorf("%w: unreadable document: %v", ErrCorrupt, err)
		}
		if err := checkIDs(sf.Manifest); err != nil {
			return Manifest{}, err
		}
		fronts, err := sf.check(sf.Manifest.Device, sf.Manifest.Version)
		if err != nil {
			return Manifest{}, err
		}
		if _, err := loadModels(sf.Manifest.Device, sf.Manifest.Version, sf.Models); err != nil {
			return Manifest{}, err
		}
		v = s.remember(sum, &sf, fronts)
	} else if err := checkIDs(v.man); err != nil {
		return Manifest{}, err
	}
	man := v.man
	if !man.Schema.Equal(CurrentSchema()) {
		return Manifest{}, fmt.Errorf("%w: %s/%s was recorded under a different feature schema",
			ErrIncompatible, man.Device, man.Version)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Imported sequence numbers must advance the reservation counter, or a
	// later local Reserve could collide with an imported version.
	if n := versionNum(man.Version); n > s.seq[man.Device] {
		s.seq[man.Device] = n
	}
	if !s.Persistent() {
		if existing, ok := s.mem[man.Device][man.Version]; ok {
			return importCollision(man, existing)
		}
		if s.mem[man.Device] == nil {
			s.mem[man.Device] = map[string][]byte{}
		}
		s.mem[man.Device][man.Version] = append([]byte(nil), doc...)
		return man, nil
	}
	devDir, err := s.deviceDir(man.Device)
	if err != nil {
		return Manifest{}, err
	}
	final := filepath.Join(devDir, man.Version+".json")
	if existing, err := os.ReadFile(final); err == nil {
		return importCollision(man, existing)
	}
	if err := writeAtomic(final, doc); err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// checkIDs rejects a wire-supplied manifest whose device or version id is
// not safe to use as a store path component.
func checkIDs(man Manifest) error {
	if !validDevice(man.Device) {
		return fmt.Errorf("%w: bad device key %q", ErrCorrupt, man.Device)
	}
	if !versionRe.MatchString(man.Version) {
		return fmt.Errorf("%w: bad version id %q", ErrCorrupt, man.Version)
	}
	return nil
}

// importCollision resolves an import against an existing version: the same
// content hash is an idempotent success, different content is an error.
func importCollision(man Manifest, existing []byte) (Manifest, error) {
	var sf snapshotFile
	if err := json.Unmarshal(existing, &sf); err == nil && sf.Manifest.Hash == man.Hash {
		return man, nil
	}
	return Manifest{}, fmt.Errorf("registry: version %s already exists for %s with different content",
		man.Version, man.Device)
}

// Devices lists the device keys present in the store (devices with at
// least one snapshot directory or in-memory entry), sorted.
func (s *Store) Devices() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	if !s.Persistent() {
		for d := range s.mem {
			out = append(out, d)
		}
	} else {
		ents, err := os.ReadDir(s.dir)
		if err != nil {
			if os.IsNotExist(err) {
				return nil, nil
			}
			return nil, err
		}
		for _, e := range ents {
			if e.IsDir() && validDevice(e.Name()) {
				out = append(out, e.Name())
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// Nearest picks the donor for a cross-device bootstrap: among all devices
// other than target that have a schema-compatible active snapshot, the one
// whose profile distance (as reported by dist; ok=false excludes a device)
// is smallest, ties broken by device name for determinism. It returns the
// donor's device key, active version, and distance, or an error wrapping
// ErrNoDonor when no device qualifies — callers surface that explicitly
// rather than falling back to a cold fit.
func (s *Store) Nearest(target string, dist func(device string) (float64, bool)) (device, version string, d float64, err error) {
	devices, err := s.Devices()
	if err != nil {
		return "", "", 0, err
	}
	cur := CurrentSchema()
	found := false
	for _, dev := range devices {
		if dev == target {
			continue
		}
		st, ok := s.ActiveState(dev)
		if !ok {
			continue
		}
		man, err := s.GetManifest(dev, st.Version)
		if err != nil || !man.Schema.Equal(cur) {
			continue
		}
		dd, ok := dist(dev)
		if !ok {
			continue
		}
		if !found || dd < d || (dd == d && dev < device) {
			found = true
			device, version, d = dev, st.Version, dd
		}
	}
	if !found {
		return "", "", 0, fmt.Errorf("%w for %s", ErrNoDonor, target)
	}
	return device, version, d, nil
}
