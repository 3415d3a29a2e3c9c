package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// defaultDiskMaxBytes bounds the persistent layer when the caller does not
// choose a cap. A verdict entry is a few hundred bytes, so the default holds
// hundreds of thousands of verdicts — far beyond any realistic working set —
// while guaranteeing a long-lived server cannot fill the disk.
const defaultDiskMaxBytes = 256 << 20

// diskStore is the persistent read-through layer: one JSON file per key,
// written atomically (temp file + rename) and wrapped with a checksum so a
// torn write, truncation, or bit flip is detected instead of served.
//
// The layer is size-bounded: the total bytes of *.json entries are tracked
// (seeded by a startup scan, maintained on every write and removal), and a
// write that pushes the total over maxBytes evicts the least-recently-used
// entries — file modification time orders them, and both a write and a
// read-through stamp it from one clock — until the store fits again.
// Without the bound a long-lived server writes one file per distinct
// verdict forever and eventually fills the volume.
type diskStore struct {
	dir      string
	ok       bool
	maxBytes int64 // <= 0 disables the bound
	// now is the clock that stamps an entry's recency on write and read.
	// The file system's own write time would be another, coarser clock,
	// which could order a write after a read as older than it.
	now func() time.Time

	mu   sync.Mutex
	size int64 // total bytes of *.json entries under dir
}

// diskEntry is the on-disk envelope. Checksum is the hex SHA-256 of the
// raw verdict JSON exactly as stored.
type diskEntry struct {
	Checksum string          `json:"checksum"`
	Verdict  json.RawMessage `json:"verdict"`
}

func newDiskStore(dir string, maxBytes int64) *diskStore {
	if maxBytes == 0 {
		maxBytes = defaultDiskMaxBytes
	}
	d := &diskStore{dir: dir, maxBytes: maxBytes, now: time.Now}
	d.ok = os.MkdirAll(dir, 0o755) == nil
	if d.ok {
		// Seed the size from what a previous process left behind, and
		// enforce the (possibly lowered) cap immediately.
		d.mu.Lock()
		d.rescanLocked()
		d.evictLocked()
		d.mu.Unlock()
	}
	return d
}

// fileName maps a cache key to a file name. Keys from paramra are already
// hex digests; anything else is hashed so no key can escape the directory.
func (d *diskStore) fileName(key string) string {
	for _, r := range key {
		ok := r == '-' || r == '_' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			sum := sha256.Sum256([]byte(key))
			key = hex.EncodeToString(sum[:])
			break
		}
	}
	return filepath.Join(d.dir, key+".json")
}

// get reads key. The third result reports a corrupt entry: present but
// failing decode or checksum. Corrupt files are removed best-effort so they
// are only counted once.
func (d *diskStore) get(key string) (Verdict, bool, bool) {
	if !d.ok {
		return Verdict{}, false, false
	}
	path := d.fileName(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return Verdict{}, false, false
	}
	var ent diskEntry
	if err := json.Unmarshal(raw, &ent); err != nil {
		d.removeSized(path, int64(len(raw)))
		return Verdict{}, false, true
	}
	sum := sha256.Sum256(ent.Verdict)
	if hex.EncodeToString(sum[:]) != ent.Checksum {
		d.removeSized(path, int64(len(raw)))
		return Verdict{}, false, true
	}
	var v Verdict
	if err := json.Unmarshal(ent.Verdict, &v); err != nil {
		d.removeSized(path, int64(len(raw)))
		return Verdict{}, false, true
	}
	// Bump the entry's recency so size-bound eviction removes cold entries
	// first. Best-effort: a read-only volume just degrades to FIFO.
	now := d.now()
	_ = os.Chtimes(path, now, now)
	return v, true, false
}

// put writes key best-effort: a full disk or read-only directory degrades
// the cache to memory-only rather than failing the verification. It returns
// how many entries the size bound evicted to make room.
func (d *diskStore) put(key string, v Verdict) int {
	if !d.ok {
		return 0
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	sum := sha256.Sum256(payload)
	raw, err := json.Marshal(diskEntry{Checksum: hex.EncodeToString(sum[:]), Verdict: payload})
	if err != nil {
		return 0
	}
	tmp, err := os.CreateTemp(d.dir, ".cache-*")
	if err != nil {
		return 0
	}
	name := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(name)
		return 0
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return 0
	}
	target := d.fileName(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	var replaced int64
	if info, err := os.Stat(target); err == nil {
		replaced = info.Size()
	}
	if err := os.Rename(name, target); err != nil {
		os.Remove(name)
		return 0
	}
	// Stamp the entry with the clock get stamps reads with. Best-effort,
	// as in get.
	now := d.now()
	_ = os.Chtimes(target, now, now)
	d.size += int64(len(raw)) - replaced
	return d.evictLocked()
}

// removeSized deletes an entry file and keeps the size accounting in step.
func (d *diskStore) removeSized(path string, size int64) {
	d.mu.Lock()
	if os.Remove(path) == nil {
		d.size -= size
	}
	d.mu.Unlock()
}

// rescanLocked recomputes size from the directory's ground truth.
func (d *diskStore) rescanLocked() {
	d.size = 0
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		if info, err := e.Info(); err == nil {
			d.size += info.Size()
		}
	}
}

// evictLocked removes least-recently-used entries (oldest mtime first) until
// the store fits under maxBytes, returning how many it removed. The listing
// also resynchronizes the size counter, so accounting drift (entries removed
// behind the store's back, failed stats) self-heals on every eviction.
func (d *diskStore) evictLocked() int {
	if d.maxBytes <= 0 || d.size <= d.maxBytes {
		return 0
	}
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	type entry struct {
		name string
		size int64
		mod  time.Time
	}
	var files []entry
	var total int64
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, entry{e.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	d.size = total
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].name < files[j].name // deterministic tie-break
	})
	n := 0
	for _, f := range files {
		if d.size <= d.maxBytes {
			break
		}
		if os.Remove(filepath.Join(d.dir, f.name)) == nil {
			d.size -= f.size
			n++
		}
	}
	return n
}
