// Package store implements the durable compile tier: a content-addressed
// on-disk blob store holding GDSP-encoded compiled problems
// (core.Problem.MarshalBinary), keyed by the formula's SHA-256 content
// hash — the same key the compiler's memory LRU and the /v1/sample?key=
// path already use.
//
// The store is deliberately dumber than the spool it is modeled on: it
// keeps NO authoritative in-memory index, because several processes share
// one directory (every satserved replica behind a satsharded front mounts
// the same -store dir). The directory IS the index. Get reads the file
// and verifies its embedded SHA-256 trailer; Put writes a temp file and
// renames it into place (atomic on POSIX, so readers only ever observe
// whole blobs); eviction and Stats re-scan the directory. Recency is file
// modification time: Get touches the file it serves, so eviction by
// oldest mtime is LRU across every process sharing the directory.
//
// A blob that fails its trailer — a torn write surviving a crash, bit
// rot, manual tampering — is quarantined exactly like a torn spool entry:
// renamed aside with a .corrupt suffix for forensics, counted, and
// reported to the caller as a clean miss. The caller recompiles and
// re-Puts; the store heals itself.
package store

import (
	"crypto/sha256"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
)

// blobExt names complete entries; only files with this suffix and a
// valid-key stem are ever read, evicted, or counted.
const blobExt = ".gdsp"

// tmpReapAge is how stale an orphaned temp file must be before Open
// deletes it — generous enough that no live writer (writes take
// milliseconds) can lose an in-flight rename to a peer's boot scan.
const tmpReapAge = time.Hour

// Store is a content-addressed blob store over one directory. All methods
// are safe for concurrent use from multiple goroutines AND multiple
// processes sharing the directory.
type Store struct {
	dir    string
	budget int64 // bytes; <= 0 means unbounded

	mu          sync.Mutex
	evictions   int64
	quarantined int64
	log         *slog.Logger
}

// Stats is the store's observability surface, exported on /metrics.
// Entries and Bytes are measured from the directory at call time (the
// directory is shared, so cached gauges would lie); Evictions and
// Quarantined count this process's own actions.
type Stats struct {
	Entries     int
	Bytes       int64
	Evictions   int64
	Quarantined int64
}

// Open creates (if needed) and opens a store over dir with a byte budget
// (<= 0 disables eviction). Stale temp files from crashed writers are
// reaped; complete blobs are left alone — they verify lazily on Get, so
// opening a large shared store costs one directory listing, not a re-hash
// of every artifact.
func Open(dir string, budget int64, log *slog.Logger) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if log == nil {
		log = slog.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	s := &Store{dir: dir, budget: budget, log: log}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		info, err := e.Info()
		if err != nil || time.Since(info.ModTime()) < tmpReapAge {
			continue
		}
		os.Remove(filepath.Join(dir, e.Name()))
	}
	return s, nil
}

// Dir returns the directory backing the store.
func (s *Store) Dir() string { return s.dir }

// Get returns the blob stored under key, or ok=false on a miss. A file
// whose bytes no longer match their embedded SHA-256 trailer is
// quarantined and reported as a miss. A successful Get refreshes the
// entry's modification time, which is its LRU recency for every process
// sharing the directory.
func (s *Store) Get(key string) ([]byte, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if !codec.SHA256.Verifies(data) {
		s.Quarantine(key, "integrity trailer mismatch")
		return nil, false
	}
	now := time.Now()
	os.Chtimes(path, now, now)
	return data, true
}

// Put stores blob under key. The blob must end in a valid SHA-256 trailer
// over its preceding bytes (every GDSP encoding does) — the store refuses
// to file bytes it could not later vouch for. The write is atomic
// (temp file + rename), then least-recently-used entries are evicted
// until the directory fits the budget again.
func (s *Store) Put(key string, blob []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if !codec.SHA256.Verifies(blob) {
		return fmt.Errorf("store: blob for %s fails its own integrity trailer", key[:12])
	}
	if s.budget > 0 && int64(len(blob)) > s.budget {
		return fmt.Errorf("store: blob (%d bytes) exceeds store budget (%d)", len(blob), s.budget)
	}
	tmp, err := os.CreateTemp(s.dir, key[:12]+"-*.tmp")
	if err != nil {
		return fmt.Errorf("store write: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store write: %w", err)
	}
	os.Chmod(tmp.Name(), 0o644)
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store write: %w", err)
	}
	s.evict()
	return nil
}

// Quarantine renames the entry under key aside with a .corrupt suffix
// (never silently deletes — torn artifacts are forensic evidence) and
// counts it. Used internally when a trailer fails, and by callers whose
// deeper validation (GDSP decode) rejects a blob the trailer accepted —
// e.g. an artifact written by a different codec version.
func (s *Store) Quarantine(key, why string) {
	if !ValidKey(key) {
		return
	}
	path := s.path(key)
	if err := os.Rename(path, path+".corrupt"); err != nil {
		// A peer process racing the same quarantine wins benignly.
		return
	}
	s.mu.Lock()
	s.quarantined++
	s.mu.Unlock()
	s.log.Warn("store entry quarantined", "key", key[:12], "why", why)
}

// Stats scans the directory for the authoritative entry count and byte
// total, and reports this process's eviction and quarantine tallies.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{Evictions: s.evictions, Quarantined: s.quarantined}
	s.mu.Unlock()
	for _, e := range s.scan() {
		st.Entries++
		st.Bytes += e.size
	}
	return st
}

// entry is one complete blob found by a directory scan.
type entry struct {
	key   string
	size  int64
	mtime int64
}

// scan lists complete blobs, oldest modification first.
func (s *Store) scan() []entry {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []entry
	for _, de := range dirents {
		key, ok := strings.CutSuffix(de.Name(), blobExt)
		if !ok || !ValidKey(key) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, entry{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	// Filesystem mtimes are coarse (a second on some filesystems), so a
	// burst of writes produces ties; break them on the key so the eviction
	// order is deterministic across replicas scanning the same directory,
	// and keep the sort stable so equal entries never reorder between
	// scans.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].mtime != out[j].mtime {
			return out[i].mtime < out[j].mtime
		}
		return out[i].key < out[j].key
	})
	return out
}

// evict removes least-recently-used blobs until the directory fits the
// budget. Races with peer processes are benign: a failed remove (the peer
// evicted first) is simply not counted.
func (s *Store) evict() {
	if s.budget <= 0 {
		return
	}
	entries := s.scan()
	var total int64
	for _, e := range entries {
		total += e.size
	}
	for _, e := range entries {
		if total <= s.budget {
			break
		}
		if err := os.Remove(s.path(e.key)); err != nil {
			continue
		}
		total -= e.size
		s.mu.Lock()
		s.evictions++
		s.mu.Unlock()
		s.log.Info("store evicted", "key", e.key[:12], "bytes", e.size)
	}
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+blobExt)
}

// ValidKey reports whether key is a lowercase SHA-256 hex string — the
// gate that keeps store lookups from touching any path component the
// content-hash scheme didn't construct.
func ValidKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
