package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"poiesis/internal/core"
)

// DiskBackend is the crash-safe SessionBackend: each session is one
// versioned JSON snapshot file `<dir>/<id>.json`. Writes go to a temp file
// in the same directory, are fsync'd, and replace the live file with an
// atomic rename (followed by a directory fsync), so a crash at any point
// leaves either the previous snapshot or the new one — never a torn record.
// Partial temp files from interrupted writes are cleaned up on List (i.e. at
// startup restore).
//
// One DiskBackend instance is safe for concurrent use; one *directory*
// assumes a single writing process (see SessionBackend's single-writer
// contract). Per-file operations (Put, Delete) only share-lock, so
// independent sessions fsync in parallel — the store already serializes
// writes to any one session via its opMu, and each session is its own file.
// The directory scan (List) takes the lock exclusively because it removes
// orphaned temp files, which must not race an in-flight Put.
type DiskBackend struct {
	dir string
	// Logf reports skipped records and cleanup actions during List; nil uses
	// log.Printf. Set it before the backend is shared across goroutines;
	// server.New derives a logging view via WithLogf instead of writing here.
	Logf func(format string, args ...any)

	// removeFile unlinks one path; tests inject failures here. Nil uses
	// os.Remove.
	removeFile func(path string) error

	// mu is behind a pointer so WithLogf views of one backend share the
	// same lock (and struct copies stay legal).
	mu *sync.RWMutex
}

// NewDiskBackend opens (creating if needed) a snapshot directory.
func NewDiskBackend(dir string) (*DiskBackend, error) {
	if dir == "" {
		return nil, errors.New("server: disk backend needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating session store dir: %w", err)
	}
	return &DiskBackend{dir: dir, mu: new(sync.RWMutex)}, nil
}

// WithLogf returns a view of the same backend — shared directory, lock and
// state — whose warnings go to logf. The receiver is not modified, so a
// backend shared between two servers never races on Logf.
func (b *DiskBackend) WithLogf(logf func(format string, args ...any)) *DiskBackend {
	nb := *b
	nb.Logf = logf
	return &nb
}

func (b *DiskBackend) Name() string { return "disk" }

// Dir returns the snapshot directory.
func (b *DiskBackend) Dir() string { return b.dir }

func (b *DiskBackend) logf(format string, args ...any) {
	if b.Logf != nil {
		b.Logf(format, args...)
		return
	}
	// No configured sink: render through the shared structured fallback so
	// backend warnings match the server's "msg key=val" line shape.
	defaultLogf(format, args...)
}

const (
	snapshotExt = ".json"
	tempPrefix  = ".tmp-"
)

// validRecordID gates IDs before they become file names: session IDs are
// 32-char hex, but the backend is a public seam, so reject anything that
// could escape the directory or collide with temp files.
func validRecordID(id string) error {
	if id == "" {
		return errors.New("server: empty session record ID")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return fmt.Errorf("server: session record ID %q contains unsafe character %q", id, c)
		}
	}
	return nil
}

func (b *DiskBackend) path(id string) string {
	return filepath.Join(b.dir, id+snapshotExt)
}

func (b *DiskBackend) Put(rec *SessionRecord) error {
	if err := validRecordID(rec.ID); err != nil {
		return err
	}
	blob, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	// The read side of b.mu is a gate, not a critical section: concurrent
	// Puts write distinct files in parallel, while the exclusive side
	// (List) needs the directory quiescent. Holding it across the file
	// I/O is the design, so the lock-I/O findings here are waived.
	b.mu.RLock()
	defer b.mu.RUnlock()
	tmp := filepath.Join(b.dir, tempPrefix+rec.ID+snapshotExt)
	if err := writeFileSync(tmp, blob); err != nil {
		//lint:ignore nolockio shared-mode directory gate, see comment on RLock above
		_ = os.Remove(tmp)
		return fmt.Errorf("server: writing session snapshot %s: %w", rec.ID, err)
	}
	//lint:ignore nolockio shared-mode directory gate, see comment on RLock above
	if err := os.Rename(tmp, b.path(rec.ID)); err != nil {
		//lint:ignore nolockio shared-mode directory gate, see comment on RLock above
		_ = os.Remove(tmp)
		return fmt.Errorf("server: committing session snapshot %s: %w", rec.ID, err)
	}
	return syncDir(b.dir)
}

// writeFileSync writes data and fsyncs the file before closing, so the
// following rename publishes fully durable bytes.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename within it survives a crash. A
// directory that cannot be opened is an error: the caller's rename or unlink
// is not durable. Filesystems that cannot sync directories (some network
// mounts) degrade to best-effort.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("server: opening session store dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, fs.ErrInvalid) {
		return fmt.Errorf("server: syncing session store dir: %w", err)
	}
	return nil
}

func (b *DiskBackend) Get(id string) (*SessionRecord, error) {
	blob, err := b.read(id)
	if err != nil {
		return nil, err
	}
	rec, err := decodeRecord(blob)
	if err != nil {
		return nil, err
	}
	return rec, recordAt(id, rec)
}

// read returns the stored bytes of id's record.
func (b *DiskBackend) read(id string) ([]byte, error) {
	if err := validRecordID(id); err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(b.path(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrRecordNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("server: reading session snapshot %s: %w", id, err)
	}
	return blob, nil
}

// recordAt rejects a record stored under another ID's file name.
func recordAt(id string, rec *SessionRecord) error {
	if rec.ID != id {
		return fmt.Errorf("server: session snapshot %s records ID %s", id, rec.ID)
	}
	return nil
}

func (b *DiskBackend) Delete(id string) error {
	if err := validRecordID(id); err != nil {
		return err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.remove(b.path(id)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("server: deleting session snapshot %s: %w", id, err)
	}
	// The unlink must be as durable as Put's rename: without the directory
	// fsync a crash could resurrect a session the client was told is gone.
	return syncDir(b.dir)
}

// List loads every decodable snapshot in the directory. Corrupted or partial
// snapshots — truncated JSON, future format versions, ID/filename mismatches
// — are skipped with a logged warning instead of failing the listing, so one
// bad file cannot prevent a restart from restoring the healthy sessions.
// Orphaned temp files from interrupted writes are removed. Records whose
// last results are stored as equal bytes share one decoded result.
func (b *DiskBackend) List() ([]*SessionRecord, error) {
	// The exclusive side of b.mu keeps the directory quiescent while the scan
	// removes orphaned temp files, so no in-flight Put loses its temp file:
	// holding it across the scan's I/O is the design, as in Put.
	b.mu.Lock()
	defer b.mu.Unlock()
	//lint:ignore nolockio exclusive directory scan, see comment on Lock above
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("server: listing session store: %w", err)
	}
	lasts := map[string]*core.ResultSnapshot{}
	var out []*SessionRecord
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tempPrefix) {
			b.logf("server: session store: removing partial snapshot %s", name)
			//lint:ignore nolockio exclusive directory scan, see comment on Lock above
			_ = os.Remove(filepath.Join(b.dir, name))
			continue
		}
		if !strings.HasSuffix(name, snapshotExt) {
			continue
		}
		id := strings.TrimSuffix(name, snapshotExt)
		blob, err := b.read(id)
		var rec *SessionRecord
		if err == nil {
			rec, err = decodeListedRecord(blob, lasts)
		}
		if err == nil {
			err = recordAt(id, rec)
		}
		if err != nil {
			b.logf("server: session store: skipping snapshot %s: %v", name, err)
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func (b *DiskBackend) remove(path string) error {
	if b.removeFile != nil {
		return b.removeFile(path)
	}
	return os.Remove(path)
}
