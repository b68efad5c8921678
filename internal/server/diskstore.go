package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"poiesis/internal/core"
)

// DiskBackend is the crash-safe SessionBackend. Each session is one
// versioned JSON record `<dir>/<id>.json`. Each distinct last result is one
// file `<dir>/<digest>.result` holding the result snapshot's JSON encoding,
// named by the hex SHA-256 of those bytes; a record names its session's last
// result by that digest, so the records of sessions that share a result share
// one file.
//
// Every file is written to a temp file in the same directory, fsync'd, and
// renamed over the live name, followed by a directory fsync, so a crash at
// any point leaves either the previous file or the new one, never a torn
// one. A result file is durable before any record naming it is written, and
// it is unlinked only after the last record naming it is durably replaced or
// deleted, so no durable record names a missing result. A crash between the
// two leaves a result file no record names; List deletes those, and partial
// temp files, at the next start.
//
// The backend counts the records that name each result file: List counts
// the stored records, and Put and Delete keep the counts, so a put whose
// result is already stored writes only its record. Until the first List the
// counts cover only this instance's own puts, so no result file is unlinked
// before it. The counts follow each ID's record because the calls for one ID
// never overlap (see SessionBackend).
//
// One DiskBackend instance is safe for concurrent use; one *directory*
// assumes a single writing process (see SessionBackend's single-writer
// contract). Per-file operations (Put, Delete) only share-lock, so
// independent sessions fsync in parallel — the store already serializes
// writes to any one session via its opMu. The directory scan (List) takes
// the lock exclusively because it removes orphaned temp and result files,
// which must not race an in-flight Put.
type DiskBackend struct {
	dir string
	// Logf reports skipped records and cleanup actions during List; nil uses
	// log.Printf. Set it before the backend is shared across goroutines;
	// server.New derives a logging view via WithLogf instead of writing here.
	Logf func(format string, args ...any)

	// fs performs every file operation: osFS, or a test's file system.
	fs storeFS

	// mu and refs are behind pointers so WithLogf views of one backend share
	// the same lock and counts (and struct copies stay legal).
	mu   *sync.RWMutex
	refs *resultRefs
}

// storeFS is the file system as the disk backend uses it. Every method
// blocks on the disk.
//
//lint:io
type storeFS interface {
	// Create opens path for writing, truncating or creating it.
	Create(path string) (storeFile, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// SyncDir makes the directory's entries (renames, unlinks) durable.
	SyncDir(dir string) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	ReadFile(path string) ([]byte, error)
}

// storeFile is a file being written; its bytes are durable once Sync
// returns.
//
//lint:io
type storeFile interface {
	io.Writer
	Sync() error
	Close() error
}

// osFS is the storeFS of the operating system.
type osFS struct{}

func (osFS) Create(path string) (storeFile, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                  { return os.Remove(path) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) ReadFile(path string) ([]byte, error)      { return os.ReadFile(path) }

// SyncDir fsyncs a directory so a rename or unlink within it survives a
// crash. A directory that cannot be opened is an error: the caller's rename
// or unlink is not durable. Filesystems that cannot sync directories (some
// network mounts) degrade to best-effort.
func (osFS) SyncDir(dir string) error {
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

// resultRefs counts, per result file, the records that name it.
type resultRefs struct {
	mu sync.Mutex
	// files holds the results named by a stored record or by a record being
	// put, by digest.
	files map[string]*resultFile
	// ids maps each stored record's ID to the digest of the result it names.
	ids map[string]string
	// listed is set by the first List, from which files counts every stored
	// record, so a result whose count falls to zero can be unlinked.
	listed bool
}

// resultFile is one result's count and file state.
type resultFile struct {
	refs int // records stored or being put that name the result; guarded by resultRefs.mu
	// mu is held while the file is written or unlinked, so a put that needs
	// the file waits for an unlink in flight and then writes it again.
	mu      sync.Mutex
	durable bool // the file is stored and fsync'd; guarded by mu
}

// NewDiskBackend opens (creating if needed) a snapshot directory.
func NewDiskBackend(dir string) (*DiskBackend, error) {
	if dir == "" {
		return nil, errors.New("server: disk backend needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating session store dir: %w", err)
	}
	return &DiskBackend{dir: dir, fs: osFS{}, mu: new(sync.RWMutex), refs: &resultRefs{
		files: map[string]*resultFile{}, ids: map[string]string{},
	}}, nil
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
	resultExt   = ".result"
	tempPrefix  = ".tmp-"
)

// validRecordID gates IDs before they become file names: session IDs are
// 32-char hex, but the backend is a public seam, so reject anything that
// could escape the directory or collide with temp files. It gates the result
// digests that records name too.
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

func (b *DiskBackend) resultPath(digest string) string {
	return filepath.Join(b.dir, digest+resultExt)
}

// Put stores the session's last result file, unless the backend knows it is
// stored, and then the record naming it.
func (b *DiskBackend) Put(rec *SessionRecord) error {
	if err := validRecordID(rec.ID); err != nil {
		return err
	}
	// A snapshot without a memoized encoding and digest (one read back from
	// a backend, say) is marshalled and hashed here.
	var last *core.ResultSnapshot
	var digest string
	var result []byte
	if rec.Session != nil && rec.Session.Last != nil {
		last = rec.Session.Last
		if digest = last.Digest(); digest == "" {
			var err error
			if result, err = last.AppendJSON(nil); err != nil {
				return err
			}
			digest = core.ResultDigest(result)
		}
	}
	blob, err := encodeRecord(rec, digest)
	if err != nil {
		return err
	}
	// The read side of b.mu is a gate, not a critical section: concurrent
	// Puts write distinct files in parallel, while the exclusive side
	// (List) needs the directory quiescent. Holding it across the file
	// I/O is the design.
	b.mu.RLock()
	defer b.mu.RUnlock()
	if last != nil {
		if err := b.storeResult(b.refs.pin(digest), digest, last, result); err != nil {
			b.release(digest)
			return fmt.Errorf("server: writing session result %s: %w", digest, err)
		}
	}
	name := rec.ID + snapshotExt
	tmp, err := b.writeTemp(name, blob)
	if err != nil {
		b.release(digest)
		return fmt.Errorf("server: writing session snapshot %s: %w", rec.ID, err)
	}
	//lint:ignore nolockio shared-mode directory gate, see comment on RLock above
	if err := b.fs.Rename(tmp, filepath.Join(b.dir, name)); err != nil {
		//lint:ignore nolockio shared-mode directory gate, see comment on RLock above
		_ = b.fs.Remove(tmp)
		b.release(digest)
		return fmt.Errorf("server: committing session snapshot %s: %w", rec.ID, err)
	}
	old := b.refs.swap(rec.ID, digest)
	//lint:ignore nolockio shared-mode directory gate, see comment on RLock above
	if err := b.fs.SyncDir(b.dir); err != nil {
		// The old record may come back after a crash: keep its result.
		return err
	}
	b.release(old)
	return nil
}

// storeResult makes f's result file durable unless it already is. result is
// the file's bytes, or nil to take them from last's memoized encoding.
func (b *DiskBackend) storeResult(f *resultFile, digest string, last *core.ResultSnapshot, result []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.durable {
		return nil
	}
	if result == nil {
		var err error
		if result, err = last.AppendJSON(nil); err != nil {
			return err
		}
	}
	name := digest + resultExt
	tmp, err := b.writeTemp(name, result)
	if err != nil {
		return err
	}
	//lint:ignore nolockio f.mu orders this write against an unlink of the same result, see resultFile
	if err := b.fs.Rename(tmp, filepath.Join(b.dir, name)); err != nil {
		//lint:ignore nolockio f.mu orders this write against an unlink of the same result, see resultFile
		_ = b.fs.Remove(tmp)
		return err
	}
	//lint:ignore nolockio f.mu orders this write against an unlink of the same result, see resultFile
	if err := b.fs.SyncDir(b.dir); err != nil {
		return err
	}
	f.durable = true
	return nil
}

// writeTemp writes data to a temp file for the file name and fsyncs it, so
// that renaming it publishes fully durable bytes, and returns its path.
func (b *DiskBackend) writeTemp(name string, data []byte) (string, error) {
	tmp := filepath.Join(b.dir, tempPrefix+name)
	f, err := b.fs.Create(tmp)
	if err != nil {
		return "", err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = b.fs.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// pin counts one more record naming digest and returns its file.
func (r *resultRefs) pin(digest string) *resultFile {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.files[digest]
	if f == nil {
		f = &resultFile{}
		r.files[digest] = f
	}
	f.refs++
	return f
}

// swap records that id's stored record names digest ("" for none, or no
// record) and returns the digest it named before.
func (r *resultRefs) swap(id, digest string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.ids[id]
	if digest == "" {
		delete(r.ids, id)
	} else {
		r.ids[id] = digest
	}
	return old
}

// release counts one record fewer naming digest. When none is left, the
// result file is unlinked — after a List, before which the counts may miss
// stored records. The unlink needs no directory fsync: a crash that undoes
// it leaves an orphan, which the next List deletes.
func (b *DiskBackend) release(digest string) {
	if digest == "" {
		return
	}
	r := b.refs
	r.mu.Lock()
	f := r.files[digest]
	f.refs--
	unused, listed := f.refs == 0, r.listed
	r.mu.Unlock()
	if !unused {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r.mu.Lock()
	repinned := f.refs > 0
	r.mu.Unlock()
	if repinned {
		// A put pinned the result again and waits for f.mu: the file stays.
		return
	}
	if listed {
		//lint:ignore nolockio f.mu orders this unlink against a rewrite of the same result, see resultFile
		if err := b.fs.Remove(b.resultPath(digest)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			b.logf("server: session store: removing unused result %s: %v", digest, err)
		}
	}
	f.durable = false
	r.mu.Lock()
	if f.refs == 0 {
		delete(r.files, digest)
	}
	r.mu.Unlock()
}

// Get reads id's record and the result file it names.
func (b *DiskBackend) Get(id string) (*SessionRecord, error) {
	rec, digest, err := b.readRecord(id)
	if err != nil {
		return nil, err
	}
	if digest != "" {
		if rec.Session.Last, err = b.readResult(digest); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// readRecord reads and decodes id's record, and returns the digest of the
// result file it names ("" for none).
func (b *DiskBackend) readRecord(id string) (*SessionRecord, string, error) {
	if err := validRecordID(id); err != nil {
		return nil, "", err
	}
	blob, err := b.fs.ReadFile(b.path(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, "", ErrRecordNotFound
	}
	if err != nil {
		return nil, "", fmt.Errorf("server: reading session snapshot %s: %w", id, err)
	}
	rec, digest, err := decodeRecord(blob)
	if err != nil {
		return nil, "", err
	}
	if rec.ID != id {
		return nil, "", fmt.Errorf("server: session snapshot %s records ID %s", id, rec.ID)
	}
	return rec, digest, nil
}

// readResult reads the result file named digest, checks that its bytes hash
// to the name and decodes it.
func (b *DiskBackend) readResult(digest string) (*core.ResultSnapshot, error) {
	blob, err := b.fs.ReadFile(b.resultPath(digest))
	if err != nil {
		return nil, fmt.Errorf("server: reading session result %s: %w", digest, err)
	}
	if core.ResultDigest(blob) != digest {
		return nil, fmt.Errorf("server: session result %s does not match its digest", digest)
	}
	rs := new(core.ResultSnapshot)
	if err := json.Unmarshal(blob, rs); err != nil {
		return nil, fmt.Errorf("server: decoding session result %s: %w", digest, err)
	}
	return rs, nil
}

func (b *DiskBackend) Delete(id string) error {
	if err := validRecordID(id); err != nil {
		return err
	}
	// The read side of b.mu gates the directory as in Put.
	b.mu.RLock()
	defer b.mu.RUnlock()
	//lint:ignore nolockio shared-mode directory gate, see comment on RLock in Put
	if err := b.fs.Remove(b.path(id)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("server: deleting session snapshot %s: %w", id, err)
	}
	old := b.refs.swap(id, "")
	// The unlink must be as durable as Put's rename: without the directory
	// fsync a crash could resurrect a session the client was told is gone,
	// and its result must still be there.
	//lint:ignore nolockio shared-mode directory gate, see comment on RLock in Put
	if err := b.fs.SyncDir(b.dir); err != nil {
		return err
	}
	b.release(old)
	return nil
}

// List loads every decodable record in the directory, each with the result
// file it names, read and decoded once for all the records naming it.
// Corrupted or partial records — truncated JSON, future format versions,
// ID/filename mismatches, a result file that is missing or does not hash to
// its name — are skipped with a logged warning instead of failing the
// listing, so one bad file cannot prevent a restart from restoring the
// healthy sessions. A skipped record stays on disk, and so does the result
// file it names, so a later start can still restore it. Orphaned temp files
// from interrupted writes are removed, and so are result files no record
// names — unless a record was skipped for any reason but its own bytes not
// decoding (a newer format, a failed read, a mismatched ID), since the
// result it names is then unknown.
func (b *DiskBackend) List() ([]*SessionRecord, error) {
	// The exclusive side of b.mu keeps the directory quiescent while the scan
	// removes orphaned files, so no in-flight Put loses its temp file or its
	// result: holding it across the scan's I/O is the design, as in Put.
	b.mu.Lock()
	defer b.mu.Unlock()
	//lint:ignore nolockio exclusive directory scan, see comment on Lock above
	entries, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("server: listing session store: %w", err)
	}
	var recs []*SessionRecord
	var digests []string
	var results []string
	keepResults := false
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasPrefix(name, tempPrefix):
			b.logf("server: session store: removing partial snapshot %s", name)
			//lint:ignore nolockio exclusive directory scan, see comment on Lock above
			_ = b.fs.Remove(filepath.Join(b.dir, name))
		case strings.HasSuffix(name, resultExt):
			results = append(results, strings.TrimSuffix(name, resultExt))
		case strings.HasSuffix(name, snapshotExt):
			rec, digest, err := b.readRecord(strings.TrimSuffix(name, snapshotExt))
			if err != nil {
				keepResults = keepResults || !errors.Is(err, errCorruptRecord)
				b.logf("server: session store: skipping snapshot %s: %v", name, err)
				continue
			}
			recs = append(recs, rec)
			digests = append(digests, digest)
		}
	}

	lasts := map[string]struct {
		snap *core.ResultSnapshot
		err  error
	}{}
	files := map[string]*resultFile{}
	ids := map[string]string{}
	out := recs[:0]
	for i, rec := range recs {
		if d := digests[i]; d != "" {
			// The record names d whether or not d reads back: count it, so
			// the file is neither collected now nor unlinked while the
			// record is stored.
			ids[rec.ID] = d
			f := files[d]
			if f == nil {
				f = &resultFile{}
				files[d] = f
			}
			f.refs++
			last, ok := lasts[d]
			if !ok {
				last.snap, last.err = b.readResult(d)
				lasts[d] = last
				// A put of d rewrites a file that did not read back.
				f.durable = last.err == nil
			}
			if last.err != nil {
				b.logf("server: session store: skipping snapshot %s: %v", rec.ID+snapshotExt, last.err)
				continue
			}
			rec.Session.Last = last.snap
		}
		out = append(out, rec)
	}
	r := b.refs
	r.mu.Lock()
	r.files, r.ids, r.listed = files, ids, true
	r.mu.Unlock()
	if !keepResults {
		for _, d := range results {
			if files[d] == nil {
				b.logf("server: session store: removing result %s that no record names", d)
				//lint:ignore nolockio exclusive directory scan, see comment on Lock above
				_ = b.fs.Remove(b.resultPath(d))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
