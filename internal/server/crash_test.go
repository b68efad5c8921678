package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/fstest"

	"poiesis/internal/core"
)

// memFS is an in-memory storeFS of one directory that remembers what a crash
// would keep. Every mutating call (create, write, sync, rename, remove,
// directory sync) is one step, and after each step it takes the three crash
// images of that instant:
//   - synced: only fsync'd data under fsync'd directory entries survive;
//   - reordered: the same, plus the last directory change since the last
//     directory fsync, as on a file system that commits metadata out of
//     order;
//   - torn: every directory entry survives, as on a file system that
//     commits metadata early, and each file's unsynced bytes are cut to half
//     their length, a torn write.
type memFS struct {
	mu      sync.Mutex
	entries map[string]*memInode // the directory now, by file name
	durable map[string]*memInode // the directory as of the last SyncDir
	// last is the last change to entries since the last SyncDir: the
	// entries it set, nil for a removed one.
	last   map[string]*memInode
	images []crashImage
}

// memInode is one file: its bytes, and how many of them were fsync'd.
type memInode struct {
	data   []byte
	synced int
}

// crashImage is what survives a crash after step, in each crash mode.
type crashImage struct {
	step  int
	files map[string]map[string][]byte // by mode, by file name
}

// newMemFS returns a file system holding files, all durable.
func newMemFS(files map[string][]byte) *memFS {
	m := &memFS{entries: map[string]*memInode{}}
	for name, data := range files {
		m.entries[name] = &memInode{data: bytes.Clone(data), synced: len(data)}
	}
	m.durable = maps.Clone(m.entries)
	m.step()
	return m
}

// step takes the crash images of the current instant. Callers hold m.mu.
func (m *memFS) step() {
	synced := func(entries map[string]*memInode) map[string][]byte {
		out := map[string][]byte{}
		for name, ino := range entries {
			if ino != nil {
				out[name] = bytes.Clone(ino.data[:ino.synced])
			}
		}
		return out
	}
	reordered := maps.Clone(m.durable)
	maps.Copy(reordered, m.last)
	torn := map[string][]byte{}
	for name, ino := range m.entries {
		torn[name] = bytes.Clone(ino.data[:ino.synced+(len(ino.data)-ino.synced)/2])
	}
	m.images = append(m.images, crashImage{step: len(m.images), files: map[string]map[string][]byte{
		"synced": synced(m.durable), "reordered": synced(reordered), "torn": torn,
	}})
}

// change applies one change to the directory's entries: nil removes one.
// Callers hold m.mu.
func (m *memFS) change(set map[string]*memInode) {
	for name, ino := range set {
		if ino == nil {
			delete(m.entries, name)
		} else {
			m.entries[name] = ino
		}
	}
	m.last = set
	m.step()
}

func (m *memFS) Create(path string) (storeFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := &memInode{}
	m.change(map[string]*memInode{filepath.Base(path): ino})
	return &memFile{fs: m, ino: ino}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.entries[filepath.Base(oldpath)]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	m.change(map[string]*memInode{filepath.Base(oldpath): nil, filepath.Base(newpath): ino})
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[filepath.Base(path)]; !ok {
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	m.change(map[string]*memInode{filepath.Base(path): nil})
	return nil
}

func (m *memFS) SyncDir(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.durable, m.last = maps.Clone(m.entries), nil
	m.step()
	return nil
}

func (m *memFS) ReadDir(string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir := fstest.MapFS{}
	for name, ino := range m.entries {
		dir[name] = &fstest.MapFile{Data: ino.data}
	}
	return fs.ReadDir(dir, ".")
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.entries[filepath.Base(path)]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	return bytes.Clone(ino.data), nil
}

// files returns the directory's current files.
func (m *memFS) files() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string][]byte{}
	for name, ino := range m.entries {
		out[name] = ino.data
	}
	return out
}

// memFile is a memFS file open for writing.
type memFile struct {
	fs  *memFS
	ino *memInode
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.data = append(f.ino.data, p...)
	f.fs.step()
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.synced = len(f.ino.data)
	f.fs.step()
	return nil
}

func (f *memFile) Close() error { return nil }

// crashOp is one backend call of the crash script, and the steps it spanned.
type crashOp struct {
	id          string
	rec         *SessionRecord // the record put; nil for a delete
	first, last int            // the file system's steps before and after the call
}

// TestCrashAtEveryStep runs a script of puts and deletes on an in-memory file
// system, then crashes it after every step in each of memFS's crash modes,
// and starts a server on what survives. Each session
// comes back as exactly the record of its last call that returned, or of the
// call in flight at the crash; a session whose delete returned never comes
// back. No record names a missing result file, and after the start no
// result file that no record names, and no temp file, is left.
func TestCrashAtEveryStep(t *testing.T) {
	doc := recordConfig(t, 1)
	r1 := plannedSnapshot(t, doc, "tpcds-purchases", 1)
	r2 := plannedSnapshot(t, doc, "tpcds-sales", 1)
	none := &core.SessionSnapshot{Version: r1.Version, Flow: r1.Flow, Binding: r1.Binding}

	dir := t.TempDir()
	mem := newMemFS(nil)
	b, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	b.Logf, b.fs = t.Logf, mem
	if _, err := b.List(); err != nil {
		t.Fatal(err)
	}
	var ops []crashOp
	put := func(id string, snap *core.SessionSnapshot) {
		t.Helper()
		rec := recordOf(id, doc, snap)
		rec.Plans = len(ops) // each put's record differs from the one before
		op := crashOp{id: id, rec: rec, first: len(mem.images) - 1}
		if err := b.Put(rec); err != nil {
			t.Fatal(err)
		}
		op.last = len(mem.images) - 1
		ops = append(ops, op)
	}
	del := func(id string) {
		t.Helper()
		op := crashOp{id: id, first: len(mem.images) - 1}
		if err := b.Delete(id); err != nil {
			t.Fatal(err)
		}
		op.last = len(mem.images) - 1
		ops = append(ops, op)
	}
	put("s1", r1)   // the first use of r1
	put("s2", r1)   // a reuse of r1
	put("s1", r2)   // a re-plan to a new result, r1 still named by s2
	put("s3", none) // no last result
	del("s2")       // r1 named by no record: collected
	put("s3", r1)   // r1 stored again after its collection
	put("s1", r1)   // a re-plan to a stored result: r2 collected
	del("s3")
	del("s1") // r1 collected
	if files := mem.files(); len(files) != 0 {
		t.Fatalf("files left after the script: %v", slices.Sorted(maps.Keys(files)))
	}

	ids := []string{"s1", "s2", "s3"}
	for _, img := range mem.images {
		for mode, files := range img.files {
			t.Run(fmt.Sprintf("step%03d/%s", img.step, mode), func(t *testing.T) {
				after := newMemFS(files)
				b, err := NewDiskBackend(dir)
				if err != nil {
					t.Fatal(err)
				}
				b.Logf, b.fs = t.Logf, after
				s := New(Config{Backend: b, Logf: t.Logf, Now: restoreClock})
				defer s.Close()
				for _, id := range ids {
					checkCrashedSession(t, s, id, wantAfterCrash(ops, id, img.step))
				}
				checkNoOrphans(t, after.files())
			})
		}
	}
}

// wantAfterCrash returns the states session id may come back in after a
// crash at step: that of its last call that returned, and that of a call in
// flight. A nil record stands for no session.
func wantAfterCrash(ops []crashOp, id string, step int) []*SessionRecord {
	done := []*SessionRecord{nil}
	var inFlight []*SessionRecord
	for _, op := range ops {
		switch {
		case op.id != id || op.first >= step:
		case op.last <= step:
			done = []*SessionRecord{op.rec}
		default:
			inFlight = append(inFlight, op.rec)
		}
	}
	return append(done, inFlight...)
}

// checkCrashedSession fails unless session id on s is one of want.
func checkCrashedSession(t *testing.T, s *Server, id string, want []*SessionRecord) {
	t.Helper()
	var got []byte
	if st, ok := s.store.get(id); ok {
		rec, err := st.record()
		if err != nil {
			t.Fatal(err)
		}
		if got, err = json.Marshal(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range want {
		if w == nil {
			if got == nil {
				return
			}
			continue
		}
		blob, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, blob) {
			return
		}
	}
	t.Errorf("session %s came back as %.120s, not as one of its %d allowed states", id, got, len(want))
}

// checkNoOrphans fails if a record names a missing result file, or a result
// file or temp file is left that no record names.
func checkNoOrphans(t *testing.T, files map[string][]byte) {
	t.Helper()
	named := map[string]bool{}
	for name, blob := range files {
		if !strings.HasSuffix(name, snapshotExt) || strings.HasPrefix(name, tempPrefix) {
			continue
		}
		_, digest, err := decodeRecord(blob)
		if err != nil {
			t.Errorf("record %s: %v", name, err)
			continue
		}
		if digest == "" {
			continue
		}
		named[digest+resultExt] = true
		if _, ok := files[digest+resultExt]; !ok {
			t.Errorf("record %s names a missing result file", name)
		}
	}
	for name := range files {
		if strings.HasPrefix(name, tempPrefix) || strings.HasSuffix(name, resultExt) && !named[name] {
			t.Errorf("%s left after the start", name)
		}
	}
}
