package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"poiesis/internal/core"
)

// TestRestoreDropsExpiredBestEffort: start-up deletes the records of sessions
// that expired while the service was down, one by one. The filesystem refuses
// to unlink the middle one of three expired records: the failure is logged
// and does not stop the deletes after it, none of the three is restored, and
// the live session is. Once the filesystem recovers, the next start reclaims
// the leftover.
func TestRestoreDropsExpiredBestEffort(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logMu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	b.Logf = logf
	now := time.Unix(9000, 0)
	open := func() *Server {
		return New(Config{Backend: b, Logf: logf, Now: func() time.Time { return now }, SessionTTL: time.Minute})
	}

	live := createSession(t, open(), "live")
	rec, err := b.Get(live)
	if err != nil {
		t.Fatal(err)
	}
	// Three restorable copies of the live record, idle past the TTL since the
	// same instant, so they are deleted in ID order: the stuck m2 comes
	// between two records that must both be deleted.
	for _, id := range []string{"a1", "m2", "z3"} {
		expired := *rec
		expired.ID, expired.LastUsed = id, now.Add(-2*time.Minute)
		if err := b.Put(&expired); err != nil {
			t.Fatal(err)
		}
	}

	b.fs = stuckRemoveFS{stuck: func(path string) bool { return strings.HasSuffix(path, "m2"+snapshotExt) }}
	s := open()
	if got := s.RestoredSessions(); got != 1 {
		t.Fatalf("restored %d sessions, want only the live one", got)
	}
	for _, id := range []string{"a1", "m2", "z3"} {
		if _, ok := s.store.get(id); ok {
			t.Errorf("expired session %s restored", id)
		}
	}
	if _, ok := s.store.get(live); !ok {
		t.Error("live session not restored")
	}
	logMu.Lock()
	logged := strings.Join(logs, "\n")
	logMu.Unlock()
	if !strings.Contains(logged, "deleting expired session record failed") || !strings.Contains(logged, "m2") {
		t.Errorf("stuck record not logged: %q", logged)
	}
	want := []string{live, "m2"}
	sort.Strings(want)
	if ids := storedIDs(t, b); !slices.Equal(ids, want) {
		t.Fatalf("records after the first start: %v, want %v", ids, want)
	}

	// Once the filesystem recovers, the next start reclaims the leftover.
	b.fs = osFS{}
	if got := open().RestoredSessions(); got != 1 {
		t.Fatalf("second start restored %d sessions, want 1", got)
	}
	if ids := storedIDs(t, b); len(ids) != 1 || ids[0] != live {
		t.Fatalf("records after the second start: %v, want [%s]", ids, live)
	}
}

// storedIDs lists the IDs of the records in b.
func storedIDs(t *testing.T, b *DiskBackend) []string {
	t.Helper()
	recs, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	return recordIDs(recs)
}

// stuckRemoveFS is the operating system's file system, except that it
// refuses to unlink the paths stuck matches.
type stuckRemoveFS struct {
	osFS
	stuck func(path string) bool
}

func (f stuckRemoveFS) Remove(path string) error {
	if f.stuck(path) {
		return errors.New("operation not permitted")
	}
	return osFS{}.Remove(path)
}

// TestSyncDirReportsOpenFailure: a directory that cannot be opened must
// fail the sync, not report a durable rename or unlink that never got its
// directory fsync.
func TestSyncDirReportsOpenFailure(t *testing.T) {
	err := osFS{}.SyncDir(filepath.Join(t.TempDir(), "missing"))
	if err == nil || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("SyncDir on a missing directory: %v, want a wrapped not-exist error", err)
	}
	if err := (osFS{}).SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir on a real directory: %v", err)
	}
}

// resultFiles lists the result files in dir.
func resultFiles(tb testing.TB, dir string) []string {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), resultExt) {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestConcurrentPutDeleteKeepsResults: sessions that share results are put
// and deleted at once, over and over (run under -race), so a result's count
// keeps falling to zero and rising again while its file is unlinked. Every
// put that returns leaves its record naming a result file that exists, and
// once every record is deleted no result file is left.
func TestConcurrentPutDeleteKeepsResults(t *testing.T) {
	doc := recordConfig(t, 1)
	snaps := []*core.SessionSnapshot{
		plannedSnapshot(t, doc, "tpcds-purchases", 1),
		plannedSnapshot(t, doc, "tpcds-sales", 1),
	}
	b := newTestDiskBackend(t)
	if _, err := b.List(); err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 6, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for i := 0; i < rounds; i++ {
				snap := snaps[(w+i)%len(snaps)]
				if err := b.Put(recordOf(id, doc, snap)); err != nil {
					t.Error(err)
					return
				}
				if _, err := os.Stat(b.resultPath(snap.Last.Digest())); err != nil {
					t.Errorf("put %s returned, its result file: %v", id, err)
					return
				}
				if i%3 != 2 {
					if err := b.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	recs, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Session.Last == nil {
			t.Errorf("record %s lost its result", rec.ID)
		}
		if err := b.Delete(rec.ID); err != nil {
			t.Fatal(err)
		}
	}
	if files := resultFiles(t, b.Dir()); len(files) != 0 {
		t.Errorf("result files %v left after every record was deleted", files)
	}
}

// TestDeletedSessionsLeaveNoResultFiles: sessions that planned one cached key
// and one of their own, some deleted by the client and the rest evicted
// after their TTL, leave no record and no result file behind.
func TestDeletedSessionsLeaveNoResultFiles(t *testing.T) {
	b := newTestDiskBackend(t)
	now := time.Unix(9000, 0)
	s := New(Config{Backend: b, Logf: t.Logf, Now: func() time.Time { return now }, SessionTTL: time.Minute})
	defer s.Close()
	var ids []string
	for i := 0; i < 4; i++ {
		id := createSession(t, s, fmt.Sprintf("s%d", i))
		for _, step := range []struct{ path, body string }{
			{"/plan", ""}, {"/select", `{"index":0}`}, {"/plan", ""},
		} {
			if rr := do(t, s, "POST", "/v1/sessions/"+id+step.path, step.body, nil); rr.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", step.path, rr.Code, rr.Body.String())
			}
		}
		ids = append(ids, id)
	}
	if files := resultFiles(t, b.Dir()); len(files) == 0 {
		t.Fatal("planned sessions stored no result file")
	}
	for _, id := range ids[:2] {
		if rr := do(t, s, "DELETE", "/v1/sessions/"+id, "", nil); rr.Code != http.StatusNoContent {
			t.Fatalf("delete: %d", rr.Code)
		}
	}
	now = now.Add(2 * time.Minute)
	if n := s.Sessions(); n != 0 {
		t.Fatalf("%d sessions outlived the TTL", n)
	}
	s.Close() // waits for the eviction worker's deletes
	if entries, err := os.ReadDir(b.Dir()); err != nil || len(entries) != 0 {
		t.Errorf("files left after every session was deleted or evicted: %d (%v)", len(entries), err)
	}
}

// TestRestoreVersion1Store: a store written in record format 1, with each
// last result inline, restores: every session serves the bytes it served
// from that store before format 2 (hashed in testdata), and a select answers
// as it did then. The session's next write-through rewrites its record in
// format 2, and after a plan the record names a result file.
func TestRestoreVersion1Store(t *testing.T) {
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join("testdata", "v1-store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join("testdata", "v1-store", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var want map[string]string
	blob, err := os.ReadFile(filepath.Join("testdata", "v1-store-responses.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	b, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	b.Logf = t.Logf
	s := New(Config{Backend: b, Logf: t.Logf, Now: func() time.Time { return time.Unix(9000, 0) }})
	defer s.Close()
	if got := s.RestoredSessions(); got != len(entries) {
		t.Fatalf("restored %d sessions, want %d", got, len(entries))
	}
	gets := 0
	for _, key := range slices.Sorted(maps.Keys(want)) {
		method, path, _ := strings.Cut(key, " ")
		if method != "GET" {
			continue
		}
		gets++
		rr := do(t, s, "GET", "/v1/sessions/"+path, "", nil)
		if sum := sha256.Sum256(rr.Body.Bytes()); hex.EncodeToString(sum[:]) != want[key] {
			t.Errorf("%s serves other bytes than from format 1: %d %s", key, rr.Code, rr.Body.String())
		}
	}
	for _, key := range slices.Sorted(maps.Keys(want)) {
		method, path, _ := strings.Cut(key, " ")
		if method != "POST" {
			continue
		}
		id := strings.TrimSuffix(path, "/select")
		rr := do(t, s, "POST", "/v1/sessions/"+path, `{"index":0}`, nil)
		if sum := sha256.Sum256(rr.Body.Bytes()); rr.Code != http.StatusOK || hex.EncodeToString(sum[:]) != want[key] {
			t.Errorf("%s answers otherwise than from format 1: %d %s", key, rr.Code, rr.Body.String())
		}
		// The select's write-through rewrote the record in format 2; a plan's
		// names its result file.
		if rr := do(t, s, "POST", "/v1/sessions/"+id+"/plan", "", nil); rr.Code != http.StatusOK {
			t.Fatalf("plan %s: %d %s", id, rr.Code, rr.Body.String())
		}
		blob, err := os.ReadFile(b.path(id))
		if err != nil {
			t.Fatal(err)
		}
		rec, digest, err := decodeRecord(blob)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Version != SessionRecordVersion || digest == "" {
			t.Errorf("session %s rewritten as version %d naming result %q", id, rec.Version, digest)
		}
	}
	if gets == 0 || len(resultFiles(t, dir)) == 0 {
		t.Fatalf("%d hashed reads, %d result files", gets, len(resultFiles(t, dir)))
	}
}

// TestSkippedRecordsKeepTheirResults: a start that skips a record for any
// reason but its own bytes not decoding collects no result file, and a
// record whose result file does not read back keeps that file, so a later
// start restores what the failure hid. A record that does not decode at all
// does not stop the collection of a result no record names.
func TestSkippedRecordsKeepTheirResults(t *testing.T) {
	doc := recordConfig(t, 1)
	snaps := []*core.SessionSnapshot{
		plannedSnapshot(t, doc, "tpcds-purchases", 1),
		plannedSnapshot(t, doc, "tpcds-sales", 1),
	}
	// seed stores record a naming the first result and b naming the second,
	// and returns b's result file.
	seed := func(t *testing.T) (*DiskBackend, string) {
		b := newTestDiskBackend(t)
		for i, id := range []string{"a", "b"} {
			if err := b.Put(recordOf(id, doc, snaps[i])); err != nil {
				t.Fatal(err)
			}
		}
		return b, b.resultPath(snaps[1].Last.Digest())
	}
	start := func(b *DiskBackend) int {
		s := New(Config{Backend: b, Logf: b.Logf, Now: restoreClock})
		defer s.Close()
		return s.RestoredSessions()
	}
	exists := func(t *testing.T, path string) bool {
		t.Helper()
		_, err := os.Stat(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		return err == nil
	}

	for _, c := range []struct {
		name string
		// hide makes b's record or result unreadable for one start; heal
		// undoes it.
		hide, heal func(t *testing.T, b *DiskBackend, result string)
	}{{
		name: "unreadable record",
		hide: func(t *testing.T, b *DiskBackend, _ string) {
			b.fs = failReadFS{fail: func(path string) bool { return path == b.path("b") }}
		},
		heal: func(t *testing.T, b *DiskBackend, _ string) { b.fs = osFS{} },
	}, {
		name: "mismatched ID",
		hide: func(t *testing.T, b *DiskBackend, _ string) {
			if err := os.Rename(b.path("b"), b.path("x")); err != nil {
				t.Fatal(err)
			}
		},
		heal: func(t *testing.T, b *DiskBackend, _ string) {
			if err := os.Rename(b.path("x"), b.path("b")); err != nil {
				t.Fatal(err)
			}
		},
	}, {
		name: "unreadable result",
		hide: func(t *testing.T, b *DiskBackend, result string) {
			b.fs = failReadFS{fail: func(path string) bool { return path == result }}
		},
		heal: func(t *testing.T, b *DiskBackend, _ string) { b.fs = osFS{} },
	}} {
		t.Run(c.name, func(t *testing.T) {
			b, result := seed(t)
			c.hide(t, b, result)
			if got := start(b); got != 1 {
				t.Fatalf("restored %d sessions with b hidden, want 1", got)
			}
			if !exists(t, result) {
				t.Fatal("the hidden record's result file was collected")
			}
			c.heal(t, b, result)
			if got := start(b); got != 2 {
				t.Fatalf("restored %d sessions once b reads again, want 2", got)
			}
		})
	}

	t.Run("corrupt record", func(t *testing.T) {
		b, result := seed(t)
		if err := os.WriteFile(b.path("z"), []byte(`{"version":2,"id":`), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(b.path("b")); err != nil {
			t.Fatal(err)
		}
		if got := start(b); got != 1 {
			t.Fatalf("restored %d sessions, want 1", got)
		}
		if exists(t, result) {
			t.Error("a result no record names survived a start that skipped only an undecodable record")
		}
	})
}

// failReadFS is the operating system's file system, except that reading the
// paths fail matches fails.
type failReadFS struct {
	osFS
	fail func(path string) bool
}

func (f failReadFS) ReadFile(path string) ([]byte, error) {
	if f.fail(path) {
		return nil, errors.New("input/output error")
	}
	return osFS{}.ReadFile(path)
}
