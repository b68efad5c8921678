package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
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

	stuck := errors.New("operation not permitted")
	b.removeFile = func(path string) error {
		if strings.HasSuffix(path, "m2"+snapshotExt) {
			return stuck
		}
		return os.Remove(path)
	}
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
	b.removeFile = nil
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

// TestSyncDirReportsOpenFailure: a directory that cannot be opened must
// fail the sync, not report a durable rename or unlink that never got its
// directory fsync.
func TestSyncDirReportsOpenFailure(t *testing.T) {
	err := syncDir(filepath.Join(t.TempDir(), "missing"))
	if err == nil || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("syncDir on a missing directory: %v, want a wrapped not-exist error", err)
	}
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on a real directory: %v", err)
	}
}
