package server

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDiskSweepBestEffort plants an entry the filesystem refuses to unlink
// between two removable expired records: the sweep must delete everything it
// can, aggregate (not abort on) the failure, and leave the live record
// alone. The old behavior returned on the first failed os.Remove, leaving
// every later expired record on disk until the next restart.
func TestDiskSweepBestEffort(t *testing.T) {
	b, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var logMu sync.Mutex
	var logs []string
	b.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, format)
		logMu.Unlock()
	}

	base := time.Unix(5000, 0).UTC()
	// IDs sort a1 < m2 < z3, so the unremovable middle one exercises the
	// continue-past-failure path for z3.
	for _, id := range []string{"a1", "m2", "z3"} {
		if err := b.Put(testRecord(id, base)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Put(testRecord("live", base.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}

	stuck := errors.New("operation not permitted")
	b.removeFile = func(path string) error {
		if strings.HasSuffix(path, "m2"+snapshotExt) {
			return stuck
		}
		return os.Remove(path)
	}

	removed, err := b.Sweep(base.Add(time.Minute))
	if err == nil || !errors.Is(err, stuck) {
		t.Fatalf("sweep error %v, want the aggregated unlink failure", err)
	}
	if len(removed) != 2 || removed[0] != "a1" || removed[1] != "z3" {
		t.Fatalf("removed %v, want [a1 z3] despite the stuck middle entry", removed)
	}
	logMu.Lock()
	logged := strings.Join(logs, "\n")
	logMu.Unlock()
	if !strings.Contains(logged, "sweep skipping") {
		t.Errorf("stuck entry not logged: %q", logged)
	}

	// Once the filesystem recovers, the next sweep reclaims the leftover.
	b.removeFile = nil
	removed, err = b.Sweep(base.Add(time.Minute))
	if err != nil {
		t.Fatalf("recovered sweep: %v", err)
	}
	if len(removed) != 1 || removed[0] != "m2" {
		t.Fatalf("recovered sweep removed %v, want [m2]", removed)
	}
	// The live record survived both sweeps — with real unlinks this time.
	recs, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "live" {
		t.Fatalf("directory after sweeps: %v", recordIDs(recs))
	}
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
