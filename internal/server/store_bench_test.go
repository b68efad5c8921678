package server

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"poiesis/internal/core"
	"poiesis/internal/sim"
	"poiesis/internal/tpcds"
)

// populatedStore builds a store holding n live sessions. The states share one
// core.Session (get never touches it) and enter via adopt, so setup cost is
// the map inserts, not n snapshots.
func populatedStore(n int, now func() time.Time) (*sessionStore, []string) {
	store := testStore(time.Hour, 0, now)
	g := tpcds.PurchasesFlow()
	sess := core.NewSession(core.NewPlanner(nil, core.Options{}), g, sim.AutoBinding(g, 100, 1))
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%06d", i)
		st := &sessionState{id: id, sess: sess, created: now()}
		st.touch(now())
		store.adopt(st)
		ids[i] = id
	}
	return store, ids
}

// BenchmarkSessionStoreGet measures the per-request cost of a session lookup
// as the number of live sessions grows. Before the amortized sweep, every get
// scanned the whole live map under the store mutex (locking each session's
// metadata on the way), so this benchmark scaled O(n) — ~25x from 1k to 50k
// sessions — which is exactly the tail-latency cliff the load harness hits at
// 10k+ live sessions. With the inline expiry check the lookup is O(1).
func BenchmarkSessionStoreGet(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			now := time.Unix(1000, 0)
			store, ids := populatedStore(n, func() time.Time { return now })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := store.get(ids[i%n]); !ok {
					b.Fatal("live session missing")
				}
			}
		})
	}
}

// BenchmarkSessionStoreGetParallel is the contended variant: concurrent
// readers all serialize on the store mutex, so any O(n) work inside the
// critical section multiplies across every in-flight request.
func BenchmarkSessionStoreGetParallel(b *testing.B) {
	for _, n := range []int{10000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			now := time.Unix(1000, 0)
			store, ids := populatedStore(n, func() time.Time { return now })
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, ok := store.get(ids[i%n]); !ok {
						b.Fatal("live session missing")
					}
					i++
				}
			})
		})
	}
}

// BenchmarkRestoreSessions measures a server's start-up over a disk store of
// 500 session records, in three shapes, and reports the store's size
// (storeMB):
//   - shared: 10 distinct planned results, 50 records each, the shape of a
//     service whose analysts shared cached plans. The store holds 10 result
//     files, and start-up reads, decodes and restores each once.
//   - distinct: 500 distinct results, one per record, so nothing is shared
//     and start-up reads 1,000 files.
//   - expired: the shared store with every record idle past the session TTL.
//     Start-up restores nothing and deletes every record, one directory fsync
//     each; the loop rewrites the files, untimed, before each start.
func BenchmarkRestoreSessions(b *testing.B) {
	for _, bc := range []struct {
		name     string
		distinct int
		expired  bool
	}{{"shared", 10, false}, {"distinct", 500, false}, {"expired", 10, true}} {
		b.Run(bc.name, func(b *testing.B) {
			db, err := NewDiskBackend(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			db.Logf = func(string, ...any) {}
			seedRecords(b, db, 500, bc.distinct)
			storeMB := float64(dirBytes(b, db.Dir())) / 1e6
			now, want := restoreClock, 500
			var files map[string][]byte
			if bc.expired {
				now = func() time.Time { return restoreClock().Add(48 * time.Hour) }
				want, files = 0, storedFiles(b, db.Dir())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.expired && i > 0 {
					b.StopTimer()
					for name, blob := range files {
						if err := os.WriteFile(filepath.Join(db.Dir(), name), blob, 0o644); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				s := New(Config{Backend: db, Logf: func(string, ...any) {}, Now: now})
				if got := s.RestoredSessions(); got != want {
					b.Fatalf("restored %d sessions, want %d", got, want)
				}
				s.Close()
			}
			b.ReportMetric(storeMB, "storeMB")
		})
	}
}

// dirBytes returns the total size of the files in dir.
func dirBytes(tb testing.TB, dir string) int64 {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			tb.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// storedFiles reads every file in dir, by name.
func storedFiles(tb testing.TB, dir string) map[string][]byte {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		files[e.Name()] = blob
	}
	return files
}

// BenchmarkDiskPut measures one write-through of a planned session's record
// on the disk backend:
//   - cached: the backend already stores the result, so the put writes and
//     fsyncs the record alone, as a cached plan's does;
//   - new-result: the result is one the backend does not store (the record
//     naming it is deleted, untimed, before each put), so the put first
//     writes and fsyncs the result file and fsyncs the directory. The
//     difference between the two is what the first put of a result pays.
func BenchmarkDiskPut(b *testing.B) {
	doc := recordConfig(b, 1)
	snap := plannedSnapshot(b, doc, "tpcds-purchases", 1)
	for _, fresh := range []bool{false, true} {
		name := "cached"
		if fresh {
			name = "new-result"
		}
		b.Run(name, func(b *testing.B) {
			db, err := NewDiskBackend(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.List(); err != nil {
				b.Fatal(err)
			}
			rec := recordOf("r0", doc, snap)
			if err := db.Put(rec); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fresh {
					b.StopTimer()
					if err := db.Delete(rec.ID); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := db.Put(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if fresh && len(resultFiles(b, db.Dir())) != 1 {
				b.Fatal("the put did not store its result file")
			}
		})
	}
}
