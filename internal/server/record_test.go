package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"poiesis/internal/config"
	"poiesis/internal/core"
	"poiesis/internal/sim"
	"poiesis/internal/workloads"
)

// recordConfig is a small planning configuration at the given depth.
func recordConfig(t testing.TB, depth int) *config.Document {
	t.Helper()
	doc, err := config.Parse([]byte(fmt.Sprintf(
		`{"policy":"greedy","topK":2,"depth":%d,"sim":{"runs":4,"defaultRows":100}}`, depth)))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// recordOf wraps a session snapshot in a record the way the store does.
func recordOf(id string, doc *config.Document, snap *core.SessionSnapshot) *SessionRecord {
	at := time.Unix(7000, 0).UTC()
	return &SessionRecord{
		Version: SessionRecordVersion, ID: id, Name: "rec-" + id,
		Created: at, LastUsed: at, Plans: 2, Config: doc, Session: snap,
	}
}

// TestEncodeRecordMatchesMarshal: what the disk backend stores for a record
// — the record with its last result left out and named by digest, and the
// result file — reads back through Get as exactly json.Marshal(rec), for
// every builtin flow at depth 1 and 2: a record without a last result, with a
// memoized last result (before and after a selection, so with history), and
// with last results that carry no memo: one read back from a result file and
// one rebuilt through RestoreResult and SnapshotResult. The result file holds
// json.Marshal of the last result under the hex SHA-256 of those bytes, so
// all three name one file.
func TestEncodeRecordMatchesMarshal(t *testing.T) {
	for _, name := range workloads.Names() {
		for depth := 1; depth <= 2; depth++ {
			t.Run(fmt.Sprintf("%s/depth%d", name, depth), func(t *testing.T) {
				doc := recordConfig(t, depth)
				p, err := doc.Planner()
				if err != nil {
					t.Fatal(err)
				}
				g, _ := workloads.Get(name)
				sess := core.NewSession(p, g, sim.AutoBinding(g, 100, 1))
				b := newTestDiskBackend(t)

				// check stores rec and returns the digest its record names.
				check := func(label string, rec *SessionRecord) string {
					t.Helper()
					if err := b.Put(rec); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got, err := b.Get(rec.ID)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !sameJSON(t, got, rec) {
						t.Fatalf("%s: the stored record reads back differently from json.Marshal", label)
					}
					blob, err := os.ReadFile(b.path(rec.ID))
					if err != nil {
						t.Fatal(err)
					}
					_, digest, err := decodeRecord(blob)
					if err != nil {
						t.Fatal(err)
					}
					if (digest != "") != (rec.Session.Last != nil) || bytes.Contains(blob, []byte(`"last"`)) {
						t.Fatalf("%s: the record names result %q and holds no last result inline", label, digest)
					}
					if digest != "" {
						want, err := json.Marshal(rec.Session.Last)
						if err != nil {
							t.Fatal(err)
						}
						file, err := os.ReadFile(b.resultPath(digest))
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(file, want) || core.ResultDigest(want) != digest {
							t.Fatalf("%s: result file %s does not hold json.Marshal of the last result under its digest", label, digest)
						}
					}
					return digest
				}
				snapshot := func() *core.SessionSnapshot {
					t.Helper()
					snap, err := sess.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					return snap
				}

				check("no last result", recordOf("r0", doc, snapshot()))
				if _, err := sess.Explore(); err != nil {
					t.Fatal(err)
				}
				check("memoized last result", recordOf("r1", doc, snapshot()))
				if len(sess.LastResult().SkylineIdx) > 0 {
					if _, err := sess.Select(0); err != nil {
						t.Fatal(err)
					}
					check("history, no last result", recordOf("r2", doc, snapshot()))
					if _, err := sess.Explore(); err != nil {
						t.Fatal(err)
					}
				}
				snap := snapshot()
				digest := check("history and memoized last result", recordOf("r3", doc, snap))
				if digest != snap.Last.Digest() {
					t.Fatalf("the record names %s, the memo's digest is %s", digest, snap.Last.Digest())
				}

				stored, err := b.Get("r3")
				if err != nil {
					t.Fatal(err)
				}
				stored.ID = "r4"
				if again := check("read-back record", stored); again != digest {
					t.Fatal("a read-back result names another file than the memoized one")
				}

				fresh, err := core.SnapshotResult(sess.LastResult())
				if err != nil {
					t.Fatal(err)
				}
				restored, err := core.RestoreResult(fresh)
				if err != nil {
					t.Fatal(err)
				}
				if fresh, err = core.SnapshotResult(restored); err != nil {
					t.Fatal(err)
				}
				unmemoized := *snap
				unmemoized.Last = fresh
				if got := check("restored last result", recordOf("r5", doc, &unmemoized)); got != digest {
					t.Fatal("a restored result names another file than the memoized one")
				}
			})
		}
	}
}

// sameJSON reports whether got and want marshal to the same bytes.
func sameJSON(t *testing.T, got, want any) bool {
	t.Helper()
	a, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(a, b)
}

// cachedPlanSessions runs, on a disk-backed server, one session's plan (a
// miss) and a second session's plan of the same key (a cache hit), and
// returns the second session's state.
func cachedPlanSessions(t *testing.T, s *Server, depth int) *sessionState {
	t.Helper()
	body := fmt.Sprintf(`{"flow":{"builtin":"tpcds-purchases"},"scale":100,
		"config":{"policy":"greedy","topK":2,"depth":%d,"sim":{"runs":4,"defaultRows":100}}}`, depth)
	var ids [2]string
	for i := range ids {
		var sj sessionJSON
		if rr := do(t, s, "POST", "/v1/sessions", body, &sj); rr.Code != 201 {
			t.Fatalf("create: %d %s", rr.Code, rr.Body.String())
		}
		ids[i] = sj.ID
		var plan struct {
			Cached bool `json:"cached"`
		}
		if rr := do(t, s, "POST", "/v1/sessions/"+sj.ID+"/plan", "", &plan); rr.Code != 200 {
			t.Fatalf("plan: %d %s", rr.Code, rr.Body.String())
		}
		if plan.Cached != (i == 1) {
			t.Fatalf("plan %d: cached=%v", i, plan.Cached)
		}
	}
	first, _ := s.store.get(ids[0])
	second, _ := s.store.get(ids[1])
	if first.sess.LastResult() != second.sess.LastResult() {
		t.Fatal("the cache hit did not adopt the shared result")
	}
	a, err := first.sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := second.sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if a.Last == nil || a.Last != b.Last {
		t.Fatal("the two sessions' snapshots do not share one last-result snapshot")
	}
	return second
}

// TestCachedPlanEncodesResultOnce: on the disk backend, a session that adopts
// a cached result records it without snapshotting or encoding it again. The
// record's allocations are measured at depth 1 and depth 2: the deeper plan
// has several times the alternatives, so a record that rebuilt the snapshot
// would cost many more allocations; the two counts must stay level.
func TestCachedPlanEncodesResultOnce(t *testing.T) {
	allocs := map[int]float64{}
	alts := map[int]int{}
	for _, depth := range []int{1, 2} {
		b := newTestDiskBackend(t)
		s := New(Config{Backend: b, Logf: t.Logf})
		st := cachedPlanSessions(t, s, depth)
		alts[depth] = len(st.sess.LastResult().Alternatives)
		allocs[depth] = testing.AllocsPerRun(5, func() {
			if err := s.store.writeRecord(bg, st); err != nil {
				t.Fatal(err)
			}
		})
		s.store.close()
	}
	t.Logf("writeRecord allocations: %v per record over %v alternatives", allocs, alts)
	if alts[2] < 2*alts[1] {
		t.Fatalf("depth 2 has %d alternatives, depth 1 %d: too few to tell growth", alts[2], alts[1])
	}
	// Rebuilding costs dozens of allocations per alternative; the bound is
	// half of one, which leaves room for allocations of the runtime's own
	// background work, counted too (and more of it under -race).
	if grow := allocs[2] - allocs[1]; grow > float64(alts[2]-alts[1])/2 {
		t.Errorf("writeRecord allocations grow with the alternatives: %.0f at %d, %.0f at %d",
			allocs[1], alts[1], allocs[2], alts[2])
	}
}

// TestConcurrentRecordsShareOneEncoding: 8 sessions holding one cached Result
// persist at once (run under -race). The memo is built once under its
// sync.Once, the result is stored as one result file, and every stored
// record reads back the same bytes for it.
func TestConcurrentRecordsShareOneEncoding(t *testing.T) {
	const sessions = 8
	doc := recordConfig(t, 1)
	p, err := doc.Planner()
	if err != nil {
		t.Fatal(err)
	}
	g, _ := workloads.Get("tpcds-purchases")
	bind := sim.AutoBinding(g, 100, 1)
	res, err := p.Plan(g, bind)
	if err != nil {
		t.Fatal(err)
	}

	b := newTestDiskBackend(t)
	store := newSessionStore(time.Hour, 0, time.Now, b, nil, nil)
	defer store.close()
	states := make([]*sessionState, sessions)
	for i := range states {
		sess := core.NewSession(p, g, bind)
		if err := sess.AdoptResult(res); err != nil {
			t.Fatal(err)
		}
		states[i] = &sessionState{id: fmt.Sprintf("s%02d", i), sess: sess, cfgDoc: doc}
		store.adopt(states[i])
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, st := range states {
		wg.Add(1)
		go func(st *sessionState) {
			defer wg.Done()
			<-start
			if err := store.persist(bg, st); err != nil {
				t.Error(err)
			}
		}(st)
	}
	close(start)
	wg.Wait()

	var shared *core.ResultSnapshot
	for _, st := range states {
		snap, err := st.sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if shared == nil {
			shared = snap.Last
		}
		if snap.Last != shared {
			t.Fatalf("session %s holds its own snapshot of the shared result", st.id)
		}
	}

	fresh, err := core.SnapshotResult(res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != sessions {
		t.Fatalf("%d records stored, want %d", len(recs), sessions)
	}
	if files := resultFiles(t, b.Dir()); len(files) != 1 {
		t.Errorf("result files %v, want one", files)
	}
	for _, rec := range recs {
		got, err := json.Marshal(rec.Session.Last)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record %s stores a different last result", rec.ID)
		}
	}
}

// TestPlanCacheChargesRecordEncoding: on the disk backend, a plan's
// write-through memoizes the result's record encoding, and the plan cache
// charges its length to the result's entry once; eviction releases it. The
// same plans on a memory-mode server build no encoding, so the two servers'
// poiesis_plan_cache_bytes differ by exactly the resident result's encoding.
func TestPlanCacheChargesRecordEncoding(t *testing.T) {
	mem := New(Config{Logf: t.Logf, CacheCapacity: 1})
	disk := New(Config{Backend: newTestDiskBackend(t), Logf: t.Logf, CacheCapacity: 1})
	defer disk.Close()
	cacheBytes := func(s *Server) int64 {
		t.Helper()
		v, ok := sampleValue(scrape(t, s), "poiesis_plan_cache_bytes")
		if !ok {
			t.Fatal("no poiesis_plan_cache_bytes sample")
		}
		return int64(v)
	}
	plan := func(s *Server, body string) *core.Result {
		t.Helper()
		var sj sessionJSON
		if rr := do(t, s, "POST", "/v1/sessions", body, &sj); rr.Code != http.StatusCreated {
			t.Fatalf("create: %d %s", rr.Code, rr.Body.String())
		}
		if rr := do(t, s, "POST", "/v1/sessions/"+sj.ID+"/plan", "", nil); rr.Code != http.StatusOK {
			t.Fatalf("plan: %d %s", rr.Code, rr.Body.String())
		}
		return lastResult(t, s, sj.ID)
	}
	for _, scale := range []int{100, 120} {
		body := fmt.Sprintf(`{"flow":{"builtin":"tpcds-purchases"},"scale":%d,
			"config":{"policy":"greedy","topK":1,"depth":1,"sim":{"runs":4,"defaultRows":100}}}`, scale)
		if res := plan(mem, body); res.RecordBytes() != 0 {
			t.Errorf("scale %d: memory mode built a %d-byte record encoding", scale, res.RecordBytes())
		}
		res := plan(disk, body)
		snap, err := core.SnapshotResult(res)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if res.RecordBytes() != int64(len(enc)) {
			t.Errorf("scale %d: RecordBytes %d, encoding %d bytes", scale, res.RecordBytes(), len(enc))
		}
		// The second scale's plan evicts the first's entry (capacity 1): its
		// charge must leave with it.
		if got := cacheBytes(disk) - cacheBytes(mem); got != int64(len(enc)) {
			t.Errorf("scale %d: disk cache holds %d bytes more than memory, want the %d-byte encoding", scale, got, len(enc))
		}
		// A cache hit in another session records the same encoding: no
		// second charge.
		if again := plan(disk, body); again != res {
			t.Fatal("the second plan did not hit the cache")
		}
		if got := cacheBytes(disk) - cacheBytes(mem); got != int64(len(enc)) {
			t.Errorf("scale %d: a cache hit charged the encoding again (%d bytes more)", scale, got)
		}
	}
}
