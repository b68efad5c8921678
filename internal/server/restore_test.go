package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"poiesis/internal/config"
	"poiesis/internal/core"
	"poiesis/internal/sim"
	"poiesis/internal/workloads"
)

// restoreClock is the clock of servers restoring seedRecords' records: the
// records were last used at recordOf's time, well within the default TTL.
func restoreClock() time.Time { return time.Unix(7000, 0) }

// plannedSnapshot plans flow once at depth 1 under the binding seed and
// returns the session's snapshot with its last result.
func plannedSnapshot(tb testing.TB, doc *config.Document, flow string, seed uint64) *core.SessionSnapshot {
	tb.Helper()
	p, err := doc.Planner()
	if err != nil {
		tb.Fatal(err)
	}
	g, ok := workloads.Get(flow)
	if !ok {
		tb.Fatalf("no builtin flow %s", flow)
	}
	sess := core.NewSession(p, g, sim.AutoBinding(g, 100, seed))
	if _, err := sess.Explore(); err != nil {
		tb.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// seedRecords stores n session records holding `distinct` planned results,
// n/distinct records each (the builtin flows in turn, then the same flows
// under the next odd binding seed: the data generator ignores a seed's lowest
// bit, so seeds 2 and 3 would plan the same result), and returns the IDs per
// result.
func seedRecords(tb testing.TB, b *DiskBackend, n, distinct int) [][]string {
	tb.Helper()
	doc := recordConfig(tb, 1)
	flows := workloads.Names()
	ids := make([][]string, distinct)
	for k := range ids {
		snap := plannedSnapshot(tb, doc, flows[k%len(flows)], uint64(1+2*(k/len(flows))))
		for j := 0; j < n/distinct; j++ {
			id := fmt.Sprintf("k%02dr%03d", k, j)
			if err := b.Put(recordOf(id, doc, snap)); err != nil {
				tb.Fatal(err)
			}
			ids[k] = append(ids[k], id)
		}
	}
	return ids
}

// lastResult returns the restored last result of session id.
func lastResult(t *testing.T, s *Server, id string) *core.Result {
	t.Helper()
	st, ok := s.store.get(id)
	if !ok {
		t.Fatalf("session %s not restored", id)
	}
	return st.sess.LastResult()
}

// TestRestoreSharesResults: 500 records over 10 results store each result
// once, as one result file, and records hold no result inline. After a
// restart, the records naming one result share one *core.Result. One byte
// changed in a result file makes exactly the records naming it skip, with a
// warning, and the others restore as before.
func TestRestoreSharesResults(t *testing.T) {
	b := newTestDiskBackend(t)
	ids := seedRecords(t, b, 500, 10)
	files := resultFiles(t, b.Dir())
	if len(files) != 10 {
		t.Fatalf("%d result files for 10 distinct results", len(files))
	}
	records := 0
	for name, blob := range storedFiles(t, b.Dir()) {
		if strings.HasSuffix(name, snapshotExt) {
			records++
			if bytes.Contains(blob, []byte(`"alternatives"`)) {
				t.Fatalf("record %s holds a result inline", name)
			}
		}
	}
	if records != 500 {
		t.Fatalf("%d record files, want 500", records)
	}

	s := New(Config{Backend: b, Logf: t.Logf, Now: restoreClock})
	if got := s.RestoredSessions(); got != 500 {
		t.Fatalf("restored %d sessions, want 500", got)
	}
	results := map[*core.Result]bool{}
	for _, group := range ids {
		first := lastResult(t, s, group[0])
		if first == nil || results[first] {
			t.Fatal("two distinct results were restored as one")
		}
		results[first] = true
		for _, id := range group[1:] {
			if lastResult(t, s, id) != first {
				t.Fatalf("session %s holds its own copy of a shared result", id)
			}
		}
	}
	s.Close()

	// Change one digit of the evaluated count in the first result's file.
	rec, err := b.Get(ids[0][0])
	if err != nil {
		t.Fatal(err)
	}
	path := b.resultPath(digestOf(t, rec.Session.Last))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(blob, []byte(`"evaluated":`))
	if at < 0 {
		t.Fatal("stored result has no evaluated count")
	}
	at += len(`"evaluated":`)
	if blob[at] == '1' {
		blob[at] = '2'
	} else {
		blob[at] = '1'
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var logMu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	s = New(Config{Backend: b.WithLogf(logf), Logf: logf, Now: restoreClock})
	defer s.Close()
	if got := s.RestoredSessions(); got != 450 {
		t.Fatalf("restored %d sessions, want the 450 whose result is intact", got)
	}
	for _, id := range ids[0] {
		if _, ok := s.store.get(id); ok {
			t.Fatalf("session %s restored from a changed result file", id)
		}
	}
	for _, group := range ids[1:] {
		first := lastResult(t, s, group[0])
		for _, id := range group[1:] {
			if lastResult(t, s, id) != first {
				t.Fatalf("session %s holds its own copy of a shared result", id)
			}
		}
	}
	logMu.Lock()
	skipped := 0
	for _, line := range logs {
		if strings.Contains(line, "does not match its digest") {
			skipped++
		}
	}
	logMu.Unlock()
	if skipped != len(ids[0]) {
		t.Errorf("%d skip warnings for a changed result file, want one per record naming it (%d)", skipped, len(ids[0]))
	}
}

// digestOf returns the name of rs's JSON encoding.
func digestOf(t *testing.T, rs *core.ResultSnapshot) string {
	t.Helper()
	blob, err := rs.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return core.ResultDigest(blob)
}

// TestListedRecordMatchesDecodeRecord: List reads every stored record as Get
// does (decodeRecord, then the result file the record names): records
// without a last result, with one, with history, and a version-1 record that
// holds its last result inline. Listed records naming one result file share
// one decoded snapshot; each Get decodes its own.
func TestListedRecordMatchesDecodeRecord(t *testing.T) {
	doc := recordConfig(t, 1)
	p, err := doc.Planner()
	if err != nil {
		t.Fatal(err)
	}
	g, _ := workloads.Get("tpcds-sales")
	sess := core.NewSession(p, g, sim.AutoBinding(g, 100, 1))
	b := newTestDiskBackend(t)
	put := func(id string) *core.SessionSnapshot {
		t.Helper()
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Put(recordOf(id, doc, snap)); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	put("r0") // no last result
	if _, err := sess.Explore(); err != nil {
		t.Fatal(err)
	}
	last := put("r1").Last
	put("r2") // the same last result
	// A version-1 record holding that last result inline.
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	v1 := recordOf("r3", doc, snap)
	v1.Version = 1
	blob, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b.path("r3"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Select(0); err != nil {
		t.Fatal(err)
	}
	put("r4") // history, no last result
	if _, err := sess.Explore(); err != nil {
		t.Fatal(err)
	}
	put("r5") // history and a last result

	recs, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if ids := recordIDs(recs); !slices.Equal(ids, []string{"r0", "r1", "r2", "r3", "r4", "r5"}) {
		t.Fatalf("listed %v", ids)
	}
	for _, rec := range recs {
		want, err := b.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !sameJSON(t, rec, want) {
			t.Errorf("record %s: the listing decodes differently from Get", rec.ID)
		}
		if rec.Session.Last != nil && rec.Session.Last == want.Session.Last {
			t.Errorf("record %s: Get shares the listing's decoded result", rec.ID)
		}
	}
	if recs[1].Session.Last == nil || recs[1].Session.Last != recs[2].Session.Last {
		t.Error("records naming one result file were decoded apart")
	}
	if recs[3].Session.Last == nil || !sameJSON(t, recs[3].Session.Last, last) {
		t.Error("the version-1 record's inline last result was not read")
	}
	if recs[3].Session.Last == recs[1].Session.Last {
		t.Error("a version-1 record shares a result file's decoded result")
	}
}

// TestRestoredSharedResultConcurrentUse: two restored sessions that share one
// result read it, select from it and plan again at the same time (run under
// -race).
func TestRestoredSharedResultConcurrentUse(t *testing.T) {
	b := newTestDiskBackend(t)
	ids := seedRecords(t, b, 2, 1)[0]
	s := New(Config{Backend: b, Logf: t.Logf, Now: restoreClock})
	defer s.Close()
	if lastResult(t, s, ids[0]) != lastResult(t, s, ids[1]) {
		t.Fatal("the restored sessions do not share their result")
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for _, step := range []struct{ method, path, body string }{
				{"GET", "/result?reports=1", ""},
				{"GET", "/skyline", ""},
				{"POST", "/select", `{"index":0}`},
				{"POST", "/plan", ""},
				{"POST", "/select", `{"index":0}`},
			} {
				if rr := do(t, s, step.method, "/v1/sessions/"+id+step.path, step.body, nil); rr.Code != http.StatusOK {
					t.Errorf("%s %s %s: %d %s", id, step.method, step.path, rr.Code, rr.Body.String())
					return
				}
			}
		}(id)
	}
	wg.Wait()
}
