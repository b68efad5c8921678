package server

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
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

// TestRestoreSharesResults: records whose stored last results are byte-equal
// share one *core.Result after a restart. A record whose last result differs
// in one byte gets a result of its own.
func TestRestoreSharesResults(t *testing.T) {
	b := newTestDiskBackend(t)
	ids := seedRecords(t, b, 6, 2)

	// Change one digit of the evaluated count in one record's last result.
	odd := ids[0][2]
	path := filepath.Join(b.Dir(), odd+snapshotExt)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.Index(blob, []byte(`"last":`))
	at := bytes.Index(blob[last:], []byte(`"evaluated":`))
	if last < 0 || at < 0 {
		t.Fatal("stored record has no evaluated count in its last result")
	}
	at += last + len(`"evaluated":`)
	if blob[at] == '1' {
		blob[at] = '2'
	} else {
		blob[at] = '1'
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Backend: b, Logf: t.Logf, Now: restoreClock})
	defer s.Close()
	if got := s.RestoredSessions(); got != 6 {
		t.Fatalf("restored %d sessions, want 6", got)
	}
	first, second := lastResult(t, s, ids[0][0]), lastResult(t, s, ids[1][0])
	if first == nil || second == nil || first == second {
		t.Fatal("the two distinct results were not restored apart")
	}
	for _, id := range ids[0][:2] {
		if lastResult(t, s, id) != first {
			t.Errorf("session %s holds its own copy of a byte-equal result", id)
		}
	}
	for _, id := range ids[1] {
		if lastResult(t, s, id) != second {
			t.Errorf("session %s holds its own copy of a byte-equal result", id)
		}
	}
	own := lastResult(t, s, odd)
	if own == first || own == second {
		t.Fatal("a record whose last result differs shares another's result")
	}
	if own.Stats.Evaluated == first.Stats.Evaluated {
		t.Errorf("the changed record restored evaluated=%d, as the unchanged ones", own.Stats.Evaluated)
	}
}

// TestListedRecordMatchesDecodeRecord: the listing's decoder and decodeRecord
// read every stored record alike, so encodeRecord writes the same bytes for
// both: records without a last result, with one, with history, and with a
// null last result. Two records with byte-equal last results share one
// decoded snapshot.
func TestListedRecordMatchesDecodeRecord(t *testing.T) {
	doc := recordConfig(t, 1)
	p, err := doc.Planner()
	if err != nil {
		t.Fatal(err)
	}
	g, _ := workloads.Get("tpcds-sales")
	sess := core.NewSession(p, g, sim.AutoBinding(g, 100, 1))
	var blobs [][]byte
	encode := func(snap *core.SessionSnapshot) []byte {
		t.Helper()
		blob, err := encodeRecord(recordOf(fmt.Sprintf("r%d", len(blobs)), doc, snap))
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
		return blob
	}
	snapshot := func() *core.SessionSnapshot {
		t.Helper()
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	noLast := encode(snapshot())
	// The same record with "last":null spliced in as the snapshot's last field.
	blobs = append(blobs, append(append(bytes.Clone(noLast[:len(noLast)-2]), `,"last":null`...), "}}"...))
	if _, err := sess.Explore(); err != nil {
		t.Fatal(err)
	}
	withLast := encode(snapshot())
	if _, err := sess.Select(0); err != nil {
		t.Fatal(err)
	}
	encode(snapshot()) // history, no last result
	if _, err := sess.Explore(); err != nil {
		t.Fatal(err)
	}
	encode(snapshot()) // history and a last result

	lasts := map[string]*core.ResultSnapshot{}
	for i, blob := range blobs {
		want, err := decodeRecord(blob)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeListedRecord(blob, lasts)
		if err != nil {
			t.Fatal(err)
		}
		wantBlob, err := encodeRecord(want)
		if err != nil {
			t.Fatal(err)
		}
		gotBlob, err := encodeRecord(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBlob, wantBlob) {
			t.Errorf("record %d: the listing decodes differently from decodeRecord", i)
		}
		if (got.Session.Last == nil) != (want.Session.Last == nil) {
			t.Errorf("record %d: listed last result %v, decoded %v", i, got.Session.Last != nil, want.Session.Last != nil)
		}
	}

	a, err := decodeListedRecord(withLast, lasts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeListedRecord(withLast, lasts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Session.Last == nil || a.Session.Last != b.Session.Last {
		t.Error("byte-equal last results were decoded twice")
	}
	if len(lasts) != 2 {
		t.Errorf("%d distinct last results decoded, want 2", len(lasts))
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
