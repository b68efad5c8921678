package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"poiesis/internal/core"
)

// backends enumerates the SessionBackend implementations. The server suites
// that range over it run against both, so a server that keeps no records
// answers exactly as one that writes every state change to disk.
func backends(t *testing.T) map[string]func(t *testing.T) SessionBackend {
	t.Helper()
	return map[string]func(t *testing.T) SessionBackend{
		"memory": func(t *testing.T) SessionBackend { return NewMemoryBackend() },
		"disk":   func(t *testing.T) SessionBackend { return newTestDiskBackend(t) },
	}
}

func newTestDiskBackend(t *testing.T) *DiskBackend {
	t.Helper()
	b, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.Logf = t.Logf
	return b
}

func testRecord(id string, lastUsed time.Time) *SessionRecord {
	return &SessionRecord{
		Version:  SessionRecordVersion,
		ID:       id,
		Name:     "rec-" + id,
		Created:  lastUsed.Add(-time.Minute),
		LastUsed: lastUsed,
		Plans:    2,
		Session:  &core.SessionSnapshot{Version: core.SnapshotFormatVersion},
	}
}

// TestBackendContract exercises put/get/delete/list on the disk backend, the
// one that keeps records.
func TestBackendContract(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		b := newTestDiskBackend(t)
		base := time.Unix(5000, 0).UTC()

		if _, err := b.Get("missing0000"); err != ErrRecordNotFound {
			t.Errorf("Get missing: %v, want ErrRecordNotFound", err)
		}
		if err := b.Delete("missing0000"); err != nil {
			t.Errorf("Delete missing must be idempotent: %v", err)
		}

		for i, id := range []string{"c3", "a1", "b2"} {
			if err := b.Put(testRecord(id, base.Add(time.Duration(i)*time.Hour))); err != nil {
				t.Fatalf("Put %s: %v", id, err)
			}
		}
		got, err := b.Get("a1")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got.Name != "rec-a1" || got.Plans != 2 || !got.LastUsed.Equal(base.Add(time.Hour)) {
			t.Errorf("record did not round-trip: %+v", got)
		}

		// Put replaces.
		upd := testRecord("a1", base.Add(2*time.Hour))
		upd.Plans = 9
		if err := b.Put(upd); err != nil {
			t.Fatal(err)
		}
		if got, _ = b.Get("a1"); got.Plans != 9 {
			t.Errorf("Put did not replace: %+v", got)
		}

		recs, err := b.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 || recs[0].ID != "a1" || recs[1].ID != "b2" || recs[2].ID != "c3" {
			t.Errorf("List wrong: %v", recordIDs(recs))
		}

		// Delete removes one record and leaves the others listed.
		if err := b.Delete("c3"); err != nil {
			t.Fatal(err)
		}
		if recs, _ = b.List(); len(recs) != 2 || recs[0].ID != "a1" || recs[1].ID != "b2" {
			t.Errorf("after deleting c3: %v", recordIDs(recs))
		}

		for _, id := range []string{"a1", "b2"} {
			if err := b.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if recs, _ = b.List(); len(recs) != 0 {
			t.Errorf("after delete: %v", recordIDs(recs))
		}

		// A record with a last result: Get reads it back with its result
		// file, and deleting the last record naming that file deletes it.
		doc := recordConfig(t, 1)
		rec := recordOf("d4", doc, plannedSnapshot(t, doc, "tpcds-purchases", 1))
		if err := b.Put(rec); err != nil {
			t.Fatal(err)
		}
		if got, err := b.Get("d4"); err != nil {
			t.Fatalf("Get with a result file: %v", err)
		} else if !sameJSON(t, got, rec) {
			t.Error("a record with a last result did not round-trip through Get")
		}
		if files := resultFiles(t, b.Dir()); len(files) != 1 {
			t.Errorf("result files %v, want one", files)
		}
		if err := b.Delete("d4"); err != nil {
			t.Fatal(err)
		}
		if files := resultFiles(t, b.Dir()); len(files) != 0 {
			t.Errorf("result files %v left after deleting the record naming them", files)
		}
	})
}

func recordIDs(recs []*SessionRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

// TestServerLifecycleBothBackends runs the full explore-select HTTP loop
// against every backend: the responses must be backend-independent.
func TestServerLifecycleBothBackends(t *testing.T) {
	type capture struct{ create, get, plan, sel, list string }
	runs := map[string]capture{}
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := New(Config{Backend: mk(t), Logf: t.Logf, Now: func() time.Time { return time.Unix(7000, 0) }})
			var c capture

			var sj sessionJSON
			rr := do(t, s, "POST", "/v1/sessions", fastPlanBody("case"), &sj)
			if rr.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", rr.Code, rr.Body.String())
			}
			id := sj.ID
			c.create = stripID(rr.Body.String(), id)

			if rr = do(t, s, "POST", "/v1/sessions/"+id+"/plan", "", nil); rr.Code != 200 {
				t.Fatalf("plan: %d %s", rr.Code, rr.Body.String())
			}
			c.plan = rr.Body.String()

			if rr = do(t, s, "POST", "/v1/sessions/"+id+"/select", `{"index":0}`, nil); rr.Code != 200 {
				t.Fatalf("select: %d %s", rr.Code, rr.Body.String())
			}
			c.sel = rr.Body.String()

			if rr = do(t, s, "GET", "/v1/sessions/"+id, "", nil); rr.Code != 200 {
				t.Fatalf("get: %d", rr.Code)
			}
			c.get = stripID(rr.Body.String(), id)

			if rr = do(t, s, "GET", "/v1/sessions", "", nil); rr.Code != 200 {
				t.Fatalf("list: %d", rr.Code)
			}
			c.list = stripID(rr.Body.String(), id)

			if rr = do(t, s, "DELETE", "/v1/sessions/"+id, "", nil); rr.Code != http.StatusNoContent {
				t.Fatalf("delete: %d", rr.Code)
			}
			runs[name] = c
		})
	}
	for name, c := range runs {
		if name == "memory" {
			continue
		}
		if c != runs["memory"] {
			t.Errorf("memory and %s lifecycles diverge:\nmemory %+v\n%s %+v", name, runs["memory"], name, c)
		}
	}
}

// TestMemoryModeWritesNoRecord runs one script on a traced server over each
// backend: create, plan, select, plan, a second create and its DELETE, then
// a TTL expiry of the first session. Over the memory backend, which keeps no
// records, the server builds no record and makes no backend call: no
// session.snapshot or backend.* span, every backend op series at 0 and the
// eviction counters at 0. Over the disk backend the same script writes one
// record per state change and deletes both sessions' records.
func TestMemoryModeWritesNoRecord(t *testing.T) {
	wantOps := map[string]map[string]int{
		"memory": {},
		"disk":   {"put": 5, "delete": 2, "list": 1},
	}
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			now := time.Unix(7000, 0)
			s := New(Config{Backend: mk(t), Logf: t.Logf, Now: func() time.Time { return now }})
			defer s.Close()
			a := createSession(t, s, "a")
			for _, step := range []struct{ path, body string }{
				{"/plan", ""}, {"/select", `{"index":0}`}, {"/plan", ""},
			} {
				if rr := do(t, s, "POST", "/v1/sessions/"+a+step.path, step.body, nil); rr.Code != http.StatusOK {
					t.Fatalf("%s: %d %s", step.path, rr.Code, rr.Body.String())
				}
			}
			b := createSession(t, s, "b")
			if rr := do(t, s, "DELETE", "/v1/sessions/"+b, "", nil); rr.Code != http.StatusNoContent {
				t.Fatalf("delete: %d %s", rr.Code, rr.Body.String())
			}
			now = now.Add(time.Hour) // past the default TTL
			if n := s.Sessions(); n != 0 {
				t.Fatalf("%d sessions outlived the TTL", n)
			}
			s.Close() // waits for the eviction worker's deletes

			spans := map[string]int{}
			for _, tr := range s.tracer.Traces() {
				full, _ := s.tracer.Trace(tr.ID)
				for _, sp := range full.Spans {
					spans[sp.Name]++
				}
			}
			want := wantOps[name]
			if spans["session.snapshot"] != want["put"] || spans["backend.put"] != want["put"] ||
				spans["backend.delete"] != want["delete"] {
				t.Errorf("spans session.snapshot %d, backend.put %d, backend.delete %d; want %d, %d, %d",
					spans["session.snapshot"], spans["backend.put"], spans["backend.delete"],
					want["put"], want["put"], want["delete"])
			}
			samples := scrape(t, s)
			for _, op := range []string{"put", "get", "delete", "list"} {
				key := fmt.Sprintf(`poiesis_backend_op_duration_seconds_count{backend=%q,op=%q}`, name, op)
				if got := samples[key].Value; got != float64(want[op]) {
					t.Errorf("%s = %v, want %d", key, got, want[op])
				}
			}
			// Start-up lists once and deletes expired records through Delete:
			// there is no sweep op.
			for key := range samples {
				if strings.Contains(key, `op="sweep"`) {
					t.Errorf("unexpected series %s", key)
				}
			}

			var stats serverStatsJSON
			do(t, s, "GET", "/v1/stats", "", &stats)
			if stats.Backend != name || stats.PersistErrors != 0 || stats.EvictQueue != 0 ||
				stats.EvictDropped != 0 || stats.Evictions != int64(want["delete"]/2) {
				t.Errorf("stats %+v", stats)
			}
			var ready readyzJSON
			if do(t, s, "GET", "/v1/readyz", "", &ready); ready.Backend != name {
				t.Errorf("readyz backend %q, want %q", ready.Backend, name)
			}
		})
	}
}

// stripID normalises random session IDs out of a response body so runs are
// comparable.
func stripID(body, id string) string { return strings.ReplaceAll(body, id, "SID") }

// TestRestartDurability is the end-to-end crash-safety check: a server over
// a disk backend is stopped (dropped) after create+plan+select+plan, a new
// server starts over the same directory, and the restored session must be
// byte-for-byte identical — detail, history, skyline, full last result —
// and still accept a select. Two sibling sessions planned the first
// session's initial key, so their records name one result file that the
// restart restores once: every restored session serves exactly what its
// record restored alone (DiskBackend.Get + core.RestoreSession) serves,
// before and after a select, and a select in one sibling leaves the other as
// it was.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	clock := func() time.Time { return time.Unix(9000, 0) }
	open := func() *Server {
		b, err := NewDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		b.Logf = t.Logf
		return New(Config{Backend: b, Logf: t.Logf, Now: clock})
	}

	s1 := open()
	id := createSession(t, s1, "durable")
	if rr := do(t, s1, "POST", "/v1/sessions/"+id+"/plan", "", nil); rr.Code != 200 {
		t.Fatalf("plan: %d %s", rr.Code, rr.Body.String())
	}
	if rr := do(t, s1, "POST", "/v1/sessions/"+id+"/select", `{"index":0}`, nil); rr.Code != 200 {
		t.Fatalf("select: %d %s", rr.Code, rr.Body.String())
	}
	if rr := do(t, s1, "POST", "/v1/sessions/"+id+"/plan", "", nil); rr.Code != 200 {
		t.Fatalf("second plan: %d %s", rr.Code, rr.Body.String())
	}
	sibs := []string{createSession(t, s1, "sibling-a"), createSession(t, s1, "sibling-b")}
	for _, sib := range sibs {
		if rr := do(t, s1, "POST", "/v1/sessions/"+sib+"/plan", "", nil); rr.Code != 200 {
			t.Fatalf("sibling plan: %d %s", rr.Code, rr.Body.String())
		}
	}
	before := map[string]string{}
	for _, path := range []string{
		"/v1/sessions",
		"/v1/sessions/" + id,
		"/v1/sessions/" + id + "/result?reports=1",
		"/v1/sessions/" + id + "/skyline",
		"/v1/sessions/" + id + "/flow",
	} {
		rr := do(t, s1, "GET", path, "", nil)
		if rr.Code != 200 {
			t.Fatalf("GET %s: %d", path, rr.Code)
		}
		before[path] = rr.Body.String()
	}

	// "Kill" s1 (no shutdown hook exists or is needed: every state change
	// was written through synchronously) and restart over the directory.
	all := append([]string{id}, sibs...)
	alone := map[string]*Server{}
	for _, sid := range all {
		alone[sid] = restoreAlone(t, dir, sid, clock)
	}
	s2 := open()
	if got := s2.RestoredSessions(); got != 3 {
		t.Fatalf("restored %d sessions, want 3", got)
	}
	for path, want := range before {
		rr := do(t, s2, "GET", path, "", nil)
		if rr.Code != 200 {
			t.Fatalf("after restart GET %s: %d", path, rr.Code)
		}
		if got := rr.Body.String(); got != want {
			t.Errorf("GET %s differs after restart:\nbefore %s\nafter  %s", path, want, got)
		}
	}
	if lastResult(t, s2, sibs[0]) != lastResult(t, s2, sibs[1]) {
		t.Fatal("the siblings' byte-equal last results were restored apart")
	}
	for _, sid := range all {
		sameAsAlone(t, s2, alone[sid], sid)
	}

	// The restored sessions are live, not read-only fossils: selecting from
	// the restored skyline works and the explore-select loop continues. A
	// select in one sibling leaves the other, which shares its result, as
	// it was.
	selectSame := func(sid string) {
		t.Helper()
		got := do(t, s2, "POST", "/v1/sessions/"+sid+"/select", `{"index":0}`, nil)
		want := do(t, alone[sid], "POST", "/v1/sessions/"+sid+"/select", `{"index":0}`, nil)
		if got.Code != 200 || got.Body.String() != want.Body.String() {
			t.Fatalf("select %s after restart: %d %s, restored alone: %d %s",
				sid, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	}
	selectSame(sibs[0])
	sameAsAlone(t, s2, alone[sibs[1]], sibs[1])
	selectSame(sibs[1])
	selectSame(id)
	for _, sid := range all {
		sameAsAlone(t, s2, alone[sid], sid)
	}
}

// restoreAlone serves the record of session id in dir from a server of its
// own, restored through DiskBackend.Get (the record and its result file) and
// core.RestoreSession: what a restored session must serve however many
// records share its result.
func restoreAlone(t *testing.T, dir, id string, clock func() time.Time) *Server {
	t.Helper()
	b, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := b.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := rec.Config.Planner()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.RestoreSession(planner, rec.Session)
	if err != nil {
		t.Fatal(err)
	}
	st := &sessionState{id: rec.ID, name: rec.Name, created: rec.Created, sess: sess,
		cfgDoc: rec.Config, regKey: registryKeyFromDoc(rec.Config), plans: rec.Plans}
	st.touch(rec.LastUsed)
	s := New(Config{Logf: t.Logf, Now: clock})
	s.store.adopt(st)
	return s
}

// sameAsAlone compares session id's detail, result, skyline and flow on s
// with those on the server that restored it alone.
func sameAsAlone(t *testing.T, s, alone *Server, id string) {
	t.Helper()
	for _, path := range []string{"", "/result", "/result?reports=1", "/skyline", "/flow"} {
		got := do(t, s, "GET", "/v1/sessions/"+id+path, "", nil)
		want := do(t, alone, "GET", "/v1/sessions/"+id+path, "", nil)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("GET %s%s: %d %s\nrestored alone: %d %s",
				id, path, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	}
}

// TestRestartSkipsCorruptedSnapshots plants broken files next to a healthy
// snapshot: startup must log and skip them, restore the healthy session, and
// clean up partial temp files.
func TestRestartSkipsCorruptedSnapshots(t *testing.T) {
	dir := t.TempDir()
	clock := func() time.Time { return time.Unix(9000, 0) }
	var logMu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	open := func() *Server {
		b, err := NewDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		b.Logf = logf
		return New(Config{Backend: b, Logf: logf, Now: clock})
	}

	s1 := open()
	id := createSession(t, s1, "survivor")
	if rr := do(t, s1, "POST", "/v1/sessions/"+id+"/plan", "", nil); rr.Code != 200 {
		t.Fatalf("plan: %d", rr.Code)
	}

	// Corruption menagerie: truncated JSON, non-JSON garbage, a partial
	// temp file from an interrupted write, a record whose ID contradicts its
	// filename, and a record from a future format version.
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("truncated00.json", `{"version":1,"id":"truncated00","session":{"ver`)
	write("garbage0000.json", "\x00\x01not json at all")
	write(".tmp-partial0000.json", `{"version":1`)
	write("mismatch000.json", `{"version":1,"id":"other","session":{"version":1}}`)
	write("future00000.json", fmt.Sprintf(`{"version":%d,"id":"future00000","session":{"version":%d}}`,
		SessionRecordVersion+5, core.SnapshotFormatVersion+5))

	s2 := open()
	if got := s2.RestoredSessions(); got != 1 {
		t.Fatalf("restored %d sessions, want exactly the healthy one", got)
	}
	if rr := do(t, s2, "GET", "/v1/sessions/"+id, "", nil); rr.Code != 200 {
		t.Errorf("healthy session lost: %d", rr.Code)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-partial0000.json")); !os.IsNotExist(err) {
		t.Error("partial temp file not cleaned up")
	}
	logMu.Lock()
	joined := strings.Join(logs, "\n")
	logMu.Unlock()
	for _, want := range []string{"truncated00", "garbage0000", "partial0000", "mismatch000", "future00000"} {
		if !strings.Contains(joined, want) {
			t.Errorf("no warning logged about %s; logs:\n%s", want, joined)
		}
	}
}

// TestRestartDropsExpiredRecords: sessions that out-idled the TTL while the
// service was down are purged at startup, not resurrected.
func TestRestartDropsExpiredRecords(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(9000, 0)
	open := func() *Server {
		b, err := NewDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		b.Logf = t.Logf
		return New(Config{Backend: b, Logf: t.Logf, Now: func() time.Time { return now }, SessionTTL: time.Minute})
	}
	s1 := open()
	createSession(t, s1, "stale")

	now = now.Add(2 * time.Minute) // "downtime" beyond the TTL
	s2 := open()
	if got := s2.RestoredSessions(); got != 0 {
		t.Errorf("restored %d expired sessions, want 0", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("expired records left on disk: %d entries", len(entries))
	}
}

// TestRestoreCapKeepsMostRecent: when more records survive than MaxSessions
// admits, the most recently used sessions win — not the first IDs in sort
// order.
func TestRestoreCapKeepsMostRecent(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(9000, 0)
	open := func(max int) *Server {
		b, err := NewDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		return New(Config{Backend: b, Logf: t.Logf, Now: func() time.Time { return now }, MaxSessions: max})
	}
	s1 := open(10)
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, createSession(t, s1, fmt.Sprintf("s%d", i)))
		now = now.Add(time.Minute)
	}
	// Touch the oldest session last so recency order differs from creation
	// (and from ID) order: a plan refreshes the persisted lastUsed.
	if rr := do(t, s1, "POST", "/v1/sessions/"+ids[0]+"/plan", "", nil); rr.Code != 200 {
		t.Fatalf("plan: %d", rr.Code)
	}

	s2 := open(2)
	if got := s2.RestoredSessions(); got != 2 {
		t.Fatalf("restored %d, want 2", got)
	}
	for _, id := range []string{ids[0], ids[2]} { // most recently used pair
		if rr := do(t, s2, "GET", "/v1/sessions/"+id, "", nil); rr.Code != 200 {
			t.Errorf("recently-used session %s not restored: %d", id, rr.Code)
		}
	}
	if rr := do(t, s2, "GET", "/v1/sessions/"+ids[1], "", nil); rr.Code != http.StatusNotFound {
		t.Errorf("least-recently-used session restored past the cap: %d", rr.Code)
	}
}

// TestOversizedBodyIs413: an upload past the MaxBytesReader limit reports
// 413 with the limit in the message, not a generic 400.
func TestOversizedBodyIs413(t *testing.T) {
	s := newTestServer(t)
	huge := `{"pad":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`
	rr := do(t, s, "POST", "/v1/sessions", huge, nil)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), fmt.Sprint(maxBodyBytes)) {
		t.Errorf("413 body does not state the limit: %s", rr.Body.String())
	}
}

// TestUncacheableKeyUnique: the fallback cache suffix for unserializable
// pattern registries must never collide (the old pointer-based key could,
// when an allocation reused an address).
func TestUncacheableKeyUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		k := uncacheableKey()
		if !strings.HasPrefix(k, "uncacheable:") {
			t.Fatalf("unexpected shape: %q", k)
		}
		if seen[k] {
			t.Fatalf("nonce collided after %d draws: %q", i, k)
		}
		seen[k] = true
	}
}

// TestDiskBackendWriteThroughRace hammers the disk write-through path from
// concurrent sessions (create, plan, select, delete), keeping -race coverage
// over the persistence layer.
func TestDiskBackendWriteThroughRace(t *testing.T) {
	b, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.Logf = t.Logf
	s := New(Config{Backend: b, Logf: t.Logf})

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				id := createSession(t, s, fmt.Sprintf("w%d-%d", w, i))
				if rr := do(t, s, "POST", "/v1/sessions/"+id+"/plan", "", nil); rr.Code != 200 {
					t.Errorf("plan: %d %s", rr.Code, rr.Body.String())
					return
				}
				if rr := do(t, s, "POST", "/v1/sessions/"+id+"/select", `{"index":0}`, nil); rr.Code != 200 {
					t.Errorf("select: %d %s", rr.Code, rr.Body.String())
					return
				}
				if i%2 == 1 {
					do(t, s, "DELETE", "/v1/sessions/"+id, "", nil)
				}
			}
		}(w)
	}
	wg.Wait()

	// On-disk records and live sessions must agree when the dust settles.
	recs, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != s.Sessions() {
		t.Errorf("disk has %d records, store has %d sessions", len(recs), s.Sessions())
	}
}

// TestStatsReportBackend: /v1/stats names the backend and surfaces restore
// and persist-error counters.
func TestStatsReportBackend(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := New(Config{Backend: mk(t), Logf: t.Logf})
			var stats serverStatsJSON
			if rr := do(t, s, "GET", "/v1/stats", "", &stats); rr.Code != 200 {
				t.Fatalf("stats: %d", rr.Code)
			}
			if stats.Backend != name {
				t.Errorf("backend %q, want %q", stats.Backend, name)
			}
			if stats.PersistErrors != 0 || stats.SessionsRestored != 0 {
				t.Errorf("fresh server counters non-zero: %+v", stats)
			}
		})
	}
}
