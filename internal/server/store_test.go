package server

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poiesis/internal/core"
	"poiesis/internal/sim"
	"poiesis/internal/tpcds"
)

// bg saves the tests from threading a context through every store call.
var bg = context.Background()

func testState(id string) *sessionState {
	g := tpcds.PurchasesFlow()
	return &sessionState{
		id:   id,
		sess: core.NewSession(core.NewPlanner(nil, core.Options{}), g, sim.AutoBinding(g, 100, 1)),
	}
}

// testStore builds a store over a recordingBackend, so the tests can check
// what the store writes through.
func testStore(ttl time.Duration, max int, now func() time.Time) *sessionStore {
	return newSessionStore(ttl, max, now, newRecordingBackend(), nil, nil)
}

// recordingBackend is a record-keeping SessionBackend held in a map: the
// store's write-through, rollback and eviction deletes are visible to the
// tests without disk I/O.
type recordingBackend struct {
	mu sync.Mutex
	m  map[string]*SessionRecord
}

func newRecordingBackend() *recordingBackend {
	return &recordingBackend{m: map[string]*SessionRecord{}}
}

func (b *recordingBackend) Name() string { return "recording" }

func (b *recordingBackend) Put(rec *SessionRecord) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[rec.ID] = rec
	return nil
}

func (b *recordingBackend) Get(id string) (*SessionRecord, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if rec, ok := b.m[id]; ok {
		return rec, nil
	}
	return nil, ErrRecordNotFound
}

func (b *recordingBackend) Delete(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.m, id)
	return nil
}

// The store never lists: restoring records is the server's job.
func (b *recordingBackend) List() ([]*SessionRecord, error) { return nil, nil }

func TestStoreTTLEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	store := testStore(time.Minute, 10, clock)

	if err := store.add(bg, testState("a")); err != nil {
		t.Fatal(err)
	}
	if err := store.add(bg, testState("b")); err != nil {
		t.Fatal(err)
	}

	// Touch "a" halfway through the TTL; "b" stays idle.
	now = now.Add(40 * time.Second)
	if _, ok := store.get("a"); !ok {
		t.Fatal("a disappeared early")
	}

	// At +70s from creation, "b" (idle 70s) is evicted, "a" (idle 30s) lives.
	now = now.Add(30 * time.Second)
	if _, ok := store.get("b"); ok {
		t.Error("b not evicted after TTL")
	}
	if _, ok := store.get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if got := store.len(); got != 1 {
		t.Errorf("store size %d, want 1", got)
	}
	// Eviction reaches the backend too (asynchronously, via the worker): a
	// restart must not resurrect "b".
	waitBackendDeleted(t, store, "b")
	if _, err := store.backend.Get("a"); err != nil {
		t.Errorf("live session missing from backend: %v", err)
	}
}

// waitBackendDeleted blocks until the eviction worker has removed id's
// backend record — backend deletes for TTL evictions are asynchronous.
func waitBackendDeleted(t *testing.T, store *sessionStore, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := store.backend.Get(id); err != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("evicted session %s still recorded in backend", id)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStoreNoTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	store := testStore(0, 10, func() time.Time { return now })
	if err := store.add(bg, testState("a")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(1000 * time.Hour)
	if _, ok := store.get("a"); !ok {
		t.Error("TTL 0 must disable eviction")
	}
}

func TestStoreCapacity(t *testing.T) {
	now := time.Unix(1000, 0)
	store := testStore(time.Minute, 2, func() time.Time { return now })
	if err := store.add(bg, testState("a")); err != nil {
		t.Fatal(err)
	}
	if err := store.add(bg, testState("b")); err != nil {
		t.Fatal(err)
	}
	if err := store.add(bg, testState("c")); err == nil {
		t.Fatal("third session admitted past the cap")
	}
	// Capacity frees up when an idle session expires.
	now = now.Add(2 * time.Minute)
	if err := store.add(bg, testState("c")); err != nil {
		t.Errorf("add after expiry: %v", err)
	}
}

func TestStoreListOrder(t *testing.T) {
	now := time.Unix(1000, 0)
	store := testStore(time.Hour, 10, func() time.Time { return now })
	for _, id := range []string{"z", "m", "a"} {
		if err := store.add(bg, testState(id)); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Second)
	}
	got := store.list()
	if len(got) != 3 || got[0].id != "z" || got[1].id != "m" || got[2].id != "a" {
		t.Errorf("list order wrong: %v", ids(got))
	}
	if !store.remove(bg, "m") {
		t.Error("remove existing failed")
	}
	if store.remove(bg, "m") {
		t.Error("double remove succeeded")
	}
	if _, err := store.backend.Get("m"); err == nil {
		t.Error("removed session still recorded in backend")
	}
}

// TestStoreGetTouchNotRacedBySweep is the regression test for the liveness
// race fixed in get: the touch used to happen after the store lock was
// released, so a sweep running between the unlock and the touch could read
// the stale lastUsed and evict the very session get was about to hand out.
// With the touch inside the critical section the invariant is: whenever get
// returns ok, the session's lastUsed equals the get's observation time, so a
// sweep using any cutoff at or before that time cannot evict it.
func TestStoreGetTouchNotRacedBySweep(t *testing.T) {
	const ttl = time.Minute
	var nowNanos atomic.Int64
	base := time.Unix(1000, 0)
	nowNanos.Store(0)
	clock := func() time.Time { return base.Add(time.Duration(nowNanos.Load())) }
	store := testStore(ttl, 10, clock)

	for iter := 0; iter < 300; iter++ {
		st := testState("s")
		if err := store.add(bg, st); err != nil {
			t.Fatal(err)
		}
		// Make the session exactly TTL-stale, so the next sweep evicts it
		// unless a concurrent get refreshes it first.
		st.touch(clock().Add(-ttl - time.Nanosecond))

		var (
			wg    sync.WaitGroup
			getOK atomic.Bool
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, ok := store.get("s")
			getOK.Store(ok)
		}()
		go func() {
			defer wg.Done()
			store.len() // sweeps under the store lock
		}()
		wg.Wait()

		// Whatever the interleaving, the outcome must be coherent: a
		// successful get implies the session is (still) in the store, because
		// its touch was atomic with the membership check.
		if getOK.Load() {
			if _, ok := store.get("s"); !ok {
				t.Fatalf("iter %d: get returned a session the sweep evicted", iter)
			}
		}
		store.remove(bg, "s")
		// Advance the clock between rounds so records never collide in time.
		nowNanos.Add(int64(time.Second))
	}
}

// TestStoreExpiryExactBetweenSweeps pins the amortized-sweep semantics: even
// when the full map sweep is deferred, get never returns an expired session
// (the inline check evicts it), and once the interval elapses the deferred
// sweep reclaims expired sessions that were never looked up again.
func TestStoreExpiryExactBetweenSweeps(t *testing.T) {
	now := time.Unix(1000, 0)
	store := testStore(time.Minute, 0, func() time.Time { return now })
	store.sweepEvery = time.Hour // park the full sweep far in the future

	if err := store.add(bg, testState("a")); err != nil {
		t.Fatal(err)
	}
	if err := store.add(bg, testState("b")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute) // both sessions are now past the TTL

	// No full sweep can have run (interval not elapsed), yet the expired
	// session must be invisible: the inline check evicts exactly the target.
	if _, ok := store.get("b"); ok {
		t.Fatal("get returned an expired session between sweeps")
	}
	store.mu.Lock()
	_, aStillMapped := store.m["a"]
	store.mu.Unlock()
	if !aStillMapped {
		t.Fatal("amortization did not defer the full sweep ('a' reclaimed early)")
	}

	// Once the interval elapses, any get reclaims the leftovers.
	store.sweepEvery = time.Second
	if _, ok := store.get("nope"); ok {
		t.Fatal("unknown id returned")
	}
	store.mu.Lock()
	n := len(store.m)
	store.mu.Unlock()
	if n != 0 {
		t.Errorf("deferred sweep left %d expired sessions in the map", n)
	}
	waitBackendDeleted(t, store, "a")
	waitBackendDeleted(t, store, "b")
}

// TestStoreBusySessionSurvivesExpiry: a session whose opMu is held (a plan
// outliving the TTL) is never evicted — by the inline check or the sweep —
// matching the pre-amortization behavior.
func TestStoreBusySessionSurvivesExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	store := testStore(time.Minute, 0, func() time.Time { return now })
	st := testState("s")
	if err := store.add(bg, st); err != nil {
		t.Fatal(err)
	}
	st.opMu.Lock()
	now = now.Add(5 * time.Minute)
	if _, ok := store.get("s"); !ok {
		t.Fatal("mid-operation session evicted by get")
	}
	if got := store.len(); got != 1 {
		t.Fatalf("mid-operation session swept: len %d", got)
	}
	st.opMu.Unlock()
	// The get above refreshed liveness; expire it again, now unlocked.
	now = now.Add(5 * time.Minute)
	if _, ok := store.get("s"); ok {
		t.Fatal("idle expired session survived once unlocked")
	}
}

// gatedBackend blocks Delete until the gate channel yields, so tests can pin
// the eviction worker mid-delete and fill its queue deterministically.
type gatedBackend struct {
	SessionBackend
	gate chan struct{}
}

func (b *gatedBackend) Delete(id string) error {
	<-b.gate
	return b.SessionBackend.Delete(id)
}

// TestStoreEvictionWorkerBounded floods the eviction queue while the worker
// is pinned inside a backend delete: the request path must not block, excess
// IDs are dropped and counted, each overflowing call logs its drops as one
// line, and once the backend unblocks the worker drains the backlog.
func TestStoreEvictionWorkerBounded(t *testing.T) {
	const sessions = evictQueueCap + 80
	const late = 30 // expire after the queue is already full
	now := time.Unix(1000, 0)
	gated := &gatedBackend{SessionBackend: newRecordingBackend(), gate: make(chan struct{})}
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	store := newSessionStore(time.Minute, 0, func() time.Time { return now }, gated, logger, nil)
	defer store.close()
	fullLines := func() int { return strings.Count(logBuf.String(), "eviction queue full") }

	for i := 0; i < sessions; i++ {
		st := testState(fmt.Sprintf("s%04d", i))
		st.touch(now)
		store.adopt(st)
	}
	now = now.Add(2 * time.Minute)

	// len() full-sweeps: every session expires at once. The worker is stuck
	// on the gate, so at most evictQueueCap+1 IDs can be absorbed (queue plus
	// the one in the worker's hands); the rest must be dropped, not waited on.
	if got := store.len(); got != 0 {
		t.Fatalf("expired sessions still counted: %d", got)
	}
	dropped := store.evictDropped.Load()
	if dropped == 0 {
		t.Fatal("queue overflow not counted as drops")
	}
	if depth := store.evictDepth.Load(); depth > evictQueueCap+1 {
		t.Fatalf("eviction backlog %d exceeds the bound", depth)
	}
	if n := fullLines(); n != 1 {
		t.Fatalf("one overflowing len() logged %d \"eviction queue full\" lines, want 1:\n%s", n, logBuf.String())
	}
	if !strings.Contains(logBuf.String(), fmt.Sprintf("dropped=%d", dropped)) {
		t.Errorf("log line does not give the dropped count %d:\n%s", dropped, logBuf.String())
	}

	// A second overflowing call, with the queue still full, drops all of its
	// IDs and logs one more line.
	for i := 0; i < late; i++ {
		st := testState(fmt.Sprintf("late%02d", i))
		st.touch(now)
		store.adopt(st)
	}
	now = now.Add(2 * time.Minute)
	if got := store.len(); got != 0 {
		t.Fatalf("expired sessions still counted: %d", got)
	}
	if d := store.evictDropped.Load() - dropped; d != late {
		t.Fatalf("second sweep dropped %d IDs, want %d", d, late)
	}
	if n := fullLines(); n != 2 {
		t.Fatalf("two overflowing len() calls logged %d \"eviction queue full\" lines, want 2:\n%s", n, logBuf.String())
	}
	dropped += late

	close(gated.gate) // unblock every delete
	deadline := time.Now().Add(5 * time.Second)
	for store.evictDepth.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never drained: depth %d", store.evictDepth.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if done := store.evictsDone.Load(); done+dropped != sessions+late {
		t.Errorf("deletes %d + drops %d != %d evictions", done, dropped, sessions+late)
	}
}

func ids(states []*sessionState) []string {
	out := make([]string, len(states))
	for i, st := range states {
		out[i] = st.id
	}
	return out
}
