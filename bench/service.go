package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"poiesis"
	"poiesis/internal/server"
)

// service is the system under test: one or more replicas, each mounted in
// this process on its own loopback listener.
type service struct {
	urls    []string
	ids     []string // cluster node IDs, by replica
	servers []*poiesis.PlanServer
	https   []*httptest.Server
	// cluster is replica 0's runtime, used to look up session owners.
	cluster *poiesis.Cluster
}

func (s *service) close() {
	for _, h := range s.https {
		h.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
}

func discardLogf(string, ...any) {}

// startService builds the service — backends, cluster wiring, servers,
// listeners — and waits until every replica answers /v1/readyz, returning
// how long that took. A non-nil store wraps each replica's backend in the
// timing decorator; traced turns on span collection for every request.
func startService(ctx context.Context, spec serveSpec, dir string, traced bool, store *storeLog) (*service, time.Duration, error) {
	t0 := time.Now()
	svc := &service{}
	for i := 0; i < spec.replicas; i++ {
		h := httptest.NewUnstartedServer(nil)
		svc.https = append(svc.https, h)
		svc.urls = append(svc.urls, "http://"+h.Listener.Addr().String())
		svc.ids = append(svc.ids, fmt.Sprintf("r%d", i))
	}
	var members []poiesis.ClusterMember
	if spec.replicas > 1 {
		for i := range svc.ids {
			members = append(members, poiesis.ClusterMember{ID: svc.ids[i], URL: svc.urls[i]})
		}
	}
	for i, h := range svc.https {
		cfg := poiesis.ServerConfig{TraceSample: -1, Logf: discardLogf}
		if traced {
			// Keep every trace of the window until it is fetched.
			cfg.TraceSample, cfg.TraceBuffer = 1, 8192
		}
		cfg.Backend = poiesis.NewMemorySessionBackend()
		if spec.disk {
			db, err := poiesis.NewDiskSessionBackend(dir)
			if err != nil {
				svc.close()
				return nil, 0, err
			}
			db.Logf = discardLogf
			cfg.Backend = db
		}
		if store != nil {
			cfg.Backend = timedBackend{SessionBackend: cfg.Backend, log: store}
		}
		if members != nil {
			c, err := poiesis.NewCluster(svc.ids[i], members)
			if err != nil {
				svc.close()
				return nil, 0, err
			}
			cfg.Cluster = c
			if i == 0 {
				svc.cluster = c
			}
		}
		srv := poiesis.NewServer(cfg)
		svc.servers = append(svc.servers, srv)
		h.Config.Handler = srv
		h.Start()
	}
	for _, u := range svc.urls {
		if err := waitReady(ctx, u); err != nil {
			svc.close()
			return nil, 0, err
		}
	}
	return svc, time.Since(t0), nil
}

// waitReady polls a replica's readiness probe until it answers 200.
func waitReady(ctx context.Context, url string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if !sleepUntil(ctx, time.Now().Add(time.Millisecond)) {
			return fmt.Errorf("waiting for %s to be ready: %w", url, ctx.Err())
		}
	}
}

// setupReps is how often a run constructs its service; setup_s is the
// median, and the last instance serves the window.
func setupReps(spec serveSpec) int {
	if spec.disk {
		return 3 // each restores every persisted session
	}
	return 25
}

// setupService starts the service reps times, each from a freshly
// collected heap, keeping the last instance, and returns the set-up times
// in seconds.
func setupService(ctx context.Context, spec serveSpec, dir string, reps int, traced bool, store *storeLog) (*service, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		svc, d, err := startService(ctx, spec, dir, traced, store)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		if i == reps-1 {
			return svc, times, nil
		}
		svc.close()
	}
}

// seedDisk writes the persisted sessions that serve-shared restores at
// start-up: 50 per shared key, each holding the key's planned session, so
// a restore decodes and rebuilds real results.
func seedDisk(dir string, seed uint64) error {
	doc, err := poiesis.ParseConfig([]byte(sharedDoc))
	if err != nil {
		return err
	}
	db, err := poiesis.NewDiskSessionBackend(dir)
	if err != nil {
		return err
	}
	db.Logf = discardLogf
	rng := rand.New(rand.NewPCG(seed, mix(seed, "sessions", 0)))
	now := time.Now()
	keys := sharedKeys()
	for _, k := range keys {
		p, err := poiesis.PlannerFromConfig(doc)
		if err != nil {
			return err
		}
		g, _ := poiesis.BuiltinFlow(k.flow)
		sess := poiesis.NewSession(p, g, poiesis.AutoBinding(g, sharedScale, k.seed))
		if _, err := sess.Explore(); err != nil {
			return fmt.Errorf("planning %s seed %d: %w", k.flow, k.seed, err)
		}
		snap, err := sess.Snapshot()
		if err != nil {
			return err
		}
		for j := 0; j < persistedSessions/len(keys); j++ {
			rec := &poiesis.SessionRecord{
				Version:  server.SessionRecordVersion,
				ID:       fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64()),
				Created:  now,
				LastUsed: now,
				Plans:    1,
				Config:   doc,
				Session:  snap,
			}
			if err := db.Put(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// storeLog collects the timing decorator's backend calls.
type storeLog struct {
	mu    sync.Mutex
	calls []storeCall
}

func (l *storeLog) note(op, sid string, start time.Time) {
	d := time.Since(start)
	l.mu.Lock()
	l.calls = append(l.calls, storeCall{op: op, sid: sid, start: start, dur: d})
	l.mu.Unlock()
}

// storeCall is one timed backend call.
type storeCall struct {
	op    string // put, get, delete, list
	sid   string
	start time.Time
	dur   time.Duration
}

// timedBackend is the session-backend decorator of the traced run: it times
// every call and files it under the session it served.
type timedBackend struct {
	poiesis.SessionBackend
	log *storeLog
}

func (b timedBackend) Put(rec *poiesis.SessionRecord) error {
	t := time.Now()
	err := b.SessionBackend.Put(rec)
	b.log.note("put", rec.ID, t)
	return err
}

func (b timedBackend) Get(id string) (*poiesis.SessionRecord, error) {
	t := time.Now()
	rec, err := b.SessionBackend.Get(id)
	b.log.note("get", id, t)
	return rec, err
}

func (b timedBackend) Delete(id string) error {
	t := time.Now()
	err := b.SessionBackend.Delete(id)
	b.log.note("delete", id, t)
	return err
}

func (b timedBackend) List() ([]*poiesis.SessionRecord, error) {
	t := time.Now()
	recs, err := b.SessionBackend.List()
	b.log.note("list", "", t)
	return recs, err
}
