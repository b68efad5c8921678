package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"time"

	"poiesis"
)

// cmdServe runs the multi-session HTTP planning service: the explore-select
// loop of the paper's interactive tool exposed over a REST + SSE API, backed
// by a TTL-evicting session store and a fingerprint-keyed plan cache. With
// -store-dir (or the storeDir key of a -config document) sessions are
// snapshotted to disk and survive restarts. With -peers and -node-id (or the
// peers/nodeID keys) the process becomes one replica of a shard-aware
// cluster: sessions route to the replica their ID hashes to and the plan
// cache gains a shared tier. See the "Run as a service", "Persistence" and
// "Cluster mode" sections of the README for the endpoint walkthrough.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (HOST:PORT)")
	sessionTTL := fs.Duration("session-ttl", 30*time.Minute, "evict sessions idle longer than this (0 = never)")
	maxSessions := fs.Int("max-sessions", 1024, "cap on live sessions")
	cacheSize := fs.Int("cache", 128, "plan cache capacity (entries, secondary bound)")
	cacheMB := fs.Int("cache-mb", 64, "plan cache byte budget in MiB (entries weigh alternatives x dims)")
	storeDir := fs.String("store-dir", "", "persist sessions as crash-safe JSON snapshots under this directory (empty = in-memory only)")
	cfgPath := fs.String("config", "", "serve configuration document (JSON); explicit flags override it")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown budget for in-flight requests")
	nodeID := fs.String("node-id", "", "this replica's node ID within -peers (cluster mode)")
	peersSpec := fs.String("peers", "", "static cluster membership as id=url[,id=url...], including this replica; enables consistent-hash session sharding and the shared plan-cache tier")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU/heap profiles over HTTP; keep off on exposed listeners)")
	accessLog := fs.Bool("access-log", true, "log one line per served request (with its trace ID) to stderr")
	traceSample := fs.Int("trace-sample", 0, "trace one in N requests on /v1/traces (0 or 1 = every request, negative = tracing off; errors are always kept)")
	traceBuffer := fs.Int("trace-buffer", 0, "how many recent traces to retain for /v1/traces (0 = default 128)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	// A -config document supplies defaults for every flag the command line
	// did not set explicitly; explicit flags win.
	var docPeers map[string]string
	if *cfgPath != "" {
		doc, err := poiesis.LoadServeConfig(*cfgPath)
		if err != nil {
			return err
		}
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if doc.Addr != "" && !set["addr"] {
			*addr = doc.Addr
		}
		if doc.StoreDir != "" && !set["store-dir"] {
			*storeDir = doc.StoreDir
		}
		if doc.MaxSessions > 0 && !set["max-sessions"] {
			*maxSessions = doc.MaxSessions
		}
		if doc.CacheEntries > 0 && !set["cache"] {
			*cacheSize = doc.CacheEntries
		}
		if doc.CacheMB > 0 && !set["cache-mb"] {
			*cacheMB = doc.CacheMB
		}
		// Durations were validated by ParseServe; nil means "key absent".
		if d, _ := doc.SessionTTLDuration(); d != nil && !set["session-ttl"] {
			*sessionTTL = *d
		}
		if d, _ := doc.DrainDuration(); d != nil && !set["drain"] {
			*drain = *d
		}
		if doc.NodeID != "" && !set["node-id"] {
			*nodeID = doc.NodeID
		}
		if len(doc.Peers) > 0 && !set["peers"] {
			docPeers = doc.Peers
		}
	}

	// Cluster membership: the -peers flag wins over the document's peers
	// map; either way the node ID must name one of the members.
	var members []poiesis.ClusterMember
	if *peersSpec != "" {
		var err error
		if members, err = poiesis.ParseClusterPeers(*peersSpec); err != nil {
			return err
		}
	} else if len(docPeers) > 0 {
		ids := make([]string, 0, len(docPeers))
		for id := range docPeers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			members = append(members, poiesis.ClusterMember{ID: id, URL: docPeers[id]})
		}
	}
	if *nodeID != "" && len(members) == 0 {
		return fmt.Errorf("serve: -node-id %q given without -peers (or a peers key in -config)", *nodeID)
	}

	ttl := *sessionTTL
	if ttl == 0 {
		// The flag's 0 means "never expire"; the server config treats 0 as
		// unset (default 30m) and negative as disabled.
		ttl = -1
	}
	cfg := poiesis.ServerConfig{
		SessionTTL:    ttl,
		MaxSessions:   *maxSessions,
		CacheCapacity: *cacheSize,
		CacheMaxBytes: int64(*cacheMB) << 20,
		TraceSample:   *traceSample,
		TraceBuffer:   *traceBuffer,
	}
	persistence := "in-memory sessions"
	if *storeDir != "" {
		backend, err := poiesis.NewDiskSessionBackend(*storeDir)
		if err != nil {
			return err
		}
		cfg.Backend = backend
		persistence = "sessions persisted in " + *storeDir
	}
	clusterMode := "single node"
	if len(members) > 0 {
		cl, err := poiesis.NewCluster(*nodeID, members)
		if err != nil {
			return err
		}
		cfg.Cluster = cl
		clusterMode = fmt.Sprintf("cluster node %s of %d", *nodeID, len(members))
	}
	if *accessLog {
		cfg.AccessLogf = log.New(os.Stderr, "", log.LstdFlags).Printf
	}
	handler := poiesis.NewServer(cfg)
	var root http.Handler = handler
	if *pprofOn {
		// The profiler gets its own mux in front of the service so the
		// service's routing (and its /metrics instrumentation) stays exactly
		// as in production; /debug/pprof/ requests never reach the planner.
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		root = outer
	}
	httpSrv := &http.Server{
		Handler:           root,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Ctrl-C / SIGINT triggers a graceful drain: the listener closes, in-
	// flight plans get the drain budget to finish (their SSE clients keep
	// receiving progress), then the process exits. A second interrupt
	// force-quits via withInterrupt's handler reset.
	return withInterrupt(func(ctx context.Context) error {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "poiesis serve: listening on http://%s (session TTL %s, cache %d entries / %d MiB, %s, %s",
			ln.Addr(), *sessionTTL, *cacheSize, *cacheMB, persistence, clusterMode)
		if n := handler.RestoredSessions(); n > 0 {
			fmt.Fprintf(os.Stderr, ", %d restored", n)
		}
		fmt.Fprintln(os.Stderr, ")")

		errCh := make(chan error, 1)
		go func() { errCh <- httpSrv.Serve(ln) }()
		select {
		case err := <-errCh:
			return err
		case <-ctx.Done():
			shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
			defer cancel()
			if err := httpSrv.Shutdown(shutCtx); err != nil {
				return fmt.Errorf("serve: shutdown: %w", err)
			}
			// With no more requests in flight, drain the store's background
			// eviction worker.
			if err := handler.Close(); err != nil {
				return fmt.Errorf("serve: closing session store: %w", err)
			}
			fmt.Fprintln(os.Stderr, "poiesis serve: drained, shut down")
			return nil
		}
	})
}
