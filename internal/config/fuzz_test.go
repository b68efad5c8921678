package config

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzParse feeds arbitrary documents to Parse, the decoder of the planning
// configuration that session-create requests carry. A document either fails
// to parse, or it materialises without panicking: its options, goals and
// registry build or return an error, a palette the registry knows resolves,
// and the document re-encodes to a fixed point.
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/config
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		fullDoc, ``, `{}`, `null`, `not json`, `[1]`,
		`{"policy": "greedy", "topK": 2}`,
		`{"policy": "exhaustive"}`,
		`{"policy": "random_sample", "sampleN": 4, "seed": 3}`,
		`{"policy": "magic"}`,
		`{"goals": {"speed": 1}}`,
		`{"dims": ["speed"]}`,
		`{"constraints": [{"characteristic": "performance"}]}`,
		`{"customPatterns": [{"name": "x", "kind": "edge", "improves": "performance", "opKind": "teleport"}]}`,
		`{"customPatterns": [{"name": "x", "kind": "volume", "improves": "performance"}]}`,
		`{"customPatterns": [{"name": "AddCheckpoint", "kind": "graph", "improves": "performance"}]}`,
		`{"depth": -1, "maxAlternatives": -5, "sim": {"runs": -2, "pipelineOverlap": 1e308}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := Parse(b)
		if err != nil {
			return
		}
		_, _ = d.GoalSet()
		opts, oerr := d.Options()
		reg, rerr := d.Registry()
		if oerr == nil && rerr == nil {
			_, _ = reg.Palette(opts.Palette...)
			for _, c := range opts.Constraints {
				_ = c.Name()
			}
		}
		once, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("parsed document does not encode: %v", err)
		}
		again, err := Parse(once)
		if err != nil {
			t.Fatalf("re-encoded document does not parse: %v\n%s", err, once)
		}
		twice, _ := json.Marshal(again)
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", once, twice)
		}
	})
}

// FuzzParseServe feeds arbitrary documents to ParseServe. A document either
// fails to parse, or every setting it validates at startup holds: the
// durations parse and are not negative, and every peer is an http(s) URL
// with a host under a non-empty node ID. It must never panic.
//
//	go test -run '^$' -fuzz '^FuzzParseServe$' -fuzztime 10s ./internal/config
func FuzzParseServe(f *testing.F) {
	for _, s := range []string{
		`{"addr": "0.0.0.0:9090", "storeDir": "/var/lib/poiesis/sessions", "sessionTTL": "45m", "maxSessions": 9,
		  "cacheEntries": 32, "cacheMB": 16, "drain": "5s", "nodeID": "a",
		  "peers": {"a": "http://10.0.0.1:9090", "b": "http://10.0.0.2:9090"}}`,
		``, `{}`, `null`, `[1,2,3]`, `{}garbage`,
		`{"storeDirs": "typo"}`,
		`{"sessionTTL": "45 minutes"}`,
		`{"drain": "-3s"}`,
		`{"sessionTTL": "0"}`,
		`{"peers": {"": "http://x"}}`,
		`{"peers": {"a": "ftp://x"}}`,
		`{"peers": {"a": "http://"}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := ParseServe(b)
		if err != nil {
			return
		}
		for _, get := range []func() (*time.Duration, error){d.SessionTTLDuration, d.DrainDuration} {
			dur, err := get()
			if err != nil {
				t.Fatalf("accepted document has a bad duration: %v", err)
			}
			if dur != nil && *dur < 0 {
				t.Fatalf("accepted document has a negative duration %v", *dur)
			}
		}
		for id, peer := range d.Peers {
			if id == "" || peer == "" {
				t.Fatalf("accepted document has an empty peer entry %q: %q", id, peer)
			}
		}
	})
}
