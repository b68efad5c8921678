package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/tpcds"
)

// FuzzRestoreResult feeds arbitrary documents to RestoreResult, the decoder
// of stored session results and of the peer plan cache's wire format. A
// document either errors, or it restores to a result that serves: Vector and
// Score work on every alternative, and SnapshotResult → RestoreResult gives
// back the same snapshot. It must never panic.
//
//	go test -run '^$' -fuzz '^FuzzRestoreResult$' -fuzztime 10s ./internal/core
func FuzzRestoreResult(f *testing.F) {
	g := tpcds.PurchasesFlow()
	opts := Options{Palette: []string{fcp.NameAddCheckpoint}, Policy: policy.Greedy{TopK: 1}, Depth: 1, Sim: deltaMatrixSim()}
	res, err := NewPlanner(nil, opts).Plan(g, tpcds.Binding(g, 50, 1))
	if err != nil {
		f.Fatal(err)
	}
	snap, err := SnapshotResult(res)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// The same document with each alternative's report nulled, and with an
	// unknown point kind.
	noReport := *snap
	noReport.Initial.Report = nil
	noAltReport := *snap
	noAltReport.Alternatives = append([]AlternativeSnapshot(nil), snap.Alternatives...)
	noAltReport.Alternatives[0].Report = nil
	badKind := *snap
	badKind.Alternatives = append([]AlternativeSnapshot(nil), snap.Alternatives...)
	badKind.Alternatives[0].Applications = []ApplicationSnapshot{{Pattern: "X", Kind: "nowhere"}}
	for _, rs := range []ResultSnapshot{noReport, noAltReport, badKind} {
		b, err := json.Marshal(rs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		``, `null`, `{}`, `not json`,
		`{"initial":{"flow":null}}`,
		`{"initial":{"flow":{"name":"x"},"report":{}},"skylineIdx":[0]}`,
		`{"initial":{"flow":{"name":"x"},"report":null},"alternatives":[{"flow":{"name":"y"}}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkRestoreResult)
}

// checkRestoreResult is FuzzRestoreResult's oracle for one document.
func checkRestoreResult(t *testing.T, b []byte) {
	var rs ResultSnapshot
	if json.Unmarshal(b, &rs) != nil {
		return
	}
	res, err := RestoreResult(&rs)
	if err != nil {
		return
	}
	for _, a := range append([]Alternative{res.Initial}, res.Alternatives...) {
		a.Report.Vector(res.Dims)
		a.Report.Score(measures.Performance)
	}
	first, err := SnapshotResult(res)
	if err != nil {
		t.Fatalf("restored result does not snapshot: %v", err)
	}
	again, err := RestoreResult(first)
	if err != nil {
		t.Fatalf("snapshot of a restored result does not restore: %v", err)
	}
	second, err := SnapshotResult(again)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := json.Marshal(first)
	y, _ := json.Marshal(second)
	if !bytes.Equal(x, y) {
		t.Fatalf("round trip changed the result:\n%s\n%s", x, y)
	}
}

// FuzzRestoreSession feeds arbitrary documents to RestoreSession, the
// decoder of the disk backend's session records and of sessions shipped
// between replicas. A document either errors, or it restores to a session
// whose current flow and result flows etl.Lint finds nothing wrong with, and
// whose snapshot restores to the same snapshot. It must never panic.
//
//	go test -run '^$' -fuzz '^FuzzRestoreSession$' -fuzztime 10s ./internal/core
func FuzzRestoreSession(f *testing.F) {
	g := tpcds.PurchasesFlow()
	opts := Options{Palette: []string{fcp.NameAddCheckpoint}, Policy: policy.Greedy{TopK: 1}, Depth: 1, Sim: deltaMatrixSim()}
	planner := NewPlanner(nil, opts)
	s := NewSession(planner, g, tpcds.Binding(g, 50, 1))
	for _, step := range []func() error{
		func() error { return nil },
		func() error { _, err := s.Explore(); return err },
		func() error { _, err := s.Select(0); return err },
	} {
		if err := step(); err != nil {
			f.Fatal(err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		``, `null`, `{}`, `not json`,
		`{"version":1}`,
		`{"version":1,"flow":null}`,
		`{"version":1,"flow":{"name":"x"}}`,
		`{"version":99,"flow":{"name":"x"}}`,
		`{"version":1,"flow":{"name":"x","nodes":[{"id":"a","kind":"extract"},{"id":"b","kind":"load"}],"edges":[{"from":"a","to":"b"}]},"binding":[{"node":"a","rows":-1}],"last":{}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var snap SessionSnapshot
		if json.Unmarshal(b, &snap) != nil {
			return
		}
		s, err := RestoreSession(planner, &snap)
		if err != nil {
			return
		}
		flows := []*etl.Graph{s.Current()}
		if res := s.LastResult(); res != nil {
			for _, a := range append([]Alternative{res.Initial}, res.Alternatives...) {
				flows = append(flows, a.Graph)
			}
		}
		for _, g := range flows {
			if ds := etl.Lint(g, nil); len(ds) > 0 {
				t.Fatalf("restored flow %s fails Lint: %v", g.Name, ds)
			}
		}
		first, err := s.Snapshot()
		if err != nil {
			t.Fatalf("restored session does not snapshot: %v", err)
		}
		again, err := RestoreSession(planner, first)
		if err != nil {
			t.Fatalf("snapshot of a restored session does not restore: %v", err)
		}
		second, err := again.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		x, _ := json.Marshal(first)
		y, _ := json.Marshal(second)
		if !bytes.Equal(x, y) {
			t.Fatalf("round trip changed the session:\n%s\n%s", x, y)
		}
	})
}
