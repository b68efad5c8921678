package lint

import (
	"sort"
	"strings"
	"testing"
)

// fixtureDirs lists every golden fixture package: for each analyzer a "bad"
// package seeded with violations and an "ok" clean twin, plus the
// suppression-machinery fixture. testdata is invisible to ./... so these
// packages never reach the repo build; they are loaded here (and by the CI
// self-test) as explicit directory arguments.
var fixtureDirs = []string{
	"./testdata/src/atomictypes/bad/pkg",
	"./testdata/src/atomictypes/ok/pkg",
	"./testdata/src/ctxpropagate/bad/internal/server",
	"./testdata/src/ctxpropagate/ok/internal/server",
	"./testdata/src/deferunlock/bad/pkg",
	"./testdata/src/deferunlock/ok/pkg",
	"./testdata/src/nodeterminism/bad/internal/etl",
	"./testdata/src/nodeterminism/ok/internal/etl",
	"./testdata/src/nofmtkernel/bad/internal/sim",
	"./testdata/src/nofmtkernel/ok/internal/sim",
	"./testdata/src/nolockio/bad/pkg",
	"./testdata/src/nolockio/ok/pkg",
	"./testdata/src/spanend/bad/pkg",
	"./testdata/src/spanend/ok/pkg",
	"./testdata/src/suppress/pkg",
}

// TestAnalyzersOnFixtures runs the full suite over the golden fixtures and
// compares the complete diagnostic set — exact files, exact lines. The ok
// packages are in the load precisely so that any spurious finding there
// shows up as an unexpected entry.
func TestAnalyzersOnFixtures(t *testing.T) {
	pkgs, err := Load(".", fixtureDirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("fixture %s has type errors: %v", p.ImportPath, p.TypeErrors)
		}
	}

	got := []string{}
	for _, d := range Run(pkgs, All()) {
		file, line := posFileLine(d.Pos)
		// Strip the absolute prefix down to the fixture-relative path so the
		// expectations are stable across checkouts.
		if i := strings.Index(file, "testdata/src/"); i >= 0 {
			file = file[i+len("testdata/src/"):]
		}
		got = append(got, file+":"+itoa(line)+" "+d.Check)
	}
	want := []string{
		"atomictypes/bad/pkg/bad.go:11 atomictypes",
		"atomictypes/bad/pkg/bad.go:12 atomictypes",
		"ctxpropagate/bad/internal/server/bad.go:12 ctxpropagate",
		"ctxpropagate/bad/internal/server/bad.go:14 ctxpropagate",
		"deferunlock/bad/pkg/bad.go:15 deferunlock",
		"nodeterminism/bad/internal/etl/bad.go:15 nodeterminism",
		"nodeterminism/bad/internal/etl/bad.go:20 nodeterminism",
		"nodeterminism/bad/internal/etl/bad.go:25 nodeterminism",
		"nodeterminism/bad/internal/etl/bad.go:31 nodeterminism",
		"nofmtkernel/bad/internal/sim/bad.go:14 nofmtkernel",
		"nofmtkernel/bad/internal/sim/bad.go:19 nofmtkernel",
		"nofmtkernel/bad/internal/sim/bad.go:24 nofmtkernel",
		"nolockio/bad/pkg/bad.go:20 nolockio",
		"nolockio/bad/pkg/bad.go:33 nolockio",
		"nolockio/bad/pkg/bad.go:52 nolockio",
		"spanend/bad/pkg/bad.go:13 spanend",
		"spanend/bad/pkg/bad.go:25 spanend",
		"spanend/bad/pkg/bad.go:31 spanend",
		"spanend/bad/pkg/bad.go:36 spanend",
		"suppress/pkg/suppress.go:18 lintdirective",
		"suppress/pkg/suppress.go:19 atomictypes",
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("diagnostic count: got %d want %d\ngot:\n  %s",
			len(got), len(want), strings.Join(got, "\n  "))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestRepoLintClean is the in-tree version of the CI gate: the repository's
// own packages must produce zero diagnostics. Every deliberate exception is
// expected to carry a //lint:ignore annotation with a reason.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repo")
	}
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s has type errors: %v", p.ImportPath, p.TypeErrors)
		}
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("repo not lint-clean: %s", d.String())
	}
}

func TestPathHasSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"poiesis/internal/sim", "internal/sim", true},
		{"internal/sim", "internal/sim", true},
		{"poiesis/internal/lint/testdata/src/x/internal/sim", "internal/sim", true},
		{"poiesis/internal/simulator", "internal/sim", false},
		{"poiesis/xinternal/sim", "internal/sim", false},
		{"poiesis/internal/sim/sub", "internal/sim", false},
	}
	for _, c := range cases {
		if got := pathHasSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("pathHasSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}

func TestHasPointerVerb(t *testing.T) {
	cases := []struct {
		s    string
		want bool
	}{
		{"%p", true},
		{"node-%p", true},
		{"%+p", true},
		{"%-8p", true},
		{"%%p", false},
		{"%d and %s", false},
		{"100%% pure", false},
		{"", false},
	}
	for _, c := range cases {
		if got := hasPointerVerb(c.s); got != c.want {
			t.Errorf("hasPointerVerb(%q) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestPosFileLine(t *testing.T) {
	file, line := posFileLine("/a/b/c.go:42:7")
	if file != "/a/b/c.go" || line != 42 {
		t.Errorf("posFileLine = %q, %d", file, line)
	}
	// Windows-style drive letters keep their colon.
	file, line = posFileLine("C:/a/c.go:9:1")
	if file != "C:/a/c.go" || line != 9 {
		t.Errorf("posFileLine drive = %q, %d", file, line)
	}
}
