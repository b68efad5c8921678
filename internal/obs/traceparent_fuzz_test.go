package obs

import "testing"

// FuzzParseTraceParent checks the traceparent decoder on arbitrary header
// values: it never panics, an accepted value has non-zero IDs, and the IDs
// it accepts render back byte for byte, so the trace ID a caller chooses is
// the one echoed and logged.
func FuzzParseTraceParent(f *testing.F) {
	tid := traceIDFrom(0x0123456789abcdef, 0xfedcba9876543210)
	sid := spanIDFrom(0x1122334455667788)
	for _, s := range []string{
		FormatTraceParent(tid, sid, true),
		FormatTraceParent(tid, sid, false),
		"01-0123456789abcdef0123456789abcdef-1122334455667788-01-future",
		"",
		"00-short",
		"00-00000000000000000000000000000000-1122334455667788-01",
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",
		"ff-0123456789abcdef0123456789abcdef-1122334455667788-01",
		"00-0123456789abcdef0123456789abcdeZ-1122334455667788-01",
		"00_0123456789abcdef0123456789abcdef-1122334455667788-01",
		"00-0123456789abcdef0123456789abcdef-1122334455667788-01extra",
		"zz-0123456789abcdef0123456789abcdef-1122334455667788-01",
		"00-0123456789ABCDEF0123456789abcdef-1122334455667788-01",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tid, sid, sampled, ok := ParseTraceParent(s)
		if !ok {
			return
		}
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("ParseTraceParent(%q) accepted a zero ID", s)
		}
		if got := FormatTraceParent(tid, sid, sampled); got[3:52] != s[3:52] {
			t.Fatalf("ParseTraceParent(%q) renders back as %q", s, got)
		}
	})
}
