package obs

import (
	"encoding/binary"
	"encoding/hex"
)

// TraceParentHeader is the W3C Trace Context header carrying the trace ID,
// parent span ID, and sampling decision across process boundaries. The
// server stamps it on inbound requests before forwarding so a plan that
// hops to its ring owner renders as one tree, and the intra-cluster cache
// client sets it explicitly on /v1/cache calls.
const TraceParentHeader = "traceparent"

// TraceIDHeader echoes the trace ID of the request's root span on every
// response, so clients (and the load harness) can tie an observed latency
// back to a server-side span tree without parsing traceparent.
const TraceIDHeader = "X-Poiesis-Trace-ID"

// TraceID identifies one end-to-end trace (16 bytes, rendered as 32 hex).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, rendered as 16 hex).
type SpanID [8]byte

// IsZero reports whether the ID is all zeros (invalid per W3C trace
// context).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is all zeros.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// FormatTraceParent renders a version-00 traceparent header value:
// 00-<32 hex trace id>-<16 hex span id>-<2 hex flags>, flags bit 0 being
// the sampled bit.
func FormatTraceParent(tid TraceID, sid SpanID, sampled bool) string {
	b := make([]byte, 0, 55)
	b = append(b, '0', '0', '-')
	b = hex.AppendEncode(b, tid[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, sid[:])
	if sampled {
		b = append(b, '-', '0', '1')
	} else {
		b = append(b, '-', '0', '0')
	}
	return string(b)
}

// ParseTraceParent parses a traceparent header value. It accepts any
// version except ff (per the W3C spec, unknown versions parse as version
// 00 if the shape matches), requires lowercase hex in every field, and
// rejects all-zero trace or span IDs.
func ParseTraceParent(s string) (tid TraceID, sid SpanID, sampled bool, ok bool) {
	if len(s) < 55 {
		return tid, sid, false, false
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return tid, sid, false, false
	}
	var version, flags [1]byte
	if !decodeLowerHex(version[:], s[0:2]) || version[0] == 0xff {
		return tid, sid, false, false
	}
	if len(s) > 55 && (version[0] == 0 || s[55] != '-') {
		return tid, sid, false, false
	}
	if !decodeLowerHex(tid[:], s[3:35]) || !decodeLowerHex(sid[:], s[36:52]) || !decodeLowerHex(flags[:], s[53:55]) {
		return tid, sid, false, false
	}
	if tid.IsZero() || sid.IsZero() {
		return tid, sid, false, false
	}
	return tid, sid, flags[0]&1 != 0, true
}

// ValidTraceID reports whether s is a well-formed 32-hex-char trace ID,
// safe to use in URLs and log lines.
func ValidTraceID(s string) bool {
	var t TraceID
	return len(s) == 32 && decodeLowerHex(t[:], s) && !t.IsZero()
}

// decodeLowerHex decodes s into dst, accepting lowercase hex digits only:
// W3C Trace Context forbids uppercase, and an ID the server adopts must
// render back exactly as the caller sent it.
func decodeLowerHex(dst []byte, s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	_, err := hex.Decode(dst, []byte(s))
	return err == nil
}

// splitmix64 is the SplitMix64 output function: a cheap, well-mixed
// bijection used to derive span/trace IDs from an atomic counter seeded
// once from crypto/rand, avoiding a rand syscall per span.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func traceIDFrom(a, b uint64) TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], a)
	binary.BigEndian.PutUint64(t[8:], b)
	if t.IsZero() {
		t[15] = 1
	}
	return t
}

func spanIDFrom(a uint64) SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], a)
	if s.IsZero() {
		s[7] = 1
	}
	return s
}
