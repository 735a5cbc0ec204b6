package obs

// W3C trace-context support: the request-scoped identity that stitches
// csload -> csserve (and, later, csserve -> csserve shard hops) into
// one distributed trace. A TraceContext travels between processes as a
// `traceparent` HTTP header and inside a process as a context.Context
// value (see reqtrace.go), so every hop of the serving path — queue
// wait, cache lookup, coalesce wait, Monte-Carlo compute — can be
// attributed to the request that paid for it.

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// TraceContext is the parsed form of a W3C traceparent header: a
// 16-byte trace ID shared by every span of a distributed trace, the
// 8-byte ID of one span within it, and the sampled flag. The zero
// TraceContext is invalid.
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Sampled bool
}

// Valid reports whether both IDs are nonzero, the W3C validity rule.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != [8]byte{}
}

// TraceIDString returns the 32-char lowercase hex trace ID.
func (tc TraceContext) TraceIDString() string {
	return hex.EncodeToString(tc.TraceID[:])
}

// SpanIDString returns the 16-char lowercase hex span ID.
func (tc TraceContext) SpanIDString() string {
	return hex.EncodeToString(tc.SpanID[:])
}

// Traceparent renders the version-00 header value:
// 00-<trace-id>-<span-id>-<flags>.
func (tc TraceContext) Traceparent() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceIDString() + "-" + tc.SpanIDString() + "-" + flags
}

// TraceparentHeader is the W3C header name carrying a TraceContext
// between processes (header names are case-insensitive; the spec
// spells it lowercase).
const TraceparentHeader = "traceparent"

// TraceIDHeader is the response header a traced server stamps with the
// request's trace ID, so any client can look the request up at
// /debug/traces without parsing traceparent.
const TraceIDHeader = "X-Trace-Id"

// ParseTraceparent parses a traceparent header value. Per the W3C
// recommendation a malformed value is an error and the caller should
// restart the trace: version ff is forbidden, IDs must be lowercase
// hex and nonzero, and versions above 00 may carry extra fields after
// the flags (accepted and ignored).
func ParseTraceparent(s string) (TraceContext, error) {
	var tc TraceContext
	// version-format: 2 hex "-" 32 hex "-" 16 hex "-" 2 hex [ "-" ... ]
	if len(s) < 55 {
		return tc, fmt.Errorf("obs: traceparent too short (%d bytes)", len(s))
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return tc, fmt.Errorf("obs: traceparent missing separators")
	}
	version, err := hexByte(s[0:2])
	if err != nil {
		return tc, fmt.Errorf("obs: traceparent version: %w", err)
	}
	if version == 0xff {
		return tc, fmt.Errorf("obs: traceparent version ff is forbidden")
	}
	if len(s) > 55 {
		if version == 0 {
			return tc, fmt.Errorf("obs: version-00 traceparent has trailing bytes")
		}
		if s[55] != '-' {
			return tc, fmt.Errorf("obs: traceparent trailing bytes without separator")
		}
	}
	if err := hexLower(s[3:35], tc.TraceID[:]); err != nil {
		return tc, fmt.Errorf("obs: traceparent trace-id: %w", err)
	}
	if err := hexLower(s[36:52], tc.SpanID[:]); err != nil {
		return tc, fmt.Errorf("obs: traceparent parent-id: %w", err)
	}
	flags, err := hexByte(s[53:55])
	if err != nil {
		return tc, fmt.Errorf("obs: traceparent flags: %w", err)
	}
	if !tc.Valid() {
		return TraceContext{}, fmt.Errorf("obs: traceparent with all-zero id")
	}
	tc.Sampled = flags&0x01 != 0
	return tc, nil
}

// hexLower decodes exactly len(dst)*2 lowercase hex digits. The spec
// requires lowercase; uppercase input is rejected so equality of the
// re-rendered header is byte-exact.
func hexLower(s string, dst []byte) error {
	if len(s) != 2*len(dst) {
		return fmt.Errorf("want %d hex digits, got %d", 2*len(dst), len(s))
	}
	for i := 0; i < len(dst); i++ {
		hi, ok1 := hexNibble(s[2*i])
		lo, ok2 := hexNibble(s[2*i+1])
		if !ok1 || !ok2 {
			return fmt.Errorf("invalid lowercase hex %q", s)
		}
		dst[i] = hi<<4 | lo
	}
	return nil
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

func hexByte(s string) (byte, error) {
	var b [1]byte
	if err := hexLower(s, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// ID generation: a process-unique splitmix64 stream seeded once from
// crypto/rand. Trace IDs need uniqueness, not unpredictability, and
// splitmix64 over a random seed gives collision-free IDs within a
// process and a 2^-64-per-pair chance across processes — without
// putting math/rand anywhere near the seeded simulator packages.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		// crypto/rand failing is effectively fatal elsewhere; a fixed
		// seed still yields process-unique IDs, just predictable ones.
		idState.Store(0x9e3779b97f4a7c15)
	}
}

// nextID64 returns the next nonzero 64-bit ID.
func nextID64() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// NewTraceContext returns a fresh sampled root context with random
// trace and span IDs.
func NewTraceContext() TraceContext {
	var tc TraceContext
	binary.BigEndian.PutUint64(tc.TraceID[0:8], nextID64())
	binary.BigEndian.PutUint64(tc.TraceID[8:16], nextID64())
	binary.BigEndian.PutUint64(tc.SpanID[:], nextID64())
	tc.Sampled = true
	return tc
}

// NewChild returns a context for a child span: same trace ID and
// sampled flag, fresh span ID.
func (tc TraceContext) NewChild() TraceContext {
	child := tc
	binary.BigEndian.PutUint64(child.SpanID[:], nextID64())
	return child
}
