package tracing

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewContext()
	tp := sc.Traceparent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") {
		t.Fatalf("bad traceparent form: %q", tp)
	}
	got, err := ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", tp, err)
	}
	if got != sc {
		t.Fatalf("round trip mismatch: sent %+v got %+v", sc, got)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",                   // unknown version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",                   // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",                   // zero span id
		"00-0af7651916cd43dd8448eb211c80319cZZ-b7ad6b7169203331-01",                 // wrong length
		"00-zaf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",                   // non-hex
		"00+0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",                   // wrong separator
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz",                   // bad flags
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extradatahereoops", // trailing junk
	}
	for _, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
}

func TestParseTraceparentAccepted(t *testing.T) {
	sc, err := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if err != nil {
		t.Fatal(err)
	}
	if sc.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace id = %s", sc.TraceID)
	}
	if sc.SpanID.String() != "b7ad6b7169203331" {
		t.Fatalf("span id = %s", sc.SpanID)
	}
	if sc.Flags != FlagSampled {
		t.Fatalf("flags = %02x", sc.Flags)
	}
}

func TestNewIDsAreDistinctAndNonZero(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a.IsZero() || b.IsZero() {
		t.Fatal("zero trace id minted")
	}
	if a == b {
		t.Fatal("two NewTraceID calls collided")
	}
	if NewSpanID().IsZero() {
		t.Fatal("zero span id minted")
	}
}

func TestSpanParentingAndDuration(t *testing.T) {
	root := Start(SpanContext{}, "coordinator", "job")
	if !root.Context().Valid() {
		t.Fatal("root span has invalid context")
	}
	child := Start(root.Context(), "worker-1", "train")
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child left the trace")
	}
	time.Sleep(5 * time.Millisecond)
	cd := child.End()
	if cd.Parent != root.Context().SpanID.String() {
		t.Fatalf("child parent = %q, want %q", cd.Parent, root.Context().SpanID)
	}
	if cd.DurationNanos < (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("child duration %dns, want >= 2ms (monotonic measurement)", cd.DurationNanos)
	}
	rd := root.End()
	if rd.Parent != "" {
		t.Fatalf("root has parent %q", rd.Parent)
	}
	if rd.DurationNanos < cd.DurationNanos {
		t.Fatalf("root (%dns) shorter than its child (%dns)", rd.DurationNanos, cd.DurationNanos)
	}
	if cd.StartUnixNano < rd.StartUnixNano {
		t.Fatal("child started before its parent")
	}
}

func TestCompletedSpan(t *testing.T) {
	parent := NewContext()
	start := time.Now().Add(-time.Second)
	sd := Completed(parent, "coordinator", "queue-wait", start, time.Second, map[string]string{"episode": "1"})
	if sd.Parent != parent.SpanID.String() {
		t.Fatalf("parent = %q", sd.Parent)
	}
	if sd.DurationNanos != time.Second.Nanoseconds() {
		t.Fatalf("duration = %d", sd.DurationNanos)
	}
	if sd.Attrs["episode"] != "1" {
		t.Fatalf("attrs = %v", sd.Attrs)
	}
	neg := Completed(parent, "p", "n", start, -time.Second, nil)
	if neg.DurationNanos != 0 {
		t.Fatalf("negative duration not clamped: %d", neg.DurationNanos)
	}
}

func TestContextPlumbing(t *testing.T) {
	sc := NewContext()
	ctx := ContextWith(context.Background(), sc)
	got, ok := FromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("FromContext = %+v, %v", got, ok)
	}
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("FromContext on empty context reported a value")
	}
}

func TestHeaderInjectExtract(t *testing.T) {
	h := make(http.Header)
	sc := NewContext()
	Inject(h, sc)
	got, err := ParseTraceparent(h.Get(Header))
	if err != nil || got != sc {
		t.Fatalf("ParseTraceparent(injected) = %+v, %v", got, err)
	}
	Inject(h, SpanContext{}) // an invalid context must leave the header alone
	if got, err := ParseTraceparent(h.Get(Header)); err != nil || got != sc {
		t.Fatalf("invalid Inject clobbered the header: %+v, %v", got, err)
	}
	if _, err := ParseTraceparent(make(http.Header).Get(Header)); err == nil {
		t.Fatal("ParseTraceparent on empty headers succeeded")
	}
}
