package tracing

import (
	"context"
	"net/http"
)

type ctxKey struct{}

// ContextWith returns a context carrying sc, for in-process propagation
// (e.g. a caller handing its span context to client.Submit).
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts a span context stored by ContextWith.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// Header is the HTTP header carrying trace context between processes.
const Header = "traceparent"

// Inject stamps sc onto an outgoing request's headers.
func Inject(h http.Header, sc SpanContext) {
	if sc.Valid() {
		h.Set(Header, sc.Traceparent())
	}
}
