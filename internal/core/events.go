package core

import "context"

// Event is one structured progress notification from the framework
// kernel. Servers and CLIs subscribe to the stream through an Observer
// instead of polling; every field is a plain value so events can be
// logged, serialized, or forwarded as-is.
type Event struct {
	// Stage names the pipeline phase emitting the event: "train",
	// "improve", "analyze", "map", "evaluate", "energy".
	Stage string `json:"stage"`
	// Phase is "start", "progress", or "done".
	Phase string `json:"phase"`
	// Epoch/Epochs report training progress within the stage (1-based;
	// zero when not applicable).
	Epoch  int `json:"epoch,omitempty"`
	Epochs int `json:"epochs,omitempty"`
	// BER is the bit error rate the stage is currently working at.
	BER float64 `json:"ber,omitempty"`
	// Acc is the most recent accuracy observation.
	Acc float64 `json:"acc,omitempty"`
	// Message carries free-form detail.
	Message string `json:"message,omitempty"`
}

// Observer receives progress events. Observers must be fast and must not
// mutate the framework; they are called synchronously from the training
// and analysis loops.
type Observer func(Event)

type observerKey struct{}

// WithObserver returns a context whose events Emit delivers to obs in
// place of the framework's Observer: one job's events reach that job's
// observer even when many jobs share one Framework.
func WithObserver(ctx context.Context, obs Observer) context.Context {
	return context.WithValue(ctx, observerKey{}, obs)
}

// Emit delivers ev to the context's observer (WithObserver) or else to
// the framework's Observer, if any.
func (f *Framework) Emit(ctx context.Context, ev Event) {
	obs, _ := ctx.Value(observerKey{}).(Observer)
	if obs == nil {
		obs = f.Observer
	}
	if obs != nil {
		obs(ev)
	}
}
