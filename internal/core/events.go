package core

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

// emit delivers an event to the framework's observer, if any.
func (f *Framework) emit(ev Event) {
	if f.Observer != nil {
		f.Observer(ev)
	}
}
