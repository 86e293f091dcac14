package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"sparkxd/internal/sched"
)

// Result is what every experiment produces: a structured value that can
// render itself as terminal tables/charts.
type Result interface {
	Render(w io.Writer)
}

// Entry describes one registered experiment (a figure, table, or
// ablation). Each exp_*.go file registers its entries from init, so the
// suite is assembled at link time and cmd/experiments and the CI shards
// iterate the same index.
type Entry struct {
	// Name is the job name ("fig8", "table1", "ablation-coding", ...).
	Name string
	// Seq orders entries for human-facing listings and rendering
	// (paper figure order); sharding and scheduling use Name instead.
	Seq int
	// Desc is a one-line description for -list.
	Desc string
	// Cost is the relative expense hint forwarded to the scheduler
	// (training-heavy experiments dwarf the analytic ones).
	Cost float64
	// Run executes the experiment against a runner.
	Run func(r *Runner) (Result, error)
}

var (
	regMu    sync.Mutex
	registry = make(map[string]Entry)
)

// register adds an entry to the suite index; duplicate names are a
// programming error.
func register(e Entry) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("experiments: duplicate registration of %q", e.Name))
	}
	if e.Run == nil {
		panic(fmt.Sprintf("experiments: entry %q has no Run function", e.Name))
	}
	registry[e.Name] = e
}

// Entries returns every registered experiment in suite (Seq) order.
func Entries() []Entry {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Entry, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Seq != out[b].Seq {
			return out[a].Seq < out[b].Seq
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// Lookup finds an entry by name.
func Lookup(name string) (Entry, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	e, ok := registry[name]
	return e, ok
}

// Jobs wraps every registered experiment as a sched.Job bound to this
// runner. The jobs share the runner's artifact cache, so e.g. fig8,
// fig11, and the ablations train each (size, flavour) model pair once
// between them no matter which workers pick them up.
func (r *Runner) Jobs() []sched.Job {
	entries := Entries()
	jobs := make([]sched.Job, 0, len(entries))
	for _, e := range entries {
		jobs = append(jobs, sched.Job{
			Name: e.Name,
			Cost: e.Cost,
			Run:  func() (any, error) { return e.Run(r) },
		})
	}
	return jobs
}
