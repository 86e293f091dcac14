// Command experiments regenerates the tables and figures of the SparkXD
// paper's evaluation (see DESIGN.md §4 for the index).
//
// Usage:
//
//	experiments run -list                    # job names (figures, table1, ablations)
//	experiments run                          # whole suite on the scheduler
//	experiments run -only fig2b,table1       # subset of jobs
//	experiments run -full -only fig11        # paper-scale sizes instead of quick mode
//	experiments run -workers 8 -json         # machine-readable result records
//	experiments run -shard 1/2               # CI matrix slice of the suite
//
// The run subcommand executes every registered experiment as a job of
// the internal/sched scheduler, largest cost first. Result records on stdout
// are byte-identical for any -workers value and any -shard split (the
// determinism contract of DESIGN.md §6); timing records, which are
// inherently nondeterministic, go to stderr.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"sparkxd/internal/experiments"
	"sparkxd/internal/report"
	"sparkxd/internal/sched"
)

const usage = `usage: experiments run [-list] [-only jobs] [-full] [-seed n] [-quiet]
                       [-workers n] [-shard i/m] [-json]
run "experiments run -h" for the flags`

func main() {
	if len(os.Args) < 2 || os.Args[1] != "run" {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	os.Exit(runSuite(os.Args[2:]))
}

// resultRecord is the deterministic per-job record emitted on stdout in
// -json mode. It carries no timing and no worker identity: two runs with
// different -workers values must produce byte-identical streams.
type resultRecord struct {
	Job    string `json:"job"`
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	SHA256 string `json:"sha256,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
}

// timingRecord is the per-job timing record emitted on stderr in -json
// mode (machine-readable but deliberately separated from the result
// stream, which must stay deterministic).
type timingRecord struct {
	Job       string  `json:"job"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Worker    int     `json:"worker"`
}

type suiteRecord struct {
	Shard       string `json:"shard"`
	Workers     int    `json:"workers"`
	Jobs        int    `json:"jobs"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

func runSuite(args []string) int {
	fs := flag.NewFlagSet("experiments run", flag.ExitOnError)
	var (
		workers   = fs.Int("workers", 0, "scheduler worker pool size (0 = GOMAXPROCS)")
		shardSpec = fs.String("shard", "", "run only slice i/m of the suite (e.g. 1/2)")
		jsonOut   = fs.Bool("json", false, "emit JSON result records on stdout, timing records on stderr")
		full      = fs.Bool("full", false, "paper-scale sizes (slower); default is quick mode")
		seed      = fs.Uint64("seed", 2021, "random seed")
		quiet     = fs.Bool("quiet", false, "suppress progress logging")
		only      = fs.String("only", "", "comma-separated job names (default: whole suite; see -list)")
		list      = fs.Bool("list", false, "list available jobs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, e := range experiments.Entries() {
			fmt.Printf("%-20s %s\n", e.Name, e.Desc)
		}
		return 0
	}

	shard, err := sched.ParseShard(*shardSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments run: %v\n", err)
		return 2
	}

	opts := experiments.Options{Quick: !*full, Seed: *seed, Workers: *workers, Log: os.Stderr}
	if *quiet || *jsonOut {
		opts.Log = nil
	}
	r := experiments.NewRunner(opts)

	s, err := sched.New(sched.Config{Workers: *workers, Shard: shard})
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments run: %v\n", err)
		return 2
	}
	jobs := r.Jobs()
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if _, ok := experiments.Lookup(name); !ok {
				fmt.Fprintf(os.Stderr, "experiments run: unknown job %q (try -list)\n", name)
				return 2
			}
			keep[name] = true
		}
		var filtered []sched.Job
		for _, j := range jobs {
			if keep[j.Name] {
				filtered = append(filtered, j)
			}
		}
		jobs = filtered
	}
	if err := s.Add(jobs...); err != nil {
		fmt.Fprintf(os.Stderr, "experiments run: %v\n", err)
		return 2
	}

	// Split the CPU budget between the scheduler pool and intra-job
	// parallelism (panel sweeps call parallelFor): with many jobs in
	// flight each one runs serially inside; a single-job run keeps the
	// whole pool for its inner loops. Worker counts never affect
	// results, only wall-clock.
	inner := 1
	if n := len(s.Members()); n > 0 && n < s.Workers() {
		inner = s.Workers() / n
	}
	r.Opts.Workers = inner

	reports, runErr := s.Run()

	if *jsonOut {
		emitJSON(r, s, shard, reports)
	} else {
		emitText(r, reports)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "experiments run: %v\n", report.FirstLine(runErr.Error()))
		return 1
	}
	return 0
}

// emitJSON writes deterministic result records to stdout (name order,
// no timing) and timing/suite records to stderr.
func emitJSON(r *experiments.Runner, s *sched.Scheduler, shard sched.Shard, reports []sched.Report) {
	out := json.NewEncoder(os.Stdout)
	diag := json.NewEncoder(os.Stderr)
	for _, rep := range reports {
		rec := resultRecord{Job: rep.Name}
		if rep.Err != nil {
			rec.Error = report.FirstLine(rep.Err.Error())
		} else {
			var buf bytes.Buffer
			if res, ok := rep.Value.(experiments.Result); ok && res != nil {
				res.Render(&buf)
			}
			sum := sha256.Sum256(buf.Bytes())
			rec.OK = true
			rec.SHA256 = hex.EncodeToString(sum[:])
			rec.Bytes = buf.Len()
		}
		_ = out.Encode(rec)
	}
	for _, rep := range reports {
		_ = diag.Encode(timingRecord{
			Job:       rep.Name,
			ElapsedMS: float64(rep.Elapsed.Microseconds()) / 1000,
			Worker:    rep.Worker,
		})
	}
	hits, misses := r.CacheStats()
	_ = diag.Encode(suiteRecord{
		Shard:       shard.String(),
		Workers:     s.Workers(),
		Jobs:        len(reports),
		CacheHits:   hits,
		CacheMisses: misses,
	})
}

// emitText renders each result in suite (figure) order with per-job
// timings on stderr.
func emitText(r *experiments.Runner, reports []sched.Report) {
	ordered := append([]sched.Report(nil), reports...)
	seq := func(name string) int {
		if e, ok := experiments.Lookup(name); ok {
			return e.Seq
		}
		return 1 << 30
	}
	sort.SliceStable(ordered, func(a, b int) bool { return seq(ordered[a].Name) < seq(ordered[b].Name) })
	for _, rep := range ordered {
		fmt.Printf("\n================ %s ================\n", rep.Name)
		if rep.Err != nil {
			fmt.Printf("FAILED: %s\n", report.FirstLine(rep.Err.Error()))
			continue
		}
		if res, ok := rep.Value.(experiments.Result); ok && res != nil {
			res.Render(os.Stdout)
		}
	}
	for _, rep := range ordered {
		if rep.Err == nil {
			fmt.Fprintf(os.Stderr, "timing: %-20s %8.1f ms (worker %d)\n",
				rep.Name, float64(rep.Elapsed.Microseconds())/1000, rep.Worker)
		}
	}
	hits, misses := r.CacheStats()
	fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses\n", hits, misses)
}
