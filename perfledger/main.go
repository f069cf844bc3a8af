// Command perfledger is the repository's benchmark: it drives the real
// serve.Server and fleet.Router in-process on seeded workloads, checks
// every answer against an independent oracle, and prints end-to-end
// metrics (untraced run) or per-layer metrics (traced run). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfledger --workload docs-inproc --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and prints each as it is added.
type report struct {
	m map[string]metric
}

func newReport() *report { return &report{m: map[string]metric{}} }

// add records a metric for the result line and prints it; note is
// printed beside it for the reader.
func (r *report) add(name string, v float64, unit, note string) {
	r.m[name] = metric{Value: v, Unit: unit}
	r.print(name, v, unit, note)
}

// print prints a figure that is reported but not part of the result
// line (see README.md for which and why).
func (r *report) print(name string, v float64, unit, note string) {
	if note != "" {
		note = "  # " + note
	}
	fmt.Printf("%-26s %14.6g %-6s%s\n", name, v, unit, note)
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type workloadFunc func(config, *report, *tally) error

var workloads = map[string]workloadFunc{
	"docs-inproc":   runDocsInproc,
	"small-open":    runSmallOpen,
	"blob-sessions": runBlobSessions,
}

func main() {
	name := flag.String("workload", "", "workload to run: docs-inproc, small-open or blob-sessions")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	os.Exit(run(*name, config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}))
}

func run(name string, c config) int {
	w, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfledger: unknown workload %q (have %v)\n", name, names)
		return 2
	}
	if c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfledger: --seconds must be positive")
		return 2
	}
	defer os.RemoveAll(stateRoot)
	mode := "end-to-end"
	if c.trace {
		mode = "traced, per-layer"
	}
	fmt.Printf("perfledger: workload %s, seed %d, %v, %s\n", name, c.seed, c.seconds, mode)
	r, t := newReport(), &tally{}
	if err := w(c, r, t); err != nil {
		fmt.Fprintf(os.Stderr, "perfledger: %s: %v\n", name, err)
		return 1
	}
	if t.firstErr != nil {
		fmt.Printf("first failure: %v\n", t.firstErr)
	}
	out, err := json.Marshal(result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: r.m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfledger: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if t.wrong > 0 || t.attempted == 0 {
		return 1
	}
	return 0
}
