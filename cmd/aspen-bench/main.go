// Command aspen-bench regenerates every table and figure of the paper's
// evaluation and writes the results as Markdown (the content of
// EXPERIMENTS.md's measured sections).
//
// Usage:
//
//	aspen-bench                       # print all experiments
//	aspen-bench -only fig8 -size 65536
//	aspen-bench -o EXPERIMENTS.md -metrics bench-metrics.json
//	aspen-bench -only serve -json .   # also write BENCH_serve.json
//	aspen-bench -compare BENCH_serve.json new/BENCH_serve.json
//
// Every numeric cell of every rendered table is also published to the
// telemetry registry as a bench_<id>_<row>_<column> gauge, so -metrics
// (or a live scrape via -pprof-addr) exposes each figure/table value in
// queryable form without changing the rendered Markdown.
//
// -json DIR additionally writes each rendered table as a perf-
// trajectory snapshot DIR/BENCH_<id>.json (host, commit, and parameter
// metadata included). -compare OLD NEW diffs two such snapshots and
// exits 1 when any metric moved more than -threshold in its bad
// direction — the regression gate scripts/bench-compare.sh and CI run.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"aspen/internal/bench"
	"aspen/internal/telemetry"
)

// gitCommit best-effort identifies the working tree for trajectory
// metadata: HEAD, suffixed "-dirty" when tracked files differ from it,
// since the numbers then come from a tree no commit names; empty when
// git or the repo is unavailable.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(out))
	if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
		commit += "-dirty"
	}
	return commit
}

func main() {
	var (
		only      = flag.String("only", "", "run a single experiment (fig2, table1..table5, fig8, fig9, fig10, ablations, serve, engine, chaos, verify, store)")
		size      = flag.Int("size", 32<<10, "per-document size for XML experiments (bytes)")
		scale     = flag.Int("scale", 200, "dataset scale divisor for mining experiments")
		out       = flag.String("o", "", "write Markdown to this file instead of stdout")
		jsonDir   = flag.String("json", "", "also write each table as a BENCH_<id>.json trajectory snapshot into this directory")
		compare   = flag.String("compare", "", "compare two trajectory snapshots: -compare OLD (with NEW as the remaining argument); exits 1 on regression")
		threshold = flag.Float64("threshold", bench.DefaultRegressionThreshold, "relative movement -compare flags as a regression")
		verbose   = flag.Bool("v", false, "with -compare, print unchanged metrics too")
	)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: aspen-bench -compare OLD.json NEW.json")
			os.Exit(2)
		}
		res, err := bench.CompareFiles(*compare, flag.Arg(0), *threshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aspen-bench: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(res.Render(*verbose))
		if res.Regressions() > 0 {
			os.Exit(1)
		}
		return
	}

	reg := telemetry.NewRegistry()
	sess := tf.MustStart("aspen-bench", reg)
	defer sess.MustClose("aspen-bench")

	commit := gitCommit()
	params := map[string]string{
		"size":  strconv.Itoa(*size),
		"scale": strconv.Itoa(*scale),
	}
	want := func(id string) bool { return *only == "" || *only == id }
	var b strings.Builder
	render := func(t *bench.Table) {
		t.Publish(reg)
		b.WriteString(t.Render())
		if *jsonDir != "" {
			tr := bench.NewTrajectory(t, commit, params)
			path := filepath.Join(*jsonDir, bench.TrajectoryFile(t.ID))
			if err := tr.WriteFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "aspen-bench: writing %s: %v\n", path, err)
				sess.Close()
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		if sess.Tracing() {
			sess.Sink().Emit(map[string]any{
				"event": "table", "id": t.ID, "title": t.Title, "rows": len(t.Rows),
			})
		}
	}
	fmt.Fprintf(&b, "# ASPEN reproduction — measured results\n\n")
	fmt.Fprintf(&b, "Generated %s by `aspen-bench -size %d -scale %d`.\n\n",
		time.Now().UTC().Format(time.RFC3339), *size, *scale)

	if want("fig2") {
		t, _ := bench.Fig2(*size)
		render(t)
	}
	if want("table1") {
		render(bench.TableI(*scale))
	}
	if want("table2") {
		render(bench.TableII())
	}
	if want("table3") {
		render(bench.TableIII())
	}
	if want("table4") {
		render(bench.TableIV())
	}
	if want("table5") {
		render(bench.TableV(*scale))
	}
	if want("fig8") {
		t, _, _ := bench.Fig8(*size)
		render(t)
	}
	if want("ablations") {
		render(bench.Ablations(*size))
	}
	if want("serve") {
		t, _ := bench.Serve(*size)
		render(t)
	}
	if want("engine") {
		t, _ := bench.Engine(*size)
		render(t)
	}
	if want("chaos") {
		t, _ := bench.ServeChaos(*size)
		render(t)
	}
	if want("verify") {
		t, _ := bench.ServeVerify(*size)
		render(t)
	}
	if want("store") {
		t, _ := bench.StoreDurability(256)
		render(t)
	}
	if want("fig9") || want("fig10") {
		f9, f10, _ := bench.Fig9(*scale)
		if want("fig9") {
			render(f9)
		}
		if want("fig10") {
			render(f10)
		}
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "aspen-bench: %v\n", err)
			sess.Close()
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
		return
	}
	fmt.Print(b.String())
}
