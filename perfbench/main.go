// Command perfbench is the repository's end-to-end benchmark. It
// generates a workload from a seed, drives it through the public
// repro/setsim API with closed-loop clients for a fixed time, checks the
// answers, and prints every metric by name with its unit, ending with
// one JSON line:
//
//	perfbench --workload paper-words --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// records a span around every public call, alternating traced and
// untraced windows, and reports the per-layer metrics plus the tracing
// overhead. --workload all runs every workload in turn. The exit code is
// non-zero on any answer mismatch. See README.md for the workloads and
// the metric table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workloads maps each workload name to its runner, in run order.
var workloads = []struct {
	name string
	run  func(config) (*report, error)
}{
	{"paper-words", runPaperWords},
	{"routed-fleet", runRoutedFleet},
	{"durable-churn", runDurableChurn},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-words, routed-fleet, durable-churn or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "length of the timed loop")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for the span files and the durable store")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	var selected []int
	for i, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, spanDir: *out}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var reps []*report
	for _, i := range selected {
		w := workloads[i]
		dir, err := os.MkdirTemp(*out, "work-"+w.name+"-")
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		cfg.workDir, cfg.epoch = dir, time.Now()
		rep, err := w.run(cfg)
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		rep.printHuman(stdout)
		reps = append(reps, rep)
	}
	line, err := resultJSON(reps, cfg.trace, len(reps) > 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	for _, r := range reps {
		if !r.correct {
			return 1
		}
	}
	return 0
}

// writeTrace writes a traced run's spans to the span directory, headed
// by the workload, seed and input fingerprint.
func writeTrace(cfg config, r *report, phase *tracer, res *loopResult) error {
	if !cfg.trace || cfg.spanDir == "" {
		return nil
	}
	path := filepath.Join(cfg.spanDir, "spans-"+r.workload+".tsv")
	header := fmt.Sprintf("workload %s seed %d inputs %016x", r.workload, cfg.seed, r.fingerprint)
	return writeSpans(path, header, append([]*tracer{phase}, res.tracers...))
}
