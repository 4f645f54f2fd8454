// Command mcbench is the repository's benchmark: four workloads that drive
// the partitioner and the mcpartd daemon through their public functions,
// reporting end-to-end metrics from untraced runs and per-layer metrics
// from one traced call. See README.md for the workloads and metrics.
//
// Run from the repository root:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [-out <file>]
//	bash bench/run.sh -compare base.jsonl head.jsonl
//
// A run prints every metric as "name value unit" and, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"} holding
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// summary is the last line of a run's standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out appends it: a JSON line per run, so a file
// collects a set of runs for -compare. Its metrics are all the run
// measured.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	summary
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the run's inputs are derived from")
	seconds := fs.Float64("seconds", 20, "how long the timed phase runs")
	traced := fs.Int("trace", 0, "1 adds a traced call and reports the per-layer metrics")
	outPath := fs.String("out", "", "append the run's metrics to this file as one JSON line, and write the trace beside it")
	compare := fs.Bool("compare", false, "compare two result files with the bounds in BENCHMARK.json: -compare base.jsonl head.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare base.jsonl head.jsonl")
			return 2
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() != 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "usage: --workload <%s> --seed <n> --seconds <s> --trace <0|1> [-out file]\n", workloadNames())
		return 2
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traced == 1}
	return runWorkload(w, cfg, *outPath, stdout, stderr)
}

// runWorkload runs one workload and reports it; it returns the exit
// status.
func runWorkload(w workload, cfg runConfig, outPath string, stdout, stderr io.Writer) int {
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "%s: check failed: %s\n", w.name, p)
	}

	// The JSON line holds the mode's metrics; the text lines and the -out
	// record hold everything the run measured.
	defs, measured := endToEnd, endToEnd
	if cfg.trace {
		defs = perLayer
		measured = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	sum := summary{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed}
	all := out.metrics.export(measured)
	for _, d := range measured {
		fmt.Fprintf(stdout, "%s %s %s\n", d.name, strconv.FormatFloat(all[d.name].Value, 'g', -1, 64), d.unit)
	}

	if outPath != "" {
		rec := record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, summary: sum}
		rec.Metrics = all
		if err := appendRecord(outPath, rec); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if out.tracer != nil {
			if err := writeTrace(outPath+".trace.json", out); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}

	sum.Metrics = out.metrics.export(defs)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes the run's Perfetto trace: the benchmark's own spans on
// their track, and the traced call's spans on the partitioner's tracks.
func writeTrace(path string, out *outcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := out.tracer.Export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
