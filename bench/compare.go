package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords reads a result file of JSON lines as -out appends them.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// Verdicts of one workload × metric comparison.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// comparison is one row of the compare table.
type comparison struct {
	workload, metric string
	base, head       []float64
	delta            float64 // (head-base)/base of the medians
	verdict          string
}

// compareRuns compares every end-to-end metric of every workload present
// in both sets, plus the failed fraction:
//   - worse: the head median is worse than the base median by more than
//     the metric's bound, or more operations failed;
//   - better: it is better by more than the bound, or every head run
//     beats every base run by more than the base runs' own spread;
//   - unresolved: neither, and the spread of either side (quartile
//     distance over median) is wider than the bound;
//   - same: otherwise.
func compareRuns(spec *benchSpec, base, head []record) []comparison {
	var rows []comparison
	for _, w := range spec.Workloads {
		b, h := byWorkload(base, w.Name), byWorkload(head, w.Name)
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			rows = append(rows, compareMetric(w.Name, m, values(b, m.Name), values(h, m.Name)))
		}
		bf, hf := failedFrac(b), failedFrac(h)
		c := comparison{workload: w.Name, metric: "failed_frac", base: []float64{bf}, head: []float64{hf}, verdict: same}
		switch {
		case hf > bf:
			c.verdict = worse
		case hf < bf:
			c.verdict = better
		}
		rows = append(rows, c)
	}
	return rows
}

func compareMetric(workload string, m specMetric, base, head []float64) comparison {
	c := comparison{workload: workload, metric: m.Name, base: base, head: head}
	bq1, bmed, bq3 := quartiles(base)
	hq1, hmed, hq3 := quartiles(head)
	// sign turns every difference into "positive is worse".
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	switch {
	case bmed != 0:
		c.delta = (hmed - bmed) / math.Abs(bmed)
	case hmed != 0:
		c.delta = math.Inf(1)
	}
	worseBy := sign * c.delta
	spread := math.Max(ratio(bq3-bq1, math.Abs(bmed)), ratio(hq3-hq1, math.Abs(hmed)))
	switch {
	case worseBy > m.Bound:
		c.verdict = worse
	case worseBy < -m.Bound:
		c.verdict = better
	case allBetter(base, head, sign) && -worseBy > ratio(bq3-bq1, math.Abs(bmed)):
		c.verdict = better
	case spread > m.Bound:
		c.verdict = unresolved
	default:
		c.verdict = same
	}
	return c
}

// allBetter reports whether every head value beats every base value.
func allBetter(base, head []float64, sign float64) bool {
	for _, b := range base {
		for _, h := range head {
			if sign*(h-b) >= 0 {
				return false
			}
		}
	}
	return true
}

func byWorkload(recs []record, name string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedFrac(recs []record) float64 {
	var failed, attempted int
	for _, r := range recs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// compareFiles prints the comparison of two result files and returns the
// exit status: 1 if any row is worse, 2 if the inputs cannot be read.
func compareFiles(specPath, basePath, headPath string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	base, err := readRecords(basePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	head, err := readRecords(headPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rows := compareRuns(spec, base, head)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "compare: no workload has runs in both files")
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3] n\thead median [q1, q3] n\tdelta\tverdict")
	status := 0
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%s\n",
			c.workload, c.metric, describe(c.base), describe(c.head), 100*c.delta, c.verdict)
		if c.verdict == worse {
			status = 1
		}
	}
	tw.Flush()
	return status
}

func describe(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] %d", med, q1, q3, len(xs))
}
