package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testSpec = &benchSpec{
	Workloads: []struct {
		Name string `json:"name"`
	}{{Name: "w"}},
	EndToEnd: []specMetric{
		{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	},
}

// runs builds one record per value of each metric, all for workload "w".
func runs(latency, rate []float64, failed int) []record {
	var out []record
	for i := range latency {
		out = append(out, record{Workload: "w", summary: summary{
			Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{
				"latency_ms": {Value: latency[i], Unit: "ms"},
				"req_per_s":  {Value: rate[i], Unit: "1/s"},
			},
		}})
	}
	return out
}

func verdicts(rows []comparison) map[string]string {
	out := make(map[string]string)
	for _, c := range rows {
		out[c.metric] = c.verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := runs([]float64{100, 101, 99, 100, 102}, []float64{50, 51, 49, 50, 50}, 0)
	for _, c := range []struct {
		name string
		head []record
		want map[string]string
	}{
		{"unchanged", runs([]float64{101, 100, 99, 102, 100}, []float64{50, 50, 51, 49, 50}, 0),
			map[string]string{"latency_ms": same, "req_per_s": same, "failed_frac": same}},
		{"slower and lower rate", runs([]float64{120, 121, 119, 122, 120}, []float64{40, 41, 40, 39, 40}, 0),
			map[string]string{"latency_ms": worse, "req_per_s": worse, "failed_frac": same}},
		{"faster and higher rate", runs([]float64{80, 81, 79, 80, 82}, []float64{60, 61, 60, 59, 60}, 0),
			map[string]string{"latency_ms": better, "req_per_s": better, "failed_frac": same}},
		// Every run 5% faster: within the bound, but beyond the base spread.
		{"consistently faster", runs([]float64{95, 96, 94, 95, 96}, []float64{50, 51, 49, 50, 50}, 0),
			map[string]string{"latency_ms": better, "req_per_s": same, "failed_frac": same}},
		{"noisy", runs([]float64{70, 130, 100, 80, 125}, []float64{50, 50, 51, 49, 50}, 0),
			map[string]string{"latency_ms": unresolved, "req_per_s": same, "failed_frac": same}},
		{"more failures", runs([]float64{101, 100, 99, 102, 100}, []float64{50, 50, 51, 49, 50}, 1),
			map[string]string{"latency_ms": same, "req_per_s": same, "failed_frac": worse}},
	} {
		got := verdicts(compareRuns(testSpec, base, c.head))
		for metric, want := range c.want {
			if got[metric] != want {
				t.Errorf("%s: %s verdict %q, want %q", c.name, metric, got[metric], want)
			}
		}
	}
}

func writeRecords(t *testing.T, dir, name string, recs []record) string {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFilesExitStatus(t *testing.T) {
	dir := t.TempDir()
	spec, err := json.Marshal(map[string]any{
		"workloads":  []map[string]string{{"name": "w"}},
		"end_to_end": []map[string]any{{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	rate := []float64{1, 1, 1}
	base := writeRecords(t, dir, "base.jsonl", runs([]float64{100, 101, 99}, rate, 0))
	same := writeRecords(t, dir, "same.jsonl", runs([]float64{100, 100, 102}, rate, 0))
	slow := writeRecords(t, dir, "slow.jsonl", runs([]float64{130, 131, 129}, rate, 0))

	var out, errOut bytes.Buffer
	if code := compareFiles(specPath, base, same, &out, &errOut); code != 0 {
		t.Errorf("unchanged head: exit %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "latency_ms") || !strings.Contains(out.String(), "failed_frac") {
		t.Errorf("table lacks a row:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(specPath, base, slow, &out, &errOut); code != 1 {
		t.Errorf("slower head: exit %d, want 1\n%s", code, out.String())
	}
	if code := compareFiles(specPath, base, filepath.Join(dir, "missing.jsonl"), &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
