package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	partition "repro"
)

// tinyWorkloads mirror the four workloads on inputs small enough for a
// unit test: mrng1t-sized meshes, a 5k-vertex power-law graph, p=4, and a
// daemon with four graphs.
var tinyWorkloads = []workload{
	{name: "paper-mrng1", run: partitionSpec{input: meshType1("mrng1t", 3), instances: 2, k: 16}.run},
	{name: "plaw-cluster", run: partitionSpec{input: powerLawType1(5000, 2), instances: 2, k: 16, coarsen: partition.CoarsenCluster}.run},
	{name: "parallel-type2", run: partitionSpec{input: meshType2("mrng1t", 3), instances: 2, k: 16, p: 4}.run},
	{name: "daemon-zipf", run: daemonSpec{mesh: "mrng1t", graphs: 4, m: 3, k: 16, cache: 2, clients: 2}.run},
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []specMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(defs))
		}
		for i := 0; i < len(declared) && i < len(defs); i++ {
			if declared[i].Name != defs[i].name || declared[i].Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || tinyWorkloads[i].name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q, smoke test %q",
				i, spec.Workloads[i].Name, w.name, tinyWorkloads[i].name)
		}
	}
}

// TestSmoke runs every workload end to end on tiny inputs, untraced and
// traced, and checks that each prints every declared metric with its unit
// and a correct final JSON line.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range tinyWorkloads {
		for _, traced := range []bool{false, true} {
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			var out, errOut bytes.Buffer
			cfg := runConfig{seed: 1, seconds: 0.2, trace: traced}
			if code := runWorkload(w, cfg, "", &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", w.name, traced, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var sum summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("%s trace=%v: last line is not the summary: %v", w.name, traced, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, traced, sum.Correct, sum.Attempted, sum.Failed, errOut.String())
			}
			if len(sum.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics in the summary, %d declared", w.name, traced, len(sum.Metrics), len(declared))
			}
			printed := make(map[string]string)
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) == 3 {
					printed[f[0]] = f[2]
				}
			}
			for _, d := range declared {
				m, ok := sum.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace=%v: summary has %s = %+v, want unit %s", w.name, traced, d.Name, m, d.Unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
				}
				if printed[d.Name] != d.Unit {
					t.Errorf("%s trace=%v: printed %s with unit %q, want %q", w.name, traced, d.Name, printed[d.Name], d.Unit)
				}
			}
		}
	}
}
