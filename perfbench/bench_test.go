package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the benchmark must agree with.
type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// lastLine decodes the result line a report prints.
func lastLine(t *testing.T, r *report) result {
	t.Helper()
	var out bytes.Buffer
	r.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return res
}

// fakeSample is a repeat with every figure the aggregation reads.
func fakeSample(hash string) *sample {
	s := newSample()
	s.Hash = hash
	s.Settled = 100
	for _, k := range []string{"setup_s", "setup.profile_s", "setup.build_s", "run_s", "alloc_mb", "retained_mb", "cluster.submit_ns_p50", "cluster.submit_ns_p99"} {
		s.Host[k] = 1
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		s.Sim[d.name] = 1
	}
	s.CPU = map[string]int64{"gpu": 3, "sim": 1}
	return s
}

func TestEmittedNamesMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	var wls []string
	for _, w := range d.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", workloadNames, wls)
	}
	for _, c := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, d.EndToEnd}, {true, d.PerLayer}} {
		rep := collect("fleet-poisson", c.traced, 0, func(bool) (*sample, error) { return fakeSample("h"), nil })
		res := lastLine(t, rep)
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Fatalf("traced=%v: result %+v, want correct", c.traced, res)
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("traced=%v: %d metrics emitted, %d declared", c.traced, len(res.Metrics), len(c.want))
		}
		for _, m := range c.want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s emitted as %+v (present %v), declared unit %s", c.traced, m.Name, got, ok, m.Unit)
			}
		}
	}
}

func TestHashMismatchAndViolationsFailTheRun(t *testing.T) {
	hashes := []string{"a", "a", "b"}
	i := 0
	rep := collect("llm-overload", false, 0, func(bool) (*sample, error) {
		s := fakeSample(hashes[i%len(hashes)])
		i++
		return s, nil
	})
	if res := lastLine(t, rep); res.Correct || res.Failed != 1 {
		t.Errorf("hash mismatch: result correct=%v failed=%d, want incorrect with 1 failure", res.Correct, res.Failed)
	}
	rep = collect("llm-overload", false, 0, func(bool) (*sample, error) {
		s := fakeSample("a")
		s.Violations = []string{"request-stranded: request 3 never reached a terminal state"}
		return s, nil
	})
	if res := lastLine(t, rep); res.Correct || res.Failed != res.Attempted {
		t.Errorf("violations: result correct=%v failed=%d of %d, want every repeat failed", res.Correct, res.Failed, res.Attempted)
	}
}

// TestSmokeRuns runs each workload at small scale, traced and untraced,
// and checks that it passes its correctness checks, repeats exactly, and
// reports a non-zero value for every end-to-end metric.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := runWorkload(name, 7, small, &probe{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := runWorkload(name, 7, small, &probe{traced: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Violations)+len(b.Violations) > 0 {
				t.Fatalf("violations: %v %v", a.Violations, b.Violations)
			}
			if a.Hash != b.Hash {
				t.Fatalf("same seed gave hashes %s and %s", a.Hash, b.Hash)
			}
			rep := &report{Workload: name, Attempted: 2}
			rep.aggregate([]*sample{a}, nil)
			for _, d := range endToEnd {
				if v := rep.Metrics[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
			if name != "paper-7dnn" && b.Host["cluster.submit_ns_p99"] <= 0 {
				t.Errorf("traced run timed no submit calls")
			}
		})
	}
}

// TestChildCPUProfile checks a traced repeat attributes its CPU profile to
// declared buckets.
func TestChildCPUProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	s, err := runChild("llm-overload", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.CPU) == 0 {
		t.Fatal("no CPU samples attributed")
	}
	for b := range s.CPU {
		if !slices.Contains(cpuBuckets, b) {
			t.Errorf("samples attributed to undeclared bucket %q", b)
		}
	}
}
