// Command perfbench is the repository's benchmark. It runs one of three
// workloads (paper-7dnn, fleet-poisson, llm-overload) through the public
// APIs of the simulator's layers for a fixed time, checks every run's
// outputs, and prints the end-to-end metrics, or with --trace 1 the
// per-layer metrics, as the last line of its standard output:
//
//	go build -o perfbench . && ./perfbench --workload fleet-poisson --seed 1 --seconds 20 --trace 0
//
// Each repeat runs in a fresh child process of this binary, so every set-up
// sees cold process-wide caches the way a user's fresh run does, and no
// repeat inherits another's heap. See README.md for the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-7dnn, fleet-poisson or llm-overload")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "how long to keep starting repeats")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	child := fs.Bool("child", false, "run one repeat in this process and print its sample as JSON (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *name) || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --trace 0|1 and --seconds >= 1\n", workloadNames)
		return 2
	}
	if *child {
		s, err := runChild(*name, *seed, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(s); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep := collect(*name, *trace == 1, time.Duration(*seconds)*time.Second, func(traced bool) (*sample, error) {
		return spawn(exe, *name, *seed, traced, stderr)
	})
	rep.print(stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

// runChild performs one set-up and run in this process. A traced run takes
// a CPU profile of the run phase and times each cluster submit call.
func runChild(name string, seed int64, traced bool) (*sample, error) {
	pr := &probe{traced: traced}
	s, err := runWorkload(name, seed, full, pr)
	if err != nil {
		return nil, err
	}
	if traced {
		if s.CPU, err = attribute(pr.cpu.Bytes()); err != nil {
			return nil, fmt.Errorf("reading CPU profile: %w", err)
		}
	}
	return s, nil
}

// spawn runs one repeat in a child process and decodes its sample.
func spawn(exe, name string, seed int64, traced bool, stderr io.Writer) (*sample, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--child", "--workload", name, "--seed", fmt.Sprint(seed), "--trace", trace)
	cmd.Stderr = stderr
	// The child dies with the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child run: %w", err)
	}
	var s sample
	if err := json.Unmarshal(out, &s); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &s, nil
}

// Repeat counts: enough for a median even when one repeat outlasts the
// measuring time.
const (
	minRepeats       = 3
	minTracedRepeats = 2
)

// collect starts repeats until the measuring time is spent, then
// aggregates them. A traced run alternates traced and untraced repeats so
// the tracing overhead is measured under the same host conditions.
func collect(name string, traced bool, budget time.Duration, once func(traced bool) (*sample, error)) *report {
	rep := &report{Workload: name, Traced: traced}
	deadline := time.Now().Add(budget)
	var plain, withTrace []*sample
	for i := 0; ; i++ {
		enough := len(plain) >= minRepeats
		if traced {
			enough = len(plain) >= minTracedRepeats && len(withTrace) >= minTracedRepeats
		}
		if enough && !time.Now().Before(deadline) {
			break
		}
		t := traced && i%2 == 0
		s, err := once(t)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			rep.Errors = append(rep.Errors, err.Error())
			break
		}
		if len(s.Violations) > 0 {
			rep.Failed++
			rep.Errors = append(rep.Errors, s.Violations...)
		}
		if t {
			withTrace = append(withTrace, s)
		} else {
			plain = append(plain, s)
		}
	}
	rep.aggregate(plain, withTrace)
	return rep
}

// report is the aggregate of one benchmark run.
type report struct {
	Workload  string
	Traced    bool
	Correct   bool
	Attempted int
	Failed    int
	Errors    []string
	Hash      string
	Metrics   map[string]float64
	Repeats   int
	// RunS lists each untraced repeat's run-phase host time, in order.
	RunS []float64
}

// aggregate checks that every repeat simulated exactly the same thing and
// reduces host measurements to their medians.
func (r *report) aggregate(plain, traced []*sample) {
	all := append(append([]*sample(nil), plain...), traced...)
	r.Repeats = len(all)
	for _, s := range plain {
		r.RunS = append(r.RunS, s.Host["run_s"])
	}
	r.Correct = r.Failed == 0 && len(all) > 0
	if len(all) == 0 {
		return
	}
	r.Hash = all[0].Hash
	for _, s := range all[1:] {
		if s.Hash != r.Hash {
			r.Correct = false
			r.Failed++
			r.Errors = append(r.Errors, fmt.Sprintf("simulated-stats hash %s differs from %s at the same seed", s.Hash, r.Hash))
		}
	}
	reqPerS := func(ss []*sample) float64 {
		return median(ss, func(s *sample) float64 { return float64(s.Settled) / s.Host["run_s"] })
	}
	host := func(ss []*sample, key string) float64 {
		return median(ss, func(s *sample) float64 { return s.Host[key] })
	}
	sim := all[0].Sim
	m := map[string]float64{}
	if !r.Traced {
		m["setup_s"] = host(all, "setup_s")
		m["req_per_s"] = reqPerS(all)
		m["alloc_mb"] = host(all, "alloc_mb")
		m["retained_mb"] = host(all, "retained_mb")
		for _, d := range endToEnd {
			if v, ok := sim[d.name]; ok {
				m[d.name] = v
			}
		}
		r.Metrics = m
		return
	}
	for _, d := range perLayer {
		m[d.name] = sim[d.name] // zero where the workload's layers do not report it
	}
	cpu := map[string]int64{}
	for _, s := range traced {
		for k, v := range s.CPU {
			cpu[k] += v
		}
	}
	for k, v := range shares(cpu) {
		m["cpu."+k] = v
	}
	m["setup.profile_s"] = host(all, "setup.profile_s")
	m["setup.build_s"] = host(all, "setup.build_s")
	m["cluster.submit_ns_p50"] = host(traced, "cluster.submit_ns_p50")
	m["cluster.submit_ns_p99"] = host(traced, "cluster.submit_ns_p99")
	if k := sim["gpu.kernels"]; k > 0 {
		m["sim.host_ns_per_kernel"] = host(plain, "run_s") * 1e9 / k
	}
	m["trace.req_per_s"] = reqPerS(traced)
	m["trace.overhead_frac"] = 1 - reqPerS(traced)/reqPerS(plain)
	r.Metrics = m
}

// median of f over ss; 0 for no samples.
func median(ss []*sample, f func(*sample) float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes a readable summary followed by the result line.
func (r *report) print(w io.Writer) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s: %d repeats, simulated-stats hash %s, correct=%v\n", r.Workload, r.Repeats, r.Hash, r.Correct)
	fmt.Fprintf(w, "run phase host seconds per untraced repeat: %.4f\n", r.RunS)
	fmt.Fprintln(w, "arrivals are pre-generated and scheduled on the virtual clock: generator lateness is 0 by construction")
	for _, e := range r.Errors {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", e)
	}
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultValue{}}
	for _, d := range defs {
		v := r.Metrics[d.name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = resultValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		line = []byte(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
	}
	fmt.Fprintln(w, string(line))
}
