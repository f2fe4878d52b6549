package main

import (
	"flag"
	"runtime"
	"testing"
	"time"
)

// TestBenchRowsShutDownTheirEnvs runs a few ops of each bench row that
// builds a fresh simulation per op and checks that no goroutine outlives
// them. An op that leaves its environment's procs parked leaks one
// goroutine per op, and the row's allocs/op then depends on which rows ran
// before it.
func TestBenchRowsShutDownTheirEnvs(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime")
	prev := benchtime.Value.String()
	if err := benchtime.Value.Set("3x"); err != nil {
		t.Fatal(err)
	}
	defer benchtime.Value.Set(prev)

	rows := map[string]bool{"serving/continuous_batching": true, "serving/kv_starved_step": true}
	for _, bm := range benchSuite() {
		if !rows[bm.Name] {
			continue
		}
		delete(rows, bm.Name)
		before := runtime.NumGoroutine()
		if res := testing.Benchmark(bm.Fn); res.N == 0 {
			t.Fatalf("%s: benchmark failed", bm.Name)
		}
		// The benchmark's own goroutines exit just after it reports.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Errorf("%s: %d goroutines before its ops, %d after", bm.Name, before, after)
		}
	}
	for name := range rows {
		t.Errorf("bench row %s is missing from the suite", name)
	}
}
