package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

func TestBucketInnermostRepoFrameWins(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess1_fast64", "olympian/internal/gpu.(*Device).pump", "olympian/internal/sim.(*Env).Run", "main.main"}, "gpu"},
		{[]string{"olympian/internal/sim.(*Proc).Sleep.func1", "olympian/internal/gpu.(*Device).pump"}, "sim"},
		{[]string{"runtime.mallocgc", "olympian/internal/llm.(*Batcher).NextPrefill", "olympian/internal/serving.(*LLMServer).step"}, "llm"},
		{[]string{"time.Now", "main.(*probe).timeSubmit", "olympian/internal/sim.(*Env).Run"}, "harness"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime_gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep", "runtime.goexit"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime_sched"},
		{nil, "runtime_sched"},
	}
	for _, c := range cases {
		if got := bucket(c.frames); got != c.want {
			t.Errorf("bucket(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestSharesSumToOne(t *testing.T) {
	got := shares(map[string]int64{"gpu": 5, "sim": 3, "runtime_gc": 1, "runtime_sched": 1})
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 || got["gpu"] != 0.5 {
		t.Fatalf("shares = %v (sum %v), want gpu 0.5 and sum 1", got, sum)
	}
	if len(shares(map[string]int64{})) != 0 {
		t.Fatal("shares of no samples should be empty")
	}
}

// pb is a minimal protobuf encoder for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestAttributeHandBuiltProfile decodes a profile with an inlined location,
// packed and unpacked sample fields, and a stack with no repository frame.
func TestAttributeHandBuiltProfile(t *testing.T) {
	strs := []string{"", "runtime.mapaccess1_fast64", "olympian/internal/gpu.(*Device).pump",
		"olympian/internal/sim.(*Env).Run", "runtime.futex", "runtime.findRunnable",
		"runtime.gcBgMarkWorker", "olympian/internal/llm.(*Batcher).NextPrefill"}
	prof := &pb{}
	// Functions 1..7 name strings 1..7.
	for id := uint64(1); id <= 7; id++ {
		prof.bytes(fProfileFunction, (&pb{}).varint(fFunctionID, id).varint(fFunctionName, id).b)
	}
	line := func(fn uint64) []byte { return (&pb{}).varint(fLineFunctionID, fn).b }
	// Location 1 inlines mapaccess (innermost) into gpu pump; 2 is sim;
	// 3 futex; 4 findRunnable; 5 GC worker; 6 llm.
	prof.bytes(fProfileLocation, (&pb{}).varint(fLocationID, 1).bytes(fLocationLine, line(1)).bytes(fLocationLine, line(2)).b)
	for id, fn := range map[uint64]uint64{2: 3, 3: 4, 4: 5, 5: 6, 6: 7} {
		prof.bytes(fProfileLocation, (&pb{}).varint(fLocationID, id).bytes(fLocationLine, line(fn)).b)
	}
	sample := func(count uint64, locs ...uint64) {
		prof.bytes(fProfileSample, (&pb{}).bytes(fSampleLocationID, packed(locs...)).bytes(fSampleValue, packed(count, count*10_000_000)).b)
	}
	sample(6, 1, 2)    // gpu, via the inlined frame
	sample(2, 3, 4)    // runtime_sched
	sample(1, 6, 1, 2) // llm is innermost
	// Unpacked fields, as a protobuf writer may also emit.
	prof.bytes(fProfileSample, (&pb{}).varint(fSampleLocationID, 3).varint(fSampleLocationID, 5).varint(fSampleValue, 1).b)
	for _, s := range strs {
		prof.bytes(fProfileString, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := attribute(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"gpu": 6, "runtime_sched": 2, "llm": 1, "runtime_gc": 1}
	if len(got) != len(want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("attribute = %v, want %v", got, want)
		}
	}
}

// TestAttributeRuntimeProfile decodes a real runtime/pprof CPU profile.
func TestAttributeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 0.0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	got, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for b := range got {
		if !slices.Contains(cpuBuckets, b) {
			t.Errorf("sample attributed to undeclared bucket %q", b)
		}
	}
	if x == 0 {
		t.Fatal("busy loop did no work")
	}
}
