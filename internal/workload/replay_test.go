package workload_test

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// replay records the first n committed instructions of (bench, seed) and
// returns a trace.Source over the recording.
func replay(t *testing.T, bench string, seed, n uint64) *trace.Source {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, prof.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Record(n); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	src, err := tr.Source()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestReplayMatchesGenerator pins the replay contract: a recorded
// generator must replay indistinguishably from a fresh one — same
// committed stream, same wrong-path stream (including its dependence on
// recently committed addresses), and identical behaviour past the
// recorded prefix.
func TestReplayMatchesGenerator(t *testing.T) {
	const recorded = 5_000
	rep := replay(t, "gcc", 7, recorded)
	if rep.Name() != "gcc" || rep.Suite() != workload.SuiteInt {
		t.Fatalf("replay metadata wrong: %q %v", rep.Name(), rep.Suite())
	}
	prof, _ := workload.ByName("gcc")
	gen := prof.New(7)
	var a, b isa.Inst
	// Interleave committed and wrong-path reads, crossing the recorded
	// boundary to exercise the live-generation fallback.
	for i := 0; i < recorded+2_000; i++ {
		gen.Next(&a)
		rep.Next(&b)
		if a != b {
			t.Fatalf("committed inst %d diverges: %+v vs %+v", i, a, b)
		}
		if i%37 == 0 {
			gen.WrongPath(&a)
			rep.WrongPath(&b)
			if a != b {
				t.Fatalf("wrong-path inst at %d diverges: %+v vs %+v", i, a, b)
			}
		}
	}
}

// TestWarmupEquivalentToNext pins the Source.Warmup contract for the
// generator and for a replay whose warm-up crosses the end of its
// recording: Warmup(n, f) must leave the source in exactly the state n
// Next calls would, and deliver the same memory addresses.
func TestWarmupEquivalentToNext(t *testing.T) {
	prof, err := workload.ByName("equake")
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []struct {
		name string
		mk   func(*testing.T) workload.Source
	}{
		{"generator", func(*testing.T) workload.Source { return prof.New(3) }},
		{"replay", func(t *testing.T) workload.Source { return replay(t, "equake", 3, 9_000) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			// Budget far beyond warmupSafety to exercise count mode, and
			// deliberately not aligned to any batch size.
			const n = 10_123
			ref := mk.mk(t)
			var refAddrs []uint64
			var in isa.Inst
			for i := 0; i < n; i++ {
				ref.Next(&in)
				if in.IsMem() {
					refAddrs = append(refAddrs, in.Addr)
				}
			}
			warm := mk.mk(t)
			var warmAddrs []uint64
			warm.Warmup(n, func(addr uint64) { warmAddrs = append(warmAddrs, addr) })
			if len(refAddrs) != len(warmAddrs) {
				t.Fatalf("warmup saw %d memory refs, Next saw %d", len(warmAddrs), len(refAddrs))
			}
			for i := range refAddrs {
				if refAddrs[i] != warmAddrs[i] {
					t.Fatalf("memory ref %d differs: %#x vs %#x", i, warmAddrs[i], refAddrs[i])
				}
			}
			// Post-warm-up state must be identical: committed stream,
			// sequence numbers and wrong-path synthesis all line up.
			var a, b isa.Inst
			for i := 0; i < 3_000; i++ {
				ref.Next(&a)
				warm.Next(&b)
				if a != b {
					t.Fatalf("inst %d after warm-up diverges: %+v vs %+v", i, a, b)
				}
				if i%29 == 0 {
					ref.WrongPath(&a)
					warm.WrongPath(&b)
					if a != b {
						t.Fatalf("wrong-path inst after warm-up diverges: %+v vs %+v", a, b)
					}
				}
			}
		})
	}
}
