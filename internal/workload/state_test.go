package workload

import (
	"encoding/json"
	"testing"

	"repro/internal/isa"
)

// drain consumes n committed-path instructions, interleaving the occasional
// wrong-path draw the way the pipeline model does under speculation.
func drain(s Source, n int, wrongPathEvery int) {
	var in isa.Inst
	for i := 0; i < n; i++ {
		s.Next(&in)
		if wrongPathEvery > 0 && i%wrongPathEvery == wrongPathEvery-1 {
			s.WrongPath(&in)
		}
	}
}

// sameStreams fails unless a and b produce identical committed-path and
// wrong-path streams for n more instructions.
func sameStreams(t *testing.T, label string, a, b Source, n int) {
	t.Helper()
	var ia, ib isa.Inst
	for i := 0; i < n; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("%s: committed instruction %d diverged:\n a: %+v\n b: %+v", label, i, ia, ib)
		}
		if i%7 == 0 {
			a.WrongPath(&ia)
			b.WrongPath(&ib)
			if ia != ib {
				t.Fatalf("%s: wrong-path instruction %d diverged:\n a: %+v\n b: %+v", label, i, ia, ib)
			}
		}
	}
}

// TestSnapshotRestoreEquivalence is the determinism contract of state.go:
// restoring a snapshot onto a fresh generator of every benchmark resumes
// both streams bit-identically, including mid-batch queue surplus and the
// JSON round trip the disk store performs.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	for _, p := range append(IntSuite(), FPSuite()...) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			g1 := p.New(3)
			// Odd count so warm-up style consumption stops mid-batch for
			// most kernels, leaving a queue surplus in the snapshot.
			drain(g1, 12_345, 97)
			st := g1.Snapshot()
			if st.Consumed != 12_345 {
				t.Fatalf("Consumed = %d, want 12345", st.Consumed)
			}

			// JSON round trip, as the checkpoint store performs.
			buf, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var st2 SourceState
			if err := json.Unmarshal(buf, &st2); err != nil {
				t.Fatal(err)
			}

			g2 := p.New(3)
			if err := g2.Restore(&st2); err != nil {
				t.Fatal(err)
			}
			sameStreams(t, "generator restore", g1, g2, 8_000)
		})
	}
}

// TestSnapshotAfterWarmup captures the checkpoint subsystem's exact usage:
// snapshot after a Warmup call (count-mode emission plus tail walk), restore
// onto a fresh generator, and require identical measured-phase streams and
// identical warm-up memory reference sequences.
func TestSnapshotAfterWarmup(t *testing.T) {
	p, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g1 := p.New(1)
	var addrs1 []uint64
	g1.Warmup(50_000, func(a uint64) { addrs1 = append(addrs1, a) })
	st := g1.Snapshot()

	g2 := p.New(1)
	if err := g2.Restore(st); err != nil {
		t.Fatal(err)
	}
	sameStreams(t, "post-warmup restore", g1, g2, 10_000)

	// A second fresh generator warmed the slow way must agree with the
	// snapshot's captured position.
	g3 := p.New(1)
	var addrs2 []uint64
	g3.Warmup(50_000, func(a uint64) { addrs2 = append(addrs2, a) })
	if len(addrs1) != len(addrs2) {
		t.Fatalf("warm-up reference counts diverged: %d vs %d", len(addrs1), len(addrs2))
	}
	st3 := g3.Snapshot()
	if st3.Consumed != st.Consumed || st3.RNG != st.RNG {
		t.Fatalf("independent warm-ups captured different states: %+v vs %+v", st3, st)
	}
}

func TestRestoreRejectsMismatchedState(t *testing.T) {
	swim, _ := ByName("swim")
	gcc, _ := ByName("gcc")
	st := swim.New(1).Snapshot()

	if err := gcc.New(1).Restore(st); err == nil {
		t.Error("restore accepted a snapshot from a different benchmark")
	}
	if err := swim.New(2).Restore(st); err == nil {
		t.Error("restore accepted a snapshot from a different seed")
	}
	bad := *st
	bad.Version = StateVersion + 1
	if err := swim.New(1).Restore(&bad); err == nil {
		t.Error("restore accepted a snapshot with a future state version")
	}
	truncated := *st
	truncated.Kernel = truncated.Kernel[:len(truncated.Kernel)-1]
	if err := swim.New(1).Restore(&truncated); err == nil {
		t.Error("restore accepted a truncated kernel state")
	}
}

// TestRestoreRejectsOutOfRangeRecentPos: a corrupt wrong-path ring position
// must fail Restore with an error, not restore cleanly and panic on the
// next Next.
func TestRestoreRejectsOutOfRangeRecentPos(t *testing.T) {
	for _, bench := range []string{"mcf", "swim", "gcc"} {
		p, err := ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		g := p.New(1)
		g.Warmup(5000, func(uint64) {})
		st := g.Snapshot()
		for _, pos := range []int{1 << 40, -1, len(st.Recent)} {
			bad := *st
			bad.RecentPos = pos
			if err := p.New(1).Restore(&bad); err == nil {
				t.Errorf("%s: restore accepted recent_pos %d", bench, pos)
			}
		}
	}
}
