package stats

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestPer100M(t *testing.T) {
	if got := Per100M(27, 100); got != 27e6 {
		t.Errorf("Per100M(27,100) = %v", got)
	}
	if got := Per100M(5, 0); got != 0 {
		t.Errorf("Per100M with zero committed = %v, want 0", got)
	}
	if got := Per100M(100, 100_000_000); got != 100 {
		t.Errorf("Per100M identity case = %v, want 100", got)
	}
}

func TestHistogramAddAndPercentile(t *testing.T) {
	h := NewHistogram(30, 50)
	// 90 samples in bucket 0, 10 in bucket 10 (x=300..329).
	for i := 0; i < 90; i++ {
		h.Add(5)
	}
	for i := 0; i < 10; i++ {
		h.Add(305)
	}
	if h.Total != 100 {
		t.Fatalf("Total = %d", h.Total)
	}
	if p := h.Percentile(0.90); p != 30 {
		t.Errorf("P90 = %d, want 30", p)
	}
	if p := h.Percentile(0.99); p != 330 {
		t.Errorf("P99 = %d, want 330", p)
	}
}

func TestHistogramOverflowAndClamp(t *testing.T) {
	h := NewHistogram(10, 4)
	h.Add(-5) // clamps to bucket 0
	h.Add(1000)
	if h.Counts[0] != 1 {
		t.Errorf("negative sample not clamped to bucket 0")
	}
	if h.Overflow != 1 {
		t.Errorf("Overflow = %d, want 1", h.Overflow)
	}
	if h.Total != 2 {
		t.Errorf("Total = %d, want 2", h.Total)
	}
}

func TestHistogramFracWithin(t *testing.T) {
	h := NewHistogram(30, 10)
	for i := 0; i < 91; i++ {
		h.Add(3)
	}
	for i := 0; i < 9; i++ {
		h.Add(100)
	}
	if f := h.FracWithin(30); f < 0.90 || f > 0.92 {
		t.Errorf("FracWithin(30) = %v, want ~0.91", f)
	}
	if f := h.FracWithin(300); f != 1.0 {
		t.Errorf("FracWithin(300) = %v, want 1", f)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(30, 5)
	b := NewHistogram(30, 5)
	a.Add(10)
	b.Add(40)
	b.Add(10_000)
	a.Merge(b)
	if a.Total != 3 || a.Overflow != 1 || a.Counts[0] != 1 || a.Counts[1] != 1 {
		t.Errorf("merge result wrong: %+v", a)
	}
	a.Merge(nil) // no-op
	if a.Total != 3 {
		t.Error("merge with nil changed totals")
	}
}

func TestHistogramMergeIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("incompatible merge did not panic")
		}
	}()
	NewHistogram(30, 5).Merge(NewHistogram(10, 5))
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		h := NewHistogram(30, 40)
		x := uint64(seed)
		for i := 0; i < 500; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.Add(int(x % 1100))
		}
		return h.Percentile(0.5) <= h.Percentile(0.95) &&
			h.Percentile(0.95) <= h.Percentile(0.99)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v, want 2", m)
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	c.Tally[ERT] = 3
	c.Tally[HLSQ] = 5
	c.Tally[NoCHops] = 0 // a zero count is never listed
	if c.Get("ert") != 3 || c.Get("hl_sq") != 5 || c.Get("noc_hops") != 0 || c.Get("missing") != 0 {
		t.Errorf("counter values wrong: ert=%d hl_sq=%d", c.Get("ert"), c.Get("hl_sq"))
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "ert" || names[1] != "hl_sq" {
		t.Errorf("Names = %v", names)
	}
	if snap := c.Snapshot(); len(snap) != 2 || snap["ert"] != 3 || snap["hl_sq"] != 5 {
		t.Errorf("Snapshot = %v", snap)
	}
	if s := c.String(); s != "ert=3\nhl_sq=5\n" {
		t.Errorf("String = %q", s)
	}

	buf, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != `{"ert":3,"hl_sq":5}` {
		t.Errorf("JSON = %s", buf)
	}
	var back Counters
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Errorf("JSON round trip: got %v, want %v", back.Snapshot(), c.Snapshot())
	}
	// A name outside the event table (here a retired counter) is an error,
	// not a silently dropped count.
	if err := json.Unmarshal([]byte(`{"ert":1,"cache":7}`), &back); err == nil || !strings.Contains(err.Error(), "cache") {
		t.Errorf("unknown event decoded: err %v", err)
	}
}

// TestEventTable: every event has a distinct name that maps back to it, and
// an entry names a structure exactly when it is priced.
func TestEventTable(t *testing.T) {
	seen := make(map[string]bool)
	for e := range NumEvents {
		info := e.Info()
		if info.Name == "" || seen[info.Name] {
			t.Errorf("event %d: empty or duplicate name %q", e, info.Name)
		}
		seen[info.Name] = true
		if byName[info.Name] != e {
			t.Errorf("event %d does not round-trip through its name %q", e, info.Name)
		}
		if (info.Structure == "") != (info.Kind == Unpriced) {
			t.Errorf("%s: structure %q with kind %d", info.Name, info.Structure, info.Kind)
		}
	}
}

func TestNewHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(0, 1) did not panic")
		}
	}()
	NewHistogram(0, 1)
}
