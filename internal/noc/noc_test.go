package noc

import (
	"testing"
	"testing/quick"
)

func TestMeshDistance(t *testing.T) {
	f := NewAnalytic(4, 4, 1, 4)
	tests := []struct {
		a, b, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},
		{0, 4, 1},  // one row down
		{0, 15, 6}, // opposite corner of 4x4
		{5, 10, 2},
	}
	for _, tt := range tests {
		if got := f.Distance(tt.a, tt.b); got != tt.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMeshDistanceProperties(t *testing.T) {
	f := NewAnalytic(4, 4, 1, 4)
	sym := func(a, b uint8) bool {
		x, y := int(a)%16, int(b)%16
		return f.Distance(x, y) == f.Distance(y, x)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Errorf("distance symmetry: %v", err)
	}
	tri := func(a, b, c uint8) bool {
		x, y, z := int(a)%16, int(b)%16, int(c)%16
		return f.Distance(x, z) <= f.Distance(x, y)+f.Distance(y, z)
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
}

// TestMeshEdgeGeometries covers degenerate shapes: single-row and
// single-column meshes (where one Manhattan axis is pinned to zero), a
// single node, and corner-to-corner extremes on tall/wide rectangles.
func TestMeshEdgeGeometries(t *testing.T) {
	t.Run("1xN row", func(t *testing.T) {
		f := NewAnalytic(8, 1, 1, 4)
		if f.Size() != 8 {
			t.Fatalf("Size = %d, want 8", f.Size())
		}
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				want := a - b
				if want < 0 {
					want = -want
				}
				if got := f.Distance(a, b); got != want {
					t.Errorf("Distance(%d,%d) = %d, want %d", a, b, got, want)
				}
			}
		}
		if got := f.Distance(0, 7); got != 7 {
			t.Errorf("end-to-end distance = %d, want 7", got)
		}
	})
	t.Run("Nx1 column", func(t *testing.T) {
		f := NewAnalytic(1, 8, 1, 4)
		if f.Size() != 8 {
			t.Fatalf("Size = %d, want 8", f.Size())
		}
		// With width 1 every index is a row: distance is pure vertical hops.
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				want := a - b
				if want < 0 {
					want = -want
				}
				if got := f.Distance(a, b); got != want {
					t.Errorf("Distance(%d,%d) = %d, want %d", a, b, got, want)
				}
			}
		}
	})
	t.Run("single node", func(t *testing.T) {
		f := NewAnalytic(1, 1, 5, 4)
		if f.Size() != 1 || f.Distance(0, 0) != 0 || f.Route(0, 0, 7) != 7 {
			t.Error("1x1 mesh is not free to traverse")
		}
		if hops := f.Traffic().Hops; hops != 0 {
			t.Errorf("self-traversal recorded %d hops", hops)
		}
	})
	t.Run("corner to corner", func(t *testing.T) {
		for _, g := range []struct{ w, h, want int }{
			{4, 4, 6},   // square
			{8, 2, 8},   // wide
			{2, 8, 8},   // tall
			{16, 1, 15}, // degenerate row
		} {
			f := NewAnalytic(g.w, g.h, 1, 4)
			last := f.Size() - 1
			if got := f.Distance(0, last); got != g.want {
				t.Errorf("%dx%d corner distance = %d, want %d", g.w, g.h, got, g.want)
			}
			if got := f.Distance(last, 0); got != g.want {
				t.Errorf("%dx%d reverse corner distance = %d, want %d", g.w, g.h, got, g.want)
			}
		}
	})
}

// TestMeshHopAccumulation checks Route's latency and hop accounting across
// a sequence of messages, including zero-distance and zero-cost cases.
func TestMeshHopAccumulation(t *testing.T) {
	f := NewAnalytic(4, 4, 3, 4)
	wantHops := uint64(0)
	for _, pair := range [][2]int{{0, 15}, {15, 0}, {5, 5}, {0, 1}, {3, 12}} {
		d := f.Distance(pair[0], pair[1])
		if lat := f.Route(pair[0], pair[1], 100) - 100; lat != int64(3*d) {
			t.Errorf("Route(%d,%d) = %d cycles, want %d", pair[0], pair[1], lat, 3*d)
		}
		wantHops += uint64(d)
		if hops := f.Traffic().Hops; hops != wantHops {
			t.Errorf("after Route(%d,%d): Hops = %d, want %d", pair[0], pair[1], hops, wantHops)
		}
	}
	// A free (hopCost 0) mesh still accounts hops.
	free := NewAnalytic(4, 4, 0, 4)
	if arr := free.Route(0, 15, 9); arr != 9 {
		t.Errorf("zero-cost route arrives at %d, want 9", arr)
	}
	if hops := free.Traffic().Hops; hops != 6 {
		t.Errorf("zero-cost route recorded %d hops, want 6", hops)
	}
}

func TestMeshTraverse(t *testing.T) {
	f := NewAnalytic(4, 4, 2, 4)
	if arr := f.Route(0, 15, 0); arr != 12 {
		t.Errorf("Route latency = %d, want 12", arr)
	}
	if hops := f.Traffic().Hops; hops != 6 {
		t.Errorf("Hops = %d, want 6", hops)
	}
	if f.Size() != 16 {
		t.Errorf("Size = %d", f.Size())
	}
}

func TestBus(t *testing.T) {
	f := NewAnalytic(4, 4, 1, 4)
	if arr := f.BusOneWay(10); arr != 14 {
		t.Errorf("BusOneWay(10) = %d, want 14", arr)
	}
	if arr := f.BusRoundTrip(10); arr != 18 {
		t.Errorf("BusRoundTrip(10) = %d, want 18", arr)
	}
	tr := f.Traffic()
	if tr.OneWays != 1 || tr.RoundTrips != 1 {
		t.Errorf("traffic = %d/%d", tr.OneWays, tr.RoundTrips)
	}
	if tr.Hops != 0 || tr.BusWaitCycles != 0 || tr.LinkWaitCycles != 0 {
		t.Errorf("bus messages touched mesh or wait columns: %+v", tr)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewAnalytic(0, 4, 1, 4) },
		func() { NewAnalytic(4, 0, 1, 4) },
		func() { NewAnalytic(4, 4, -1, 4) },
		func() { NewAnalytic(-1, 4, 1, 4) },
		func() { NewAnalytic(4, -1, 1, 4) },
		func() { NewAnalytic(0, 0, 0, 0) },
		func() { NewAnalytic(4, 4, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid geometry accepted")
				}
			}()
			f()
		}()
	}
}
