package sweep

import (
	"sync"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/store"
)

// warmGeometry is what a job's warm-up depends on besides its workload:
// both cache geometries and the warm-up budget (config.WarmKey without the
// trace identity).
type warmGeometry struct {
	l1, l2 [3]int
	warmup uint64
}

func geometryOf(c *config.Config) warmGeometry {
	return warmGeometry{
		l1:     [3]int{c.L1.SizeBytes, c.L1.Ways, c.L1.LineBytes},
		l2:     [3]int{c.L2.SizeBytes, c.L2.Ways, c.L2.LineBytes},
		warmup: c.WarmupInsts,
	}
}

// groupByGeometry orders slots so that the jobs of one warm-up geometry run
// together: groups in order of first appearance, slots within a group in
// submission order. A geometry's benchmarks still build their snapshots in
// parallel, and each snapshot is needed only while its group runs.
func groupByGeometry(slots []*slot) []*slot {
	var order []warmGeometry
	groups := make(map[warmGeometry][]*slot)
	for _, s := range slots {
		g := geometryOf(&s.job.Config)
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], s)
	}
	out := make([]*slot, 0, len(slots))
	for _, g := range order {
		out = append(out, groups[g]...)
	}
	return out
}

// warmups is one Run's checkpoint store. It holds each snapshot the Run
// builds, or reads from the Runner's Checkpoints, until the last of the
// Run's jobs resuming from it has finished, and passes every build on to
// Checkpoints. A snapshot stored under a key no job counted (a trace
// whose digest the point resolved itself) is held until the Run ends.
type warmups struct {
	next store.Store[ckpt.Snapshot] // Runner.Checkpoints; may be nil

	mu    sync.Mutex
	snaps map[string]*ckpt.Snapshot
	left  map[string]int // unfinished jobs per ckpt.Key
}

func newWarmups(next store.Store[ckpt.Snapshot], pending []*slot) *warmups {
	w := &warmups{next: next, snaps: make(map[string]*ckpt.Snapshot), left: make(map[string]int)}
	for _, s := range pending {
		w.left[s.ckptKey]++
	}
	return w
}

// Get implements store.Store. A hit from Checkpoints is held like a build,
// so the Run decodes each stored snapshot once.
func (w *warmups) Get(key string) (*ckpt.Snapshot, bool) {
	w.mu.Lock()
	snap, ok := w.snaps[key]
	w.mu.Unlock()
	if ok || w.next == nil {
		return snap, ok
	}
	if snap, ok = w.next.Get(key); ok {
		w.hold(key, snap)
	}
	return snap, ok
}

// Put implements store.Store.
func (w *warmups) Put(key string, snap *ckpt.Snapshot) {
	w.hold(key, snap)
	if w.next != nil {
		w.next.Put(key, snap)
	}
}

func (w *warmups) hold(key string, snap *ckpt.Snapshot) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.snaps[key] = snap
}

// release records that one job counted under key has finished, failed or
// not, and drops the key's snapshot after the last of them.
func (w *warmups) release(key string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.left[key]--; w.left[key] == 0 {
		delete(w.snaps, key)
	}
}
