package fmc

import (
	"repro/internal/config"
	"repro/internal/noc"
)

// EpochStateFlits is the size of the architectural state block (register
// checkpoint + epoch metadata) that moves across the mesh when an epoch is
// placed off its home bank. Placement policies that steal banks pay this
// migration bandwidth through noc.Fabric.MigrateState.
const EpochStateFlits = 8

// Placer decides which physical bank (memory engine) hosts a new virtual
// epoch. Place is called exactly when an epoch opens: v is the virtual id,
// t the cycle the opening op arrived, prev the bank of the previously opened
// epoch (-1 for the first), and bankFree[b] the cycle bank b's last occupant
// fully committed. The returned bank must be in [0, len(bankFree)).
// Implementations must be deterministic: placement feeds timing, and timing
// feeds the golden/digest gates.
type Placer interface {
	// Place picks the bank for virtual epoch v.
	Place(v, t int64, prev int, bankFree []int64) int
}

// ModN is the paper's interleaved placement: virtual epoch v occupies bank
// v mod NumEpochs. The default, and bit-identical to the pre-Placer code.
type ModN struct{}

// Place implements Placer.
func (ModN) Place(v, _ int64, _ int, bankFree []int64) int {
	return int(v % int64(len(bankFree)))
}

// LeastLoaded places each epoch on the bank that can accept it earliest
// (smallest max(t, bankFree[b])), breaking ties toward the bank nearest the
// previous epoch's bank in fabric hops, then toward the lower index. It
// trades home-bank affinity for minimum bank-reuse stalling.
type LeastLoaded struct {
	// Fab supplies hop distances for the locality tie-break (nil = ignore
	// locality).
	Fab noc.Fabric
}

// Place implements Placer.
func (p *LeastLoaded) Place(_ int64, t int64, prev int, bankFree []int64) int {
	best := -1
	var bestEff int64
	bestDist := 0
	for b := range bankFree {
		eff := bankFree[b]
		if eff < t {
			eff = t
		}
		d := 0
		if p.Fab != nil && prev >= 0 {
			d = p.Fab.Distance(prev, b)
		}
		if best < 0 || eff < bestEff || (eff == bestEff && d < bestDist) {
			best, bestEff, bestDist = b, eff, d
		}
	}
	return best
}

// Steal keeps the mod-N home bank whenever it is already free and otherwise
// steals the free bank nearest the previous epoch's bank (falling back to
// the home bank and its reuse stall when no bank is free). A steal moves the
// epoch's state block off its home, so the caller charges migration
// bandwidth for it.
type Steal struct {
	// Fab supplies hop distances for choosing the nearest free bank (nil =
	// lowest-index free bank).
	Fab noc.Fabric
}

// Place implements Placer.
func (p *Steal) Place(v, t int64, prev int, bankFree []int64) int {
	home := int(v % int64(len(bankFree)))
	if bankFree[home] <= t {
		return home
	}
	best := -1
	bestDist := 0
	for b := range bankFree {
		if bankFree[b] > t {
			continue
		}
		d := 0
		if p.Fab != nil && prev >= 0 {
			d = p.Fab.Distance(prev, b)
		}
		if best < 0 || d < bestDist {
			best, bestDist = b, d
		}
	}
	if best < 0 {
		return home
	}
	return best
}

// PlacerFor builds the placement policy cfg selects, wired to fab for
// locality decisions.
func PlacerFor(cfg *config.Config, fab noc.Fabric) Placer {
	switch cfg.Place {
	case config.PlaceLeastLoaded:
		return &LeastLoaded{Fab: fab}
	case config.PlaceSteal:
		return &Steal{Fab: fab}
	default:
		return ModN{}
	}
}

// BankMap resolves a virtual epoch id to the physical bank hosting it. The
// live Epochs manager implements it from its placement record; HomeBanks is
// the static mod-N fallback for schemes running without an epoch manager.
type BankMap interface {
	// Bank returns the physical bank hosting virtual epoch v.
	Bank(v int64) int
}

// HomeBanks is the static mod-N BankMap over n banks.
type HomeBanks int

// Bank implements BankMap.
func (n HomeBanks) Bank(v int64) int { return int(v % int64(n)) }
