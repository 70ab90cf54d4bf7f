package stats

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Event identifies one counted simulator event: an index into the event
// table and into every Tally.
type Event uint8

// The event IDs, grouped by the layer that counts them. Within one priced
// structure the order is the order internal/energy sums its events in, so
// reordering those entries would move energy reports in the last bit.
const (
	// Pipeline (internal/cpu); committed loads and every timed hierarchy
	// access (loads, store commits, SVW re-executions, wrong-path
	// pollution) by the level that satisfied them.
	Mispredict Event = iota
	Violation
	PartialForward
	LLSquash
	RLACStall
	RSACStall
	MigrateStallCycles
	WrongPathLoad
	WrongPathStore
	WrongPathOther
	LoadL1
	LoadL2
	LoadMem
	L1Access
	L2Access
	MemAccess
	// Queue searches and insertions (internal/lsq, internal/core).
	HLSQ
	HLLQ
	LLSQ
	LLLQ
	RoundTrip
	LLForwardLocal
	LLForwardGlobal
	// The Epoch Resolution Table and Store Queue Mirror (internal/core).
	ERT
	ERTInsert
	ERTFalsePositive
	ERTLockSquash
	ERTLockStall
	ERTLockBypass
	SQMSearch
	SQMUpdate
	// Store Vulnerability Window re-execution (internal/svw).
	Reexec
	ReexecFiltered
	SSBFRead
	SSBFWrite
	// Classifier accuracy and table activity (internal/predict).
	PredHit
	PredMiss
	PredLL
	PredFalseLL
	PredRead
	PredWrite
	// Fabric traffic over the measured region (internal/noc).
	NoCHops
	NoCOneWay
	NoCRoundTrip
	NoCMigrateFlit
	NoCLinkWait
	NoCBusWait
	// Epoch lifecycle and placement (internal/fmc).
	EpochOpen
	EpochSteal
	EpochRelease
	MEIssue
	PlaceSteals
	// NumEvents is the number of events: the length of a Tally.
	NumEvents
)

// Kind is how internal/energy prices one event of a priced table entry: at
// the structure's capacity-scaled access energy or at a fixed per-event
// energy.
type Kind uint8

const (
	Unpriced      Kind = iota // no energy
	KindAccess                // a read or search of the structure's array
	KindWrite                 // a write or insert: a read times the write factor
	KindControl               // an epoch-lifecycle or engine-issue control event
	KindHop                   // a mesh link traversal
	KindOneWay                // a one-way bus message
	KindRoundTrip             // a bus round trip
	KindFlit                  // a migrated epoch-state flit
	KindMem                   // an off-chip main-memory access
)

// EventInfo is one entry of the event table.
type EventInfo struct {
	// Name is the counter name results report the event under.
	Name string
	// Structure names the hardware structure internal/energy charges the
	// event to, at Kind's per-event energy. It is empty, and Kind
	// Unpriced, for the events the energy model does not price: the
	// scheme's RoundTrip mirrors bus trips NoCRoundTrip prices, and an
	// SVW re-execution pays its cache access through the level events.
	Structure string
	Kind      Kind
}

// table is the event table, indexed by Event.
var table = [NumEvents]EventInfo{
	Mispredict:         {Name: "mispredict"},
	Violation:          {Name: "violation"},
	PartialForward:     {Name: "partial_forward"},
	LLSquash:           {Name: "ll_squash"},
	RLACStall:          {Name: "rlac_stall"},
	RSACStall:          {Name: "rsac_stall"},
	MigrateStallCycles: {Name: "migrate_stall_cycles"},
	WrongPathLoad:      {Name: "wrongpath_load"},
	WrongPathStore:     {Name: "wrongpath_store"},
	WrongPathOther:     {Name: "wrongpath_other"},
	LoadL1:             {Name: "load_L1"},
	LoadL2:             {Name: "load_L2"},
	LoadMem:            {Name: "load_mem"},
	L1Access:           {"l1_access", "l1", KindAccess},
	L2Access:           {"l2_access", "l2", KindAccess},
	MemAccess:          {"mem_access", "mem_if", KindMem},
	HLSQ:               {"hl_sq", "hl_sq", KindAccess},
	HLLQ:               {"hl_lq", "hl_lq", KindAccess},
	LLSQ:               {"ll_sq", "ll_lsq", KindAccess},
	LLLQ:               {"ll_lq", "ll_lsq", KindAccess},
	RoundTrip:          {Name: "roundtrip"},
	LLForwardLocal:     {Name: "ll_forward_local"},
	LLForwardGlobal:    {Name: "ll_forward_global"},
	ERT:                {"ert", "ert", KindAccess},
	ERTInsert:          {"ert_insert", "ert", KindWrite},
	ERTFalsePositive:   {Name: "ert_false_positive"},
	ERTLockSquash:      {Name: "ert_lock_squash"},
	ERTLockStall:       {Name: "ert_lock_stall"},
	ERTLockBypass:      {Name: "ert_lock_bypass"},
	SQMSearch:          {"sqm_search", "sqm", KindAccess},
	SQMUpdate:          {"sqm_update", "sqm", KindWrite},
	Reexec:             {Name: "reexec"},
	ReexecFiltered:     {Name: "reexec_filtered"},
	SSBFRead:           {"ssbf_read", "ssbf", KindAccess},
	SSBFWrite:          {"ssbf_write", "ssbf", KindWrite},
	PredHit:            {Name: "pred_hit"},
	PredMiss:           {Name: "pred_miss"},
	PredLL:             {Name: "pred_ll"},
	PredFalseLL:        {Name: "pred_false_ll"},
	PredRead:           {"pred_read", "pred", KindAccess},
	PredWrite:          {"pred_write", "pred", KindWrite},
	NoCHops:            {"noc_hops", "noc", KindHop},
	NoCOneWay:          {"noc_oneway", "noc", KindOneWay},
	NoCRoundTrip:       {"noc_roundtrip", "noc", KindRoundTrip},
	NoCMigrateFlit:     {"noc_migrate_flit", "noc", KindFlit},
	NoCLinkWait:        {Name: "noc_link_wait"},
	NoCBusWait:         {Name: "noc_bus_wait"},
	EpochOpen:          {"epoch_open", "fmc", KindControl},
	EpochSteal:         {"epoch_steal", "fmc", KindControl},
	EpochRelease:       {"epoch_release", "fmc", KindControl},
	MEIssue:            {"me_issue", "fmc", KindControl},
	PlaceSteals:        {Name: "place_steals"},
}

// byName maps every counter name back to its event.
var byName = func() map[string]Event {
	m := make(map[string]Event, NumEvents)
	for e := range NumEvents {
		m[table[e].Name] = e
	}
	return m
}()

// Info returns e's table entry.
func (e Event) Info() EventInfo { return table[e] }

// Tally is one lane's count of every event, indexed by Event. The
// simulator increments it in place (ev[stats.ERT]++); a copy of it is a
// complete snapshot of a run's counters.
type Tally [NumEvents]uint64

// Counters is the name-keyed report view of a finished run's Tally: an
// event is listed (Names, Snapshot, String, JSON) if and only if its
// count is non-zero. The zero value lists nothing.
type Counters struct {
	Tally Tally
}

// Get returns the named event's count: 0 when it never fired, and for a
// name outside the event table.
func (c *Counters) Get(name string) uint64 {
	if e, ok := byName[name]; ok {
		return c.Tally[e]
	}
	return 0
}

// Snapshot returns every listed event's count as a plain map.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	for e, v := range c.Tally {
		if v != 0 {
			out[table[e].Name] = v
		}
	}
	return out
}

// Names returns the names of every listed event in sorted order.
func (c *Counters) Names() []string { return slices.Sorted(maps.Keys(c.Snapshot())) }

// String renders the listed events as "name=value" lines, sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for _, n := range c.Names() {
		fmt.Fprintf(&b, "%s=%d\n", n, c.Get(n))
	}
	return b.String()
}

// MarshalJSON implements json.Marshaler, so results serialise into sweep
// artifacts and the on-disk result cache.
func (c *Counters) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}

// UnmarshalJSON implements json.Unmarshaler. It rejects a name outside the
// event table, so an entry written under a retired counter set fails to
// decode instead of silently dropping counts.
func (c *Counters) UnmarshalJSON(b []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	c.Tally = Tally{}
	for name, v := range m {
		e, ok := byName[name]
		if !ok {
			return fmt.Errorf("stats: unknown event %q", name)
		}
		c.Tally[e] = v
	}
	return nil
}
