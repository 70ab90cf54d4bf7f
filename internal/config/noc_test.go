package config

import (
	"encoding/json"
	"testing"
)

// TestNoCPlaceWarmKeyInvariant: fabric and placement are timing-only — they
// cannot change functional warm-up state, so warm-up checkpoints must be
// shared across every noc/place setting.
func TestNoCPlaceWarmKeyInvariant(t *testing.T) {
	base := Default()
	variants := []func(*Config){
		func(c *Config) { c.NoC = NoCContended },
		func(c *Config) { c.NoC = NoCContended; c.NoCLinkWidth = 4 },
		func(c *Config) { c.Place = PlaceLeastLoaded },
		func(c *Config) { c.Place = PlaceSteal },
	}
	for i, mut := range variants {
		c := Default()
		mut(&c)
		if c.WarmKey() != base.WarmKey() {
			t.Errorf("variant %d: timing-only fabric/placement setting changed the warm-up key", i)
		}
	}
}

// TestNoCPlaceTextForms covers the enums' registry parse and JSON text
// round trips, including the accepted spelling aliases.
func TestNoCPlaceTextForms(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want NoCModel
	}{{"analytic", NoCAnalytic}, {"free", NoCAnalytic}, {"contended", NoCContended}} {
		c := Default()
		if err := SetField(&c, "noc.model", tt.in); err != nil || c.NoC != tt.want {
			t.Errorf("noc.model=%s set %v, %v", tt.in, c.NoC, err)
		}
	}
	c := Default()
	if err := SetField(&c, "noc.model", "warp"); err == nil {
		t.Error("noc.model accepted garbage")
	}
	for _, tt := range []struct {
		in   string
		want PlacePolicy
	}{
		{"modn", PlaceModN}, {"mod-n", PlaceModN},
		{"leastloaded", PlaceLeastLoaded}, {"least-loaded", PlaceLeastLoaded},
		{"steal", PlaceSteal},
	} {
		c := Default()
		if err := SetField(&c, "place.policy", tt.in); err != nil || c.Place != tt.want {
			t.Errorf("place.policy=%s set %v, %v", tt.in, c.Place, err)
		}
	}
	if err := SetField(&c, "place.policy", "random"); err == nil {
		t.Error("place.policy accepted garbage")
	}

	c = Default()
	c.NoC = NoCContended
	c.NoCLinkWidth = 2
	c.Place = PlaceLeastLoaded
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Errorf("JSON round trip changed the config:\n got %+v\nwant %+v", back, c)
	}
}
