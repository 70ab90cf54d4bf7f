package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Canonical returns the canonical serialisation of the configuration: JSON
// of every field in declaration order, enums in their text form. Equal
// encodings mean equal simulations, so the encoding doubles as the
// result-cache identity (internal/sweep) and as the config record embedded
// in sweep artifacts. The converse does not hold: a field the rest of the
// config makes inert (ssbf.bits under the ELSQ, class.bits under the
// reactive policy) still splits the identity, which costs at most a
// duplicate simulation. The one rule: a trace-driven config with a resolved
// TraceDigest drops TracePath, because the digest names the instruction
// stream and the path merely locates a copy of it.
func (c *Config) Canonical() []byte {
	cc := *c
	if cc.TraceDigest != "" {
		cc.TracePath = ""
	}
	b, err := json.Marshal(&cc)
	if err != nil {
		// Config is a flat struct of ints, bools and text-marshalling
		// enums; encoding can only fail if the struct gains an
		// unserialisable field, which must not happen silently.
		panic(fmt.Sprintf("config: canonical encoding failed: %v", err))
	}
	return b
}

// Hash returns a stable short digest of the canonical encoding, usable as a
// filename or map key. Identical configurations hash identically across
// processes and runs.
func (c *Config) Hash() string {
	sum := sha256.Sum256(c.Canonical())
	return hex.EncodeToString(sum[:8])
}
