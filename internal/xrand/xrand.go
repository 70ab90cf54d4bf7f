// Package xrand provides a tiny, fast, deterministic pseudo-random number
// generator (splitmix64) used by the workload generators. Determinism across
// runs and platforms is essential: every experiment in the paper reproduction
// must be exactly repeatable, and math/rand's global state or version-drifting
// algorithms would break that.
package xrand

// RNG is a splitmix64 generator. The zero value is a valid generator seeded
// with zero; prefer New to mix the seed.
type RNG struct {
	state uint64
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm up so nearby seeds diverge immediately.
	r.Uint64()
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Fork returns a new generator whose stream is independent of (but
// deterministically derived from) the parent's current state.
func (r *RNG) Fork() *RNG {
	return New(r.Uint64() ^ 0xA5A5A5A55A5A5A5A)
}

// State returns the raw generator state, for checkpointing. Restoring it
// with SetState resumes the stream exactly where State captured it.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the raw generator state previously captured by State.
// Unlike New it applies no seed mixing: the next Uint64 call continues the
// captured stream.
func (r *RNG) SetState(s uint64) { r.state = s }
