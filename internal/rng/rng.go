// Package rng provides a small, fast, deterministic, splittable random
// number generator used throughout the repository.
//
// Distributed algorithms in this repo need per-node randomness that is
// (a) reproducible from a single scalar seed, (b) independent across nodes,
// and (c) cheap to fork without shared state. The generator here is
// splitmix64 (Steele, Lea & Flood 2014), whose output function is a strong
// 64-bit mixer; "splitting" a stream derives a new, statistically
// independent stream from a label. math/rand is deliberately not used: its
// global source is shared mutable state, and seeding many per-node
// generators from it is neither reproducible nor race-free.
package rng

import "math/bits"

// golden is the splitmix64 sequence constant (2^64 / phi, odd).
const golden = 0x9e3779b97f4a7c15

// RNG is a deterministic pseudo-random generator. The zero value is a valid
// generator seeded with 0; prefer New so distinct uses get distinct streams.
// An RNG is not safe for concurrent use; give each goroutine its own stream
// via Split.
type RNG struct {
	state uint64
	draws uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: mix(seed)}
}

// mix is the splitmix64 output function: a bijective 64-bit finalizer with
// full avalanche. It is used both for output and for deriving child seeds.
func mix(z uint64) uint64 {
	z += golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.draws++
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Draws returns the number of Uint64 calls this stream has served,
// including calls made internally by the derived samplers (Intn, Float64,
// Perm, ...). Draws is a pure observation — reading it does not advance the
// stream — and child streams created by Split start at zero. The execution
// tracer records per-round draw totals from it, so two runs that disagree
// anywhere in their randomness disagree in their traces too.
func (r *RNG) Draws() uint64 { return r.draws }

// Split derives a new generator from this one, labeled by label. Two splits
// of the same parent state with different labels yield independent streams,
// and splitting does not advance the parent: Split is a pure function of
// (parent state, label). This is what gives per-node determinism — node i's
// stream is Split(i) of the experiment's root generator regardless of the
// order nodes are visited.
func (r *RNG) Split(label uint64) *RNG {
	// Feed the label through two rounds of mixing against the parent state
	// so that consecutive labels (0, 1, 2, ...) land far apart.
	return &RNG{state: mix(r.state ^ mix(label^0xd6e8feb86659fd93))}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand, because a non-positive bound is a programming error at the call
// site, not a recoverable condition.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method (unbiased).
func (r *RNG) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. Probabilities outside [0, 1] are
// clamped: p <= 0 always returns false and p >= 1 always returns true.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniform random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
