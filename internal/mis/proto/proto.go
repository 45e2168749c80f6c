// Package proto defines the small message payloads shared by the MIS
// algorithms in this repository. Every payload reports its size in bits so
// the CONGEST engine can audit the O(log n) message-size guarantee; sizes
// are honest upper bounds for an encoding a real implementation would use.
//
// Payloads travel the engine as value-typed congest.Wire records (kind tag
// + two 64-bit words + bit size) rather than boxed interface values, so
// the message hot path performs no heap allocation. Each payload type has
// a Wire() encoder, and each has a matching As* decoder that recovers the
// typed payload from a received Wire (returning ok=false on a kind
// mismatch, the moral equivalent of a failed type assertion). Encoding is
// lossless for every payload in this package.
package proto

import "repro/internal/congest"

// Priority carries one round's random priority. The analysis treats
// priorities as uniform reals in (0,1); operationally 64 random bits give a
// collision probability ~2⁻⁶⁴ per pair per round (ties are additionally
// broken by sender ID at the receiver), and 64 = O(log n) bits for every
// feasible n. Competitive == false encodes the paper's deterministic
// r(v) ← 0 for high-degree nodes (ρₖ opt-out).
type Priority struct {
	Value       uint64
	Competitive bool
}

// Bits reports the payload size: 64 priority bits plus one compete flag.
func (Priority) Bits() int { return 65 }

// EpochPriority is a Priority tagged with the iteration that drew it.
// Fault-tolerant programs need the tag: under message delay a stale
// priority may surface rounds later, and using it in the wrong iteration
// would void the safety argument, so receivers discard mismatched epochs.
type EpochPriority struct {
	Value uint64
	// Epoch is the iteration index the priority belongs to.
	Epoch int32
}

// Bits reports the payload size: 64 priority bits plus a 32-bit epoch
// (an honest upper bound; epochs are O(log n) in any terminating run).
func (EpochPriority) Bits() int { return 96 }

// Kind enumerates the one-byte announcements the algorithms exchange.
type Kind uint8

// Announcement kinds. They start at 1 so the zero value is invalid and a
// forgotten initialization is caught by tests.
const (
	// KindJoined announces "I entered the MIS".
	KindJoined Kind = iota + 1
	// KindRemoved announces "I left the competition" (a neighbor joined, or
	// I was classified bad/deferred); receivers shrink their active sets.
	KindRemoved
	// KindMarked is Luby-A/Ghaffari's "I marked myself this round".
	KindMarked
	// KindLeader is used by component-gathering to announce a leader claim.
	KindLeader
	// KindPropose is a matching proposal (Israeli-Itai).
	KindPropose
	// KindAccept accepts a matching proposal.
	KindAccept
	// KindMatched announces "I am matched" (receivers drop the sender from
	// their active sets).
	KindMatched
)

// Flag is a one-byte announcement.
type Flag struct {
	Kind Kind
}

// Bits reports the payload size.
func (Flag) Bits() int { return 8 }

// Degree carries a vertex's current active degree (Algorithm 1 step 2(b)
// needs neighbors' degrees to count high-degree neighbors).
type Degree struct {
	Value int32
}

// Bits reports the payload size.
func (Degree) Bits() int { return 32 }

// Desire carries Ghaffari's desire-level p_v as a fixed-point fraction with
// 30 fractional bits — exact for the algorithm's dyadic values (p is always
// 2^-k, k ≤ 30).
type Desire struct {
	// P30 is the desire level scaled by 2^30.
	P30 uint32
}

// Bits reports the payload size.
func (Desire) Bits() int { return 32 }

// Color carries a Cole-Vishkin color (initially an O(log n)-bit ID,
// shrinking to 3 values).
type Color struct {
	Value uint64
}

// Bits reports the payload size.
func (Color) Bits() int { return 64 }

// Level carries an H-partition / forest-decomposition level index.
type Level struct {
	Value int32
}

// Bits reports the payload size.
func (Level) Bits() int { return 32 }

// ForestEdge tells a neighbor which forest index the sender assigned to
// the connecting edge in a forest decomposition.
type ForestEdge struct {
	Forest int32
}

// Bits reports the payload size.
func (ForestEdge) Bits() int { return 32 }

// Wire kind tags for the payloads in this package. They start at 1 so the
// zero Wire (kind 0) is detectably invalid, mirroring the Kind convention
// above. The tags are part of the cross-driver determinism surface only in
// so far as programs branch on them; the engine never interprets them.
const (
	// WirePriority tags a Priority payload.
	WirePriority congest.WireKind = iota + 1
	// WireEpochPriority tags an EpochPriority payload.
	WireEpochPriority
	// WireFlag tags a Flag payload.
	WireFlag
	// WireDegree tags a Degree payload.
	WireDegree
	// WireDesire tags a Desire payload.
	WireDesire
	// WireColor tags a Color payload.
	WireColor
	// WireLevel tags a Level payload.
	WireLevel
	// WireForestEdge tags a ForestEdge payload.
	WireForestEdge
	// wireKindEnd is one past the last kind. A new kind goes above it;
	// proto_test.go requires exactly one codec for every kind below it.
	wireKindEnd
)

// boolWord encodes a flag into a wire word.
func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Wire encodes the priority for the engine hot path.
func (p Priority) Wire() congest.Wire {
	return congest.Wire{Kind: WirePriority, Bits: 65, A: p.Value, B: boolWord(p.Competitive)}
}

// AsPriority decodes a Priority from a received wire payload.
func AsPriority(w congest.Wire) (Priority, bool) {
	if w.Kind != WirePriority {
		return Priority{}, false
	}
	return Priority{Value: w.A, Competitive: w.B != 0}, true
}

// Wire encodes the tagged priority for the engine hot path.
func (p EpochPriority) Wire() congest.Wire {
	return congest.Wire{Kind: WireEpochPriority, Bits: 96, A: p.Value, B: uint64(uint32(p.Epoch))}
}

// AsEpochPriority decodes an EpochPriority from a received wire payload.
func AsEpochPriority(w congest.Wire) (EpochPriority, bool) {
	if w.Kind != WireEpochPriority {
		return EpochPriority{}, false
	}
	return EpochPriority{Value: w.A, Epoch: int32(uint32(w.B))}, true
}

// Wire encodes the announcement for the engine hot path.
func (f Flag) Wire() congest.Wire {
	return congest.Wire{Kind: WireFlag, Bits: 8, A: uint64(f.Kind)}
}

// AsFlag decodes a Flag from a received wire payload.
func AsFlag(w congest.Wire) (Flag, bool) {
	if w.Kind != WireFlag {
		return Flag{}, false
	}
	return Flag{Kind: Kind(w.A)}, true
}

// Wire encodes the degree for the engine hot path.
func (d Degree) Wire() congest.Wire {
	return congest.Wire{Kind: WireDegree, Bits: 32, A: uint64(uint32(d.Value))}
}

// AsDegree decodes a Degree from a received wire payload.
func AsDegree(w congest.Wire) (Degree, bool) {
	if w.Kind != WireDegree {
		return Degree{}, false
	}
	return Degree{Value: int32(uint32(w.A))}, true
}

// Wire encodes the desire level for the engine hot path.
func (d Desire) Wire() congest.Wire {
	return congest.Wire{Kind: WireDesire, Bits: 32, A: uint64(d.P30)}
}

// AsDesire decodes a Desire from a received wire payload.
func AsDesire(w congest.Wire) (Desire, bool) {
	if w.Kind != WireDesire {
		return Desire{}, false
	}
	return Desire{P30: uint32(w.A)}, true
}

// Wire encodes the color for the engine hot path.
func (c Color) Wire() congest.Wire {
	return congest.Wire{Kind: WireColor, Bits: 64, A: c.Value}
}

// AsColor decodes a Color from a received wire payload.
func AsColor(w congest.Wire) (Color, bool) {
	if w.Kind != WireColor {
		return Color{}, false
	}
	return Color{Value: w.A}, true
}

// Wire encodes the level for the engine hot path.
func (l Level) Wire() congest.Wire {
	return congest.Wire{Kind: WireLevel, Bits: 32, A: uint64(uint32(l.Value))}
}

// AsLevel decodes a Level from a received wire payload.
func AsLevel(w congest.Wire) (Level, bool) {
	if w.Kind != WireLevel {
		return Level{}, false
	}
	return Level{Value: int32(uint32(w.A))}, true
}

// Wire encodes the forest index for the engine hot path.
func (f ForestEdge) Wire() congest.Wire {
	return congest.Wire{Kind: WireForestEdge, Bits: 32, A: uint64(uint32(f.Forest))}
}

// AsForestEdge decodes a ForestEdge from a received wire payload.
func AsForestEdge(w congest.Wire) (ForestEdge, bool) {
	if w.Kind != WireForestEdge {
		return ForestEdge{}, false
	}
	return ForestEdge{Forest: int32(uint32(w.A))}, true
}
