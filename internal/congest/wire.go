package congest

// Wire is the value-typed message payload that travels the engine's hot
// path. It replaces the old boxed Payload interface: a kind tag, the
// payload's encoded size in bits (so the engine can audit CONGEST
// compliance without an interface call), and two 64-bit words that every
// protocol payload in this repository packs losslessly.
//
// The engine never interprets Kind, A or B — it only meters Bits and moves
// the value. Protocol packages own the kind namespace and the codec (see
// internal/mis/proto: each payload type has a Wire() encoder and a
// matching As* decoder). Because Wire contains no pointers, shard outboxes,
// the round's records and the inbox scratch are pointer-free memory:
// sending a message is a 32-byte Packet copy with no heap allocation, no
// interface boxing, and nothing for the garbage collector to scan.
type Wire struct {
	// Kind tags the payload family. Zero is invalid, so a forgotten
	// encoder shows up as kind 0 in tests.
	Kind WireKind
	// Bits is the payload's encoded size in bits — an honest upper bound
	// for the encoding a real implementation would use. The engine uses it
	// for Result.TotalBits/MaxMessageBits and rejects a send above
	// MaxWireBits.
	Bits uint16
	// A and B are the payload words; their meaning is defined by Kind.
	A, B uint64
}

// WireKind tags the payload family packed into a Wire. Kind 0 is invalid;
// internal/mis/proto owns the namespace, and a new kind goes in its iota
// block, before the wireKindEnd sentinel, with an encoder and a decoder.
type WireKind uint8

// MaxWireBits is the repository's concrete O(log n) CONGEST message-size
// budget: no Wire() encoder may declare more bits than this. Two 64-bit
// words bound any payload the Wire record can carry, and 128 = O(log n)
// for every feasible n, so the constant is both the physical and the
// model-level ceiling. proto's TestBitsArePositiveAndSmall holds every
// payload to it, the distrib frame decoders reject a larger message, and
// every driver fails a run whose program sends one (Context.enqueue).
const MaxWireBits = 128
