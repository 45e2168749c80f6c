package proto

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/congest"
)

// allKinds lists the announcement kinds.
func allKinds() []Kind {
	return []Kind{KindJoined, KindRemoved, KindMarked, KindLeader, KindPropose, KindAccept, KindMatched}
}

func TestKindZeroValueInvalid(t *testing.T) {
	// Kinds start at 1 so the zero value signals a forgotten field.
	for _, k := range allKinds() {
		if k == 0 {
			t.Fatal("a Kind constant is zero")
		}
	}
}

func TestKindsDistinct(t *testing.T) {
	seen := map[Kind]bool{}
	for _, k := range allKinds() {
		if seen[k] {
			t.Fatalf("duplicate kind %d", k)
		}
		seen[k] = true
	}
}

// wireCodec is one payload type's wire contract: encode draws a random
// value and returns it with its Wire() encoding and its Bits(); decode is
// the type's As* decoder.
type wireCodec struct {
	name   string
	encode func(r *rand.Rand) (value any, w congest.Wire, bits int)
	decode func(congest.Wire) (any, bool)
}

// codecOf builds a payload type's table row from a random-value
// generator and its decoder.
func codecOf[P interface {
	comparable
	Wire() congest.Wire
	Bits() int
}](random func(*rand.Rand) P, as func(congest.Wire) (P, bool)) wireCodec {
	var zero P
	return wireCodec{
		name: fmt.Sprintf("%T", zero),
		encode: func(r *rand.Rand) (any, congest.Wire, int) {
			p := random(r)
			return p, p.Wire(), p.Bits()
		},
		decode: func(w congest.Wire) (any, bool) { return as(w) },
	}
}

// wireCodecs is the package's codec table, one row per payload type.
// TestWireKindsDistinctAndNonzero requires a row for every kind below
// wireKindEnd, so a kind added without a codec fails it.
func wireCodecs() []wireCodec {
	return []wireCodec{
		codecOf(func(r *rand.Rand) Priority {
			return Priority{Value: r.Uint64(), Competitive: r.Intn(2) == 0}
		}, AsPriority),
		codecOf(func(r *rand.Rand) EpochPriority {
			return EpochPriority{Value: r.Uint64(), Epoch: int32(r.Uint32())}
		}, AsEpochPriority),
		codecOf(func(r *rand.Rand) Flag { return Flag{Kind: Kind(r.Intn(256))} }, AsFlag),
		codecOf(func(r *rand.Rand) Degree { return Degree{Value: int32(r.Uint32())} }, AsDegree),
		codecOf(func(r *rand.Rand) Desire { return Desire{P30: r.Uint32()} }, AsDesire),
		codecOf(func(r *rand.Rand) Color { return Color{Value: r.Uint64()} }, AsColor),
		codecOf(func(r *rand.Rand) Level { return Level{Value: int32(r.Uint32())} }, AsLevel),
		codecOf(func(r *rand.Rand) ForestEdge { return ForestEdge{Forest: int32(r.Uint32())} }, AsForestEdge),
	}
}

// kindOf is the kind a codec's encoding carries.
func kindOf(c wireCodec) congest.WireKind {
	_, w, _ := c.encode(rand.New(rand.NewSource(1)))
	return w.Kind
}

// TestWireRoundTrip is the codec property test: for many random values,
// every payload must survive encode→decode unchanged, and its encoding
// must carry one constant kind and the one constant bit size Bits()
// reports.
func TestWireRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, c := range wireCodecs() {
		_, first, firstBits := c.encode(r)
		for i := 0; i < 2000; i++ {
			p, w, bits := c.encode(r)
			got, ok := c.decode(w)
			if !ok || got != p {
				t.Fatalf("%s %+v round-tripped to %+v (ok=%v)", c.name, p, got, ok)
			}
			if int(w.Bits) != bits {
				t.Fatalf("%s %+v: wire bits %d != Bits() %d", c.name, p, w.Bits, bits)
			}
			if w.Kind != first.Kind || bits != firstBits {
				t.Fatalf("%s %+v: kind %d, %d bits; another value encodes as kind %d, %d bits",
					c.name, p, w.Kind, bits, first.Kind, firstBits)
			}
		}
	}
}

// TestWireKindsDistinctAndNonzero closes the kind namespace: every
// codec's kind is a declared one, in [1, wireKindEnd), no two codecs
// share a kind, and every declared kind has a codec.
func TestWireKindsDistinctAndNonzero(t *testing.T) {
	owner := map[congest.WireKind]string{}
	for _, c := range wireCodecs() {
		k := kindOf(c)
		if k == 0 || k >= wireKindEnd {
			t.Fatalf("%s encodes as kind %d, outside the declared kinds [1, %d)", c.name, k, wireKindEnd)
		}
		if prev, ok := owner[k]; ok {
			t.Fatalf("wire kind %d is encoded by both %s and %s", k, prev, c.name)
		}
		owner[k] = c.name
	}
	for k := congest.WireKind(1); k < wireKindEnd; k++ {
		if _, ok := owner[k]; !ok {
			t.Errorf("wire kind %d has no codec", k)
		}
	}
}

// TestWireDecodersRejectForeignKinds checks every decoder accepts its own
// kind and returns ok=false for each of the other 255 kind bytes — the
// moral equivalent of a failed type assertion.
func TestWireDecodersRejectForeignKinds(t *testing.T) {
	for _, c := range wireCodecs() {
		own := kindOf(c)
		for k := 0; k < 256; k++ {
			if _, ok := c.decode(congest.Wire{Kind: congest.WireKind(k)}); ok != (congest.WireKind(k) == own) {
				t.Fatalf("%s decoder (kind %d) accepted=%v on kind %d", c.name, own, ok, k)
			}
		}
	}
}

// TestBitsArePositiveAndSmall checks the CONGEST requirement: every
// payload reports a positive size within the O(log n) budget
// congest.MaxWireBits.
func TestBitsArePositiveAndSmall(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, c := range wireCodecs() {
		if _, _, b := c.encode(r); b <= 0 || b > congest.MaxWireBits {
			t.Errorf("%s.Bits() = %d, want within (0, %d]", c.name, b, congest.MaxWireBits)
		}
	}
}
