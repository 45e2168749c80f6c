// Package core implements the reproduced paper's contribution: Algorithm 1
// (BoundedArbIndependentSet — scales of Métivier-style priority iterations
// with a high-degree opt-out and a "bad node" escape hatch) and Algorithm 2
// (ArbMIS — the full MIS pipeline that finishes off the deferred and bad
// nodes), together with the per-scale instrumentation the experiments
// consume.
package core

import (
	"fmt"
	"math"
)

// Params are the knobs of Algorithm 1. The paper fixes them as functions of
// the maximum degree Δ and the arboricity α; the two constructors below
// provide the paper's literal values and a practically-scaled profile with
// the same functional shape (see DESIGN.md §2, "Substitutions").
type Params struct {
	// Alpha is the arboricity bound α the algorithm is parameterized by.
	Alpha int
	// Delta is the maximum degree Δ of the input graph.
	Delta int
	// NumScales is Θ, the number of degree scales.
	NumScales int
	// Iterations is Λ, the number of priority iterations per scale.
	Iterations int
	// P is the paper's confidence constant p (Λ is proportional to it and
	// the bad-node probability is 1/Δ^2p).
	P int
	// rho[k] is ρₖ for scale k (1-based): nodes with active degree above it
	// set their priority to 0 (the opt-out that bounds the read-k of
	// parent events).
	rho []int
	// highDeg[k]: an active neighbor with degree above this counts as a
	// high-degree neighbor in scale k (Δ/2ᵏ + α in the paper).
	highDeg []int
	// badLimit[k]: more than this many high-degree neighbors at the end of
	// scale k makes a node bad (Δ/2ᵏ⁺² in the paper).
	badLimit []int
	// RhoOptOut enables the deterministic r(v)←0 for high-degree nodes.
	// Disabling it is ablation A1 and deviates from the paper.
	RhoOptOut bool
}

// Rho returns ρₖ for scale k in 1..NumScales.
func (p *Params) Rho(k int) int { return p.rho[k-1] }

// HighDeg returns the scale-k high-degree threshold Δ/2ᵏ + α.
func (p *Params) HighDeg(k int) int { return p.highDeg[k-1] }

// BadLimit returns the scale-k bad threshold Δ/2ᵏ⁺².
func (p *Params) BadLimit(k int) int { return p.badLimit[k-1] }

// SetBadLimit overrides the scale-k bad threshold; experiment stress
// profiles use it to force the bad set to populate at laptop scale.
func (p *Params) SetBadLimit(k, limit int) { p.badLimit[k-1] = limit }

// SetRho overrides ρₖ for scale k (parameter-sensitivity ablations).
func (p *Params) SetRho(k, rho int) { p.rho[k-1] = rho }

// Validate checks internal consistency.
func (p *Params) Validate() error {
	if p.Alpha < 1 {
		return fmt.Errorf("core: alpha %d < 1", p.Alpha)
	}
	if p.Delta < 0 {
		return fmt.Errorf("core: delta %d < 0", p.Delta)
	}
	if p.NumScales < 0 {
		return fmt.Errorf("core: negative scale count %d", p.NumScales)
	}
	if p.NumScales > 0 && p.Iterations < 1 {
		return fmt.Errorf("core: %d scales but %d iterations", p.NumScales, p.Iterations)
	}
	for _, s := range [][]int{p.rho, p.highDeg, p.badLimit} {
		if len(s) != p.NumScales {
			return fmt.Errorf("core: per-scale slice has %d entries for %d scales", len(s), p.NumScales)
		}
	}
	return nil
}

// lnDelta returns ln Δ floored at 1 so the formulas stay meaningful for
// tiny Δ (the paper implicitly assumes large Δ).
func lnDelta(delta int) float64 {
	l := math.Log(float64(delta))
	if l < 1 {
		return 1
	}
	return l
}

// PaperParams returns Algorithm 1's parameters exactly as printed:
//
//	Θ  = ⌊log₂(Δ / (1176·16·α¹⁰·ln²Δ))⌋
//	Λ  = ⌈p·8α²(32α⁶+1)·ln(260·α⁴·ln²Δ)⌉
//	ρₖ = 8·lnΔ·Δ/2ᵏ⁺¹
//
// For laptop-scale Δ the Θ formula is negative, in which case the scale
// loop is empty — Algorithm 1 is a no-op and all the work falls to the
// finishing stages. That is the honest behaviour of the printed constants
// and is measured by ablation A2.
func PaperParams(alpha, delta, p int) *Params {
	if p < 1 {
		p = 1
	}
	a := float64(alpha)
	ln := lnDelta(delta)
	theta := int(math.Floor(math.Log2(float64(delta) / (1176 * 16 * math.Pow(a, 10) * ln * ln))))
	if theta < 0 {
		theta = 0
	}
	lambda := int(math.Ceil(float64(p) * 8 * a * a * (32*math.Pow(a, 6) + 1) * math.Log(260*math.Pow(a, 4)*ln*ln)))
	pp := &Params{
		Alpha:      alpha,
		Delta:      delta,
		NumScales:  theta,
		Iterations: lambda,
		P:          p,
		RhoOptOut:  true,
	}
	pp.fillScales(func(k int) int {
		return int(math.Ceil(8 * ln * float64(delta) / math.Pow(2, float64(k+1))))
	})
	return pp
}

// PracticalParams returns parameters with the same functional shape as the
// paper's but constants scaled so the scale loop actually executes at
// laptop-scale Δ:
//
//	Θ  = ⌊log₂(Δ / lnΔ)⌋, at least 1 when Δ ≥ 2
//	Λ  = max(1, ⌈½·ln(α·lnΔ)⌉)
//	ρₖ = ⌈2·lnΔ·Δ/2ᵏ⁺¹⌉  (same Δ/2ᵏ·logΔ shape, smaller constant)
//
// Λ is deliberately small per scale: priority iterations make constant-
// factor progress per round at laptop scale (a few iterations resolve a
// sparse graph outright — measured by E12), so visible scale progression
// requires Λ of 1-2 while keeping the paper's Λ = Θ(poly(α)·log(α·logΔ))
// shape in α and Δ.
// Correctness of the full ArbMIS pipeline does not depend on these values;
// they only shift work between the shattering and finishing stages (A3
// measures the sensitivity).
func PracticalParams(alpha, delta int) *Params {
	a := float64(alpha)
	ln := lnDelta(delta)
	theta := 0
	if delta >= 2 {
		theta = int(math.Floor(math.Log2(float64(delta) / ln)))
		if theta < 1 {
			theta = 1
		}
	}
	lambda := int(math.Ceil(0.5 * math.Log(a*ln)))
	if lambda < 1 {
		lambda = 1
	}
	pp := &Params{
		Alpha:      alpha,
		Delta:      delta,
		NumScales:  theta,
		Iterations: lambda,
		P:          1,
		RhoOptOut:  true,
	}
	pp.fillScales(func(k int) int {
		return int(math.Ceil(2 * ln * float64(delta) / math.Pow(2, float64(k+1))))
	})
	return pp
}

// NewParams builds a profile with explicit Θ, Λ and ρ formula, keeping the
// standard Δ/2ᵏ+α and Δ/2ᵏ⁺² threshold shapes. It is the constructor for
// variant parameterizations (e.g. the tree algorithm's constants).
func NewParams(alpha, delta, p, theta, lambda int, rho func(k int) int) *Params {
	if p < 1 {
		p = 1
	}
	if theta < 0 {
		theta = 0
	}
	if theta > 0 && lambda < 1 {
		lambda = 1
	}
	pp := &Params{
		Alpha:      alpha,
		Delta:      delta,
		NumScales:  theta,
		Iterations: lambda,
		P:          p,
		RhoOptOut:  true,
	}
	pp.fillScales(rho)
	return pp
}

// fillScales populates the per-scale thresholds given the ρ formula.
func (p *Params) fillScales(rho func(k int) int) {
	p.rho = make([]int, p.NumScales)
	p.highDeg = make([]int, p.NumScales)
	p.badLimit = make([]int, p.NumScales)
	for k := 1; k <= p.NumScales; k++ {
		r := rho(k)
		if r < 1 {
			r = 1
		}
		p.rho[k-1] = r
		p.highDeg[k-1] = p.Delta/(1<<uint(k)) + p.Alpha
		p.badLimit[k-1] = p.Delta / (1 << uint(k+2))
	}
}

// RoundsPerScale returns the engine rounds one scale consumes: three per
// priority iteration plus the degree-exchange and bad-marking rounds.
func (p *Params) RoundsPerScale() int { return 3*p.Iterations + 2 }

// TotalRounds returns the fixed length of the Algorithm 1 schedule.
func (p *Params) TotalRounds() int { return p.NumScales * p.RoundsPerScale() }

// scaleOf maps a slot (round number) to its 1-based scale.
func (p *Params) scaleOf(slot int) int { return slot/p.RoundsPerScale() + 1 }
