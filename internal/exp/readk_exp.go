package exp

import (
	"fmt"
	"math"

	"repro/internal/readk"
	"repro/internal/rng"
	"repro/internal/stats"
)

// slidingFamily builds the canonical read-k family used by E6/E7: n = m
// members over m base variables, member j computing a boolean of bits
// j..j+k-1 (cyclic). kind selects the member function: "parity" (p = 1/2)
// or "or" (p = 1 - 2⁻ᵏ, the high-p regime where conjunctions are likely).
func slidingFamily(m, k int, kind string) (*readk.Family, error) {
	f, err := readk.NewFamily(m)
	if err != nil {
		return nil, err
	}
	for j := 0; j < m; j++ {
		deps := make([]int, k)
		for i := 0; i < k; i++ {
			deps[i] = (j + i) % m
		}
		var fn func(vals []uint64) bool
		switch kind {
		case "parity":
			fn = func(vals []uint64) bool {
				var p uint64
				for _, v := range vals {
					p ^= v & 1
				}
				return p == 1
			}
		case "or":
			fn = func(vals []uint64) bool {
				for _, v := range vals {
					if v&1 == 1 {
						return true
					}
				}
				return false
			}
		default:
			return nil, fmt.Errorf("exp: unknown member kind %q", kind)
		}
		if err := f.Add(deps, fn); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// E6ConjunctionBound validates Theorem 1.1 (the read-k conjunction bound):
// empirical Pr[Y₁=...=Yₙ=1] never exceeds p^(n/k), while the independent
// bound pⁿ is genuinely violated for k ≥ 2 — demonstrating both that the
// read-k relaxation is needed and that it suffices.
func E6ConjunctionBound(c Config) (*Report, error) {
	m := 16
	trials := 400000
	if c.Quick {
		trials = 50000
	}
	table := stats.NewTable("Theorem 1.1 — conjunction probability vs bounds (OR members, m=n=16)",
		"k", "p", "empirical", "read-k p^(n/k)", "indep p^n", "indepViolated")
	violations, indepViolations := 0, 0
	r := rng.New(c.Seed).Split(0xE6)
	for _, k := range []int{1, 2, 3, 4, 6, 8} {
		f, err := slidingFamily(m, k, "or")
		if err != nil {
			return nil, err
		}
		exactAll, means := f.ExactBinary()
		_ = exactAll
		mc, err := f.Estimate(r.Split(uint64(k)), trials)
		if err != nil {
			return nil, err
		}
		p := means[0]
		bound := readk.ConjunctionBound(p, f.N(), k)
		indep := math.Pow(p, float64(f.N()))
		if mc.AllOnes > bound+0.005 {
			violations++
		}
		iv := exactAll > indep*1.0000001
		if iv {
			indepViolations++
		}
		table.AddRow(k, p, exactAll, bound, indep, iv)
	}
	rep := &Report{
		ID:    "E6",
		Title: "read-k conjunction bound p^(n/k) holds; naive independence bound pⁿ fails for k ≥ 2",
		Table: table,
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"read-k bound violations: %d (0 expected); independence bound violated in %d rows (expected for every k ≥ 2)",
		violations, indepViolations))
	return rep, nil
}

// E7TailBound validates Theorem 1.2's form (2) on the parity family,
// and quantifies the paper's remark that the bound beats the Azuma bound
// obtained from Y being k-Lipschitz in the base variables.
func E7TailBound(c Config) (*Report, error) {
	m := 4000
	trials := 30000
	if c.Quick {
		m, trials = 500, 8000
	}
	table := stats.NewTable(fmt.Sprintf("Theorem 1.2 — lower-tail mass vs bounds (parity members, n=m=%d)", m),
		"k", "delta", "empirical", "form2 bound", "chernoff(k=1)", "azuma")
	violations := 0
	r := rng.New(c.Seed).Split(0xE7)
	for _, k := range []int{1, 2, 4, 8} {
		f, err := slidingFamily(m, k, "parity")
		if err != nil {
			return nil, err
		}
		mc, err := f.Estimate(r.Split(uint64(k)), trials)
		if err != nil {
			return nil, err
		}
		expY := mc.ExpectedSum()
		for _, delta := range []float64{0.05, 0.1} {
			emp := mc.TailLE(int((1 - delta) * expY))
			form2 := readk.TailForm2(delta, expY, k)
			chern := readk.ChernoffLower(delta, expY)
			azuma := readk.AzumaBound(delta*expY, m, k)
			if emp > form2+0.01 {
				violations++
			}
			table.AddRow(k, delta, emp, form2, chern, azuma)
		}
	}
	rep := &Report{
		ID:    "E7",
		Title: "read-k tail bound exp(-δ²E[Y]/2k) holds; weaker than Chernoff by exactly 1/k; stronger than k-Lipschitz Azuma",
		Table: table,
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("bound violations: %d (0 expected)", violations))
	return rep, nil
}

// E8Events validates Section 3.1 on real graph orientations: the three
// event families have the claimed read structure (K within the structural
// bound from the orientation's out-degree d: read-d for Event 1, read-ρ for
// Event 2, read-d(d+1) for Event 3), and the theorem bounds hold
// empirically for Events 1 and 2.
func E8Events(c Config) (*Report, error) {
	n := 400
	trials := 30000
	if c.Quick {
		n, trials = 150, 8000
	}
	table := stats.NewTable(fmt.Sprintf("Events (1)-(3) — read structure and bounds on α-orientations (n=%d)", n),
		"alpha", "d(orient)", "event", "K", "claimK", "empirical", "bound", "ok")
	r := rng.New(c.Seed).Split(0xE8)
	rows := 0
	bad := 0
	for _, alpha := range []int{1, 2, 3} {
		g := arbGraph(n, alpha, r.Split(uint64(alpha)))
		o, _ := g.OrientByDegeneracy()
		d := o.MaxOutDegree()
		all := make([]int, g.N())
		for v := range all {
			all[v] = v
		}

		// Event 1: conjunction of "every member has a child beating it".
		var m1 []int
		for _, v := range readk.IndependentSubset(g, all) {
			if len(o.Children(v)) > 0 {
				m1 = append(m1, v)
			}
		}
		if len(m1) > 0 {
			f1, k1, err := readk.Event1Family(o, m1)
			if err != nil {
				return nil, err
			}
			mc, err := f1.Estimate(r.Split(100+uint64(alpha)), trials)
			if err != nil {
				return nil, err
			}
			maxP := 0.0
			for _, p := range mc.Means {
				if p > maxP {
					maxP = p
				}
			}
			bound := readk.ConjunctionBound(maxP, f1.N(), k1)
			ok := k1 <= d && mc.AllOnes <= bound+0.02
			if !ok {
				bad++
			}
			table.AddRow(alpha, d, "1-conj", k1, d, mc.AllOnes, bound, ok)
			rows++
		}

		// Event 2: lower tail of "nodes beating all competitive parents".
		rho := 2 * g.MaxDegree()
		f2, k2, err := readk.Event2Family(o, all, rho)
		if err != nil {
			return nil, err
		}
		mc2, err := f2.Estimate(r.Split(200+uint64(alpha)), trials)
		if err != nil {
			return nil, err
		}
		expY := mc2.ExpectedSum()
		delta := 0.2
		emp := mc2.TailLE(int((1 - delta) * expY))
		bound2 := readk.TailForm2(delta, expY, k2)
		ok2 := emp <= bound2+0.02
		if !ok2 {
			bad++
		}
		table.AddRow(alpha, d, "2-tail", k2, rho+1, emp, bound2, ok2)
		rows++

		// Event 3: read structure only (its probability bound composes
		// Events 1 and 2; the structural read-d(d+1) is the paper's point).
		_, k3, err := readk.Event3Family(o, all)
		if err != nil {
			return nil, err
		}
		claim3 := d*(d+1) + 1
		ok3 := k3 <= claim3
		if !ok3 {
			bad++
		}
		table.AddRow(alpha, d, "3-struct", k3, claim3, "-", "-", ok3)
		rows++
	}
	rep := &Report{
		ID:    "E8",
		Title: "Events (1)-(3) form read-d, read-ρ, read-d(d+1) families and respect the GLSS bounds",
		Table: table,
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d of %d rows failed (0 expected)", bad, rows))
	return rep, nil
}
