package core

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/rng"
	"repro/internal/shatter"
)

func TestArbMISWithFinisherForestCV(t *testing.T) {
	// Force a non-empty bad set and finish it with the Lemma 3.8 pipeline.
	g := gen.UnionOfTrees(300, 2, rng.New(40))
	params := PracticalParams(2, g.MaxDegree())
	params.Iterations = 1
	for k := 1; k <= params.NumScales; k++ {
		params.SetBadLimit(k, -1)
	}
	out, err := ArbMISWithFinisher(g, params, FinisherForestCV, congest.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if base.Count(out.Alg1, base.StatusBad) == 0 {
		t.Fatal("forcing produced no bad nodes")
	}
	if err := g.VerifyMIS(out.MIS); err != nil {
		t.Fatal(err)
	}
}

func TestArbMISWithFinisherRejectsUnknown(t *testing.T) {
	g := gen.Path(5)
	params := PracticalParams(1, g.MaxDegree())
	if _, err := ArbMISWithFinisher(g, params, BadFinisher(0), congest.Options{Seed: 1}); err == nil {
		t.Fatal("zero finisher accepted")
	}
}

func TestFinishersAgreeOnValidity(t *testing.T) {
	g := gen.PreferentialAttachment(250, 3, rng.New(41))
	params := PracticalParams(3, g.MaxDegree())
	params.Iterations = 1
	for k := 1; k <= params.NumScales; k++ {
		params.SetBadLimit(k, -1)
	}
	for _, fin := range []BadFinisher{FinisherLocalMin, FinisherForestCV} {
		out, err := ArbMISWithFinisher(g, params, fin, congest.Options{Seed: 2})
		if err != nil {
			t.Fatalf("finisher %d: %v", fin, err)
		}
		if err := g.VerifyMIS(out.MIS); err != nil {
			t.Fatalf("finisher %d: %v", fin, err)
		}
	}
}

func TestArbMISFullOnFamilies(t *testing.T) {
	r := rng.New(42)
	cases := []struct {
		name  string
		g     *graph.Graph
		alpha int
	}{
		{"tree", gen.RandomTree(500, r.Split(1)), 1},
		{"union3", gen.UnionOfTrees(400, 3, r.Split(2)), 3},
		{"pa", gen.PreferentialAttachment(400, 3, r.Split(3)), 3},
		{"star", gen.Star(200), 1},
		{"tiny", gen.Path(3), 1},
		{"isolated", graph.MustNew(5, nil), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := ArbMISFull(c.g, c.alpha, 1, congest.Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.g.VerifyMIS(out.MIS); err != nil {
				t.Fatal(err)
			}
			if out.ReductionIterations < 1 {
				t.Fatal("no reduction iterations")
			}
			if out.SurvivorCount > 0 && out.Core == nil {
				t.Fatal("survivors but no core outcome")
			}
		})
	}
}

func TestArbMISFullReducesDegree(t *testing.T) {
	// The preprocessing's purpose: surviving max degree well below the
	// input Δ on heavy-tailed graphs (and below the theorem target).
	g := gen.PreferentialAttachment(4096, 3, rng.New(43))
	out, err := ArbMISFull(g, 3, 1, congest.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if out.SurvivorCount == g.N() {
		t.Fatal("preprocessing resolved nothing")
	}
	if out.SurvivorCount > 0 && float64(out.SurvivorMaxDegree) > out.TargetDegree {
		t.Fatalf("survivor degree %d above target %.1f", out.SurvivorMaxDegree, out.TargetDegree)
	}
	if out.SurvivorMaxDegree >= g.MaxDegree() && g.MaxDegree() > 10 {
		t.Fatalf("degree not reduced: %d vs input %d", out.SurvivorMaxDegree, g.MaxDegree())
	}
}

func TestArbMISFullRejectsBadAlpha(t *testing.T) {
	if _, err := ArbMISFull(gen.Path(5), 0, 1, congest.Options{Seed: 1}); err == nil {
		t.Fatal("alpha 0 accepted")
	}
}

func TestArbMISFullTotalRounds(t *testing.T) {
	g := gen.UnionOfTrees(300, 2, rng.New(44))
	out, err := ArbMISFull(g, 2, 1, congest.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := out.ReductionResult.Rounds
	if out.Core != nil {
		want += out.Core.TotalRounds()
	}
	if out.TotalRounds() != want {
		t.Fatalf("TotalRounds %d != %d", out.TotalRounds(), want)
	}
}

func TestShatterFinishUsableViaCore(t *testing.T) {
	// The shatter pipeline itself must produce verified MIS on the same
	// subgraph shapes core feeds it (regression guard for the adapter).
	g := gen.RandomForest(120, 10, rng.New(45))
	res, err := shatter.Finish(g, 1, congest.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMIS(base.MISSet(res.Statuses)); err != nil {
		t.Fatal(err)
	}
}
