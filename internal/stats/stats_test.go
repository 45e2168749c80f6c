package stats

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if !almostEqual(s.Mean(), 3, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	if !almostEqual(s.Var(), 2.5, 1e-12) {
		t.Fatalf("var = %v", s.Var())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Var()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatal("empty summary should report NaN")
	}
	if s.String() != "(empty)" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSummarySingleSample(t *testing.T) {
	var s Summary
	s.Add(7)
	if s.Mean() != 7 || s.Min() != 7 || s.Max() != 7 {
		t.Fatal("single-sample summary wrong")
	}
	if !math.IsNaN(s.Var()) {
		t.Fatal("variance of one sample should be NaN")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit, ok := LinearFit(xs, ys)
	if !ok {
		t.Fatal("fit failed")
	}
	if !almostEqual(fit.Slope, 2, 1e-9) || !almostEqual(fit.Intercept, 1, 1e-9) {
		t.Fatalf("fit = %+v", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, ok := LinearFit([]float64{1}, []float64{1}); ok {
		t.Fatal("single point should not fit")
	}
	if _, ok := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); ok {
		t.Fatal("vertical data should not fit")
	}
}

func TestPowerFit(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	c, e, ok := PowerFit(xs, ys)
	if !ok {
		t.Fatal("power fit failed")
	}
	if !almostEqual(c, 3, 1e-6) || !almostEqual(e, 1.5, 1e-9) {
		t.Fatalf("c=%v e=%v", c, e)
	}
}

func TestPowerFitSkipsNonPositive(t *testing.T) {
	_, _, ok := PowerFit([]float64{-1, 0, 1}, []float64{1, 1, 1})
	if ok {
		t.Fatal("only one usable point; fit should fail")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "n", "rounds")
	tbl.AddRow(1024, 12.0)
	tbl.AddRow(2048, 13.5)
	out := tbl.String()
	for _, want := range []string{"demo", "n", "rounds", "1024", "13.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
}

func TestTablePadsShortRows(t *testing.T) {
	tbl := NewTable("", "a", "b", "c")
	tbl.AddRow(1)
	out := tbl.String()
	if !strings.Contains(out, "1") {
		t.Fatalf("missing cell:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{3, "3"},
		{3.14159, "3.142"},
		{0.00001, "1.00e-05"},
		{math.NaN(), "NaN"},
		{0, "0"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestLogStar(t *testing.T) {
	cases := []struct {
		in   float64
		want int
	}{
		{1, 0}, {2, 1}, {4, 2}, {16, 3}, {65536, 4}, {1e18, 5},
	}
	for _, c := range cases {
		if got := LogStar(c.in); got != c.want {
			t.Errorf("LogStar(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	r := rng.New(2)
	var small, large Summary
	for i := 0; i < 100; i++ {
		small.Add(r.Float64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(r.Float64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("ignored title", "n", "label", "x")
	tbl.AddRow(1, "plain", 2.5)
	tbl.AddRow(2, `with,comma`, 3.0)
	out := tbl.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "n,label,x" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], `"with,comma"`) {
		t.Fatalf("comma cell not quoted: %q", lines[2])
	}
	if strings.Contains(out, "ignored title") {
		t.Fatal("CSV includes title")
	}
}
