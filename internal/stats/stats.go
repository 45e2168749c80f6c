// Package stats provides the small statistics toolkit used by the
// experiment harness: streaming summaries, simple regression for scaling
// exponents, and fixed-width table rendering.
//
// The package is deliberately self-contained (stdlib only) and allocation
// conscious: experiment sweeps record millions of samples.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Summary accumulates a stream of float64 samples using Welford's online
// algorithm, which is numerically stable for long streams. The zero value is
// an empty summary ready for use.
type Summary struct {
	n        int
	mean     float64
	m2       float64
	min, max float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of samples recorded.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, or NaN if empty.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Var returns the unbiased sample variance, or NaN if fewer than 2 samples.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest sample, or NaN if empty.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest sample, or NaN if empty.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean, or NaN if fewer than 2 samples.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return 1.96 * s.Std() / math.Sqrt(float64(s.n))
}

// String renders the summary as "mean ± ci95 (min..max, n=N)".
func (s *Summary) String() string {
	if s.n == 0 {
		return "(empty)"
	}
	return fmt.Sprintf("%.3f ± %.3f (%.3f..%.3f, n=%d)", s.Mean(), s.CI95(), s.Min(), s.Max(), s.n)
}

// FitResult holds the slope/intercept of a least-squares line y = a + b*x
// plus the coefficient of determination.
type FitResult struct {
	Intercept float64
	Slope     float64
	R2        float64
}

// LinearFit fits y = a + b*x by ordinary least squares. It returns a zero
// FitResult and false if fewer than two distinct x values are supplied.
func LinearFit(xs, ys []float64) (FitResult, bool) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return FitResult{}, false
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return FitResult{}, false
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return FitResult{Intercept: a, Slope: b, R2: r2}, true
}

// PowerFit fits y = c * x^e by log-log least squares, returning (c, e).
// Points with non-positive coordinates are skipped; it returns false if
// fewer than two usable points remain.
func PowerFit(xs, ys []float64) (c, e float64, ok bool) {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	fit, ok := LinearFit(lx, ly)
	if !ok {
		return 0, 0, false
	}
	return math.Exp(fit.Intercept), fit.Slope, true
}

// Table renders aligned plain-text tables for the experiment harness.
// The zero value is not usable; construct with NewTable.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v. Short rows are padded.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			switch v := cells[i].(type) {
			case float64:
				row[i] = FormatFloat(v)
			default:
				row[i] = fmt.Sprintf("%v", v)
			}
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders a float compactly: integers without decimals, small
// magnitudes in scientific notation, everything else with 3 decimals.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case v != 0 && math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.2e", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// LogStar returns the iterated logarithm (base 2) of x: the number of times
// log2 must be applied before the result is <= 1. LogStar(x) = 0 for x <= 1.
func LogStar(x float64) int {
	n := 0
	for x > 1 {
		x = math.Log2(x)
		n++
	}
	return n
}

// CSV renders the table as RFC-4180-ish CSV (no quoting needed: cells are
// numbers and simple labels). The title is omitted; the header row leads.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.headers)
	for _, row := range t.rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}
