package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bound(v float64) *float64 { return &v }

func TestJudge(t *testing.T) {
	latency := specMetric{Name: "main_p50_ms", Unit: "ms", Better: "lower", Bound: bound(0.1)}
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10.1, 9.9, 10}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	cases := []struct {
		name string
		m    specMetric
		base []float64
		head []float64
		want string
	}{
		{"faster everywhere", latency, base, scale(base, 0.8), "better"},
		{"slower past the bound", latency, base, scale(base, 1.2), "worse"},
		{"slower within the bound", latency, base, scale(base, 1.05), "same"},
		{"higher is better", specMetric{Name: "q", Better: "higher", Bound: bound(0.1)}, base, scale(base, 1.2), "better"},
		{"noisy base", latency, []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}, scale([]float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}, 1.15), "unresolved"},
		{"noisy base, every head run slower", latency, []float64{5, 6, 7, 8}, []float64{20, 21, 22, 23}, "worse (every run)"},
		{"per-layer metric has no bound", specMetric{Name: "x", Better: "lower"}, base, scale(base, 2), "same"},
	}
	for _, c := range cases {
		if got := judge("w", c.m, c.base, c.head).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if w := judge("w", latency, []float64{1, 1, 2}, []float64{0.5, 1, 2}).wins; w != 1.0/3 {
		t.Errorf("ties must count for neither side: wins = %v", w)
	}
}

// TestCompareOutputs runs the helper over saved outputs: pairing by seed,
// a result attributed to its header, and a regression failing the call.
func TestCompareOutputs(t *testing.T) {
	dir := t.TempDir()
	write := func(side, name, body string) {
		if err := os.MkdirAll(filepath.Join(dir, side), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, side, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func(seed, value string) string {
		return `{"workload":"att-paper","seed":` + seed + `,"trace":0,"seconds":1}` + "\n# table line\n" +
			`{"correct":true,"attempted":3,"failed":0,"metrics":{"main_p50_ms":{"value":` + value + `,"unit":"ms"}}}` + "\n"
	}
	write("base", "a", run("1", "10"))
	write("base", "b", run("2", "11"))
	write("head", "x", run("2", "16"))
	write("head", "y", run("1", "15"))
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(`{"end_to_end":[{"name":"main_p50_ms","unit":"ms","better":"lower","bound":0.1}],"per_layer":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := compareDirs(specPath, filepath.Join(dir, "base"), filepath.Join(dir, "head"), &out)
	if err != errRegression {
		t.Fatalf("compare err = %v, want a regression; output:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "att-paper") || !strings.Contains(out.String(), "worse") {
		t.Fatalf("report lacks the worse row:\n%s", out.String())
	}
}
