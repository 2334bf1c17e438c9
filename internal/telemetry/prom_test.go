package telemetry

import (
	"strings"
	"testing"
)

func TestEscapeLabelValue(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"mix\\\"\n", `mix\\\"\n`},
		{"", ""},
	}
	for _, c := range cases {
		if got := escapeLabelValue(c.in); got != c.want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestWritePromEscapesQueryNames drives a hostile query name through a
// labeled source sample and asserts the exposition line is escaped —
// analyst-chosen query names must not corrupt the scrape.
func TestWritePromEscapesQueryNames(t *testing.T) {
	r := NewRegistry()
	hostile := "taxi \"rush\nhour\" \\ q1"
	r.RegisterSource(SourceFunc(func(dst []Sample) []Sample {
		return append(dst, Sample{
			Name: "privapprox_query_decoded_total", LabelKey: "query",
			LabelValue: hostile, Value: 3, Kind: KindCounter,
		})
	}))
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `privapprox_query_decoded_total{query="taxi \"rush\nhour\" \\ q1"} 3`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing escaped line.\nwant %q\ngot:\n%s", want, out)
	}
	// A raw newline in the label value would split the sample across
	// two exposition lines; the series must occupy exactly one.
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "privapprox_query_decoded_total{") {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("escaped series spans %d lines, want 1:\n%s", n, out)
	}
}

func TestWritePromTypeLines(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(2)
	r.RegisterSource(counterSource("a_total", &c))
	r.RegisterSource(SourceFunc(func(dst []Sample) []Sample {
		return append(dst, Sample{Name: "b_now", Value: -1, Kind: KindGauge})
	}))
	r.Histogram("c_ns").Observe(300)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE a_total counter",
		"# TYPE b_now gauge",
		"# TYPE c_ns histogram",
		"a_total 2",
		"b_now -1",
		`c_ns_bucket{le="512"} 1`,
		`c_ns_bucket{le="+Inf"} 1`,
		"c_ns_sum 300",
		"c_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE c_ns histogram"); n != 1 {
		t.Fatalf("histogram TYPE line appears %d times, want 1", n)
	}
}
