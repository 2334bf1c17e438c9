package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// writeProm writes the registry's current samples in the Prometheus
// text exposition format (version 0.0.4): one optional # TYPE line per
// metric name, then `name{label="value"} value` lines. Label values
// are escaped per the format's rules (backslash, double quote, and
// newline). Returns the first write error.
func (r *Registry) writeProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	samples := r.Gather()
	lastTyped := ""
	for i := range samples {
		s := &samples[i]
		base := promBaseName(s.Name)
		if base != lastTyped {
			lastTyped = base
			bw.WriteString("# TYPE ")
			bw.WriteString(base)
			bw.WriteByte(' ')
			bw.WriteString(promType(samples, i, base))
			bw.WriteByte('\n')
		}
		bw.WriteString(s.Name)
		if s.LabelKey != "" {
			bw.WriteByte('{')
			bw.WriteString(s.LabelKey)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabelValue(s.LabelValue))
			bw.WriteString(`"}`)
		}
		bw.WriteByte(' ')
		bw.WriteString(trimFloat(s.Value))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// promBaseName strips the histogram series suffixes so the three
// expanded series of one histogram share a single TYPE declaration.
func promBaseName(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// promType picks the TYPE keyword for the run of samples starting at i
// that share base: histogram when the name was suffix-expanded,
// otherwise the sample's own kind.
func promType(samples []Sample, i int, base string) string {
	if samples[i].Name != base {
		return "histogram"
	}
	switch samples[i].Kind {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return "untyped"
}

// escapeLabelValue escapes a string for use inside a Prometheus label
// value: backslash → \\, double quote → \", newline → \n. Query names
// are user-supplied, so every labeled series goes through this.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// trimFloat renders a float the shortest way that round-trips,
// matching Prometheus conventions (integers without a decimal point).
func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
