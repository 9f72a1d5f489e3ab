package obs

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) over a registry
// snapshot — the /metrics endpoint of `fullweb stream -listen`.
//
// The registry's flat name space maps onto Prometheus families by
// parsing the LabeledName suffix back apart:
// `telemetry.http_requests{path="/metrics"}` becomes family
// fullweb_telemetry_http_requests with label path="/metrics".
// Output ordering is a contract: families appear in the snapshot's
// canonical (name-sorted) order, samples within a family in canonical
// label order, so consecutive scrapes of an idle registry are
// byte-identical.

// promNamespace prefixes every exposed family so fullweb metrics can't
// collide with other jobs on a shared Prometheus.
const promNamespace = "fullweb"

// splitLabeled splits a canonical LabeledName into base name and the
// raw label list (without braces). Names without a label suffix return
// labels == "".
func splitLabeled(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// promName sanitizes a registry base name into a legal Prometheus
// metric name: dots and any other illegal runes become underscores,
// and the namespace prefix is applied.
func promName(base string) string {
	var b strings.Builder
	b.WriteString(promNamespace)
	b.WriteByte('_')
	for i, r := range base {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels re-renders a canonical label list for exposition. The
// canonical form is already `k="v"` pairs joined by commas; values are
// escaped per the exposition format (backslash, quote, newline).
func promLabels(labels string) string {
	if labels == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, pair := range splitLabelPairs(labels) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(pair.key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(pair.val))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

type labelPair struct{ key, val string }

// splitLabelPairs parses the canonical `k1="v1",k2="v2"` list emitted
// by LabeledName. Values may contain commas and braces; the only
// character they cannot contain is a double quote (LabeledName embeds
// them verbatim), so scanning for the closing quote is sufficient.
func splitLabelPairs(labels string) []labelPair {
	var out []labelPair
	rest := labels
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
			// Not in canonical form; expose the remainder under a
			// catch-all label rather than dropping it silently.
			out = append(out, labelPair{key: "label", val: rest})
			break
		}
		key := rest[:eq]
		rest = rest[eq+2:]
		end := strings.IndexByte(rest, '"')
		if end < 0 {
			out = append(out, labelPair{key: key, val: rest})
			break
		}
		out = append(out, labelPair{key: key, val: rest[:end]})
		rest = rest[end+1:]
		rest = strings.TrimPrefix(rest, ",")
	}
	return out
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// mergeHistLabels appends the le bucket label to an (optionally empty)
// rendered label set: `{a="b"}` + le → `{a="b",le="0.5"}`.
func mergeHistLabels(rendered, le string) string {
	if rendered == "" {
		return `{le="` + le + `"}`
	}
	return rendered[:len(rendered)-1] + `,le="` + le + `"}`
}

// promFamily is one exposition family: every sample sharing a base
// name, in canonical order.
type promFamily struct {
	base    string
	samples []promSample
}

type promSample struct {
	labels string // rendered, including braces, or ""
	value  string
	max    string // gauges only: high-water mark companion sample
	hist   *HistogramSnapshot
}

// groupFamilies walks name-sorted snapshot entries and groups them by
// base name, preserving first-appearance order (deterministic because
// the input is sorted).
func groupFamilies(names []string, mk func(i int) promSample) []promFamily {
	var fams []promFamily
	idx := make(map[string]int, len(names))
	for i, name := range names {
		base, labels := splitLabeled(name)
		s := mk(i)
		s.labels = promLabels(labels)
		j, ok := idx[base]
		if !ok {
			idx[base] = len(fams)
			fams = append(fams, promFamily{base: base})
			j = len(fams) - 1
		}
		fams[j].samples = append(fams[j].samples, s)
	}
	return fams
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format. Counters come first, then gauges (each with a
// companion <name>_max family for the high-water mark), then
// histograms; families in canonical name order, one # TYPE line per
// family.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, len(s.Counters))
	for i, c := range s.Counters {
		names[i] = c.Name
	}
	for _, f := range groupFamilies(names, func(i int) promSample {
		return promSample{value: fmt.Sprintf("%d", s.Counters[i].Value)}
	}) {
		name := promName(f.base)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", name); err != nil {
			return err
		}
		for _, smp := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, smp.labels, smp.value); err != nil {
				return err
			}
		}
	}

	names = make([]string, len(s.Gauges))
	for i, g := range s.Gauges {
		names[i] = g.Name
	}
	gaugeFams := groupFamilies(names, func(i int) promSample {
		return promSample{
			value: fmt.Sprintf("%d", s.Gauges[i].Value),
			max:   fmt.Sprintf("%d", s.Gauges[i].Max),
		}
	})
	for _, f := range gaugeFams {
		name := promName(f.base)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
			return err
		}
		for _, smp := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, smp.labels, smp.value); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s_max gauge\n", name); err != nil {
			return err
		}
		for _, smp := range f.samples {
			if _, err := fmt.Fprintf(w, "%s_max%s %s\n", name, smp.labels, smp.max); err != nil {
				return err
			}
		}
	}

	names = make([]string, len(s.Histograms))
	for i, h := range s.Histograms {
		names[i] = h.Name
	}
	for _, f := range groupFamilies(names, func(i int) promSample {
		return promSample{hist: &s.Histograms[i]}
	}) {
		name := promName(f.base)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		for _, smp := range f.samples {
			for _, b := range smp.hist.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeHistLabels(smp.labels, b.LE), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, smp.labels, smp.hist.Sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, smp.labels, smp.hist.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
