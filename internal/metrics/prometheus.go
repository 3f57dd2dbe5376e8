package metrics

// Prometheus text exposition (format 0.0.4) writer and validator. The
// writer renders the registry without any client library; the validator is
// the other half of the contract — CI scrapes a live /metrics endpoint
// mid-run and asserts the output parses back cleanly (well-formed names,
// labels, and values; HELP/TYPE before samples; cumulative, +Inf-terminated
// histogram buckets).

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type of the text exposition format.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, name := range r.names {
		f := r.fams[name]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case kindGauge:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.g.Value())
			case kindHistogram:
				writeHistogram(bw, f.name, s.labels, s.h)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative _bucket samples
// with ascending le bounds ending at +Inf, then _sum and _count.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	counts := h.BucketCounts()
	var cum int64
	for i, bound := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(labels, "le", strconv.FormatInt(bound, 10)), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, labels, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}

// withLabel merges one extra label into an already-rendered label string.
func withLabel(labels, key, value string) string {
	extra := key + `="` + escapeLabelValue(value) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ValidateExposition parses a text-exposition document and returns the
// first well-formedness violation, or nil. Checks: metric and label names
// are legal; label bodies and values parse; every sample of a TYPEd family
// follows its TYPE line; no series is duplicated; histogram families have
// cumulative, non-decreasing buckets ending in an +Inf bucket whose value
// equals _count.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	typed := map[string]string{} // family name → type
	seen := map[string]bool{}    // name+labels → sample seen
	hists := map[string]*histCheck{}
	line := 0
	sawSample := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			kind, name, rest, ok := parseComment(text)
			if !ok {
				continue // free-form comment
			}
			if !validName(name) {
				return fmt.Errorf("metrics: line %d: invalid metric name %q in %s", line, name, kind)
			}
			if kind == "TYPE" {
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("metrics: line %d: unknown TYPE %q for %s", line, rest, name)
				}
				if _, dup := typed[name]; dup {
					return fmt.Errorf("metrics: line %d: duplicate TYPE for %s", line, name)
				}
				typed[name] = rest
				if rest == "histogram" {
					hists[name] = &histCheck{}
				}
			}
			continue
		}
		sawSample = true
		name, labels, value, err := parseSample(text)
		if err != nil {
			return fmt.Errorf("metrics: line %d: %w", line, err)
		}
		key := name + "{" + labels + "}"
		if seen[key] {
			return fmt.Errorf("metrics: line %d: duplicate series %s", line, key)
		}
		seen[key] = true
		fam, suffix := histFamily(name, typed)
		if fam != "" {
			if err := hists[fam].sample(suffix, labels, value); err != nil {
				return fmt.Errorf("metrics: line %d: %s: %w", line, name, err)
			}
			continue
		}
		if typ, ok := typed[name]; ok && typ == "histogram" {
			return fmt.Errorf("metrics: line %d: bare sample %s for histogram family", line, name)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if !sawSample {
		return fmt.Errorf("metrics: exposition contains no samples")
	}
	for name, h := range hists {
		if err := h.finish(); err != nil {
			return fmt.Errorf("metrics: histogram %s: %w", name, err)
		}
	}
	return nil
}

// parseComment splits "# HELP name rest" / "# TYPE name rest"; ok is false
// for any other comment.
func parseComment(text string) (kind, name, rest string, ok bool) {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 3 || fields[0] != "#" || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return "", "", "", false
	}
	rest = ""
	if len(fields) == 4 {
		rest = fields[3]
	}
	return fields[1], fields[2], rest, true
}

// parseSample splits a sample line into name, rendered label body (without
// braces), and value, validating each part. Optional trailing timestamps
// are accepted.
func parseSample(text string) (name, labels string, value float64, err error) {
	rest := text
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest[i:], '}')
		if j < 0 {
			return "", "", 0, fmt.Errorf("unterminated label set in %q", text)
		}
		labels = rest[i+1 : i+j]
		rest = strings.TrimSpace(rest[i+j+1:])
		if err := validateLabelBody(labels); err != nil {
			return "", "", 0, err
		}
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", "", 0, fmt.Errorf("sample %q has no value", text)
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if !validName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", 0, fmt.Errorf("sample %q has %d value fields, want 1 or 2", text, len(fields))
	}
	value, perr := strconv.ParseFloat(fields[0], 64)
	if perr != nil && fields[0] != "+Inf" && fields[0] != "-Inf" && fields[0] != "NaN" {
		return "", "", 0, fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", "", 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

// validateLabelBody checks a k="v",k2="v2" label body.
func validateLabelBody(body string) error {
	rest := body
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return fmt.Errorf("label %q has no =", rest)
		}
		key := rest[:eq]
		if !validLabelName(key) {
			return fmt.Errorf("invalid label name %q", key)
		}
		rest = rest[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return fmt.Errorf("label %s value not quoted", key)
		}
		rest = rest[1:]
		// Scan to the closing quote, honoring escapes.
		i := 0
		for ; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				break
			}
		}
		if i >= len(rest) {
			return fmt.Errorf("label %s value unterminated", key)
		}
		rest = rest[i+1:]
		if rest == "" {
			break
		}
		if rest[0] != ',' {
			return fmt.Errorf("label body %q: expected , after value", body)
		}
		rest = rest[1:]
	}
	return nil
}

// histFamily maps a histogram-component sample name to its family, when
// that family was declared as a histogram. suffix is "bucket", "sum", or
// "count".
func histFamily(name string, typed map[string]string) (fam, suffix string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && typed[base] == "histogram" {
			return base, suf[1:]
		}
	}
	return "", ""
}

// histCheck accumulates one histogram family's samples across all its
// series, verifying per-series bucket monotonicity, +Inf termination, and
// bucket/count agreement.
type histCheck struct {
	buckets map[string][]bucketSample // series labels (sans le) → samples in order
	counts  map[string]float64
	hasCnt  map[string]bool
}

type bucketSample struct {
	le  string
	val float64
}

func (h *histCheck) sample(suffix, labels string, value float64) error {
	if h.buckets == nil {
		h.buckets = map[string][]bucketSample{}
		h.counts = map[string]float64{}
		h.hasCnt = map[string]bool{}
	}
	switch suffix {
	case "bucket":
		le, rest, err := extractLE(labels)
		if err != nil {
			return err
		}
		h.buckets[rest] = append(h.buckets[rest], bucketSample{le: le, val: value})
	case "sum":
		// Sums carry no invariant the validator can check alone.
	case "count":
		h.counts[labels] = value
		h.hasCnt[labels] = true
	}
	return nil
}

func (h *histCheck) finish() error {
	for series, bs := range h.buckets {
		if len(bs) == 0 || bs[len(bs)-1].le != "+Inf" {
			return fmt.Errorf("series {%s} has no +Inf bucket", series)
		}
		prev := -1.0
		for _, b := range bs {
			if b.val < prev {
				return fmt.Errorf("series {%s}: bucket le=%q count %g below previous %g (not cumulative)", series, b.le, b.val, prev)
			}
			prev = b.val
		}
		if h.hasCnt[series] && h.counts[series] != bs[len(bs)-1].val {
			return fmt.Errorf("series {%s}: _count %g != +Inf bucket %g", series, h.counts[series], bs[len(bs)-1].val)
		}
	}
	for series := range h.hasCnt {
		if len(h.buckets[series]) == 0 {
			return fmt.Errorf("series {%s} has _count but no buckets", series)
		}
	}
	return nil
}

// extractLE removes the le label from a rendered label body, returning its
// value and the remaining body (the series identity).
func extractLE(body string) (le, rest string, err error) {
	parts := splitLabels(body)
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return "", "", fmt.Errorf("label %q has no =", p)
		}
		if k == "le" {
			le = strings.Trim(v, `"`)
			continue
		}
		out = append(out, p)
	}
	if le == "" {
		return "", "", fmt.Errorf("bucket sample without le label in {%s}", body)
	}
	sort.Strings(out)
	return le, strings.Join(out, ","), nil
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(body string) []string {
	var parts []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				parts = append(parts, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		parts = append(parts, body[start:])
	}
	return parts
}
