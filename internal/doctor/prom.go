// Package doctor turns a run's observability exhaust — Prometheus
// /metrics scrapes and Chrome-trace /trace.json dumps from any number
// of monitor endpoints — into a ranked bottleneck report: which stall
// cause dominates, per rank; which rank is the straggler; how often
// each epoch's barrier waited on an imbalanced load; and what the
// recovery machinery (failovers, partial fan-outs) cost. It is the consumer of the
// stall-attribution ledger (DESIGN.md §14) and is deliberately
// dependency-free so it can ingest saved files offline.
package doctor

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed Prometheus exposition line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Metrics holds parsed samples from one or more scrapes.
type Metrics struct {
	Samples []Sample
}

// ParseMetrics parses Prometheus text exposition format 0.0.4 (the
// format obs.Registry.WritePrometheus emits): comment lines are
// skipped, each sample line is `name{k="v",...} value` or `name value`.
// Unparseable lines fail loudly — a half-read scrape silently missing
// the one histogram that mattered would invert the report.
func ParseMetrics(r io.Reader) (*Metrics, error) {
	m := &Metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("doctor: metrics line %d: %w", lineNo, err)
		}
		m.Samples = append(m.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("doctor: reading metrics: %w", err)
	}
	return m, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{}
	rest := line
	if brace := strings.IndexByte(line, '{'); brace >= 0 {
		s.Name = line[:brace]
		end := strings.LastIndexByte(line, '}')
		if end < brace {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(line[brace+1 : end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(line[end+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return s, fmt.Errorf("malformed sample %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	// A timestamp may trail the value; the value is the first field.
	if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
		rest = rest[:sp]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses `k1="v1",k2="v2"`, honoring the exposition
// format's \\, \" and \n escapes in values.
func parseLabels(in string) (map[string]string, error) {
	labels := make(map[string]string)
	i := 0
	for i < len(in) {
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without value in %q", in)
		}
		key := strings.TrimSpace(in[i : i+eq])
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", in)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(in) {
				return nil, fmt.Errorf("unterminated label value in %q", in)
			}
			c := in[i]
			if c == '\\' && i+1 < len(in) {
				switch in[i+1] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(in[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		labels[key] = b.String()
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
	}
	return labels, nil
}

// Merge appends another scrape's samples (e.g. a second node's
// /metrics) into m.
func (m *Metrics) Merge(other *Metrics) {
	if other == nil {
		return
	}
	m.Samples = append(m.Samples, other.Samples...)
}

// matches reports whether the sample carries every key=value in want.
func (s *Sample) matches(name string, want map[string]string) bool {
	if s.Name != name {
		return false
	}
	for k, v := range want {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// Sum totals every sample named name whose labels include want (nil
// matches all). Counters and histogram _sum series from several nodes
// add naturally.
func (m *Metrics) Sum(name string, want map[string]string) float64 {
	total := 0.0
	for i := range m.Samples {
		if m.Samples[i].matches(name, want) {
			total += m.Samples[i].Value
		}
	}
	return total
}

// LabelValues returns the sorted distinct values of key across samples
// named name.
func (m *Metrics) LabelValues(name, key string) []string {
	seen := make(map[string]bool)
	for i := range m.Samples {
		if m.Samples[i].Name == name {
			if v, ok := m.Samples[i].Labels[key]; ok {
				seen[v] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Quantile estimates the q-quantile of the histogram family name from
// its cumulative name_bucket{le=...} series, summed over every label set
// (ranks, nodes, scrapes), interpolating linearly inside the bucket the
// rank falls in — what obs.Histogram.Quantile computes in-process. A rank
// in the +Inf bucket clamps to the last finite bound. ok is false when
// the family has no observations.
func (m *Metrics) Quantile(name string, q float64) (v float64, ok bool) {
	cum := make(map[float64]float64) // le -> observations <= le
	for i := range m.Samples {
		s := &m.Samples[i]
		if s.Name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64) // accepts "+Inf"
		if err != nil {
			continue
		}
		cum[le] += s.Value
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0, false
	}
	rank := q * cum[bounds[len(bounds)-1]]
	lower, below := 0.0, 0.0
	for _, le := range bounds {
		if math.IsInf(le, 1) {
			break
		}
		if cum[le] >= rank {
			if in := cum[le] - below; in > 0 {
				return lower + (le-lower)*(rank-below)/in, true
			}
			return le, true
		}
		lower, below = le, cum[le]
	}
	return lower, true
}
