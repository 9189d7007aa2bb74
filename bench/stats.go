package main

import (
	"bufio"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// percentile returns the q-quantile of vals by linear interpolation between
// closest ranks (NaN for no values).
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return sum(vals) / float64(len(vals))
}

func sum(vals []float64) float64 {
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total
}

// quartiles returns the first quartile, median and third quartile with the
// method of Python's statistics.quantiles(vals, n=4) (the "exclusive"
// method), so -repeat spreads match that tool's.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// parseProm reads a Prometheus text exposition into series → value, where
// a series is the metric name with its label set as printed.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// promSum totals every series of the named metric.
func promSum(m map[string]float64, name string) float64 {
	sum := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// promByLabel totals the named metric's series by the value of one label.
func promByLabel(m map[string]float64, name, label string) map[string]float64 {
	out := make(map[string]float64)
	prefix := label + `="`
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, name+"{")
		if !ok {
			continue
		}
		i := strings.Index(rest, prefix)
		if i < 0 {
			continue
		}
		val := rest[i+len(prefix):]
		if j := strings.IndexByte(val, '"'); j >= 0 {
			out[val[:j]] += v
		}
	}
	return out
}
