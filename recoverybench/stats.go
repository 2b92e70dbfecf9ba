package main

import (
	"math"
	"sort"
	"time"
)

// quantiles returns the n-1 cut points dividing values into n groups with
// the "exclusive" method of Python's statistics.quantiles (its default), so
// the spreads this benchmark prints match the ones Python computes from the
// saved result files. values need not be sorted; fewer than two values
// yield nil.
func quantiles(values []float64, n int) []float64 {
	ld := len(values)
	if ld < 2 || n < 1 {
		return nil
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out = append(out, (data[j-1]*(float64(n)-delta)+data[j]*delta)/float64(n))
	}
	return out
}

// median is statistics.median: the middle value, or the mean of the two
// middle values. It returns NaN for no values.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	h := len(data) / 2
	if len(data)%2 == 1 {
		return data[h]
	}
	return (data[h-1] + data[h]) / 2
}

// p90 is the 90th percentile: the ninth decile cut point. It is only
// reported when at least ten samples lie beyond it (see minTailSamples).
func p90(values []float64) float64 {
	if len(values) == 1 {
		return values[0]
	}
	q := quantiles(values, 10)
	if q == nil {
		return math.NaN()
	}
	return q[8]
}

// minTailSamples is the sample count at which a p90 has ten samples beyond
// it; the workloads keep measuring until their p90 series reach it.
const minTailSamples = 100

// quartiles returns the first quartile, median and third quartile.
func quartiles(values []float64) (q1, q2, q3 float64) {
	if len(values) == 1 {
		return values[0], values[0], values[0]
	}
	q := quantiles(values, 4)
	if q == nil {
		return math.NaN(), math.NaN(), math.NaN()
	}
	return q[0], q[1], q[2]
}

// relIQR is the spread a metric's bound limits: the distance between the
// first and third quartile as a share of the median.
func relIQR(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// secs converts durations to float seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// mean returns the arithmetic mean, 0 for no values.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
